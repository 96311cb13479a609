"""Synthetic corpora for the pipeline benchmark, written as binary P5 PGM.

The shape draws mirror ``finspect synth`` (same kinds, size, shift, rotation
and noise draws from one ``default_rng(seed)``), so a P5 corpus holds the same
shapes the CLI would write as ASCII P2. Pixels are quantised exactly as
``encode_pgm`` does, so decoding a P5 file gives the same pixels as decoding
the P2 file of the same image.

Run as a script it is the benchmark's fresh-process set-up step: it imports
finspect, generates each named set into its own sub-directory with a seed
derived from the workload seed, and writes a ``manifest.json`` per set::

    python3 perfbench/corpus.py --out-dir DIR --canvas 192 --seed 7 \\
        --sets train=10,heldout=25
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

KINDS = ("disk", "ellipse", "triangle", "fin_polygon")
NOISE = 0.01


def derive_seed(seed: int, name: str) -> int:
    """Independent 32-bit seed for the corpus called ``name`` of a workload seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{name}".encode()).digest()[:4], "big")


def encode_p5(img) -> bytes:
    """Binary PGM of a GrayImage, quantised to round(f * 255) like ``encode_pgm``."""
    samples = np.floor(img.pixels * 255.0 + 0.5).astype(np.uint8)
    return f"P5\n{img.width} {img.height}\n255\n".encode() + samples.tobytes()


def draw_images(count: int, canvas: int, seed: int):
    """Yield (file name, GrayImage, label) for ``count`` images of every kind."""
    from finspect.synth import SyntheticShapeSpec, generate_synthetic

    rng = np.random.default_rng(seed)
    base = canvas // 3
    for kind in KINDS:
        for i in range(count):
            size = int(base * rng.uniform(0.7, 1.0))
            shift = min(max(canvas // 2 - size - 2, 0), canvas // 8)
            spec = SyntheticShapeSpec(
                kind=kind, size=size, canvas=canvas,
                translate=(int(rng.integers(-shift, shift + 1)),
                           int(rng.integers(-shift, shift + 1))),
                rotate_quarters=int(rng.integers(0, 4)),
                noise=NOISE)
            img, label = generate_synthetic(spec, rng_seed=int(rng.integers(2**32)))
            yield f"{kind}_{i:03d}.pgm", img, label


def write_corpus(out_dir: Path, count: int, canvas: int, seed: int) -> None:
    from finspect.dataset import save_manifest

    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, img, label in draw_images(count, canvas, seed):
        (out_dir / name).write_bytes(encode_p5(img))
        entries.append({"path": name, "label": label})
    save_manifest(entries, out_dir / "manifest.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", required=True, type=Path)
    parser.add_argument("--canvas", required=True, type=int)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--sets", required=True,
                        help="comma-separated name=count pairs, count images per kind")
    args = parser.parse_args(argv)
    for item in args.sets.split(","):
        name, count = item.split("=")
        write_corpus(args.out_dir / name, int(count), args.canvas, derive_seed(args.seed, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
