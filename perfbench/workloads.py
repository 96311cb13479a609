"""The benchmark's workloads, each a set-up step plus a timed operation.

finspect functions are called through their module (``pipeline.train_models``),
never through names bound here, so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from finspect import pipeline
from finspect.dataset import load_manifest
from finspect.errors import FinspectError

CORPUS_SCRIPT = Path(__file__).resolve().with_name("corpus.py")


@dataclass
class Outcome:
    """What one operation did, for the output checks and the metrics."""

    attempted: int
    failed: int
    class_names: tuple[str, ...] = ()
    accuracy: float | None = None
    predictions: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # (image path, seconds) per query
    models: object = None


def query_pass(models, base_dir: Path, entries) -> Outcome:
    """Classify each image as ``finspect classify`` does, minus the JSON write."""
    out = Outcome(attempted=len(entries), failed=0, class_names=models.class_names)
    hits = 0
    for entry in entries:
        start = time.perf_counter()
        try:
            raw = (base_dir / entry["path"]).read_bytes()
            gray = pipeline.load_gray(raw, models.config)
            crop = pipeline.largest_shape(gray, models.config)
            final, _, _ = pipeline.classify_image(models, crop, pipeline.content_digest(raw))
        except FinspectError:
            out.failed += 1
            continue
        out.latencies.append((entry["path"], time.perf_counter() - start))
        predicted = models.class_names[final.predicted]
        hits += predicted == entry["label"]
        out.predictions.append({"path": entry["path"], "label": entry["label"],
                                "predicted": predicted,
                                "support": [float(f"{v:.17g}") for v in final.support]})
    out.accuracy = hits / len(entries)
    return out


class Workload:
    """Set-up writes a corpus from the seed; ``op`` is the timed operation.

    ``queries``, where defined, gives (models, base dir, manifest entries) for
    the query pass that follows each operation.
    """

    name: str
    trains_in_setup = False
    queries = None

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, out_dir: Path):
        return out_dir


class EvalP2N80(Workload):
    """`finspect synth --count 20` (ASCII P2, 96 px), then train plus resubstitution."""

    name = "eval-p2-n80"

    def generate_command(self, out_dir: Path) -> list[str]:
        return [sys.executable, "-m", "finspect.cli", "synth", "--out-dir", str(out_dir),
                "--count", "20", "--seed", str(self.seed)]

    def op(self, corpus_dir: Path) -> Outcome:
        models, report = pipeline.run_pipeline_from_manifest(corpus_dir / "manifest.json")
        return Outcome(attempted=report["n_images"] + len(report["failures"]),
                       failed=len(report["failures"]), class_names=models.class_names,
                       accuracy=report["final_accuracy"], predictions=report["predictions"],
                       models=models)

    def queries(self, corpus_dir: Path, outcome: Outcome):
        return outcome.models, corpus_dir, load_manifest(corpus_dir / "manifest.json")


@dataclass
class ClassifyState:
    models: object
    heldout_dir: Path
    heldout: list


class ClassifyP5At192(Workload):
    """Models trained on 4 x 10 P5 images at 192 px, saved and loaded in set-up;
    the operation classifies 4 x 25 held-out images one query at a time."""

    name = "classify-p5-192"
    trains_in_setup = True

    def generate_command(self, out_dir: Path) -> list[str]:
        return [sys.executable, str(CORPUS_SCRIPT), "--out-dir", str(out_dir),
                "--canvas", "192", "--seed", str(self.seed),
                "--sets", "train=10,heldout=25"]

    def prepare(self, out_dir: Path) -> ClassifyState:
        train_dir = out_dir / "train"
        entries = load_manifest(train_dir / "manifest.json")
        models, _, failures = pipeline.train_models(entries, pipeline.PipelineConfig(), seed=0,
                                                    base_dir=train_dir)
        if failures:
            raise RuntimeError(f"{len(failures)} of {len(entries)} training images failed")
        pipeline.save_models(models, out_dir / "models")
        heldout = load_manifest(out_dir / "heldout" / "manifest.json")
        return ClassifyState(pipeline.load_models(out_dir / "models"), out_dir / "heldout",
                             heldout)

    def op(self, state: ClassifyState) -> Outcome:
        return query_pass(state.models, state.heldout_dir, state.heldout)


WORKLOADS = {w.name: w for w in (EvalP2N80, ClassifyP5At192)}
