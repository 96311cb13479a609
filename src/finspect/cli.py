"""Command-line entry point.

Exit codes: 0 success, 1 usage/parameter problems, 2 data problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dataset import load_manifest, save_manifest
from .errors import DataError, FinspectError, ParameterError, ShapeError
from .fusion import DecisionTemplates, check_profile, fuse
from .raster import GrayImage, encode_pgm
from .synth import SHAPE_CLASS, SyntheticShapeSpec, generate_synthetic


def _write_json(path, doc):
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _cmd_preprocess(args) -> int:
    from .pipeline import load_config, load_gray
    from .preprocess import (binarize, export_segmentation, median_filter, otsu_threshold,
                             segment_image)

    cfg = load_config(args.config)
    gray = load_gray(Path(args.input).read_bytes(), cfg)
    seg = segment_image(gray, median_side=cfg.median_window) if args.segment_dir else None
    # segmenting median-filters first, so its walker image is the filtered output
    filtered = median_filter(gray, cfg.median_window) if seg is None else seg.image
    if seg is not None:
        print(f"wrote segmentation to {export_segmentation(seg, args.segment_dir)}")
    if args.binarize:
        theta = otsu_threshold(filtered).theta
        out = GrayImage(binarize(filtered, theta).bits * np.uint8(255))
    else:
        out = filtered
    Path(args.output).write_bytes(encode_pgm(out))
    return 0


def _cmd_extract(args) -> int:
    from .pipeline import extract_one, largest_shape, load_config, load_gray

    cfg = load_config(args.config)
    gray = load_gray(Path(args.input).read_bytes(), cfg)
    if args.segment:
        gray = largest_shape(gray, cfg)
    fv = extract_one(gray, args.method, cfg)
    Path(args.output).write_text(fv.to_json())
    if args.dump_csv:
        lines = ["index,name,value"]
        lines += [f"{i},{name},{value:.17g}"
                  for i, (name, value) in enumerate(zip(fv.descriptor, fv.values))]
        Path(args.dump_csv).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_train(args) -> int:
    from .pipeline import load_config, save_models, train_models

    cfg = load_config(args.config)
    entries = load_manifest(args.manifest)
    models, prepared, failures = train_models(entries, cfg, seed=args.seed,
                                              base_dir=Path(args.manifest).parent)
    save_models(models, args.model_dir)
    print(f"trained on {len(prepared)} images ({len(failures)} failures) "
          f"-> {args.model_dir}")
    for f in failures:
        print(f"  failed {f['path']} at {f['stage']}: {f['error']}", file=sys.stderr)
    return 0


def _cmd_classify(args) -> int:
    from .pipeline import (classify_image, classify_segments, content_digest, largest_shape,
                           load_gray, load_models)

    cfg_models = load_models(args.model_dir)
    raw = Path(args.input).read_bytes()
    gray = load_gray(raw, cfg_models.config)
    digest = content_digest(raw)
    if args.per_segment:
        doc = {"segments": classify_segments(cfg_models, gray, digest),
               "class_names": list(cfg_models.class_names)}
    else:
        crop = largest_shape(gray, cfg_models.config)
        final, stage1, _ = classify_image(cfg_models, crop, digest)
        doc = {
            "predicted": cfg_models.class_names[final.predicted],
            "class_names": list(cfg_models.class_names),
            "final": final.to_dict(),
            "stage1": {ext: sup.to_dict()
                       for ext, sup in zip(cfg_models.config.extractors, stage1)},
        }
    _write_json(args.output, doc)
    print(json.dumps(doc.get("predicted", doc.get("segments"))))
    return 0


def _cmd_fuse(args) -> int:
    path = args.profile
    try:
        profile = np.asarray(json.loads(Path(path).read_text()), dtype=np.float64)
        path = args.templates
        tdoc = json.loads(Path(path).read_text())
        matrices, counts = np.asarray(tdoc["matrices"]), np.asarray(tdoc["counts"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed input file ({type(exc).__name__}: {exc})") from exc
    try:
        templates = DecisionTemplates(matrices, counts)
    except (DataError, ParameterError, ShapeError, TypeError, ValueError) as exc:
        raise DataError(f"{args.templates}: unusable templates ({exc})") from exc
    try:
        check_profile(profile)
    except (ParameterError, ShapeError) as exc:
        raise DataError(f"{args.profile}: unusable profile ({exc})") from exc
    if profile.shape != templates.matrices.shape[1:]:
        (rows, cols), (t_rows, t_cols) = profile.shape, templates.matrices.shape[1:]
        raise DataError(f"{args.profile}: a {rows}x{cols} profile does not match "
                        f"the {t_rows}x{t_cols} templates of {args.templates}")
    support = fuse(profile, templates)
    _write_json(args.output, support.to_dict())
    return 0


def _cmd_eval(args) -> int:
    from .pipeline import load_config, run_pipeline_from_manifest

    _, report = run_pipeline_from_manifest(args.manifest, load_config(args.config),
                                           seed=args.seed)
    _write_json(args.report, report)
    print(f"final fused accuracy {report['final_accuracy']:.3f} "
          f"on {report['n_images']} images")
    return 0


def _cmd_synth(args) -> int:
    kinds = args.kinds.split(",")
    for kind in kinds:
        if kind not in SHAPE_CLASS:
            raise ParameterError(f"unknown shape kind {kind!r}")
    # each kind names its images, so a repeated kind would overwrite them
    if len(set(kinds)) < len(kinds):
        raise ParameterError(f"shape kinds repeat: {args.kinds!r}")
    if args.count < 1:  # load_manifest rejects an empty manifest
        raise ParameterError(f"count must be at least 1, got {args.count}")
    if args.seed < 0:
        raise ParameterError(f"seed must be an integer >= 0, got {args.seed}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    entries = []
    base = args.size if args.size else args.canvas // 3
    for kind in kinds:
        for i in range(args.count):
            size = int(base * rng.uniform(0.7, 1.0))
            margin = max(args.canvas // 2 - size - 2, 0)
            shift = min(margin, args.canvas // 8)
            spec = SyntheticShapeSpec(
                kind=kind, size=size, canvas=args.canvas,
                translate=(int(rng.integers(-shift, shift + 1)),
                           int(rng.integers(-shift, shift + 1))),
                rotate_quarters=int(rng.integers(0, 4)),
                noise=args.noise)
            img, label = generate_synthetic(spec, rng_seed=int(rng.integers(2**32)))
            name = f"{kind}_{i:03d}.pgm"
            (out_dir / name).write_bytes(encode_pgm(img))
            entries.append({"path": name, "label": label})
    save_manifest(entries, out_dir / "manifest.json")
    print(f"wrote {len(entries)} images and manifest.json to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="finspect",
                                     description="shape classification toolkit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("preprocess", help="grayscale + median filter (+ optional extras)")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--binarize", action="store_true")
    p.add_argument("--segment-dir", default=None)
    p.add_argument("--config", default=None, help="JSON config path")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("extract", help="feature vector from an image")
    p.add_argument("--method", required=True, choices=("cmi", "gfd", "elm"))
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--dump-csv", default=None)
    p.add_argument("--segment", action="store_true",
                   help="extract from the largest segmented shape instead of the raw image")
    p.add_argument("--config", default=None, help="JSON config path")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="train classifiers + fusion templates from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="JSON config path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("classify", help="fused prediction for one image")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--per-segment", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("fuse", help="fuse a decision profile against templates")
    p.add_argument("--profile", required=True)
    p.add_argument("--templates", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("eval", help="train + resubstitution evaluation report")
    p.add_argument("--manifest", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="JSON config path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--kinds", default="disk,ellipse,triangle,fin_polygon")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--canvas", type=int, default=96)
    p.add_argument("--size", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "func", None) is None:
        parser.print_usage()
        return 1
    try:
        return args.func(args)
    except (ParameterError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FinspectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
