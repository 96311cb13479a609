"""Layered benchmark of the finspect pipeline.

    python3 perfbench/run.py --workload eval-p2-n80 --seed 7 --seconds 40 --trace 0

Run from the repository root; finspect is imported from ``src/``. Inputs are
generated from ``--seed`` and finspect only sees the generated files. One
closed-loop client runs each operation after the previous one has finished.

``--trace 0`` measures the end-to-end metrics with nothing wrapped. Each run
makes at least three operations and keeps going for ``--seconds``; on eval,
a pass of queries follows each operation.

* ``op_s``: median wall time of one operation (an eval, or a pass over the
  100 held-out queries);
* ``query_p50_ms``, ``query_p90_ms``: latency of one query as ``finspect
  classify`` makes it (read, decode, segment, classify). Each image's
  latency is its mean over the run's passes; the percentiles are taken over
  the images (80 on eval, 100 on classify). Eval queries its own corpus
  with the models it trained;
* ``accuracy``: fused accuracy, resubstitution on eval, held-out on classify;
* ``setup_s``: median of three set-ups, each a fresh process that imports
  finspect and writes the corpus, plus, for classify, train, save and load;
* ``peak_rss_mb``: peak resident memory of the benchmark process.

``--trace 1`` is a separate run: one warm-up operation, then the same
operation with the layers wrapped (see tracing.py), which gives the per-layer
metrics. Untraced and traced operations then alternate, at least three of
each and for ``--seconds``; ``trace.overhead_frac`` is the ratio of their
median times, minus one.

Every output is checked: supports finite and summing to 1 within 1e-9, the
prediction equal to the support's argmax, and accuracy identical across the
repeats of a run. A failed check counts the operation's images as failed.
The last stdout line is the JSON result; the line before it holds details,
including the environment and the files written under ``perfbench/_work/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_REPEATS = 3
REPEATS = 3  # minimum operations, and query passes, per run
OVERHEAD_PAIRS = 3  # minimum untraced and traced operations for the overhead
SUPPORT_TOL = 1e-9
GENERATE_TIMEOUT_S = 120


def environment() -> dict:
    load = os.getloadavg()
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": load,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numba": has_numba,
    }


def bad_predictions(predictions, class_names) -> int:
    """Predictions whose support is not a finite distribution or whose label is not its argmax."""
    import numpy as np

    bad = 0
    for p in predictions:
        s = np.asarray(p["support"], dtype=np.float64)
        ok = (s.shape == (len(class_names),) and np.isfinite(s).all()
              and abs(s.sum() - 1.0) <= SUPPORT_TOL
              and p["predicted"] == class_names[int(np.argmax(s))])
        bad += not ok
    return bad


class Tally:
    """Attempted and failed items over a run, with the repeat-identity check."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.accuracy = None
        self.latencies: dict[str, list[float]] = {}
        self.predictions: list = []
        self.repeats: dict[str, list] = {}

    def add(self, kind: str, outcome, key) -> None:
        """Count an outcome; ``key`` must repeat exactly across outcomes of one kind."""
        failed = outcome.failed + bad_predictions(outcome.predictions, outcome.class_names)
        seen = self.repeats.setdefault(kind, [])
        if seen and key != seen[0]:
            failed = outcome.attempted
        seen.append(key)
        self.attempted += outcome.attempted
        self.failed += min(failed, outcome.attempted)
        for path, seconds in outcome.latencies:
            self.latencies.setdefault(path, []).append(seconds)
        if outcome.predictions and (kind == "op" or not self.predictions):
            self.predictions = outcome.predictions
        if self.accuracy is None:
            self.accuracy = outcome.accuracy


def set_up(workload, out_dir: Path) -> tuple[object, float]:
    start = time.perf_counter()
    subprocess.run(workload.generate_command(out_dir), check=True, timeout=GENERATE_TIMEOUT_S,
                   stdout=subprocess.DEVNULL,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                       filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))))
    state = workload.prepare(out_dir)
    return state, time.perf_counter() - start


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def add_query_pass(workload, state, outcome, tally: Tally) -> None:
    """Query every image of the workload's corpus once with the models it trained."""
    from workloads import query_pass

    models, base_dir, entries = workload.queries(state, outcome)
    queries = query_pass(models, base_dir, entries)
    tally.add("query", queries, queries.accuracy)


def untraced_run(workload, seconds: float, run_dir: Path) -> tuple[Tally, dict, dict]:
    tally, setups, ops = Tally(), [], []
    for i in range(SETUP_REPEATS):
        state, elapsed = set_up(workload, run_dir / f"setup{i}")
        setups.append(elapsed)
        if i:
            shutil.rmtree(run_dir / f"setup{i - 1}")
    # The host's speed swings by up to a third for seconds to minutes at a
    # time. Operations and query passes alternate, so the repeats of each
    # spread over the run, and each query image is timed by its mean over the
    # passes: a median or minimum of three passes jumps between fast and slow.
    start = time.perf_counter()
    while len(ops) < REPEATS or time.perf_counter() - start < seconds:
        outcome, elapsed = timed(workload.op, state)
        ops.append(elapsed)
        tally.add("op", outcome, outcome.accuracy)
        if workload.queries is not None:
            add_query_pass(workload, state, outcome, tally)
    per_image = [statistics.fmean(v) for v in tally.latencies.values()]
    every = [t for v in tally.latencies.values() for t in v]
    metrics = {
        "op_s": (statistics.median(ops), "s"),
        "query_p50_ms": (statistics.median(per_image) * 1e3, "ms"),
        "query_p90_ms": (statistics.quantiles(per_image, n=10)[8] * 1e3, "ms"),
        "accuracy": (tally.accuracy, "fraction"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {"setup_s": setups, "op_s": ops, "query_images": len(per_image),
               "query_samples": len(every),
               "every_query_p50_ms": statistics.median(every) * 1e3,
               "every_query_p90_ms": statistics.quantiles(every, n=10)[8] * 1e3}
    return tally, metrics, details


def traced_run(workload, seconds: float, run_dir: Path) -> tuple[Tally, dict, dict]:
    from finspect import pipeline
    from tracing import HOOKS, LAYER_METRICS, Tracer, layer_values

    tally = Tally()
    out_dir = run_dir / "setup0"
    state, _ = set_up(workload, out_dir)
    outcome = workload.op(state)  # warm-up, timed by neither side
    tally.add("op", outcome, outcome.accuracy)
    # The layer metrics come from the first traced operation only, so counts
    # are those of one operation.
    tracer = Tracer(HOOKS)
    tracer.install()
    try:
        if workload.trains_in_setup:
            tracer.request = "setup"
            state = workload.prepare(out_dir)
        tracer.request = "op"
        outcome, elapsed = timed(workload.op, state)
        if not workload.trains_in_setup:
            tracer.request = "load_models"
            pipeline.save_models(outcome.models, out_dir / "saved")
            pipeline.load_models(out_dir / "saved")
    finally:
        tracer.uninstall()
    tally.add("op", outcome, outcome.accuracy)
    traced, untraced = [elapsed], []
    # Untraced and traced operations alternate, so a swing in host speed
    # reaches both sides of trace.overhead_frac alike.
    start = time.perf_counter()
    while len(untraced) < OVERHEAD_PAIRS or time.perf_counter() - start < seconds:
        outcome, elapsed = timed(workload.op, state)
        untraced.append(elapsed)
        tally.add("op", outcome, outcome.accuracy)
        again = Tracer(HOOKS)
        again.install()
        try:
            outcome, elapsed = timed(workload.op, state)
        finally:
            again.uninstall()
        traced.append(elapsed)
        tally.add("op", outcome, outcome.accuracy)
    if workload.queries is not None:
        add_query_pass(workload, state, outcome, tally)
    values = layer_values(tracer)
    metrics = {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    details = {"untraced_op_s": untraced, "traced_op_s": traced,
               "overhead_pairs": len(untraced),
               "absent_hooks": sorted(tracer.absent), "broken_observers": sorted(tracer.broken),
               "spans": len(tracer.spans)}
    spans = {"spans": tracer.spans, "counters": dict(tracer.counters)}
    return tally, metrics, dict(details, _spans=spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="finspect layered pipeline benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "finspect" / "__init__.py").is_file():
        print(f"error: finspect sources not found under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        run = traced_run if args.trace else untraced_run
        tally, metrics, details = run(workload, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    out = WORK / "out"
    out.mkdir(exist_ok=True)
    stem = out / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    spans = details.pop("_spans", None)
    if spans is not None:
        stem.with_suffix(".spans.json").write_text(json.dumps(spans))
    dump = stem.with_suffix(".predictions.json")
    dump.write_text(json.dumps(tally.predictions, indent=1) + "\n")
    absent = sorted(name for name, (value, _) in metrics.items() if value is None)
    details.update(workload=workload.name, seed=args.seed, trace=args.trace,
                   environment=env, absent_metrics=absent, predictions=str(dump.relative_to(ROOT)),
                   repeats=tally.repeats)
    stem.with_suffix(".details.json").write_text(json.dumps(details, indent=1) + "\n")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if value is not None},
    }
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
