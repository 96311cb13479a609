"""Span tracing of finspect's layers from outside the program.

A ``Tracer`` wraps public functions, found by module attribute, and records
one span per call: name, start, end, parent span and request id. Spans and
counters stay in memory until the benchmark writes them out. A layer's self
time is its span's duration minus the part of it that child spans cover.

A wrapper replaces every binding of the original function object in the
loaded ``finspect`` modules, so calls through ``from .x import y`` names are
traced too. A hook whose module or attribute no longer exists is recorded as
absent, and the layer metrics that need it are left out instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Hook:
    name: str                  # span name, "<layer>.<what>"
    module: str
    attr: str
    observe: Callable | None = None  # (counters, args, kwargs, result) -> None


def exact_top_k(fitness, k: int) -> np.ndarray:
    """Indices of the k fittest, ties to the lower index as in ``gknn._k_best``."""
    fitness = np.asarray(fitness, dtype=np.float64)
    return np.lexsort((np.arange(fitness.size), -fitness))[:k]


def recall(population, fitness, k: int) -> float:
    """Share of the exact top-k that the population contains."""
    return len(set(int(i) for i in population) & set(exact_top_k(fitness, k).tolist())) / k


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Tracer:
    def __init__(self, hooks):
        self.hooks = tuple(hooks)
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.counters: Counter = Counter()
        self.absent: set[str] = set()   # hooks whose function is gone
        self.broken: set[str] = set()   # hooks whose observer failed
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "finspect" or name.startswith("finspect."))]
        for hook in self.hooks:
            try:
                original = getattr(importlib.import_module(hook.module), hook.attr)
            except (ImportError, AttributeError):
                self.absent.add(hook.name)
                continue
            wrapper = self._wrap(hook, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, hook: Hook, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [hook.name, time.perf_counter(), None, stack[-1] if stack else None, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook.observe is not None and hook.name not in self.broken:
                try:
                    hook.observe(self.counters, args, kwargs, result)
                except Exception:  # a refactored signature must not stop the run
                    self.broken.add(hook.name)
            return result

        return wrapper

    def totals(self) -> tuple[dict, dict]:
        """(self seconds by span name, calls by span name)."""
        seconds, calls = defaultdict(float), Counter()
        for span, own in zip(self.spans, self_times(self.spans)):
            seconds[span[0]] += own
            calls[span[0]] += 1
        return seconds, calls


# ── finspect's layers ─────────────────────────────────────────────────────

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _decode(counters, args, kwargs, result):
    counters["raster.decode_bytes"] += len(_arg(args, kwargs, 0, "data"))


def _random_walker(counters, args, kwargs, result):
    img, seeds = _arg(args, kwargs, 0, "img"), _arg(args, kwargs, 1, "seeds")
    counters["preprocess.random_walker_unknowns"] += (
        img.pixels.size - sum(np.size(s) for s in seeds))


def _svm_train(counters, args, kwargs, result):
    counters["svm.converged"] += bool(result.converged)


def _ann_train(counters, args, kwargs, result):
    counters["ann.epochs"] += len(result.loss_trace)
    counters["ann.final_loss_sum"] += float(result.loss_trace[-1])


def _evolve(counters, args, kwargs, result):
    fitness, k = _arg(args, kwargs, 0, "fitness"), _arg(args, kwargs, 1, "k")
    counters["gknn.recall_sum"] += recall(result, fitness, k)
    counters["gknn.evolve_observed"] += 1


PIPELINE_SPANS = ("run_pipeline_from_manifest", "run_pipeline", "train_models",
                  "classify_image", "load_gray", "largest_shape", "extract_one")

HOOKS = (
    Hook("raster.decode", "finspect.raster", "decode_image", _decode),
    Hook("preprocess.median", "finspect.preprocess", "median_filter"),
    Hook("preprocess.otsu", "finspect.preprocess", "otsu_threshold"),
    Hook("preprocess.seeds", "finspect.preprocess", "derive_seeds"),
    Hook("preprocess.random_walker", "finspect.preprocess", "random_walker_segment",
         _random_walker),
    Hook("preprocess.segment", "finspect.preprocess", "segment_image"),
    Hook("features.cmi", "finspect.features.moments", "cmi_features"),
    Hook("features.gfd", "finspect.features.gfd", "gfd_features"),
    Hook("features.elm", "finspect.features.elm", "elm_features"),
    Hook("svm.train", "finspect.svm", "train_svm", _svm_train),
    Hook("svm.sweep", "finspect.svm", "svm_sweep_core"),
    Hook("svm.predict", "finspect.svm", "predict_proba"),
    Hook("gknn.classify", "finspect.gknn", "gknn_classify"),
    Hook("gknn.build_context", "finspect.gknn", "build_context"),
    Hook("gknn.evolve", "finspect.gknn", "evolve", _evolve),
    Hook("ann.train", "finspect.ann", "train", _ann_train),
    Hook("ann.predict", "finspect.ann", "predict_proba"),
    Hook("fusion.templates", "finspect.fusion", "compute_templates"),
    Hook("fusion.fuse", "finspect.fusion", "fuse"),
    Hook("pipeline.load_models", "finspect.pipeline", "load_models"),
) + tuple(Hook(f"pipeline.{name}", "finspect.pipeline", name) for name in PIPELINE_SPANS)

# (metric, unit, better) in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("raster.decode_s", "s", "lower"),
    ("raster.decode_calls", "count", "lower"),
    ("raster.decode_mb", "MB", "lower"),
    ("preprocess.median_s", "s", "lower"),
    ("preprocess.otsu_s", "s", "lower"),
    ("preprocess.seeds_s", "s", "lower"),
    ("preprocess.random_walker_s", "s", "lower"),
    ("preprocess.random_walker_unknowns", "count", "lower"),
    ("preprocess.segment_calls", "count", "lower"),
    ("features.cmi_s", "s", "lower"),
    ("features.gfd_s", "s", "lower"),
    ("features.elm_s", "s", "lower"),
    ("features.extract_calls", "count", "lower"),
    ("svm.train_s", "s", "lower"),
    ("svm.sweeps", "count", "lower"),
    ("svm.converged_frac", "fraction", "higher"),
    ("svm.predict_s", "s", "lower"),
    ("svm.predict_calls", "count", "lower"),
    ("gknn.classify_s", "s", "lower"),
    ("gknn.classify_calls", "count", "lower"),
    ("gknn.build_context_s", "s", "lower"),
    ("gknn.build_context_calls", "count", "lower"),
    ("gknn.evolve_s", "s", "lower"),
    ("gknn.recall", "fraction", "higher"),
    ("ann.train_s", "s", "lower"),
    ("ann.epochs", "count", "lower"),
    ("ann.final_loss", "nats", "lower"),
    ("ann.predict_s", "s", "lower"),
    ("ann.predict_calls", "count", "lower"),
    ("fusion.templates_s", "s", "lower"),
    ("fusion.fuse_s", "s", "lower"),
    ("fusion.fuse_calls", "count", "lower"),
    ("pipeline.load_models_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
)


def layer_values(tracer: Tracer) -> dict:
    """Value of every layer metric; None where the hook it needs is absent."""
    seconds, calls = tracer.totals()
    counters = tracer.counters

    def present(hook):
        return hook not in tracer.absent

    def self_s(hook, *inner):
        # inner spans belong to the same layer, so their self time counts too
        return sum(seconds[h] for h in (hook,) + inner) if present(hook) else None

    def count(hook):
        return calls[hook] if present(hook) else None

    def observed(hook, value):
        return value() if present(hook) and hook not in tracer.broken else None

    def share(hook, num, den):
        return observed(hook, lambda: counters[num] / den if den else None)

    return {
        "raster.decode_s": self_s("raster.decode"),
        "raster.decode_calls": count("raster.decode"),
        "raster.decode_mb": observed("raster.decode",
                                     lambda: counters["raster.decode_bytes"] / 1e6),
        "preprocess.median_s": self_s("preprocess.median"),
        "preprocess.otsu_s": self_s("preprocess.otsu"),
        "preprocess.seeds_s": self_s("preprocess.seeds"),
        "preprocess.random_walker_s": self_s("preprocess.random_walker"),
        "preprocess.random_walker_unknowns": observed(
            "preprocess.random_walker",
            lambda: counters["preprocess.random_walker_unknowns"]),
        "preprocess.segment_calls": count("preprocess.segment"),
        "features.cmi_s": self_s("features.cmi"),
        "features.gfd_s": self_s("features.gfd"),
        "features.elm_s": self_s("features.elm"),
        "features.extract_calls": count("pipeline.extract_one"),
        "svm.train_s": self_s("svm.train", "svm.sweep"),
        "svm.sweeps": count("svm.sweep"),
        "svm.converged_frac": share("svm.train", "svm.converged", calls["svm.train"]),
        "svm.predict_s": self_s("svm.predict"),
        "svm.predict_calls": count("svm.predict"),
        "gknn.classify_s": self_s("gknn.classify"),
        "gknn.classify_calls": count("gknn.classify"),
        "gknn.build_context_s": self_s("gknn.build_context"),
        "gknn.build_context_calls": count("gknn.build_context"),
        "gknn.evolve_s": self_s("gknn.evolve"),
        "gknn.recall": share("gknn.evolve", "gknn.recall_sum",
                             counters["gknn.evolve_observed"]),
        "ann.train_s": self_s("ann.train"),
        "ann.epochs": observed("ann.train", lambda: counters["ann.epochs"]),
        "ann.final_loss": share("ann.train", "ann.final_loss_sum", calls["ann.train"]),
        "ann.predict_s": self_s("ann.predict"),
        "ann.predict_calls": count("ann.predict"),
        "fusion.templates_s": self_s("fusion.templates"),
        "fusion.fuse_s": self_s("fusion.fuse"),
        "fusion.fuse_calls": count("fusion.fuse"),
        "pipeline.load_models_s": self_s("pipeline.load_models"),
        "pipeline.self_s": sum(seconds[f"pipeline.{name}"] for name in PIPELINE_SPANS),
    }
