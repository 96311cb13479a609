"""Tests for the benchmark's own logic.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import finspect  # noqa: E402
from finspect import gknn  # noqa: E402
from finspect.dataset import LabeledSet, one_hot  # noqa: E402
from finspect.raster import decode_image, encode_pgm  # noqa: E402

from corpus import draw_images, encode_p5  # noqa: E402
from diff_predictions import differences  # noqa: E402
from run import bad_predictions  # noqa: E402
from tracing import (HOOKS, Hook, Tracer, exact_top_k, layer_values, recall,  # noqa: E402
                     self_times)


def test_self_time_subtracts_nested_children():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.inner", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, None, 0], ["a", 1.0, 4.0, 0, 0], ["b", 3.0, 5.0, 0, 0]]
    assert self_times(spans)[0] == pytest.approx(6.0)


def test_tracer_records_parents_and_restores_functions():
    original = gknn.gknn_classify
    hooks = [h for h in HOOKS if h.name.startswith("gknn.")]
    tracer = Tracer(hooks)
    tracer.install()
    try:
        assert finspect.gknn_classify is gknn.gknn_classify is not original
        rng = np.random.default_rng(0)
        data = LabeledSet(rng.normal(size=(12, 3)), one_hot(np.arange(12) % 3, 3))
        gknn.gknn_classify(rng.normal(size=3), data, 3, rng_seed=1)
    finally:
        tracer.uninstall()
    assert finspect.gknn_classify is gknn.gknn_classify is original
    names = [s[0] for s in tracer.spans]
    assert names == ["gknn.classify", "gknn.build_context", "gknn.evolve"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    values = layer_values(tracer)
    assert values["gknn.classify_calls"] == 1
    assert 0.0 <= values["gknn.recall"] <= 1.0


def test_recall_against_exact_top_k():
    fitness = np.array([0.1, 0.9, 0.5, 0.8, 0.2])
    assert exact_top_k(fitness, 2).tolist() == [1, 3]
    assert recall((1, 2), fitness, 2) == 0.5
    assert recall((3, 1), fitness, 2) == 1.0
    assert exact_top_k(np.full(3, 0.5), 2).tolist() == [0, 1]


def test_p5_writer_round_trips_the_p2_pixels():
    for _, img, _ in draw_images(count=2, canvas=48, seed=3):
        p5 = decode_image(encode_p5(img)).pixels
        p2 = decode_image(encode_pgm(img)).pixels
        assert np.array_equal(p5, p2)


def test_missing_hook_is_reported_absent():
    hooks = [Hook("svm.sweep", "finspect.svm", "no_such_kernel"),
             Hook("gone.module", "finspect.no_such_module", "f")]
    hooks += [h for h in HOOKS if h.name not in ("svm.sweep",)]
    tracer = Tracer(hooks)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == {"svm.sweep", "gone.module"}
    values = layer_values(tracer)
    assert values["svm.sweeps"] is None
    assert values["svm.train_s"] == 0.0


def test_output_check_flags_bad_supports():
    names = ("a", "b")
    good = {"path": "x", "label": "a", "predicted": "a", "support": [0.75, 0.25]}
    assert bad_predictions([good], names) == 0
    assert bad_predictions([dict(good, support=[0.75, 0.26])], names) == 1
    assert bad_predictions([dict(good, predicted="b")], names) == 1
    assert bad_predictions([dict(good, support=[float("nan"), 0.25])], names) == 1


def test_diff_tolerates_only_tiny_support_moves():
    old = [{"path": "x", "label": "a", "predicted": "a", "support": [0.75, 0.25]}]
    assert differences(old, [dict(old[0], support=[0.75 + 1e-13, 0.25])]) == []
    assert len(differences(old, [dict(old[0], support=[0.75 + 1e-11, 0.25])])) == 1
    assert len(differences(old, [dict(old[0], predicted="b")])) == 1
    assert len(differences(old, [])) == 1


def test_benchmark_json_lists_every_layer_metric():
    import json

    from tracing import LAYER_METRICS

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert listed == list(LAYER_METRICS) + [("trace.overhead_frac", "fraction", "lower")]
