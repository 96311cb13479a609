"""The benchmark's span tracer still finds and reads every layer it hooks.

perfbench/tracing.py wraps finspect's functions by module and attribute name
and reads their arguments and results. A renamed function, or a changed
argument or result, leaves a layer metric empty without failing the
benchmark, so this runs one small eval, a save, a load and a classify under
every hook and checks that each hook was called and each metric has a value.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from finspect import pipeline  # noqa: E402
from finspect.preprocess import segment_image  # noqa: E402
from finspect.raster import encode_pgm  # noqa: E402
from finspect.synth import SyntheticShapeSpec, generate_synthetic  # noqa: E402

from tracing import HOOKS, Tracer, layer_values  # noqa: E402


@pytest.fixture
def corpus(tmp_path):
    entries = []
    for i, (kind, size) in enumerate([("disk", 8), ("disk", 9), ("triangle", 10),
                                      ("triangle", 11)]):
        img, label = generate_synthetic(SyntheticShapeSpec(kind, size, canvas=32, noise=0.01),
                                        rng_seed=i)
        (tmp_path / f"{i}.pgm").write_bytes(encode_pgm(img))
        entries.append({"path": f"{i}.pgm", "label": label})
    return tmp_path, entries


def test_every_hook_is_found_and_every_layer_metric_has_a_value(corpus, tmp_path):
    directory, entries = corpus
    config = pipeline.PipelineConfig(ann_hidden=4, ann_epochs=5)
    query = (directory / entries[0]["path"]).read_bytes()
    (directory / "manifest.json").write_text(json.dumps(entries))
    tracer = Tracer(HOOKS)
    tracer.install()
    try:
        models, _ = pipeline.run_pipeline_from_manifest(directory / "manifest.json", config)
        pipeline.save_models(models, tmp_path / "models")
        loaded = pipeline.load_models(tmp_path / "models")
        crop = pipeline.largest_shape(pipeline.load_gray(query, config), config)
        pipeline.classify_image(loaded, crop, pipeline.content_digest(query))
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    assert tracer.broken == set()
    values = layer_values(tracer)
    assert [name for name, value in values.items() if value is None] == []
    # a function held outside every module namespace (a default argument, a record's
    # field) escapes its hook: its counter then reads 0, not None
    _, calls = tracer.totals()
    assert [hook.name for hook in HOOKS if calls[hook.name] == 0] == []
    for name in ("svm.predict_calls", "ann.predict_calls", "gknn.classify_calls"):
        assert values[name] > 0, name

    segmented = [(directory / e["path"]).read_bytes() for e in entries] + [query]
    free = [segment_image(pipeline.load_gray(raw, config), median_side=config.median_window)
            .free.size for raw in segmented]
    assert values["preprocess.segment_calls"] == len(segmented)
    assert values["preprocess.random_walker_unknowns"] == sum(free) > 0
    # a stage that segment_image bypasses, or calls by a name bound elsewhere, would
    # leave its layer's time at 0
    for stage in ("median", "otsu", "seeds", "random_walker"):
        assert calls[f"preprocess.{stage}"] == values["preprocess.segment_calls"]
