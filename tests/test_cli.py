import importlib
import importlib.metadata
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from finspect import pipeline as pipeline_mod
from finspect import preprocess as preprocess_mod
from finspect.cli import main
from finspect.dataset import load_manifest
from finspect.errors import DataError
from finspect.pipeline import classify_image, largest_shape, load_gray, load_models
from finspect.preprocess import (binarize, derive_seeds, median_filter, otsu_threshold,
                                 segment_image)
from finspect.raster import GrayImage, decode_image, encode_pgm

from test_preprocess import nonzero_crops


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_corpus")
    rc = main(["synth", "--out-dir", str(directory), "--kinds", "disk,triangle",
               "--count", "3", "--canvas", "64", "--seed", "5"])
    assert rc == 0
    return directory


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps({"ann": {"hidden": 8, "epochs": 60}}))
    return str(path)


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, corpus_dir, fast_config):
    directory = tmp_path_factory.mktemp("models")
    rc = main(["train", "--manifest", str(corpus_dir / "manifest.json"),
               "--model-dir", str(directory), "--config", fast_config])
    assert rc == 0
    return directory


class TestExitCodes:
    def test_help_returns_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "finspect" in capsys.readouterr().out

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        rc = main(["preprocess", "--input", str(tmp_path / "nope.pgm"),
                   "--output", str(tmp_path / "out.pgm")])
        assert rc == 2

    def test_corrupt_image_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\nxx")
        rc = main(["preprocess", "--input", str(bad),
                   "--output", str(tmp_path / "out.pgm")])
        assert rc == 2

    def test_bad_shape_kind_is_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "--out-dir", str(tmp_path), "--kinds", "hexagon"])
        assert rc == 1


class TestSynth:
    def test_manifest_and_images_valid(self, corpus_dir):
        entries = load_manifest(corpus_dir / "manifest.json")
        assert len(entries) == 6
        labels = {e["label"] for e in entries}
        assert labels == {"baby_shark", "other"}
        for e in entries:
            img = decode_image((corpus_dir / e["path"]).read_bytes())
            assert img.pixels.shape == (64, 64)

    def test_deterministic_for_seed(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(["synth", "--out-dir", str(tmp_path / sub), "--kinds", "disk",
                       "--count", "2", "--canvas", "64", "--seed", "9"])
            assert rc == 0
        for name in ("disk_000.pgm", "disk_001.pgm"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["--count", "-1"], "count must be at least 1"),
        (["--count", "0"], "count must be at least 1"),
        (["--kinds", "disk,disk", "--count", "1"], "shape kinds repeat"),
    ], ids=["count-negative", "count-zero", "kinds-repeat"])
    def test_output_load_manifest_rejects_is_usage_error(self, tmp_path, capsys, argv, message):
        # an empty manifest, or one listing an overwritten image twice, fails to load
        out = tmp_path / "corpus"
        rc = main(["synth", "--out-dir", str(out), "--canvas", "32"] + argv)
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestPreprocess:
    def test_writes_filtered_pgm(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "filtered.pgm"
        rc = main(["preprocess", "--input", str(corpus_dir / "disk_000.pgm"),
                   "--output", str(out)])
        assert rc == 0
        assert decode_image(out.read_bytes()).pixels.shape == (64, 64)

    def test_binarize_yields_two_levels(self, corpus_dir, tmp_path):
        out = tmp_path / "binary.pgm"
        rc = main(["preprocess", "--input", str(corpus_dir / "disk_000.pgm"),
                   "--output", str(out), "--binarize"])
        assert rc == 0
        values = np.unique(decode_image(out.read_bytes()).pixels)
        assert set(values).issubset({0.0, 1.0})

    def test_segment_sidecar_written(self, corpus_dir, tmp_path, capsys):
        out_dir = tmp_path / "segs"
        path = corpus_dir / "disk_000.pgm"
        rc = main(["preprocess", "--input", str(path),
                   "--output", str(tmp_path / "f.pgm"), "--segment-dir", str(out_dir)])
        assert rc == 0
        img = decode_image(path.read_bytes())
        smoothed = median_filter(img, 3)
        seed_count = len(derive_seeds(binarize(smoothed, otsu_threshold(smoothed).theta),
                                        smoothed.levels))
        records = json.loads((out_dir / "segments.json").read_text())["shapes"]
        assert [r["shape"] for r in records] == list(range(seed_count))  # background included
        oracle = nonzero_crops(smoothed, segment_image(img).labels, seed_count)
        for record, (bbox, count, pixels) in zip(records, oracle):
            assert record["bbox"] == [int(v) for v in bbox] and record["pixel_count"] == count
            expected = encode_pgm(GrayImage.from_pixels(pixels))
            assert (out_dir / record["file"]).read_bytes() == expected

    @pytest.mark.parametrize("extra", [[], ["--binarize"]])
    def test_segmenting_filters_once(self, corpus_dir, tmp_path, monkeypatch, extra):
        path = corpus_dir / "disk_000.pgm"
        plain = tmp_path / "plain.pgm"
        assert main(["preprocess", "--input", str(path), "--output", str(plain)] + extra) == 0
        sides = []

        def counted(img, side=3):
            sides.append(side)
            return median_filter(img, side)

        monkeypatch.setattr(preprocess_mod, "median_filter", counted)
        out = tmp_path / "segmented.pgm"
        rc = main(["preprocess", "--input", str(path), "--output", str(out),
                   "--segment-dir", str(tmp_path / "segs")] + extra)
        assert rc == 0
        assert sides == [3]
        assert out.read_bytes() == plain.read_bytes()


class TestExtract:
    def test_json_and_csv_outputs(self, corpus_dir, tmp_path):
        out = tmp_path / "features.json"
        csv = tmp_path / "features.csv"
        rc = main(["extract", "--method", "gfd", "--input",
                   str(corpus_dir / "triangle_000.pgm"), "--output", str(out),
                   "--dump-csv", str(csv), "--segment"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["values"]) == 36
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "index,name,value"
        assert len(lines) == 37

    def test_unknown_method_is_usage_error(self, corpus_dir, tmp_path, capsys):
        rc = main(["extract", "--method", "sift", "--input",
                   str(corpus_dir / "disk_000.pgm"), "--output", str(tmp_path / "x.json")])
        assert rc == 1


    def test_header_larger_than_its_payload_is_data_error(self, tmp_path, capsys):
        # a billion by a billion over three samples: refused as truncated, nothing allocated
        path = tmp_path / "huge.pgm"
        path.write_bytes(b"P2\n1000000000 1000000000\n255\n1 2 3\n")
        out = tmp_path / "x.json"
        rc = main(["extract", "--method", "cmi", "--input", str(path), "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == ("error: truncated payload: expected 1000000000000000000 samples, "
                       "got 3 (byte 35)\n")
        assert not out.exists()

def edited(change):
    """A tamper function: parse pipeline.json, apply ``change`` in place, write it back."""
    def tamper(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return tamper


CLASS_NAMES_RULE = "class_names must be 2 or more distinct catalog names, in catalog order"


def record(doc, ext, clf=None):
    """A family's record in a parsed pipeline.json, or one of its classifiers' records."""
    family = doc["families"][ext]
    return family if clf is None else family["models"][clf]


def drop_ann_input(doc):
    """Consistent in itself, but one input fewer than the family's mean gives."""
    ann = record(doc, "elm", "ann")
    ann["layers"][0] -= 1
    ann["weights"][0] = [row[:-1] for row in ann["weights"][0]]


def write_old_layout(directory):
    """Rewrite a saved model directory into the layout of older releases: scalers,
    stage-1 templates and gknn rows at the top of pipeline.json, and each ann and
    svm model in an ann_<ext>.json or svm_<ext>.json of its own."""
    path = directory / "pipeline.json"
    meta = json.loads(path.read_text())
    families = meta.pop("families")
    meta["scalers"] = {ext: {"mean": f["mean"], "std": f["std"]} for ext, f in families.items()}
    meta["stage1_templates"] = {ext: f["templates"] for ext, f in families.items()}
    meta["gknn"] = {ext: f["models"]["gknn"] for ext, f in families.items()}
    path.write_text(json.dumps(meta))
    for ext, family in families.items():
        (directory / f"ann_{ext}.json").write_text(json.dumps(family["models"]["ann"]))
        (directory / f"svm_{ext}.json").write_text(json.dumps(
            {**family["models"]["svm"], "A": 1.0, "kernel": "linear"}))


class TestTrainClassifyEval:
    def test_model_artifacts_exist(self, model_dir):
        assert [p.name for p in model_dir.iterdir()] == ["pipeline.json"]
        meta = json.loads((model_dir / "pipeline.json").read_text())
        assert set(meta["families"]) == {"cmi", "gfd", "elm"}
        for family in meta["families"].values():
            assert set(family) == {"mean", "std", "templates", "models"}
            assert set(family["models"]) == {"ann", "gknn", "svm"}

    def test_classify_whole_image(self, corpus_dir, model_dir, tmp_path, capsys):
        out = tmp_path / "decision.json"
        rc = main(["classify", "--model-dir", str(model_dir),
                   "--input", str(corpus_dir / "disk_001.pgm"), "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["predicted"] in doc["class_names"]
        assert set(doc["stage1"]) == {"cmi", "gfd", "elm"}
        assert sum(doc["final"]["support"]) == pytest.approx(1.0)

    def test_classify_per_segment(self, corpus_dir, model_dir, tmp_path, capsys):
        out = tmp_path / "segments.json"
        rc = main(["classify", "--model-dir", str(model_dir),
                   "--input", str(corpus_dir / "triangle_002.pgm"),
                   "--output", str(out), "--per-segment"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["segments"]) >= 1
        assert doc["segments"][0]["predicted"] in doc["class_names"]

    @pytest.mark.parametrize("tamper, detail", [
        (edited(lambda d: record(d, "cmi", "svm").pop("converged")), "'converged'"),
        (lambda text: text[:text.index('"ann"', text.index('"families"')) + 40],
         "JSONDecodeError"),
        (edited(lambda d: d.pop("families")), "'families'"),
        (edited(lambda d: d.update(families=[])), "TypeError"),
        (edited(lambda d: d["families"].pop("cmi")), "'cmi'"),
        (edited(lambda d: d["config"].update(gfd=[])), "'gfd' must be an object"),
        (edited(lambda d: record(d, "cmi")["models"].update(svm={  # the dual form, not read
            "eta": [[0.5, -0.5], [-0.5, 0.5]], "A": 1.0, "kernel": "linear",
            "inputs": [[1.0] * 4, [-1.0] * 4], "labels": [0, 1], "converged": True})),
         "KeyError: 'weights'"),
        (edited(lambda d: record(d, "cmi", "svm")["weights"].append(
            [0.0] * len(record(d, "cmi", "svm")["weights"][0]))),
         "families[cmi].models[svm] (input dimension, class count)"),
        (edited(lambda d: [row.append(0.0) for row in record(d, "gfd", "svm")["weights"]]),
         "families[gfd].models[svm] (input dimension, class count)"),
        (edited(drop_ann_input), "families[elm].models[ann] (input dimension, class count)"),
        (edited(lambda d: record(d, "gfd")["std"].pop()), "families[gfd].std has shape"),
        (edited(lambda d: record(d, "elm").update(mean=[record(d, "elm")["mean"]])),
         "families[elm].mean has shape"),
        (edited(lambda d: [row.append(0.0) for row in record(d, "cmi", "gknn")["inputs"]]),
         "families[cmi].models[gknn] (input dimension, class count)"),
        (edited(lambda d: [row.append(0.0) for row in record(d, "gfd", "gknn")["targets"]]),
         "families[gfd].models[gknn] (input dimension, class count)"),
        (edited(lambda d: [m.pop() for m in record(d, "elm")["templates"]["matrices"]]),
         "families[elm].templates has shape"),
        (edited(lambda d: [t.pop() for t in d["stage2_templates"].values()]),
         "stage2_templates has shape"),
        (edited(lambda d: d.update(seed=str(d["seed"]))), "seed must be an integer"),
        (edited(lambda d: d.update(seed=-1)), "seed must be an integer >= 0"),
        (edited(lambda d: record(d, "elm")["models"].pop("svm")), "KeyError: 'svm'"),
        (edited(lambda d: record(d, "gfd", "svm")["weights"][0].__setitem__(0, float("nan"))),
         "DataError: weights must be finite"),
        (edited(lambda d: record(d, "cmi", "ann")["weights"][0][0].__setitem__(0, float("nan"))),
         "DataError: layer 1 weights and biases must be finite"),
        (edited(lambda d: record(d, "gfd", "ann")["biases"][1].__setitem__(0, float("inf"))),
         "DataError: layer 2 weights and biases must be finite"),
        (edited(lambda d: record(d, "elm", "gknn")["inputs"][0].__setitem__(0, float("nan"))),
         "DataError: inputs must be finite"),
        (edited(lambda d: record(d, "cmi")["templates"]["matrices"][0][0].__setitem__(
            0, float("nan"))), "DataError: template matrices must be finite"),
        (edited(lambda d: d["stage2_templates"]["matrices"][1][0].__setitem__(1, float("nan"))),
         "DataError: template matrices must be finite"),
        (edited(lambda d: record(d, "cmi")["templates"]["matrices"][0].__setitem__(
            0, [5.0, -4.0])), "template entries must lie in [0, 1]"),
        (edited(lambda d: record(d, "gfd")["mean"].__setitem__(0, float("nan"))),
         "DataError: mean and std must be finite, with every std > 0"),
        (edited(lambda d: record(d, "elm")["std"].__setitem__(0, float("nan"))),
         "DataError: mean and std must be finite, with every std > 0"),
        (edited(lambda d: record(d, "cmi")["std"].__setitem__(0, 0.0)),
         "DataError: mean and std must be finite, with every std > 0"),
        (edited(lambda d: d["config"].update(extractors={"cmi": 0})),
         "config key 'extractors' has a value of the wrong type"),
        (edited(lambda d: d.update(class_names="abcd")), CLASS_NAMES_RULE),
        (edited(lambda d: d.update(class_names=["x", "y", "z", "w"])), CLASS_NAMES_RULE),
        (edited(lambda d: d.update(
            class_names=["baby_shark", "baby_shark", "other", "shark_school"])), CLASS_NAMES_RULE),
        (edited(lambda d: d.update(class_names=d["class_names"][1::-1] + d["class_names"][2:])),
         CLASS_NAMES_RULE),
        (edited(lambda d: d["config"]["cmi"].update(basis=[])),
         "cmi.basis must hold at least one moment product"),
        (edited(lambda d: d["config"]["gknn"].update(k=13)),
         "families[cmi].models[gknn] holds 6 rows, fewer than gknn.k = 13"),
        (edited(lambda d: d["config"]["gknn"].update(k=0)), "gknn.k must be an integer >= 1, got 0"),
    ], ids=["svm-missing-key", "ann-truncated", "pipeline-missing-families",
            "pipeline-families-not-object", "pipeline-families-missing-extractor",
            "pipeline-config-gfd-not-object", "svm-old-dual-form", "svm-extra-weight-row",
            "svm-extra-class", "ann-input-dimension", "pipeline-family-std-length",
            "pipeline-family-mean-not-a-vector", "pipeline-gknn-inputs-dimension",
            "pipeline-gknn-targets-classes", "pipeline-stage1-template-rows",
            "pipeline-stage2-template-classes", "pipeline-seed-not-integer",
            "pipeline-seed-negative",
            "configured-classifier-missing", "svm-weight-nan", "ann-weight-nan",
            "ann-bias-inf", "gknn-row-nan", "stage1-template-nan", "stage2-template-nan",
            "stage1-template-row-out-of-range",
            "family-mean-nan", "family-std-nan", "family-std-zero",
            "pipeline-config-extractors-an-object", "class-names-a-string",
            "class-names-not-in-catalog", "class-names-repeated", "class-names-swapped",
            "pipeline-config-basis-empty", "pipeline-config-gknn-k-above-the-rows",
            "pipeline-config-gknn-k-zero"])
    def test_classify_malformed_model_file_is_data_error(self, corpus_dir, model_dir, tmp_path,
                                                         capsys, tamper, detail):
        tampered = tmp_path / "models"
        shutil.copytree(model_dir, tampered)
        path = tampered / "pipeline.json"
        path.write_text(tamper(path.read_text()))
        with pytest.raises(DataError, match="pipeline.json") as caught:
            load_models(tampered)
        assert detail in str(caught.value)
        rc = main(["classify", "--model-dir", str(tampered),
                   "--input", str(corpus_dir / "disk_001.pgm"),
                   "--output", str(tmp_path / "decision.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "pipeline.json" in err and detail in err
        assert "Traceback" not in err
        assert not (tmp_path / "decision.json").exists()

    @pytest.mark.parametrize("tamper, detail", [
        (edited(lambda d: d["config"]["cmi"].update(basis=[[[0, 2, 1], [2, 0, 1]]])),
         "families[cmi] holds 6 features, but the model's config gives cmi 1"),
        (edited(lambda d: d["config"]["gfd"].update(radial=2)),
         "families[gfd] holds 36 features, but the model's config gives gfd 18"),
    ], ids=["cmi-basis-shorter", "gfd-radial-smaller"])
    def test_classify_config_of_another_feature_length_is_data_error(
            self, corpus_dir, model_dir, tmp_path, capsys, tamper, detail):
        # each record is consistent in itself, so the model loads; the first query fails
        tampered = tmp_path / "models"
        shutil.copytree(model_dir, tampered)
        path = tampered / "pipeline.json"
        path.write_text(tamper(path.read_text()))
        models = load_models(tampered)
        query = corpus_dir / "disk_001.pgm"
        crop = largest_shape(load_gray(query.read_bytes(), models.config), models.config)
        with pytest.raises(DataError) as caught:
            classify_image(models, crop, 0)
        assert detail in str(caught.value)
        rc = main(["classify", "--model-dir", str(tampered), "--input", str(query),
                   "--output", str(tmp_path / "decision.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and detail in err and "Traceback" not in err
        assert not (tmp_path / "decision.json").exists()

    def test_directory_without_a_model_file_is_data_error(self, corpus_dir, tmp_path, capsys):
        with pytest.raises(DataError, match="pipeline.json: cannot read model file"):
            load_models(tmp_path)
        rc = main(["classify", "--model-dir", str(tmp_path),
                   "--input", str(corpus_dir / "disk_001.pgm"),
                   "--output", str(tmp_path / "decision.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cannot read model file" in err
        assert not (tmp_path / "decision.json").exists()

    def test_directory_of_an_older_release_is_data_error(self, corpus_dir, model_dir, tmp_path,
                                                         capsys, fast_config):
        def classify(models, out):
            return main(["classify", "--model-dir", str(models),
                         "--input", str(corpus_dir / "disk_001.pgm"), "--output", str(out)])

        old = tmp_path / "models"
        shutil.copytree(model_dir, old)
        write_old_layout(old)
        with pytest.raises(DataError, match="pipeline.json"):
            load_models(old)
        assert classify(old, tmp_path / "decision.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(old / "pipeline.json") in err
        assert not (tmp_path / "decision.json").exists()
        # retraining into the directory mends it; the old per-classifier files are ignored
        assert main(["train", "--manifest", str(corpus_dir / "manifest.json"),
                     "--model-dir", str(old), "--config", fast_config]) == 0
        assert (old / "svm_cmi.json").exists()
        assert classify(old, tmp_path / "decision.json") == 0
        assert classify(model_dir, tmp_path / "reference.json") == 0
        assert ((tmp_path / "decision.json").read_text()
                == (tmp_path / "reference.json").read_text())

    def test_classify_image_smaller_than_median_window_is_data_error(self, model_dir, tmp_path,
                                                                      capsys):
        tiny = tmp_path / "tiny.pgm"
        tiny.write_bytes(b"P5\n2 2\n255\n\x00\xff\xff\x00")
        rc = main(["classify", "--model-dir", str(model_dir), "--input", str(tiny),
                   "--output", str(tmp_path / "decision.json")])
        assert rc == 2
        assert "exceeds image extent" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"median_window": 4}, "median window side must be odd"),
        ({"gfd": {"radial": 0}}, "frequency counts must be at least 1"),
        ({"svm": {"C": 10}, "ann": {"hiden": 4}}, "unknown config key 'svm.C'"),
        ({"median_window": "abc"}, "config key 'median_window' has a value of the wrong type"),
        ("{", "config.json: config is not valid JSON"),
        ({"extractors": 5}, "config key 'extractors' has a value of the wrong type"),
        ({"cmi": {"basis": [[["2", 0, 1]]]}}, "config key 'cmi.basis' has a value of the wrong"),
        ({"cmi": {"basis": [[[-1, 1, 1]]]}}, "moment orders must be nonnegative, got (-1, 1)"),
        ({"median_window": 3.7}, "config key 'median_window' has a value of the wrong type"),
        ({"svm": {"max_iter": 2.9}}, "config key 'svm.max_iter' has a value of the wrong type"),
        ({"ann": {"epochs": True}}, "config key 'ann.epochs' has a value of the wrong type"),
        ({"gknn": {"k": "3"}}, "config key 'gknn.k' has a value of the wrong type"),
        ({"ann": {"beta": "0.5"}}, "config key 'ann.beta' has a value of the wrong type"),
        ({"grayscale": {"alpha": True}},
         "config key 'grayscale.alpha' has a value of the wrong type"),
        ({"classifiers": ["ann", "ann"]}, "classifiers must be a nonempty subset"),
        ({"extractors": {"cmi": 0}}, "config key 'extractors' has a value of the wrong type"),
        ({"classifiers": "svm"}, "config key 'classifiers' has a value of the wrong type"),
        ({"svm": {"A": 10**400}}, "config key 'svm.A' has a value of the wrong type"),
        ({"cmi": {"basis": [[[1.5, 1.5, 1]]]}, "extractors": ["cmi"]},
         "moment orders must be integers, got (1.5, 1.5)"),
        ({"cmi": {"basis": [[[2, 0, True], [0, 2, True]]]}},
         "config key 'cmi.basis' has a value of the wrong type"),
        ({"cmi": {"basis": [[[1, 1, float("inf")]]]}},
         "moment exponents must be finite numbers, got inf"),
        ({"cmi": {"basis": []}, "extractors": ["cmi"]},
         "cmi.basis must hold at least one moment product"),
        ({"gknn": {"k": 0}}, "gknn.k must be an integer >= 1, got 0"),
    ], ids=["even-median-window", "zero-gfd-radial", "unknown-key", "value-not-a-number",
            "not-json", "extractors-not-a-list", "basis-order-not-a-number", "basis-order-negative",
            "integer-key-fractional", "nested-integer-key-fractional", "integer-key-boolean",
            "integer-key-string", "float-key-string", "float-key-boolean",
            "classifier-repeated", "extractors-an-object", "classifiers-a-string",
            "svm-A-overflows", "basis-order-fractional", "basis-exponent-boolean",
            "basis-exponent-infinite", "basis-empty", "gknn-k-zero"])
    def test_bad_config_is_usage_error_with_its_own_message(self, corpus_dir, tmp_path, capsys,
                                                            doc, message):
        config = tmp_path / "config.json"
        config.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        for command in (["train", "--model-dir", str(tmp_path / "models")],
                        ["eval", "--report", str(tmp_path / "report.json")]):
            rc = main([*command, "--manifest", str(corpus_dir / "manifest.json"),
                       "--config", str(config)])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not (tmp_path / "models").exists() and not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command, flag", [
        ("classify", ["--seed", "3"]), ("classify", ["--config", "x.json"]),
        ("synth", ["--config", "x.json"]),
    ])
    def test_flags_a_command_does_not_read_are_usage_errors(self, corpus_dir, model_dir,
                                                             tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        if command == "classify":
            argv = ["classify", "--model-dir", str(model_dir),
                    "--input", str(corpus_dir / "disk_001.pgm"), "--output", str(out)]
        else:
            argv = ["synth", "--out-dir", str(out), "--count", "1", "--canvas", "32"]
        assert main(argv + flag) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "synth"])
    def test_negative_seed_is_usage_error(self, corpus_dir, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = {"train": ["--manifest", str(corpus_dir / "manifest.json"), "--model-dir", str(out)],
                "eval": ["--manifest", str(corpus_dir / "manifest.json"), "--report", str(out)],
                "synth": ["--out-dir", str(out), "--count", "1", "--canvas", "32"]}[command]
        assert main([command, *argv, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed must be an integer >= 0" in err
        assert "Traceback" not in err and not out.exists()

    def test_train_rejects_zero_svm_budget(self, corpus_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ann": {"hidden": 4, "epochs": 2}, "svm": {"max_iter": 0}}))
        rc = main(["train", "--manifest", str(corpus_dir / "manifest.json"),
                   "--model-dir", str(tmp_path / "models"), "--config", str(config)])
        assert rc == 1
        assert "max_iter" in capsys.readouterr().err
        assert not (tmp_path / "models").exists()

    def test_retrain_smaller_ensemble_leaves_only_its_classifiers(self, corpus_dir, tmp_path,
                                                                  capsys):
        models = tmp_path / "models"
        manifest = str(corpus_dir / "manifest.json")

        def saved_classifiers():
            assert [p.name for p in models.iterdir()] == ["pipeline.json"]
            meta = json.loads((models / "pipeline.json").read_text())
            return {ext: list(family["models"]) for ext, family in meta["families"].items()}

        assert main(["train", "--manifest", manifest, "--model-dir", str(models)]) == 0
        assert saved_classifiers() == {ext: ["ann", "gknn", "svm"] for ext in ("cmi", "elm", "gfd")}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"classifiers": ["gknn"]}))
        assert main(["train", "--manifest", manifest, "--model-dir", str(models),
                     "--config", str(config)]) == 0
        assert saved_classifiers() == {ext: ["gknn"] for ext in ("cmi", "elm", "gfd")}
        rc = main(["classify", "--model-dir", str(models),
                   "--input", str(corpus_dir / "disk_001.pgm"),
                   "--output", str(tmp_path / "decision.json")])
        assert rc == 0
        decision = json.loads((tmp_path / "decision.json").read_text())
        assert decision["predicted"] in decision["class_names"]
        assert list(load_models(models).families["cmi"].models) == ["gknn"]

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("text, message", [
        ("[{", "manifest is not valid JSON"),
        (json.dumps([{"path": ["a.pgm"], "label": "other"}]), "is not a string"),
    ], ids=["not-json", "path-not-a-string"])
    def test_malformed_manifest_is_usage_error(self, tmp_path, capsys, command, text, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        output = ["--model-dir", str(tmp_path / "models")] if command == "train" else [
            "--report", str(tmp_path / "report.json")]
        assert main([command, "--manifest", str(manifest), *output]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(manifest) in err and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "models").exists() and not (tmp_path / "report.json").exists()

    def test_eval_report_fields(self, corpus_dir, fast_config, tmp_path, capsys, monkeypatch):
        # eval is the library's manifest entry point
        manifests = []
        run = pipeline_mod.run_pipeline_from_manifest

        def spy(path, *args, **kw):
            manifests.append(path)
            return run(path, *args, **kw)

        monkeypatch.setattr(pipeline_mod, "run_pipeline_from_manifest", spy)
        report_path = tmp_path / "report.json"
        rc = main(["eval", "--manifest", str(corpus_dir / "manifest.json"),
                   "--report", str(report_path), "--config", fast_config])
        assert rc == 0
        assert manifests == [str(corpus_dir / "manifest.json")]
        report = json.loads(report_path.read_text())
        for key in ("final_accuracy", "final_confusion", "per_pair_confusion",
                    "per_extractor_fused_accuracy", "per_class_rates", "predictions"):
            assert key in report
        assert report["svm_converged"] == {"cmi": True, "gfd": True, "elm": True}
        assert "accuracy" in capsys.readouterr().out

    def test_eval_on_p6_copies_gives_the_pgm_labels(self, corpus_dir, fast_config, tmp_path):
        rgb_dir = tmp_path / "rgb"
        rgb_dir.mkdir()
        entries = load_manifest(corpus_dir / "manifest.json")
        for entry in entries:
            img = decode_image((corpus_dir / entry["path"]).read_bytes())
            levels = np.repeat(img.levels[:, :, None], 3, axis=2)
            entry["path"] = entry["path"].replace(".pgm", ".ppm")
            (rgb_dir / entry["path"]).write_bytes(
                f"P6 {img.width} {img.height} 255\n".encode() + levels.tobytes())
        (rgb_dir / "manifest.json").write_text(json.dumps(entries))
        labels = []
        for directory in (corpus_dir, rgb_dir):
            report_path = tmp_path / f"{directory.name}.json"
            assert main(["eval", "--manifest", str(directory / "manifest.json"),
                         "--report", str(report_path), "--config", fast_config]) == 0
            report = json.loads(report_path.read_text())
            assert report["n_images"] == len(entries)
            labels.append(sorted((Path(p["path"]).stem, p["predicted"])
                                 for p in report["predictions"]))
        assert labels[0] == labels[1]

    def test_train_prints_each_failure_on_stderr(self, corpus_dir, fast_config, tmp_path,
                                                 capsys):
        shutil.copytree(corpus_dir, tmp_path / "corpus")
        entries = load_manifest(corpus_dir / "manifest.json")
        (tmp_path / "corpus" / "bad.pgm").write_bytes(b"P5\n4 4\n255\nxx")
        entries += [{"path": "bad.pgm", "label": "other"},
                    {"path": "missing.pgm", "label": "other"}]
        (tmp_path / "corpus" / "manifest.json").write_text(json.dumps(entries))
        rc = main(["train", "--manifest", str(tmp_path / "corpus" / "manifest.json"),
                   "--model-dir", str(tmp_path / "models"), "--config", fast_config])
        assert rc == 0
        out, err = capsys.readouterr()
        assert "(2 failures)" in out
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("  failed bad.pgm at preprocess: truncated payload")
        assert lines[1].startswith("  failed missing.pgm at read: ")

    @pytest.mark.parametrize("where", ["config", "model-dir"])
    def test_grayscale_mu_is_an_unknown_key(self, corpus_dir, model_dir, tmp_path, capsys,
                                            where):
        # grayscale.mu was removed: 255 was its default and 1 gave the same pixels
        message = "unknown config key 'grayscale.mu'"
        if where == "config":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"grayscale": {"mu": 255}}))
            rc = main(["train", "--manifest", str(corpus_dir / "manifest.json"),
                       "--model-dir", str(tmp_path / "models"), "--config", str(config)])
            assert rc == 1
        else:
            models = tmp_path / "models"
            shutil.copytree(model_dir, models)
            meta = json.loads((models / "pipeline.json").read_text())
            meta["config"]["grayscale"]["mu"] = 255
            (models / "pipeline.json").write_text(json.dumps(meta))
            rc = main(["classify", "--model-dir", str(models),
                       "--input", str(corpus_dir / "disk_001.pgm"),
                       "--output", str(tmp_path / "decision.json")])
            assert rc == 2
            assert not (tmp_path / "decision.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key, message", [
        ("synth --noise", "noise must be finite and nonnegative"),
        ("grayscale.alpha", "grayscale coefficients must lie in [0, 1]"),
        ("ann.beta", "learning_rate must be finite and positive"),
        ("svm.A", "regularization must be finite and positive"),
        ("svm.tol", "tol must be finite and positive"),
    ], ids=["synth-noise", "grayscale-alpha", "ann-beta", "svm-A", "svm-tol"])
    def test_non_finite_parameter_is_usage_error(self, corpus_dir, tmp_path, capsys, key,
                                                 message, value):
        if key == "synth --noise":
            rc = main(["synth", "--out-dir", str(tmp_path / "corpus"), "--count", "1",
                       "--canvas", "32", f"--noise={value}"])
            assert not (tmp_path / "corpus" / "manifest.json").exists()
        else:
            section, name = key.split(".")
            classifier = section if section in ("ann", "svm") else "gknn"
            config = tmp_path / "config.json"  # json writes NaN and Infinity, and reads them
            config.write_text(json.dumps({section: {name: value}, "extractors": ["cmi"],
                                          "classifiers": [classifier]}))
            rc = main(["train", "--manifest", str(corpus_dir / "manifest.json"),
                       "--model-dir", str(tmp_path / "models"), "--config", str(config)])
            assert not (tmp_path / "models").exists()
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err


class TestFuse:
    def test_fuse_profile_against_templates(self, tmp_path):
        profile = [[0.7, 0.3], [0.75, 0.25], [0.47, 0.53], [0.5, 0.5]]
        templates = {
            "matrices": [
                [[0.7, 0.3], [0.9, 0.1], [0.89, 0.11], [0.8, 0.2]],
                [[0.3, 0.7], [0.4, 0.6], [0.3, 0.7], [0.2, 0.8]],
            ],
            "counts": [1, 1],
        }
        ppath = tmp_path / "profile.json"
        tpath = tmp_path / "templates.json"
        opath = tmp_path / "support.json"
        ppath.write_text(json.dumps(profile))
        tpath.write_text(json.dumps(templates))
        rc = main(["fuse", "--profile", str(ppath), "--templates", str(tpath),
                   "--output", str(opath)])
        assert rc == 0
        doc = json.loads(opath.read_text())
        assert doc["predicted"] == 0
        assert doc["support"][0] == pytest.approx(0.693, abs=1e-3)

    @pytest.mark.parametrize("profile, templates, bad", [
        ("[[1.0, 0.0]]", {"matrices": [[[1.0, 0.0]], [[0.0, 1.0]]]}, ("templates",)),
        ("[[1.0, 0.0", {"matrices": [[[1.0, 0.0]], [[0.0, 1.0]]], "counts": [1, 1]},
         ("profile",)),
        ("[[1.0, 0.0]]", {"matrices": [[1.0, 0.0]], "counts": [1]}, ("templates",)),
        ("[[0.7, 0.7]]", {"matrices": [[[1.0, 0.0]], [[0.0, 1.0]]], "counts": [1, 1]},
         ("profile",)),
        ("[[0.5, 0.500009]]", {"matrices": [[[1.0, 0.0]], [[0.0, 1.0]]], "counts": [1, 1]},
         ("profile",)),
        ("[[0.2, 0.3, 0.5]]", {"matrices": [[[1.0, 0.0]], [[0.0, 1.0]]], "counts": [1, 1]},
         ("profile", "templates")),
        ("[[1.0, 0.0]]", {"matrices": [[[1.0, 0.0]], [[0.0, float("nan")]]], "counts": [1, 1]},
         ("templates",)),
        ("[[1.0, 0.0]]", {"matrices": [[[5.0, -4.0]], [[0.0, 1.0]]], "counts": [1, 1]},
         ("templates",)),
    ], ids=["templates-without-counts", "profile-not-json", "templates-2d", "profile-row-sum",
            "profile-row-sum-off-by-9e-6", "profile-3-columns-vs-2-classes", "templates-nan",
            "templates-row-out-of-range"])
    def test_malformed_input_file_is_data_error(self, tmp_path, capsys, profile, templates,
                                                bad):
        paths = {"profile": tmp_path / "profile.json", "templates": tmp_path / "templates.json"}
        paths["profile"].write_text(profile)
        paths["templates"].write_text(json.dumps(templates))
        rc = main(["fuse", "--profile", str(paths["profile"]),
                   "--templates", str(paths["templates"]),
                   "--output", str(tmp_path / "support.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        for name, path in paths.items():
            assert (str(path) in err) == (name in bad), name
        assert not (tmp_path / "support.json").exists()


def installed_distribution():
    try:
        return importlib.metadata.distribution("finspect")
    except importlib.metadata.PackageNotFoundError:
        return None


@pytest.mark.skipif(installed_distribution() is None,
                    reason="the finspect distribution is not installed "
                           "(importlib.metadata.PackageNotFoundError: finspect)")
def test_console_script_installed():
    dist = installed_distribution()
    scripts = {ep.name: ep.value for ep in dist.entry_points
               if ep.group == "console_scripts"}
    assert scripts.get("finspect") == "finspect.cli:main"
    # the launcher this install recorded, not whatever PATH holds
    launchers = [Path(dist.locate_file(f)) for f in dist.files or ()
                 if f.stem == "finspect" and f.parent.name in ("bin", "Scripts")]
    assert launchers and launchers[0].is_file(), "console script not installed"
    proc = subprocess.run([str(launchers[0]), "--help"], capture_output=True, text=True)
    assert proc.returncode == 0


def test_console_script_entry_point_runs():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["finspect"]
    module, _, func = target.partition(":")
    assert callable(getattr(importlib.import_module(module), func))
    # run it in a fresh interpreter against the same package source
    package = importlib.import_module(module.split(".")[0])
    source_root = str(Path(package.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {source_root!r}); "
            f"from {module} import {func}; sys.exit({func}())")
    proc = subprocess.run([sys.executable, "-c", code, "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout
