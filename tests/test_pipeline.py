import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from finspect import BasisError, DataError, ParameterError, segment_image
from finspect import ann as ann_mod
from finspect import gknn as gknn_mod
from finspect import pipeline as pipeline_mod
from finspect import svm as svm_mod
from finspect.pipeline import (
    PipelineConfig,
    classify_image,
    classify_segments,
    content_digest,
    largest_shape,
    load_gray,
    load_models,
    run_pipeline,
    save_models,
    train_models,
)
from finspect.features import MomentProductSpec
from finspect.raster import GrayImage, GrayscaleCoefficients, encode_pgm
from finspect.synth import SyntheticShapeSpec, generate_synthetic

FAST = PipelineConfig(ann_epochs=60, ann_hidden=8)


def build_corpus(directory, per_class=6, canvas=96, seed=5):
    rng = np.random.default_rng(seed)
    entries = []
    for kind, base in (("disk", 14), ("triangle", 20)):
        for i in range(per_class):
            size = int(base * rng.uniform(0.7, 1.0))
            spec = SyntheticShapeSpec(kind, size, canvas=canvas, noise=0.01)
            img, label = generate_synthetic(spec, rng_seed=int(rng.integers(1 << 32)))
            name = f"{kind}_{i}.pgm"
            (directory / name).write_bytes(encode_pgm(img))
            entries.append({"path": name, "label": label})
    return entries


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    return directory, build_corpus(directory)


class TestTraining:
    @pytest.mark.parametrize("seed", [True, 1.5, -1])
    def test_seed_must_be_a_non_negative_integer(self, corpus, seed):
        directory, entries = corpus
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            run_pipeline(entries, FAST, seed=seed, base_dir=directory)

    def test_accuracy_and_report_fields(self, corpus):
        directory, entries = corpus
        models, report = run_pipeline(entries, FAST, seed=0, base_dir=directory)
        assert report["final_accuracy"] >= 0.9
        assert report["n_images"] == len(entries)
        assert report["class_names"] == ["baby_shark", "other"]  # catalog order
        assert set(report["per_extractor_fused_accuracy"]) == {"cmi", "gfd", "elm"}
        assert len(report["predictions"]) == len(entries)
        assert report["svm_converged"] == {"cmi": True, "gfd": True, "elm": True}
        confusion = np.array(report["final_confusion"])
        assert confusion.sum() == len(entries)
        for name in report["class_names"]:
            rates = report["per_class_rates"][name]
            assert 0.0 <= rates["false_negative_rate"] <= 1.0
            assert 0.0 <= rates["false_positive_rate"] <= 1.0

    def test_report_shows_svm_not_converged(self, corpus):
        directory, entries = corpus
        starved = replace(FAST, svm_tol=1e-12, svm_max_iter=1)
        _, report = run_pipeline(entries, starved, seed=0, base_dir=directory)
        assert report["svm_converged"] == {"cmi": False, "gfd": False, "elm": False}

    def test_deterministic_report(self, corpus):
        directory, entries = corpus
        _, a = run_pipeline(entries, FAST, seed=3, base_dir=directory)
        _, b = run_pipeline(entries, FAST, seed=3, base_dir=directory)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_manifest_order_is_irrelevant(self, corpus):
        directory, entries = corpus
        _, a = run_pipeline(entries, FAST, seed=0, base_dir=directory)
        _, b = run_pipeline(list(reversed(entries)), FAST, seed=0, base_dir=directory)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_manifest_order_is_irrelevant_with_duplicates_and_failures(self, corpus):
        directory, entries = corpus
        shutil.copyfile(directory / "disk_0.pgm", directory / "disk_copy.pgm")
        extended = entries + [{"path": "disk_copy.pgm", "label": "baby_shark"},
                              {"path": "missing_a.pgm", "label": "other"},
                              {"path": "missing_b.pgm", "label": "other"}]
        _, a = run_pipeline(extended, FAST, seed=0, base_dir=directory)
        _, b = run_pipeline(list(reversed(extended)), FAST, seed=0, base_dir=directory)
        assert [f["path"] for f in a["failures"]] == ["missing_a.pgm", "missing_b.pgm"]
        assert json.dumps(a) == json.dumps(b)

    def test_unreadable_entries_recorded_not_fatal(self, corpus):
        directory, entries = corpus
        broken = entries + [{"path": "missing.pgm", "label": "other"}]
        models, report = run_pipeline(broken, FAST, seed=0, base_dir=directory)
        assert report["n_images"] == len(entries)
        assert len(report["failures"]) == 1
        assert report["failures"][0]["path"] == "missing.pgm"
        assert report["failures"][0]["stage"] == "read"

    def test_corrupt_image_recorded_as_preprocess_failure(self, corpus, tmp_path):
        directory, entries = corpus
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\nxx")  # truncated body
        broken = entries + [{"path": str(bad), "label": "other"}]
        _, report = run_pipeline(broken, FAST, seed=0, base_dir=directory)
        assert any(f["stage"] == "preprocess" for f in report["failures"])

    def test_image_smaller_than_median_window_is_one_failure(self, corpus, tmp_path):
        directory, entries = corpus
        tiny = tmp_path / "tiny.pgm"
        tiny.write_bytes(encode_pgm(GrayImage(np.eye(2))))
        broken = entries + [{"path": str(tiny), "label": "other"}]
        _, report = run_pipeline(broken, FAST, seed=0, base_dir=directory)
        assert report["n_images"] == len(entries)
        assert [(f["path"], f["stage"]) for f in report["failures"]] == [(str(tiny), "preprocess")]
        assert "exceeds image extent" in report["failures"][0]["error"]

    def test_empty_manifest_rejected(self):
        with pytest.raises(ParameterError):
            train_models([], FAST)

    def test_single_class_rejected(self, corpus, tmp_path):
        directory, entries = corpus
        disks = [e for e in entries if e["label"] == "baby_shark"]
        with pytest.raises(ParameterError):
            train_models(disks, FAST, base_dir=directory)


class TestOnePassPerImage:
    def test_features_and_classifiers_run_once_per_image(self, corpus, monkeypatch):
        directory, entries = corpus
        calls = {"extract": 0, "ann": 0, "gknn": 0, "svm": 0, "context": 0, "fuse": 0}

        def counted(key, module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted("extract", pipeline_mod, "extract_one")
        counted("ann", ann_mod, "predict_proba")
        counted("gknn", gknn_mod, "gknn_classify")
        counted("svm", svm_mod, "predict_proba")
        counted("context", gknn_mod, "build_context")
        counted("fuse", pipeline_mod, "fuse")
        _, report = run_pipeline(entries, FAST, seed=0, base_dir=directory)
        n = report["n_images"]
        expected = n * len(FAST.extractors)
        # the Mahalanobis context is per training set, not per query; eval
        # reuses training's stage-1 supports and fuses only stage 2 again
        assert calls == {"extract": expected, "ann": expected, "gknn": expected, "svm": expected,
                         "context": len(FAST.extractors), "fuse": expected + n}

    def test_report_matches_classifying_each_file_again(self, corpus):
        directory, entries = corpus
        models, report = run_pipeline(entries, FAST, seed=0, base_dir=directory)
        for pred in report["predictions"]:
            raw = (directory / pred["path"]).read_bytes()
            crop = largest_shape(load_gray(raw, models.config), models.config)
            final, _, _ = classify_image(models, crop, content_digest(raw))
            assert pred["predicted"] == models.class_names[final.predicted]
            assert pred["support"] == final.support.tolist()


class TestClassification:
    def test_single_classifier_matches_stage1_argmax(self, corpus):
        directory, entries = corpus
        config = PipelineConfig(ann_epochs=60, ann_hidden=8, classifiers=("svm",))
        models, _, _ = train_models(entries, config, seed=0, base_dir=directory)
        img, _ = generate_synthetic(SyntheticShapeSpec("disk", 13, canvas=96))
        final, stage1, per_pair = classify_image(models, img, digest=123)
        for ext, sup in zip(config.extractors, stage1):
            assert sup.predicted == per_pair[(ext, "svm")]

    def test_composite_image_split_into_segments(self, corpus):
        directory, entries = corpus
        models, _, _ = train_models(entries, FAST, seed=0, base_dir=directory)
        disk, _ = generate_synthetic(SyntheticShapeSpec("disk", 11, canvas=96))
        tri, _ = generate_synthetic(SyntheticShapeSpec("triangle", 16, canvas=96))
        composite = np.zeros((96, 192))
        composite[:, :96] = disk.pixels
        composite[:, 96:] = tri.pixels
        results = classify_segments(models, GrayImage(composite), digest=7)
        assert len(results) == 2
        predicted = {r["predicted"] for r in results}
        assert predicted == {"baby_shark", "other"}
        for r in results:
            assert sum(r["support"]) == pytest.approx(1.0)

    def test_equal_shapes_keep_label_order(self, corpus):
        directory, entries = corpus
        models, _, _ = train_models(entries, FAST, seed=0, base_dir=directory)
        disk, _ = generate_synthetic(SyntheticShapeSpec("disk", 11, canvas=96))
        composite = GrayImage(np.hstack([disk.pixels, disk.pixels]))
        counts = segment_image(composite, FAST.median_window).pixel_counts
        assert counts.size == 3 and counts[0] == counts[1]  # two copies + background
        results = classify_segments(models, composite, digest=7)
        assert [r["shape"] for r in results] == [0, 1]
        assert results[0]["bbox"][1] < 96 <= results[1]["bbox"][1]  # the left copy first

    def test_gknn_rows_are_query_seeded(self, corpus):
        directory, entries = corpus
        config = PipelineConfig(ann_epochs=60, ann_hidden=8, classifiers=("gknn",))
        models, _, _ = train_models(entries, config, seed=0, base_dir=directory)
        img, _ = generate_synthetic(SyntheticShapeSpec("disk", 13, canvas=96))
        a1, _, _ = classify_image(models, img, digest=99)
        a2, _, _ = classify_image(models, img, digest=99)
        assert np.array_equal(a1.support, a2.support)


class TestTrimmedEnsemble:
    def test_unconfigured_classifiers_are_not_trained(self, corpus, monkeypatch):
        directory, entries = corpus
        calls = {"ann": 0, "svm": 0}
        for key, module, name in (("ann", ann_mod, "train"), ("svm", svm_mod, "train_svm")):
            def wrapper(*args, _key=key, _original=getattr(module, name), **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
        models, report = run_pipeline(entries, replace(FAST, classifiers=("gknn",)), seed=0,
                                      base_dir=directory)
        assert calls == {"ann": 0, "svm": 0}
        assert report["svm_converged"] == {}
        assert [list(fam.models) for fam in models.families.values()] == [["gknn"]] * 3

    @pytest.mark.parametrize("classifiers", [("gknn",), ("ann", "svm")])
    def test_directory_holds_only_the_configured_models(self, corpus, tmp_path, classifiers):
        directory, entries = corpus
        models, _, _ = train_models(entries, replace(FAST, classifiers=classifiers), seed=0,
                                    base_dir=directory)
        save_models(models, tmp_path / "models")
        assert [p.name for p in (tmp_path / "models").iterdir()] == ["pipeline.json"]
        meta = json.loads((tmp_path / "models" / "pipeline.json").read_text())
        assert [list(f["models"]) for f in meta["families"].values()] == [list(classifiers)] * 3
        back = load_models(tmp_path / "models")
        assert [list(fam.models) for fam in back.families.values()] == [list(classifiers)] * 3
        img, _ = generate_synthetic(SyntheticShapeSpec("triangle", 18, canvas=96))
        f1, s1, p1 = classify_image(models, img, digest=42)
        f2, s2, p2 = classify_image(back, img, digest=42)
        assert np.array_equal(f1.support, f2.support)
        assert [a.support.tolist() for a in s1] == [b.support.tolist() for b in s2]
        assert p1 == p2

    def test_configured_model_record_is_still_required(self, corpus, tmp_path):
        directory, entries = corpus
        models, _, _ = train_models(entries, replace(FAST, classifiers=("svm",)), seed=0,
                                    base_dir=directory)
        save_models(models, tmp_path / "models")
        path = tmp_path / "models" / "pipeline.json"
        meta = json.loads(path.read_text())
        del meta["families"]["cmi"]["models"]["svm"]
        path.write_text(json.dumps(meta))
        with pytest.raises(DataError, match="pipeline.json.*KeyError: 'svm'"):
            load_models(tmp_path / "models")


class TestPersistence:
    def test_save_load_identical_classification(self, corpus, tmp_path):
        directory, entries = corpus
        models, _, _ = train_models(entries, FAST, seed=0, base_dir=directory)
        save_models(models, tmp_path / "models")
        back = load_models(tmp_path / "models")
        assert back.class_names == models.class_names
        img, _ = generate_synthetic(SyntheticShapeSpec("triangle", 18, canvas=96))
        f1, s1, p1 = classify_image(models, img, digest=42)
        f2, s2, p2 = classify_image(back, img, digest=42)
        assert f1.predicted == f2.predicted
        assert np.allclose(f1.support, f2.support, atol=1e-12)
        assert p1 == p2

    def test_every_record_round_trips_exactly(self, corpus, tmp_path):
        directory, entries = corpus
        models, _, _ = train_models(entries, FAST, seed=0, base_dir=directory)
        save_models(models, tmp_path / "models")
        back = load_models(tmp_path / "models")
        assert back.seed == models.seed and back.config == models.config
        for ext, fam in models.families.items():
            got = back.families[ext]
            assert np.array_equal(got.mean, fam.mean) and np.array_equal(got.std, fam.std)
            assert np.array_equal(got.templates.matrices, fam.templates.matrices)
            assert np.array_equal(got.templates.counts, fam.templates.counts)
            ann, ann_back = fam.models["ann"], got.models["ann"]
            assert ann_back.layers == ann.layers
            for a, b in zip(ann.weights + ann.biases, ann_back.weights + ann_back.biases):
                assert np.array_equal(a, b)
            assert np.array_equal(ann_back.loss_trace, ann.loss_trace)
            svm, svm_back = fam.models["svm"], got.models["svm"]
            assert np.array_equal(svm_back.weights, svm.weights)
            assert np.array_equal(svm_back.converged, svm.converged)
            (data, _), (data_back, _) = fam.models["gknn"], got.models["gknn"]
            assert np.array_equal(data_back.inputs, data.inputs)
            assert np.array_equal(data_back.targets, data.targets)
        assert np.array_equal(back.stage2_templates.matrices, models.stage2_templates.matrices)

    def test_svm_record_holds_only_the_weights(self, corpus, tmp_path):
        directory, entries = corpus
        models, _, _ = train_models(entries, replace(FAST, classifiers=("svm",)), seed=0,
                                    base_dir=directory)
        save_models(models, tmp_path / "models")
        meta = json.loads((tmp_path / "models" / "pipeline.json").read_text())
        for ext, family in meta["families"].items():
            record = family["models"]["svm"]
            assert set(record) == {"weights", "converged"}
            assert np.asarray(record["weights"]).shape == (len(family["mean"]), 2)

    def test_custom_cmi_basis_survives_save_and_load(self, corpus, tmp_path):
        directory, entries = corpus
        basis = (MomentProductSpec(((1, 1, 1.0),)),
                 MomentProductSpec(((2, 0, 1.0), (0, 2, 1.0))),
                 MomentProductSpec(((3, 0, 2.0), (0, 3, 2.0))))
        config = replace(FAST, cmi_basis=basis, extractors=("cmi",))
        models, _, _ = train_models(entries, config, seed=0, base_dir=directory)
        save_models(models, tmp_path / "models")
        saved = json.loads((tmp_path / "models" / "pipeline.json").read_text())
        assert saved["config"]["cmi"]["basis"] == [[[1, 1, 1.0]], [[2, 0, 1.0], [0, 2, 1.0]],
                                                   [[3, 0, 2.0], [0, 3, 2.0]]]
        back = load_models(tmp_path / "models")
        assert back.config == config and back.config.cmi_basis == basis
        assert back.families["cmi"].mean.shape == (len(basis),)
        img, _ = generate_synthetic(SyntheticShapeSpec("disk", 14, canvas=96))
        f1, s1, p1 = classify_image(models, img, digest=7)
        f2, s2, p2 = classify_image(back, img, digest=7)
        assert f1.predicted == f2.predicted
        assert np.allclose(f1.support, f2.support, atol=1e-12)
        assert p1 == p2

    def test_config_dict_roundtrip(self):
        config = PipelineConfig(median_window=5, gfd_radial=3, gfd_angular=7,
                                ann_hidden=9, gknn_k=5, svm_a=2.0,
                                extractors=("gfd", "elm"), classifiers=("ann", "svm"))
        back = PipelineConfig.from_dict(config.to_dict())
        assert back == config

    def test_config_rejects_unknown_names(self):
        with pytest.raises(ParameterError):
            PipelineConfig.from_dict({"extractors": ["hog"]})
        with pytest.raises(ParameterError):
            PipelineConfig.from_dict({"classifiers": []})
        with pytest.raises(ParameterError, match="'ann.hiden'"):
            PipelineConfig.from_dict({"ann": {"hiden": 4}})
        with pytest.raises(ParameterError, match="'svm.C'"):
            PipelineConfig.from_dict({"svm": {"C": 10}, "ann": {"hiden": 4}})
        with pytest.raises(ParameterError, match="'median'"):
            PipelineConfig.from_dict({"median": 5})
        with pytest.raises(ParameterError, match="'gfd' must be an object"):
            PipelineConfig.from_dict({"gfd": 4})
        with pytest.raises(ParameterError, match="JSON object"):
            PipelineConfig.from_dict([])

    def test_default_config_dict_roundtrip(self):
        doc = PipelineConfig().to_dict()
        assert PipelineConfig.from_dict(doc) == PipelineConfig()
        assert PipelineConfig.from_dict(doc).to_dict() == doc


class TestDigest:
    def test_digest_is_first_eight_hash_bytes(self):
        import hashlib
        raw = b"some bytes"
        expected = int.from_bytes(hashlib.sha256(raw).digest()[:8], "big")
        assert content_digest(raw) == expected



@pytest.mark.parametrize("build, valid, changes, error", [
    (lambda: GrayscaleCoefficients(0.5, 0.5, 0.5), GrayscaleCoefficients(),
     {"alpha": 0.5, "beta": 0.5, "gamma": 0.5}, ParameterError),
    (lambda: MomentProductSpec(((2, 1, 1.0),)), MomentProductSpec(((1, 1, 1.0),)),
     {"factors": ((2, 1, 1.0),)}, BasisError),
    (lambda: SyntheticShapeSpec("square", 10), SyntheticShapeSpec("disk", 10),
     {"kind": "square"}, ParameterError),
    (lambda: PipelineConfig(classifiers=()), PipelineConfig(),
     {"classifiers": ()}, ParameterError),
], ids=["GrayscaleCoefficients", "MomentProductSpec", "SyntheticShapeSpec", "PipelineConfig"])
def test_bad_parameter_rejected_on_construction(build, valid, changes, error):
    with pytest.raises(error) as built:
        build()
    with pytest.raises(error) as replaced:
        replace(valid, **changes)
    assert str(built.value) == str(replaced.value)
    assert not hasattr(valid, "validate")
