import json

import numpy as np
import pytest

from finspect import CLASS_CATALOG, LabeledSet, ParameterError, ShapeError, one_hot
from finspect.dataset import load_manifest, save_manifest


class TestOneHot:
    def test_rows(self):
        out = one_hot([2, 0, 1], 3)
        assert np.array_equal(out, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            one_hot([3], 3)
        with pytest.raises(ParameterError):
            one_hot([-1], 3)


class TestLabeledSet:
    def test_properties(self):
        data = LabeledSet(np.zeros((3, 2)), one_hot([0, 1, 0], 2))
        assert data.n == 3
        assert data.n_classes == 2
        assert data.labels.tolist() == [0, 1, 0]

    def test_arrays_frozen(self):
        data = LabeledSet(np.zeros((2, 2)), one_hot([0, 1], 2))
        with pytest.raises(ValueError):
            data.inputs[0, 0] = 5.0

    def test_target_rows_must_be_one_hot(self):
        with pytest.raises(ShapeError):
            LabeledSet(np.zeros((2, 2)), np.array([[0.5, 0.5], [1.0, 0.0]]))
        with pytest.raises(ShapeError):
            LabeledSet(np.zeros((1, 2)), np.array([[1.0, 1.0]]))

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeError):
            LabeledSet(np.zeros((2, 2)), one_hot([0], 2))


class TestManifest:
    def test_roundtrip(self, tmp_path):
        entries = [{"path": "a.pgm", "label": "other"},
                   {"path": "b.pgm", "label": "baby_shark"}]
        path = tmp_path / "manifest.json"
        save_manifest(entries, path)
        assert load_manifest(path) == entries

    def test_catalog_contains_expected_classes(self):
        assert CLASS_CATALOG == ("mature_shark", "shark_school", "baby_shark", "other")

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[]")
        with pytest.raises(ParameterError):
            load_manifest(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([{"path": "a.pgm", "label": "whale"}]))
        with pytest.raises(ParameterError):
            load_manifest(path)

    def test_duplicate_path_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        entry = {"path": "a.pgm", "label": "other"}
        path.write_text(json.dumps([entry, entry]))
        with pytest.raises(ParameterError):
            load_manifest(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([{"path": "a.pgm"}]))
        with pytest.raises(ParameterError):
            load_manifest(path)
