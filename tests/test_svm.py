import json

import numpy as np
import pytest

from finspect import DataError, LabeledSet, ParameterError, ShapeError, one_hot
from finspect import svm
from finspect.svm import _project_row, svm_sweep_core


def project_by_bisection(v, u, iters=200):
    """Root of f(tau) = sum_c min(u_c, v_c - tau), bracketed then bisected."""
    lo = float(np.min(v - u)) - 1.0
    hi = float(np.max(v)) + 1.0

    def f(tau):
        return float(np.minimum(u, v - tau).sum())

    assert f(lo) > 0 >= f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return np.minimum(u, v - 0.5 * (lo + hi))


def conic_blobs(per_class=10, spread=0.6, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[8.0, 0.0], [-4.0, 7.0], [-4.0, -7.0]])
    x = np.vstack([rng.normal(c, spread, (per_class, 2)) for c in centers])
    labels = np.repeat([0, 1, 2], per_class)
    return LabeledSet(x, one_hot(labels, 3))


class TestKernel:
    def test_linear_is_dot_product(self):
        assert svm.kernel_linear([1.0, 2.0], [3.0, -1.0]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            svm.kernel_linear([1.0], [1.0, 2.0])


class TestProjection:
    def test_matches_bisection_oracle(self, rng):
        for _ in range(300):
            k = int(rng.integers(2, 8))
            v = rng.normal(scale=3.0, size=k)
            u = rng.random(k)  # nonnegative with positive sum
            z = _project_row(v, u)
            oracle = project_by_bisection(v, u)
            assert np.allclose(z, oracle, atol=1e-9)
            assert abs(z.sum()) <= 1e-9
            assert (z <= u + 1e-12).all()

    def test_onehot_cap_rows(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 6))
            u = np.zeros(k)
            u[int(rng.integers(0, k))] = 1.0
            v = rng.normal(scale=2.0, size=k)
            z = _project_row(v, u)
            assert np.allclose(z, project_by_bisection(v, u), atol=1e-9)

    def test_interior_point_unmoved(self):
        # v already feasible: zero-sum and strictly below the caps
        v = np.array([0.2, -0.3, 0.1])
        u = np.array([1.0, 1.0, 1.0])
        assert np.allclose(_project_row(v, u), v, atol=1e-12)


class TestSweep:
    def test_monotone_objective_and_feasible_iterates(self, rng):
        for _ in range(10):
            n, k = int(rng.integers(4, 15)), int(rng.integers(2, 5))
            x = rng.normal(size=(n, 3))
            gram = x @ x.T
            targets = one_hot(rng.integers(0, k, n), k)
            eta = np.zeros((n, k))
            prev = svm.dual_objective(gram, eta, targets, 1.0)
            for _ in range(60):
                svm_sweep_core(gram, eta, targets, 1.0)
                cur = svm.dual_objective(gram, eta, targets, 1.0)
                assert cur >= prev - 1e-9
                prev = cur
                assert np.abs(eta.sum(axis=1)).max() <= 1e-9
                assert (eta <= targets + 1e-9).all()

    def test_dual_objective_hand_case(self):
        gram = np.eye(2)
        eta = np.array([[0.5, -0.5], [-0.25, 0.25]])
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert svm.dual_objective(gram, eta, targets, 2.0) == pytest.approx(0.875)


class TestTraining:
    def test_separable_three_class(self):
        data = conic_blobs()
        model = svm.train_svm(data)
        assert model.converged
        assert svm.empirical_error(model, data) == 0.0

    def test_duplicate_inputs_stay_finite(self):
        x = np.ones((4, 2))
        data = LabeledSet(x, one_hot([0, 0, 1, 1], 2))
        model = svm.train_svm(data)
        assert np.isfinite(model.eta).all()
        assert svm.empirical_error(model, data) >= 0.5

    def test_not_converged_when_starved(self):
        model = svm.train_svm(conic_blobs(), tol=1e-9, max_iter=1)
        assert not model.converged

    def test_parameter_errors(self):
        data = conic_blobs(per_class=3)
        with pytest.raises(ParameterError):
            svm.train_svm(data, regularization=0.0)
        with pytest.raises(ParameterError):
            svm.train_svm(data, regularization=-1.0)
        single = LabeledSet(np.eye(2), one_hot([0, 0], 2))
        with pytest.raises(ParameterError):
            svm.train_svm(single)

    def test_non_finite_kernel_rejected(self):
        x = np.array([[1.0, np.inf], [0.0, 1.0]])
        data = LabeledSet(x, one_hot([0, 1], 2))
        with pytest.raises(DataError):
            svm.train_svm(data)


class TestInference:
    def test_confidence_equals_explicit_weights(self, rng):
        data = conic_blobs(per_class=5)
        model = svm.train_svm(data)
        weights = model.eta.T @ model.inputs  # (k, p) linear class weights
        for _ in range(20):
            q = rng.normal(scale=5.0, size=2)
            assert np.allclose(svm.confidence(model, q), weights @ q, atol=1e-9)

    def test_proba_preserves_argmax(self, rng):
        model = svm.train_svm(conic_blobs(per_class=5))
        for _ in range(50):
            q = rng.normal(scale=5.0, size=2)
            conf = svm.confidence(model, q)
            proba = svm.predict_proba(model, q)
            assert proba.sum() == pytest.approx(1.0)
            assert (proba >= 0).all()
            assert np.argmax(proba) == np.argmax(conf)

    def test_query_dimension_checked(self):
        model = svm.train_svm(conic_blobs(per_class=3))
        with pytest.raises(ShapeError):
            svm.confidence(model, np.zeros(3))


class TestTwoPointLine:
    def test_worked_values(self):
        w, b = svm.two_point_line([1.0, 1.0], [2.0, 2.0])
        assert np.allclose(w, [1.0, 1.0])
        assert b == pytest.approx(-3.0)
        assert w @ np.array([1.0, 0.0]) + b == pytest.approx(-2.0)

    def test_unit_margins_property(self, rng):
        for _ in range(50):
            x1, x2 = rng.normal(scale=4.0, size=(2, 3))
            w, b = svm.two_point_line(x1, x2)
            assert w @ x1 + b == pytest.approx(-1.0)
            assert w @ x2 + b == pytest.approx(1.0)

    def test_identical_points_rejected(self):
        with pytest.raises(ParameterError):
            svm.two_point_line([1.0, 2.0], [1.0, 2.0])


class TestPersistence:
    def test_json_roundtrip(self, tmp_path, rng):
        model = svm.train_svm(conic_blobs(per_class=4), regularization=2.5)
        path = tmp_path / "svm.json"
        svm.save_model(model, path)
        back = svm.load_model(path)
        assert np.array_equal(back.eta, model.eta)
        assert np.array_equal(back.inputs, model.inputs)
        assert np.array_equal(back.labels, model.labels)
        assert back.regularization == 2.5
        assert back.converged == model.converged
        q = rng.normal(size=2)
        assert np.allclose(svm.confidence(back, q), svm.confidence(model, q))

    def test_file_names_linear_kernel(self, tmp_path):
        path = tmp_path / "svm.json"
        svm.save_model(svm.train_svm(conic_blobs(per_class=3)), path)
        assert json.loads(path.read_text())["kernel"] == "linear"

    def test_non_linear_kernel_rejected(self, tmp_path):
        path = tmp_path / "svm.json"
        svm.save_model(svm.train_svm(conic_blobs(per_class=3)), path)
        doc = json.loads(path.read_text())
        doc["kernel"] = "rbf"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="rbf"):
            svm.load_model(path)
