import numpy as np
import pytest

from finspect import DataError, LabeledSet, ParameterError, ShapeError, one_hot
from finspect import svm
from finspect.svm import _project, svm_sweep_core


def project_row(v, u):
    """The library's breakpoint scan on numpy rows."""
    return np.array(_project(np.asarray(v, dtype=np.float64).tolist(),
                             np.asarray(u, dtype=np.float64).tolist()))


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


def round_robin(labels):
    """A full pass's row order: the first row of each class, then the second, ..."""
    queues = [list(np.flatnonzero(labels == c)) for c in range(labels.max() + 1)]
    order = []
    while any(queues):
        order += [queue.pop(0) for queue in queues if queue]
    return order


def scheduled_passes(eta, targets, sweep, tol=1e-3, max_passes=1000):
    """train_svm's schedule written out: (passes, converged).

    ``sweep(rows)`` runs one pass over ``rows`` and returns its largest gain.
    A pass that gains >= tol is followed by one over the rows it moved;
    otherwise a shrunk pass is followed by a full one, and a full one stops.
    """
    full = round_robin(targets.argmax(axis=1))
    rows = full
    for passes in range(1, max_passes + 1):
        before = eta.copy()
        if sweep(rows) >= tol:
            rows = [i for i in full if (eta[i] != before[i]).any()]
        elif len(rows) == len(full):
            return passes, True
        else:
            rows = full
    return max_passes, False


def gram_sweep(K, eta, U, A, rows=None):
    """Reference sweep in the kernel form: the residual reads row i of K.

    Returns the largest gain and the number of rows whose step (above 1e-11)
    was taken or left on a gain at rounding level (|d_obj| <= 1e-13): there
    the weight form, whose residual rounds differently, may rightly decide
    the other way.
    """
    best, close_calls = 0.0, 0
    for i in range(K.shape[0]) if rows is None else rows:
        kii = K[i, i]
        if kii < 1e-12:
            continue
        r = K[i] @ eta - kii * eta[i]
        new = project_row((A * U[i] - 2.0 * r) / (2.0 * kii), U[i])
        d_obj = (A * U[i] - 2.0 * r) @ (new - eta[i]) - kii * (new @ new - eta[i] @ eta[i])
        close_calls += abs(d_obj) <= 1e-13 and np.abs(new - eta[i]).max() > 1e-11
        if d_obj > 0.0:
            eta[i] = new
            best = max(best, d_obj)
    return best, close_calls


def numpy_project_row(v, u):
    """The breakpoint scan in numpy calls, as the weight form first wrote it."""
    tau = v - u
    order = np.argsort(tau)
    tau_sorted = tau[order]
    v_sorted = v[order]
    u_total = u.sum()
    sum_v = 0.0
    sum_u = 0.0
    k = v.size
    for m in range(1, k + 1):
        sum_v += v_sorted[m - 1]
        sum_u += u[order[m - 1]]
        candidate = (sum_v + u_total - sum_u) / m
        if m == k or candidate <= tau_sorted[m]:
            return np.minimum(u, v - candidate)


def numpy_sweep(X, W, eta, U, A, rows=None):
    """Reference row step on numpy k-vectors, about ten numpy calls per row.

    K_ii and the gain's k-term sums round as the weight form's do (einsum,
    sums in index order, no fused dot): a step at rounding level decides
    whether its row is in the next shrunk pass, so both forms must decide it
    alike.
    """
    best = 0.0
    kiis = np.einsum("ij,ij->i", X, X)
    for i in range(X.shape[0]) if rows is None else rows:
        x = X[i]
        kii = kiis[i]
        if kii < 1e-12:
            continue
        r = x @ W - kii * eta[i]
        g = A * U[i] - 2.0 * r
        new = numpy_project_row(g / (2.0 * kii), U[i])
        d_obj = np.sum(g * (new - eta[i])) - kii * (np.sum(new * new) - np.sum(eta[i] * eta[i]))
        if d_obj > 0.0:
            W += np.outer(x, new - eta[i])
            eta[i] = new
            if d_obj > best:
                best = d_obj
    return best


def random_problem(rng):
    """Random rows and labels, with one duplicated row and one all-zero row."""
    n, p, k = int(rng.integers(6, 16)), int(rng.integers(2, 5)), int(rng.integers(2, 5))
    x = rng.normal(size=(n, p))
    x[1] = x[0]
    x[-1] = 0.0
    return x, one_hot(rng.integers(0, k, n), k)


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
            z = project_row(v, u)
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
            z = project_row(v, u)
            assert np.allclose(z, project_by_bisection(v, u), atol=1e-9)

    def test_root_on_a_breakpoint(self):
        # a duplicated training row gives this v: the root equals tau_0 = v_0
        # up to rounding, so a scan that also tests each segment's left end
        # can reject both segments next to it
        v = np.array([0.0014872700678554, -0.8258995575956007,
                      0.8288740977313115, 0.4092316036281618])
        u = np.array([0.0, 0.0, 1.0, 0.0])
        z = project_row(v, u)
        assert abs(z.sum()) <= 1e-12
        assert np.allclose(z, project_by_bisection(v, u), atol=1e-12)

    def test_interior_point_unmoved(self):
        # v already feasible: zero-sum and strictly below the caps
        v = np.array([0.2, -0.3, 0.1])
        u = np.array([1.0, 1.0, 1.0])
        assert np.allclose(project_row(v, u), v, atol=1e-12)


class TestSweep:
    def test_monotone_objective_and_feasible_iterates(self, rng):
        for _ in range(10):
            x, targets = random_problem(rng)
            gram = x @ x.T
            eta = np.zeros_like(targets)
            weights = np.zeros((x.shape[1], targets.shape[1]))
            prev = svm.dual_objective(gram, eta, targets, 1.0)
            for _ in range(60):
                svm_sweep_core(x, weights, eta, targets, 1.0)
                cur = svm.dual_objective(gram, eta, targets, 1.0)
                assert cur >= prev - 1e-9
                prev = cur
                assert np.abs(eta.sum(axis=1)).max() <= 1e-9
                assert (eta <= targets + 1e-9).all()

    def test_matches_gram_form_and_keeps_weights_in_step(self, rng):
        compared = close_sweeps = 0
        for _ in range(20):
            x, targets = random_problem(rng)
            regularization = float(rng.uniform(0.5, 3.0))
            eta = np.zeros_like(targets)
            weights = np.zeros((x.shape[1], targets.shape[1]))
            eta_ref = np.zeros_like(targets)
            for _ in range(1000):
                gain = svm_sweep_core(x, weights, eta, targets, regularization)
                _, close_calls = gram_sweep(x @ x.T, eta_ref, targets, regularization)
                assert np.abs(weights - x.T @ eta).max() <= 1e-9
                if close_calls:
                    # a rounding-level step may go either way: resume from one state
                    close_sweeps += 1
                    eta_ref[:] = eta
                else:
                    assert np.abs(eta - eta_ref).max() <= 1e-10
                    compared += 1
                if gain < 1e-3:  # train_svm's default stop
                    break
            assert (eta[-1] == 0.0).all()  # the all-zero row is skipped
        assert close_sweeps * 10 <= compared

    def test_train_svm_matches_the_numpy_row_step(self, rng, monkeypatch):
        sweeps = []
        sweep = svm.svm_sweep_core
        monkeypatch.setattr(svm, "svm_sweep_core", lambda *args: sweeps.append(1) or sweep(*args))
        compared = close_problems = 0
        for _ in range(20):
            x, targets = random_problem(rng)
            regularization = float(rng.uniform(0.5, 3.0))
            sweeps.clear()
            model = svm.train_svm(LabeledSet(x, targets), regularization)
            eta = np.zeros_like(targets)
            weights = np.zeros((x.shape[1], targets.shape[1]))
            close_calls = 0

            def reference_pass(rows):
                nonlocal close_calls
                close_calls += gram_sweep(x @ x.T, eta.copy(), targets, regularization, rows)[1]
                return numpy_sweep(x, weights, eta, targets, regularization, rows)

            ref_sweeps, converged = scheduled_passes(eta, targets, reference_pass)
            if close_calls:
                close_problems += 1
                continue
            assert model.converged == converged
            assert len(sweeps) == ref_sweeps
            assert np.abs(model.weights - weights).max() <= 1e-9
            compared += 1
        assert close_problems * 4 <= compared

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
        assert np.isfinite(model.weights).all()
        assert svm.empirical_error(model, data) >= 0.5

    def test_not_converged_when_starved(self):
        model = svm.train_svm(conic_blobs(), tol=1e-9, max_iter=1)
        assert not model.converged

    def test_every_sweep_goes_through_the_module_function(self, monkeypatch):
        # a profiler counts sweeps by wrapping svm.svm_sweep_core
        calls = []
        sweep = svm.svm_sweep_core
        monkeypatch.setattr(svm, "svm_sweep_core", lambda *args: calls.append(1) or sweep(*args))
        assert not svm.train_svm(conic_blobs(), tol=1e-12, max_iter=5).converged
        assert len(calls) == 5
        calls.clear()
        svm.train_svm(conic_blobs(), max_iter=1)
        assert len(calls) == 1

    def test_converged_means_a_full_pass_gained_less_than_tol(self, rng, monkeypatch):
        passes = []  # (rows visited, gain) per call
        sweep = svm.svm_sweep_core

        def record(*args):
            gain = sweep(*args)
            passes.append((sorted(args[5]), gain))
            return gain

        monkeypatch.setattr(svm, "svm_sweep_core", record)
        shrunk = 0
        for data in [conic_blobs()] + [LabeledSet(*random_problem(rng)) for _ in range(10)]:
            passes.clear()
            assert svm.train_svm(data).converged
            assert passes[-1][0] == list(range(data.n))
            assert passes[-1][1] < 1e-3
            shrunk += sum(len(rows) < data.n for rows, _ in passes)
        assert shrunk  # the schedule did shrink, so the last pass was a choice

    def test_training_is_deterministic(self):
        data = conic_blobs(per_class=7, seed=4)
        first, second = svm.train_svm(data), svm.train_svm(data)
        assert np.array_equal(first.weights, second.weights)

    def test_parameter_errors(self):
        data = conic_blobs(per_class=3)
        with pytest.raises(ParameterError):
            svm.train_svm(data, regularization=0.0)
        with pytest.raises(ParameterError):
            svm.train_svm(data, regularization=-1.0)
        with pytest.raises(ParameterError):  # NaN never accepts a step: an all-zero "converged" W
            svm.train_svm(data, regularization=float("nan"))
        for tol in (0.0, -1e-3, float("nan")):
            with pytest.raises(ParameterError, match="tol"):
                svm.train_svm(data, tol=tol)
        for max_iter in (0, -3):
            with pytest.raises(ParameterError, match="max_iter"):
                svm.train_svm(data, max_iter=max_iter)
        single = LabeledSet(np.eye(2), one_hot([0, 0], 2))
        with pytest.raises(ParameterError):
            svm.train_svm(single)

    def test_non_finite_kernel_rejected(self):
        # a finite row whose squared norm overflows (a non-finite row is no LabeledSet)
        x = np.array([[1e200, 1e200], [0.0, 1.0]])
        data = LabeledSet(x, one_hot([0, 1], 2))
        with pytest.raises(DataError, match="non-finite kernel values"):
            svm.train_svm(data)


class TestInference:
    def test_confidence_equals_explicit_weights(self, rng):
        data = conic_blobs(per_class=5)
        model = svm.train_svm(data)
        x = np.asarray(data.inputs)
        eta = np.zeros_like(data.targets)
        scheduled_passes(eta, data.targets,
                         lambda rows: gram_sweep(x @ x.T, eta, data.targets, 1.0, rows)[0])
        weights = eta.T @ x  # (k, p) linear class weights of the dual form
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


class TestModel:
    @pytest.mark.parametrize("weights", [np.zeros(3), np.zeros((2, 2, 2))], ids=["1-d", "3-d"])
    def test_weights_must_be_a_matrix(self, weights):
        with pytest.raises(ShapeError, match="weights must be a \\(p, k\\) matrix"):
            svm.SvmModel(weights)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_weights_must_be_finite(self, bad):
        with pytest.raises(DataError, match="weights must be finite"):
            svm.SvmModel(np.array([[0.5, -0.5], [bad, 0.0]]))


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
