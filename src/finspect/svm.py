"""Multiclass SVM in primal-weight form, trained on the row-constrained dual.

Dual variables form an (n, k) matrix eta with row constraints
eta_i <= onehot(y_i) and sum_c eta_ic = 0. The objective

    D = A * sum_i eta_i . onehot(y_i) - sum_{i,j} K_ij (eta_i . eta_j)

is maximized by exact ascent one row at a time: each row's subproblem is an
isotropic quadratic, so its solution is the Euclidean projection of the
unconstrained optimum onto the feasible set (_project). The kernel is
linear, so the machine is its (p, k) weight matrix W = X^T eta: row i's
residual is x_i . W - K_ii eta_i, and each row step adds x_i (outer) the
change in eta_i to W (the sequential dual method of Keerthi et al., KDD
2008). K is never formed and eta is only a working array of training;
classification picks the class with the largest (W^T x_q)_c. There is no
bias term.

Training runs passes of row steps. A full pass visits the rows round robin
over the classes: the first row of each class, then the second, and so on,
skipping a class that has run out; within a class rows keep their given
order. The order uses no random numbers, so a run is deterministic. After a
pass whose largest gain is >= tol, the next pass visits only the rows whose
eta_i that pass changed (shrinking, Hsieh et al., ICML 2008); after a
shrunk pass that gains less, the next pass is full again. Training has
converged when a full pass gains < tol; max_iter counts every pass.

k is the number of classes, a handful, so a row step on numpy k-vectors
would be mostly per-call overhead. A pass takes every K_ii with one einsum
and eta as lists; each row step makes two numpy calls (x_i . W, and the
rank-one update of W when the step is taken) and does the rest (residual,
breakpoint scan, gain and accept test) in Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul, sub

import numpy as np

from .dataset import LabeledSet
from .errors import DataError, ParameterError, ShapeError, is_integer, readonly


def kernel_linear(x1, x2) -> float:
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.shape != x2.shape:
        raise ShapeError("kernel arguments must have equal dimensions")
    return float(np.dot(x1, x2))


@dataclass(frozen=True)
class SvmModel:
    weights: np.ndarray      # (p, k) class weights W = X^T eta
    converged: bool = True

    def __post_init__(self):
        weights = readonly(self.weights, np.float64)
        if weights.ndim != 2:
            raise ShapeError("weights must be a (p, k) matrix")
        if not np.isfinite(weights).all():
            raise DataError("weights must be finite")
        object.__setattr__(self, "weights", weights)


def dual_objective(kernel_matrix: np.ndarray, eta: np.ndarray, targets: np.ndarray,
                   regularization: float) -> float:
    quad = np.einsum("ic,jc,ij->", eta, eta, kernel_matrix)
    return float(regularization * np.sum(eta * targets) - quad)


# Row subproblem: maximize A z.delta_i - 2 z.r_i - K_ii ||z||^2 over
# {z <= u_i, sum z = 0}. Completing the square reduces it to the Euclidean
# projection of v = (A u_i - 2 r_i) / (2 K_ii) onto that set, solved
# exactly by scanning the sorted breakpoints tau_c = v_c - u_c of the
# nonincreasing piecewise-linear function f(tau) = sum_c min(u_c, v_c - tau).
# f > 0 left of the first breakpoint (sum u > 0), and f > 0 at each
# breakpoint the scan passes, so the root is on the first segment whose line
# root does not pass its right end. Testing the left end as well can reject
# both segments of a root that sits on a breakpoint, by rounding.

def _project(v: list, u: list) -> list:
    """The breakpoint scan on lists of Python floats, for short rows."""
    k = len(v)
    breakpoints = sorted([(vc - uc, vc, uc) for vc, uc in zip(v, u)])
    u_total = sum(u)
    sum_v = sum_u = 0.0
    for m, (_, vc, uc) in enumerate(breakpoints, 1):
        sum_v += vc
        sum_u += uc
        candidate = (sum_v + u_total - sum_u) / m
        if m == k or candidate <= breakpoints[m][0]:
            break
    return [w if w < uc else uc for w, uc in zip([vc - candidate for vc in v], u)]


def svm_sweep_core(X: np.ndarray, W: np.ndarray, eta: np.ndarray, U: np.ndarray,
                   A: float, rows: list[int] | None = None) -> float:
    """One pass of exact per-row ascent over ``rows`` (default: every row, in index order).

    Mutates W and eta, returns the pass's largest gain.
    """
    kiis = np.einsum("ij,ij->i", X, X).tolist()
    etas = eta.tolist()
    caps = U.tolist()
    best = 0.0
    for i in range(X.shape[0]) if rows is None else rows:
        kii = kiis[i]
        if kii < 1e-12:
            continue
        x, old, u = X[i], etas[i], caps[i]
        # g = A u_i - 2 r_i, where r_i = x_i . W - K_ii eta_i is row i's residual
        g = [A * uc - 2.0 * (xw - kii * ec) for uc, xw, ec in zip(u, (x @ W).tolist(), old)]
        new = _project([gc / (2.0 * kii) for gc in g], u)
        delta = list(map(sub, new, old))
        d_obj = sum(map(mul, g, delta)) - kii * (sum(map(mul, new, new)) - sum(map(mul, old, old)))
        if d_obj > 0.0:
            W += np.multiply.outer(x, delta)
            etas[i] = new
            if d_obj > best:
                best = d_obj
    eta[:] = etas
    return best


def train_svm(data: LabeledSet, regularization: float = 1.0, tol: float = 1e-3,
              max_iter: int = 1000) -> SvmModel:
    """Sequential dual ascent until a pass over every row gains less than ``tol``.

    ``max_iter`` bounds the passes, full and shrunk alike; ``converged`` is
    False when it runs out first.
    """
    if not 0 < regularization < math.inf:  # NaN fails every comparison
        raise ParameterError(f"regularization must be finite and positive, got {regularization}")
    if not 0 < tol < math.inf:
        raise ParameterError(f"tol must be finite and positive, got {tol}")
    if not (is_integer(max_iter) and max_iter >= 1):
        raise ParameterError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if data.n < 2 or len(np.unique(data.labels)) < 2:
        raise ParameterError("need >= 2 points spanning >= 2 classes")
    inputs = data.inputs
    # |K_ij| <= sqrt(K_ii K_jj): finite squared norms mean a finite kernel
    if not np.isfinite(np.einsum("ij,ij->i", inputs, inputs)).all():
        raise DataError("non-finite kernel values")
    targets = np.ascontiguousarray(data.targets)
    eta = np.zeros_like(targets)
    weights = np.zeros((inputs.shape[1], targets.shape[1]))
    labels = data.labels
    # a full pass visits row j of each class in turn, j = 0, 1, ...: sort by
    # (rank of the row within its class, class)
    seen = np.cumsum(np.eye(data.n_classes, dtype=np.int64)[labels], axis=0)
    full = np.lexsort((labels, seen[np.arange(data.n), labels]))
    rows = full
    converged = False
    for _ in range(max_iter):
        before = eta.copy()
        if svm_sweep_core(inputs, weights, eta, targets, regularization, rows.tolist()) >= tol:
            # a gain >= tol took a step, so the next pass has at least one row
            rows = full[(eta != before).any(axis=1)[full]]
        elif rows.size == data.n:
            converged = True
            break
        else:
            rows = full
    return SvmModel(weights, converged)


def confidence(model: SvmModel, x_q) -> np.ndarray:
    """Per-class scores (W^T x_q)_c."""
    x_q = np.asarray(x_q, dtype=np.float64)
    if x_q.shape != (model.weights.shape[0],):
        raise ShapeError("query dimension does not match the training inputs")
    return model.weights.T @ x_q


def predict_proba(model: SvmModel, x_q) -> np.ndarray:
    """Shift-normalize confidences; preserves the argmax."""
    conf = confidence(model, x_q)
    shifted = conf - conf.min() + 1e-9
    return shifted / shifted.sum()


def predict(model: SvmModel, inputs) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    return np.array([int(np.argmax(confidence(model, row))) for row in rows])


def empirical_error(model: SvmModel, data: LabeledSet) -> float:
    return float(np.mean(predict(model, data.inputs) != data.labels))


def two_point_line(x1, x2) -> tuple[np.ndarray, float]:
    """Maximum-margin line between two points: F(x1) = -1, F(x2) = +1.

    Binary geometric form with a bias term; used where a separating line
    with unit margins is wanted rather than the multiclass dual.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    gap = x2 - x1
    norm2 = float(gap @ gap)
    if norm2 <= 0:
        raise ParameterError("the two points must be distinct")
    w = 2.0 * gap / norm2
    b = -1.0 - float(w @ x1)
    return w, b

