"""Multiclass SVM trained on the concave row-constrained dual.

Dual variables form an (n, k) matrix eta with row constraints
eta_i <= onehot(y_i) and sum_c eta_ic = 0. The objective

    D = A * sum_i eta_i . onehot(y_i) - sum_{i,j} K_ij (eta_i . eta_j)

is maximized by cyclic exact ascent: each row's subproblem is an isotropic
quadratic, so its solution is the Euclidean projection of the unconstrained
optimum onto the feasible set (_project_row). The kernel is linear, so
classification picks the class with the largest sum eta_ic * (x_i . x_q);
there is no bias term.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import LabeledSet
from .errors import DataError, ParameterError, ShapeError


def kernel_linear(x1, x2) -> float:
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.shape != x2.shape:
        raise ShapeError("kernel arguments must have equal dimensions")
    return float(np.dot(x1, x2))


@dataclass(frozen=True)
class SvmModel:
    eta: np.ndarray          # (n, k) dual coefficients
    inputs: np.ndarray       # retained training rows (n, p)
    labels: np.ndarray       # (n,) integer labels
    regularization: float
    converged: bool = True

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=np.float64)
        x = np.asarray(self.inputs, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if eta.ndim != 2 or x.ndim != 2 or eta.shape[0] != x.shape[0] or y.shape != (x.shape[0],):
            raise ShapeError("eta (n, k), inputs (n, p) and labels (n,) must align")
        if not np.isfinite(eta).all():
            raise DataError("dual coefficients must be finite")
        for name, arr in (("eta", eta), ("inputs", x), ("labels", y)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_classes(self) -> int:
        return self.eta.shape[1]


def dual_objective(kernel_matrix: np.ndarray, eta: np.ndarray, targets: np.ndarray,
                   regularization: float) -> float:
    quad = np.einsum("ic,jc,ij->", eta, eta, kernel_matrix)
    return float(regularization * np.sum(eta * targets) - quad)


# Row subproblem: maximize A z.delta_i - 2 z.r_i - K_ii ||z||^2 over
# {z <= u_i, sum z = 0}. Completing the square reduces it to the Euclidean
# projection of v = (A u_i - 2 r_i) / (2 K_ii) onto that set, solved
# exactly by scanning the sorted breakpoints tau_c = v_c - u_c of the
# piecewise-linear function f(tau) = sum_c min(u_c, v_c - tau).

def _project_row(v: np.ndarray, u: np.ndarray) -> np.ndarray:
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
        upper = tau_sorted[m] if m < k else np.inf
        if tau_sorted[m - 1] <= candidate <= upper:
            return np.minimum(u, v - candidate)
    # numerically the last segment always admits a root; keep a safe exit
    candidate = (sum_v + u_total - sum_u) / k
    return np.minimum(u, v - candidate)


def svm_sweep_core(K: np.ndarray, eta: np.ndarray, U: np.ndarray, A: float) -> float:
    """One cyclic pass of exact per-row ascent. Mutates eta, returns max gain."""
    n = K.shape[0]
    best = 0.0
    for i in range(n):
        kii = K[i, i]
        if kii < 1e-12:
            continue
        r = K[i] @ eta - kii * eta[i]
        v = (A * U[i] - 2.0 * r) / (2.0 * kii)
        new = _project_row(v, U[i])
        d_obj = (A * U[i] - 2.0 * r) @ (new - eta[i]) - kii * (new @ new - eta[i] @ eta[i])
        if d_obj > 0.0:
            eta[i] = new
            if d_obj > best:
                best = d_obj
    return best


def _gram(inputs: np.ndarray) -> np.ndarray:
    gram = inputs @ inputs.T
    if not np.isfinite(gram).all():
        raise DataError("non-finite kernel values")
    return gram


def train_svm(data: LabeledSet, regularization: float = 1.0, tol: float = 1e-3,
              max_iter: int = 1000) -> SvmModel:
    if regularization <= 0:
        raise ParameterError("regularization must be positive")
    if data.n < 2 or len(np.unique(data.labels)) < 2:
        raise ParameterError("need >= 2 points spanning >= 2 classes")
    gram = _gram(data.inputs)
    eta = np.zeros_like(data.targets)
    targets = np.ascontiguousarray(data.targets)
    converged = False
    for _ in range(max_iter):
        gain = svm_sweep_core(gram, eta, targets, regularization)
        if gain < tol:
            converged = True
            break
    return SvmModel(eta, data.inputs, data.labels, regularization, converged)


def confidence(model: SvmModel, x_q) -> np.ndarray:
    """Per-class sums eta_ic * (x_i . x_q)."""
    x_q = np.asarray(x_q, dtype=np.float64)
    if x_q.shape != (model.inputs.shape[1],):
        raise ShapeError("query dimension does not match the training inputs")
    return model.eta.T @ (model.inputs @ x_q)


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


def save_model(model: SvmModel, path: str | Path) -> None:
    doc = {
        "eta": model.eta.tolist(),
        "A": model.regularization,
        "kernel": "linear",
        "inputs": model.inputs.tolist(),
        "labels": model.labels.tolist(),
        "converged": model.converged,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_model(path: str | Path) -> SvmModel:
    doc = json.loads(Path(path).read_text())
    if doc.get("kernel", "linear") != "linear":
        raise DataError(f"{path}: SVM kernel {doc['kernel']!r} is not supported, only 'linear'")
    return SvmModel(
        np.asarray(doc["eta"]),
        np.asarray(doc["inputs"]),
        np.asarray(doc["labels"]),
        doc["A"],
        doc.get("converged", True),
    )
