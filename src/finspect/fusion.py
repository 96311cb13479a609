"""Decision-template fusion of classifier outputs.

A decision profile stacks one membership row per classifier. Templates are
per-class means of training profiles. Fusing a query profile is array
arithmetic over all rows at once: the proximity of each row to every class
template's row, the belief degrees those proximities give, and per class the
product of beliefs over rows. Supports are reported both raw and
normalized; the argmax is the same either way. The pipeline applies fusion
in two stages: each extractor's classifier rows, then the stage-1 supports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateBeliefError, ParameterError, ShapeError, readonly

_ROW_SUM_TOL = 1e-6
_DENOM_FLOOR = 1e-12


def _check_rows(p: np.ndarray, what: str) -> None:
    """Every row (last axis) of ``p`` in [0, 1] and summing to 1, within _ROW_SUM_TOL."""
    if (p < -_ROW_SUM_TOL).any() or (p > 1 + _ROW_SUM_TOL).any():
        raise ParameterError(f"{what} entries must lie in [0, 1]")
    # not np.allclose, whose default rtol adds 1e-5 to the tolerance; a NaN sum fails <=
    if not (np.abs(p.sum(axis=-1) - 1.0) <= _ROW_SUM_TOL).all():
        raise ParameterError(f"every {what} row must sum to 1")


def check_profile(profile) -> np.ndarray:
    """The profile as floats, checked to be 2-D with rows in [0, 1] that sum to 1."""
    p = np.asarray(profile, dtype=np.float64)
    if p.ndim != 2:
        raise ShapeError("decision profile must be 2-D (classifiers x classes)")
    _check_rows(p, "profile")
    return p


@dataclass(frozen=True)
class DecisionTemplates:
    """Per-class mean profiles, stacked as (n_classes, l, k).

    Every entry is finite, and every row lies in [0, 1] and sums to 1, as the
    profile rows it is a mean of do (``check_profile``).
    """

    matrices: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        m = readonly(self.matrices, np.float64)
        c = readonly(self.counts, np.int64)
        if m.ndim != 3 or c.shape != (m.shape[0],):
            raise ShapeError("templates are (n_classes, l, k) with one count per class")
        if (c < 1).any():
            raise ParameterError("every class needs at least one training profile")
        if not np.isfinite(m).all():
            raise DataError("template matrices must be finite")
        _check_rows(m, "template")
        object.__setattr__(self, "matrices", m)
        object.__setattr__(self, "counts", c)


@dataclass(frozen=True)
class ClassSupport:
    raw: np.ndarray         # per-class belief products, unnormalized
    support: np.ndarray     # raw scaled to sum 1 (uniform on total conflict)
    predicted: int
    total_conflict: bool = False

    def to_dict(self) -> dict:
        return {
            "raw": self.raw.tolist(),
            "support": self.support.tolist(),
            "predicted": self.predicted,
            "total_conflict": self.total_conflict,
        }


def compute_templates(profiles, labels, n_classes: int) -> DecisionTemplates:
    """Elementwise mean of each class's training profiles."""
    stack = np.stack([check_profile(p) for p in profiles])
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (stack.shape[0],):
        raise ShapeError("one label per profile")
    member = labels == np.arange(n_classes)[:, None]  # (n_classes, n)
    counts = member.sum(axis=1)
    if (counts == 0).any():
        raise ParameterError(f"class {int(np.argmin(counts))} has no training profiles")
    sums = np.where(member[:, :, None, None], stack, 0.0).sum(axis=1)
    return DecisionTemplates(sums / counts[:, None, None], counts)


def proximity(template_rows, output_rows) -> np.ndarray:
    """Inverse-distance weights of output rows against each class's rows.

    Templates (n_classes, ..., k) against rows (..., k) give weights
    (n_classes, ...): w_j = 1 / (1 + ||t_j - o||_2), normalised to sum 1
    over classes. The Euclidean distance is not squared, unlike Kuncheva's
    1 / (1 + ||t_j - o||_2^2).
    """
    rows = np.atleast_2d(np.asarray(template_rows, dtype=np.float64))
    out = np.asarray(output_rows, dtype=np.float64)
    if rows.shape[1:] != out.shape:
        raise ShapeError("template rows and output rows must share shape (..., k)")
    weights = 1.0 / (1.0 + np.linalg.norm(rows - out, axis=-1))
    return weights / weights.sum(axis=0)


def belief(lam: np.ndarray) -> np.ndarray:
    """Belief degrees pi_j = lam_j P_j / (1 - lam_j (1 - P_j)), P_j = prod_{r!=j}(1-lam_r).

    Classes lie on axis 0; further axes (one per classifier row) are
    independent.
    """
    lam = np.asarray(lam, dtype=np.float64)
    k = lam.shape[0]
    own = np.eye(k, dtype=bool).reshape((k, k) + (1,) * (lam.ndim - 1))
    others = np.prod(np.where(own, 1.0, 1.0 - lam), axis=1)
    denom = 1.0 - lam * (1.0 - others)
    if (denom <= _DENOM_FLOOR).any():
        raise DegenerateBeliefError("belief denominator vanished (total conflict of evidence)")
    return lam * others / denom


def fuse(profile, templates: DecisionTemplates) -> ClassSupport:
    """Per-class product of belief degrees across classifiers."""
    p = check_profile(profile)
    if templates.matrices.shape[1:] != p.shape:
        raise ParameterError("template classifier count does not match the profile")
    raw = np.prod(belief(proximity(templates.matrices, p)), axis=1)
    total = raw.sum()
    if total <= 0.0:
        return ClassSupport(raw, np.full(raw.size, 1.0 / raw.size), 0, total_conflict=True)
    return ClassSupport(raw, raw / total, int(np.argmax(raw)))
