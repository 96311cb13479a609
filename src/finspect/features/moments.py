"""Geometric moments and complex moment invariant products.

A product spec is a list of factors (a, b, c). The feature emitted for it
is |prod_i C_(a_i b_i)^(c_i)| / C_00^(sum_i w_i) with w_i = c_i(a_i+b_i+2)/2,
where C_ab is the central complex moment

    C_ab = sum_xy [(x-x_c) + j(y-y_c)]^a [(x-x_c) - j(y-y_c)]^b g(x, y).

Rotation invariance requires sum_i c_i(a_i - b_i) = 0, which
MomentProductSpec checks on construction; the scale powers cancel by
construction of w_i; centering handles translation.

Every moment comes from one table of central geometric moments,

    mu[q, p] = sum_xy (x-x_c)^p (y-y_c)^q g(x, y) = (Py @ g @ Px^T)[q, p],

with Px[p, x] = (x-x_c)^p and Py[q, y] = (y-y_c)^q, built once per image up
to the highest order the basis needs. Each C_ab is then the binomial
expansion of its kernel over that table (Flusser, "On the independence of
rotation moment invariants", Pattern Recognition 2000):

    C_ab = sum_k=0..a sum_m=0..b  binom(a, k) binom(b, m) (-1)^m j^(k+m)
           mu[k+m, a+b-k-m].
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from math import comb, isfinite

import numpy as np

from ..errors import BasisError, ParameterError, ZeroMassError, is_integer
from ..raster import as_pixels
from . import FeatureVector


def _moment_table(g: np.ndarray, order: int, xc: float, yc: float) -> np.ndarray:
    """mu[q, p] = sum_xy (x-xc)^p (y-yc)^q g(x, y) for 0 <= p, q <= order."""
    powers = np.arange(order + 1)[:, None]
    px = (np.arange(g.shape[1]) - xc) ** powers
    py = (np.arange(g.shape[0]) - yc) ** powers
    return py @ g @ px.T


@functools.lru_cache(maxsize=None)
def _expansion(a: int, b: int) -> tuple[complex, ...]:
    """Coefficient of mu[m, a+b-m] in C_ab, for m = 0 .. a+b."""
    coef = [0] * (a + b + 1)
    for k in range(a + 1):
        for m in range(b + 1):
            coef[k + m] += comb(a, k) * comb(b, m) * (-1) ** m
    return tuple(c * 1j**m for m, c in enumerate(coef))


def _complex_from_table(mu: list, a: int, b: int) -> complex:
    """C_ab from a central moment table of order at least a + b, as nested lists."""
    n = a + b
    return complex(sum(w * mu[m][n - m] for m, w in enumerate(_expansion(a, b))))


def geometric_moment(img: np.ndarray, a: int, b: int, central: bool = False) -> float:
    """Discrete moment sum_xy x^a y^b g(x, y); x runs over columns, y over rows."""
    if a < 0 or b < 0:
        raise ParameterError("moment orders must be nonnegative")
    g = as_pixels(img)
    xc, yc = centroid(g) if central else (0.0, 0.0)
    return float(_moment_table(g, max(a, b), xc, yc)[b, a])


def centroid(img: np.ndarray) -> tuple[float, float]:
    """Intensity centroid (mu10/mu00, mu01/mu00), from the row and column sums."""
    g = as_pixels(img)
    mass = g.sum()
    if mass <= 0.0:
        raise ZeroMassError("centroid undefined for a zero-mass image")
    h, w = g.shape
    return float(g.sum(axis=0) @ np.arange(w) / mass), float(g.sum(axis=1) @ np.arange(h) / mass)


def complex_moment(img: np.ndarray, a: int, b: int) -> complex:
    """Central complex moment C_ab of order a + b."""
    if a < 0 or b < 0:
        raise ParameterError("moment orders must be nonnegative")
    g = as_pixels(img)
    return _complex_from_table(_moment_table(g, a + b, *centroid(g)).tolist(), a, b)


@dataclass(frozen=True)
class MomentProductSpec:
    """Factors (a, b, c): moment orders a, b and the exponent c of that factor.

    Each order is a nonnegative integer (``is_integer``) and each exponent a finite
    real number, not a bool; a factor that breaks this is a BasisError, as is a
    product that is empty or not rotation invariant.
    """

    factors: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if not self.factors:
            raise BasisError("a moment product needs at least one factor")
        balance = 0.0
        for a, b, c in self.factors:
            if not (is_integer(a) and is_integer(b)):
                raise BasisError(f"moment orders must be integers, got ({a!r}, {b!r})")
            if a < 0 or b < 0:
                raise BasisError(f"moment orders must be nonnegative, got ({a}, {b})")
            if isinstance(c, bool) or not (isinstance(c, numbers.Real) and isfinite(c)):
                raise BasisError(f"moment exponents must be finite numbers, got {c!r}")
            balance += c * (a - b)
        if abs(balance) > 1e-12:
            raise BasisError(
                f"product {self.label()} violates sum c(a - b) = 0 (got {balance!r}); "
                "it cannot be rotation invariant"
            )

    def label(self) -> str:
        return " ".join(
            f"M{a}{b}" + (f"^{c:g}" if c != 1 else "") for a, b, c in self.factors
        )


DEFAULT_CMI_BASIS: tuple[MomentProductSpec, ...] = (
    MomentProductSpec(((0, 2, 1.0), (2, 0, 1.0))),
    MomentProductSpec(((1, 2, 2.0), (2, 0, 1.0))),
    MomentProductSpec(((1, 2, 1.0), (2, 1, 1.0))),
    MomentProductSpec(((2, 1, 2.0), (0, 2, 1.0))),
    MomentProductSpec(((1, 3, 3.0), (4, 2, 3.0))),
    MomentProductSpec(((3, 2, 2.0), (2, 3, 2.0))),
)


def cmi_features(img: np.ndarray, basis: tuple[MomentProductSpec, ...] | None = None) -> FeatureVector:
    """Moduli of the normalized complex moment products over the basis."""
    if basis is None:
        basis = DEFAULT_CMI_BASIS
    g = as_pixels(img)
    mass = float(g.sum())
    if mass <= 0.0:
        raise ZeroMassError("complex moment invariants undefined for a zero-mass image")
    needed = {(a, b) for spec in basis for a, b, _ in spec.factors}
    order = max((a + b for a, b in needed), default=0)
    mu = _moment_table(g, order, *centroid(g)).tolist()
    cache = {(a, b): _complex_from_table(mu, a, b) for a, b in needed}

    values = []
    for spec in basis:
        product = complex(1.0)
        weight = 0.0
        for a, b, c in spec.factors:
            product *= cache[(a, b)] ** c
            weight += c * (a + b + 2) / 2.0
        values.append(abs(product) / mass**weight)
    return FeatureVector(
        extractor="CMI",
        descriptor=tuple(spec.label() for spec in basis),
        values=np.asarray(values),
    )
