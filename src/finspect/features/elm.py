"""Exact Legendre moments.

M_ab = sum_i sum_j I_a(cell_i) I_b(cell_j) g(i, j) for 1 <= a, b <= order,
where I_a over a cell [lo, hi] is the exact integral

    I_a = (2a+1)/(2a+2) * [x L_a(x) - L_(a-1)(x)]  evaluated hi minus lo

(the bracket is an antiderivative of (a+1) L_a, so I_a equals the
orthonormalizing constant (2a+1)/2 times the integral of L_a). Pixel
coordinates are normalized so that, after the half-cell shift of the grid
mean, the n cells tile [-1, 1] exactly: column i covers
[-1 + 2(i-1)/n, -1 + 2i/n]. Doubling an image by nearest-neighbour
replication splits each cell into two exact halves, so these features are
exactly invariant under that scaling while remaining sensitive to
translation against the fixed grid.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError, is_integer
from ..raster import as_pixels
from . import FeatureVector


def _legendre_table(max_order: int, x: np.ndarray) -> np.ndarray:
    """Rows L_0(x) .. L_max_order(x), filled by the three-term recurrence."""
    table = np.empty((max_order + 1,) + x.shape)
    table[0] = 1.0
    if max_order:
        table[1] = x
    for m in range(1, max_order):
        table[m + 1] = ((2 * m + 1) * x * table[m] - m * table[m - 1]) / (m + 1)
    return table


def legendre_poly(a: int, x):
    """L_a(x) by the three-term recurrence; accepts scalars or arrays."""
    if a < 0:
        raise ParameterError("Legendre order must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    row = _legendre_table(a, x)[a]
    return float(row) if row.ndim == 0 else row


def _cell_integrals(count: int, max_order: int) -> np.ndarray:
    """I_a over each of the `count` cells tiling [-1, 1], rows a = 1..max_order."""
    bounds = -1.0 + 2.0 * np.arange(count + 1) / count
    # antiderivative values F_a = x L_a - L_(a-1) at every boundary
    table = _legendre_table(max_order, bounds)
    anti = bounds * table[1:] - table[:-1]
    a = np.arange(1, max_order + 1)[:, None]
    return (2 * a + 1) / (2 * a + 2) * np.diff(anti, axis=1)


def elm_features(img: np.ndarray, max_order: int = 5) -> FeatureVector:
    """M_ab for 1 <= a, b <= max_order, row-major in (a, b)."""
    if not (is_integer(max_order) and max_order >= 1):
        raise ParameterError(f"max_order must be an integer >= 1, got {max_order!r}")
    g = as_pixels(img)
    m, n = g.shape  # m rows carry y, n columns carry x
    ix = _cell_integrals(n, max_order)  # (max_order, n)
    iy = _cell_integrals(m, max_order)  # (max_order, m)
    moments = ix @ g.T @ iy.T  # [a-1, b-1] = sum_ij I_a(x_i) I_b(y_j) g
    descriptor = tuple(
        f"M{a}{b}" for a in range(1, max_order + 1) for b in range(1, max_order + 1)
    )
    return FeatureVector(extractor="ELM", descriptor=descriptor, values=moments.ravel())
