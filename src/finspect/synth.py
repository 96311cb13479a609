"""Synthetic shape rasters standing in for field imagery.

Shapes are drawn as filled masks on a square canvas, then transformed by
array operations chosen for exactness: nearest-neighbour upscale (kron),
quarter-turn rotation (rot90) and integer translation (bounds-checked
shift). This keeps the geometric relationships between an image and its
transformed copy exact at the pixel level, so invariance measurements see
only the estimator's own error. SyntheticShapeSpec checks itself when built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, is_integer
from .raster import GrayImage

SHAPE_CLASS = {
    "fin_polygon": "mature_shark",
    "ellipse": "shark_school",
    "disk": "baby_shark",
    "triangle": "other",
}

# unit-square outlines, y up; deliberately scalene / lopsided so no
# central-moment product degenerates to zero by symmetry
_TRIANGLE = ((-0.9, -0.75), (0.95, -0.35), (-0.25, 0.9))
_FIN = ((-0.95, -0.85), (0.95, -0.85), (0.55, -0.25), (0.72, 0.95),
        (0.05, 0.3), (-0.4, -0.1), (-0.75, -0.45))


@dataclass(frozen=True)
class SyntheticShapeSpec:
    kind: str                      # disk | ellipse | triangle | fin_polygon
    size: int                      # characteristic radius in pixels
    canvas: int = 192
    translate: tuple[int, int] = (0, 0)   # (dx, dy), applied last
    rotate_quarters: int = 0
    scale: int = 1                 # nearest-neighbour upscale factor
    noise: float = 0.0             # gaussian sigma added to pixel values

    def __post_init__(self):
        if self.kind not in SHAPE_CLASS:
            raise ParameterError(f"unknown shape kind {self.kind!r}")
        if not is_integer(self.size) or self.size < (self.kind != "disk"):
            raise ParameterError(f"size must be a positive int (disk may be 0), got {self.size!r}")
        if not (is_integer(self.canvas) and self.canvas >= 8):
            raise ParameterError(f"canvas must be an int of at least 8 px, got {self.canvas!r}")
        if self.size * 2 >= self.canvas:
            raise ParameterError("shape does not fit the canvas")
        if not (is_integer(self.scale) and self.scale >= 1):
            raise ParameterError(f"scale must be a positive int factor, got {self.scale!r}")
        if not is_integer(self.rotate_quarters):
            raise ParameterError(f"rotate_quarters must be an int, got {self.rotate_quarters!r}")
        if not (np.shape(self.translate) == (2,) and all(map(is_integer, self.translate))):
            raise ParameterError(f"translate must be a pair of ints, got {self.translate!r}")
        if isinstance(self.noise, bool) or not 0 <= self.noise < math.inf:  # NaN fails both
            raise ParameterError(f"noise must be finite and nonnegative, got {self.noise!r}")

    @property
    def label(self) -> str:
        return SHAPE_CLASS[self.kind]


def _polygon_mask(vertices, xs, ys) -> np.ndarray:
    """Even-odd rule point-in-polygon over coordinate grids."""
    inside = np.zeros(xs.shape, dtype=bool)
    x0, y0 = vertices[-1]
    for x1, y1 in vertices:
        crosses = (y0 > ys) != (y1 > ys)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x0 + (ys - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (xs < xint)
        x0, y0 = x1, y1
    return inside


def _base_mask(spec: SyntheticShapeSpec) -> np.ndarray:
    c = spec.canvas // 2
    ys, xs = np.mgrid[0:spec.canvas, 0:spec.canvas]
    x = (xs - c).astype(np.float64)
    y = (c - ys).astype(np.float64)  # y up
    s = float(spec.size)
    if spec.kind == "disk":
        return x * x + y * y <= s * s
    if spec.kind == "ellipse":
        return (x / s) ** 2 + (y / (0.62 * s)) ** 2 <= 1.0
    verts = _TRIANGLE if spec.kind == "triangle" else _FIN
    return _polygon_mask([(vx * s, vy * s) for vx, vy in verts], x, y)


def _shift(mask: np.ndarray, dx: int, dy: int) -> np.ndarray:
    rows, cols = np.nonzero(mask)
    h, w = mask.shape
    cols = cols + dx
    rows = rows - dy  # dy > 0 moves the shape up
    if cols.min() < 0 or cols.max() >= w or rows.min() < 0 or rows.max() >= h:
        raise ParameterError("translation pushes the shape off the canvas")
    out = np.zeros_like(mask)
    out[rows, cols] = True
    return out


def generate_synthetic(spec: SyntheticShapeSpec, rng_seed: int = 0) -> tuple[GrayImage, str]:
    mask = _base_mask(spec)
    if spec.scale > 1:
        mask = np.kron(mask, np.ones((spec.scale, spec.scale), dtype=bool))
    mask = np.rot90(mask, spec.rotate_quarters % 4)
    if spec.translate != (0, 0):
        mask = _shift(mask, *spec.translate)
    pixels = mask.astype(np.float64)
    if spec.noise > 0:
        # in place: each canvas-sized temporary costs about as much as its arithmetic
        pixels += np.random.default_rng(rng_seed).normal(0.0, spec.noise, pixels.shape)
        np.clip(pixels, 0.0, 1.0, out=pixels)
    return GrayImage.from_pixels(pixels), spec.label
