"""Generic Fourier descriptor.

The image is resampled onto a polar grid centred at the intensity
centroid, with 64 radial samples at radii (s + 0.5) * R_max / 64 (R_max is
the largest centroid-to-nonzero-pixel distance) and 128 angular samples.
The frequency sum is a DFT in the sample indices,

    S(rho, psi) = sum_s sum_t g(r_s, theta_t)
                  * exp(-2 pi i (rho (s + 0.5) / 64 + psi t / 128)),

so the angular phase is periodic in t and a lossless quarter-turn of the
image circularly shifts the samples, leaving every |S| unchanged. All
magnitudes are divided by |S(0, 0)|, which makes feature 0 exactly 1. The
two phase matrices depend only on the frequency counts, so they are built
once per (radial_count, angular_count) and kept read-only.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.ndimage

from ..errors import ParameterError, ZeroMassError, is_integer, readonly
from ..raster import as_pixels
from . import FeatureVector
from .moments import centroid

RADIAL_SAMPLES = 64
ANGULAR_SAMPLES = 128


def polar_samples(img: np.ndarray) -> np.ndarray:
    """Bilinear polar resampling grid used by the descriptor. Zero outside the canvas."""
    g = as_pixels(img)
    if g.sum() <= 0.0:
        raise ZeroMassError("polar resampling undefined for a zero-mass image")
    xc, yc = centroid(g)
    h, w = g.shape
    dist2 = (np.arange(w) - xc) ** 2 + ((np.arange(h) - yc) ** 2)[:, None]
    r_max = float(np.sqrt(dist2[g != 0].max()))
    radii = (np.arange(RADIAL_SAMPLES) + 0.5) * r_max / RADIAL_SAMPLES
    thetas = 2.0 * np.pi * np.arange(ANGULAR_SAMPLES) / ANGULAR_SAMPLES
    xs = xc + radii[:, None] * np.cos(thetas)[None, :]
    ys = yc + radii[:, None] * np.sin(thetas)[None, :]
    return scipy.ndimage.map_coordinates(g, [ys, xs], order=1, mode="grid-constant", cval=0.0)


@functools.lru_cache(maxsize=None)
def _phases(radial_count: int, angular_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only radial (rho, s) and angular (psi, t) DFT phase matrices."""
    s_idx = np.arange(RADIAL_SAMPLES) + 0.5
    t_idx = np.arange(ANGULAR_SAMPLES)
    rho = np.arange(radial_count)
    psi = np.arange(angular_count)
    return (readonly(np.exp(-2j * np.pi * np.outer(rho, s_idx) / RADIAL_SAMPLES)),
            readonly(np.exp(-2j * np.pi * np.outer(psi, t_idx) / ANGULAR_SAMPLES)))


def gfd_features(img: np.ndarray, radial_count: int = 4, angular_count: int = 9) -> FeatureVector:
    """|S(rho, psi)| / |S(0, 0)| for rho < radial_count, psi < angular_count."""
    if not all(is_integer(c) and c >= 1 for c in (radial_count, angular_count)):
        raise ParameterError(f"frequency counts must be at least 1, as ints: {radial_count!r}, "
                             f"{angular_count!r}")
    polar = polar_samples(img)
    radial_phase, angular_phase = _phases(radial_count, angular_count)
    spectrum = radial_phase @ polar @ angular_phase.T

    dc = abs(spectrum[0, 0])
    if dc <= 0.0:
        raise ZeroMassError("S(0,0) vanished; magnitudes cannot be normalized")
    magnitudes = np.abs(spectrum) / dc
    descriptor = tuple(f"S({r},{p})" for r in range(radial_count) for p in range(angular_count))
    return FeatureVector(extractor="GFD", descriptor=descriptor, values=magnitudes.ravel())
