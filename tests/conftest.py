from dataclasses import dataclass

import numpy as np
import pytest
import scipy.ndimage
import scipy.sparse

from finspect import GrayImage, ShapeError, SyntheticShapeSpec, generate_synthetic
from finspect.preprocess import (SEED_EROSION, SIGMA_FLOOR, binarize, median_filter,
                                 otsu_threshold, random_walker_segment)

CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def shape_image(kind: str, size: int, canvas: int = 192, **kw) -> GrayImage:
    img, _ = generate_synthetic(SyntheticShapeSpec(kind, size, canvas, **kw))
    return img


def random_gray(rng, lo=4, hi=20) -> GrayImage:
    h, w = rng.integers(lo, hi, 2)
    return GrayImage.from_pixels(rng.random((int(h), int(w))))


@dataclass(frozen=True)
class PixelGraph:
    height: int
    width: int
    sigma: float
    laplacian: scipy.sparse.csr_matrix


def build_pixel_graph(img: GrayImage) -> PixelGraph:
    """4-neighborhood graph with weights eta_ij = exp(-(g_i - g_j)^2 / sigma).

    sigma is the intensity variance of the image, floored at 1e-6. The
    Laplacian carries the degree on the diagonal and -eta off it. This full
    Laplacian is the reference the tests solve densely; the library itself
    builds only the reduced system inside ``random_walker_segment``.
    """
    g = img.pixels
    h, w = g.shape
    n = h * w
    if n < 2:
        raise ShapeError("pixel graph needs at least 2 pixels")
    sigma = max(float(g.var()), SIGMA_FLOOR)

    idx = np.arange(n).reshape(h, w)
    rows = []
    cols = []
    vals = []
    if w > 1:
        diff = g[:, 1:] - g[:, :-1]
        rows.append(idx[:, :-1].ravel())
        cols.append(idx[:, 1:].ravel())
        vals.append(np.exp(-(diff**2) / sigma).ravel())
    if h > 1:
        diff = g[1:, :] - g[:-1, :]
        rows.append(idx[:-1, :].ravel())
        cols.append(idx[1:, :].ravel())
        vals.append(np.exp(-(diff**2) / sigma).ravel())
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)

    weights = scipy.sparse.coo_matrix(
        (np.concatenate([vals, vals]), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n),
    ).tocsr()
    degree = np.asarray(weights.sum(axis=1)).ravel()
    laplacian = scipy.sparse.diags(degree) - weights
    return PixelGraph(height=h, width=w, sigma=sigma, laplacian=laplacian.tocsr())


def dense_gamma(img, seed_sets):
    """Random-walker probabilities from a dense solve on the full Laplacian."""
    lap = build_pixel_graph(img).laplacian.toarray()
    n = img.pixels.size
    seeded = np.concatenate(seed_sets)
    unk = np.setdiff1d(np.arange(n), seeded)
    gamma = np.zeros((n, len(seed_sets)))
    for s, seeds in enumerate(seed_sets):
        gamma[seeds, s] = 1.0
        rhs = -lap[np.ix_(unk, seeded)] @ gamma[seeded, s]
        gamma[unk, s] = np.linalg.solve(lap[np.ix_(unk, unk)], rhs)
    return gamma.reshape(img.pixels.shape + (len(seed_sets),))


def canvas_gamma(seg):
    """The walker's gamma over the whole canvas, (h, w, s): one-hot on seeded pixels."""
    s = seg.pixel_counts.size
    gamma = np.eye(s)[seg.labels.ravel()]
    gamma[seg.free] = seg.gamma.T
    return gamma.reshape(seg.labels.shape + (s,))


def canvas_seeds(binary, levels):
    """Seed sets of the whole canvas, one component at a time.

    The reference for ``derive_seeds`` and for ``segment_image``'s window:
    each 4-connected foreground component's pixels in its erosion by
    ``SEED_EROSION`` (pixels outside counting as background), or, if that is
    empty, its pixel nearest sum(level * (y, x)) / sum(level), the levels
    weighed uniformly if all are 0 (ties to the lowest flat index); then the
    outer background, the background pixels that
    ``scipy.ndimage.binary_fill_holes`` leaves unset.
    """
    bits = binary.bits
    labels, count = scipy.ndimage.label(bits, structure=CROSS)
    core = scipy.ndimage.binary_erosion(bits, structure=CROSS, iterations=SEED_EROSION,
                                        border_value=0)
    seeds = []
    for comp in range(1, count + 1):
        mask = labels == comp
        inner = np.flatnonzero(mask & core)
        if not inner.size:
            ys, xs = np.nonzero(mask)
            weight = levels[mask].astype(np.float64)
            if not weight.sum():
                weight[:] = 1.0
            cy, cx = (weight * ys).sum() / weight.sum(), (weight * xs).sum() / weight.sum()
            nearest = np.argmin((ys - cy) ** 2 + (xs - cx) ** 2)
            inner = np.array([ys[nearest] * bits.shape[1] + xs[nearest]])
        seeds.append(inner)
    seeds.append(np.flatnonzero(~scipy.ndimage.binary_fill_holes(bits, structure=CROSS)))
    return seeds


def canvas_segmentation(img, median_side=3):
    """``segment_image`` on the whole canvas: ``canvas_seeds``, then a walk over every pixel."""
    smoothed = median_filter(img, median_side)
    seeds = canvas_seeds(binarize(smoothed, otsu_threshold(smoothed).theta), smoothed.levels)
    return random_walker_segment(smoothed, seeds)
