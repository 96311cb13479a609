import numpy as np
import pytest

from finspect import GrayImage, SyntheticShapeSpec, build_pixel_graph, generate_synthetic


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def shape_image(kind: str, size: int, canvas: int = 192, **kw) -> GrayImage:
    img, _ = generate_synthetic(SyntheticShapeSpec(kind, size, canvas, **kw))
    return img


def random_gray(rng, lo=4, hi=20) -> GrayImage:
    h, w = rng.integers(lo, hi, 2)
    return GrayImage(rng.random((int(h), int(w))))


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
