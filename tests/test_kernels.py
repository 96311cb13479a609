"""The selection-network median filter must equal a sorting median exactly.

`median_filter` picks each window's median with a pruned min/max network
over the shifted views of the edge-padded 8-bit levels. Here its output is
compared, for exact equality, with `np.median` over every side x side
window of the edge-padded image (the replicate-border rule the filter
promises) and with `scipy.ndimage.median_filter(mode="nearest")`, both run
on the image's pixels rounded to their levels.
"""

import numpy as np
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from finspect import GrayImage, median_filter
from finspect.raster import gray_levels

SIDES = (1, 3, 5, 7, 9)


def windowed_median(pixels, side):
    padded = np.pad(pixels, side // 2, mode="edge")
    return np.median(sliding_window_view(padded, (side, side)), axis=(-2, -1))


def assert_exact_median(pixels, side):
    got = median_filter(GrayImage(pixels), side).pixels
    on_grid = gray_levels(pixels) / 255.0
    assert np.array_equal(got, windowed_median(on_grid, side))
    assert np.array_equal(got, scipy.ndimage.median_filter(on_grid, size=side, mode="nearest"))


def quantised_image(rng, shape):
    """Few k/255 levels laid out in flat rectangles, so most windows hold ties."""
    levels = np.array([0, 1, 2, 127, 128, 254, 255]) / 255.0
    pixels = np.full(shape, levels[0])
    for _ in range(12):
        y0, x0 = rng.integers(0, shape[0]), rng.integers(0, shape[1])
        pixels[y0:y0 + rng.integers(1, 8), x0:x0 + rng.integers(1, 8)] = rng.choice(levels)
    speckle = rng.random(shape) < 0.1
    pixels[speckle] = rng.choice(levels, size=int(speckle.sum()))
    return pixels


class TestMedianParity:
    def test_random_images(self, rng):
        for shape in ((11, 17), (23, 9)):
            pixels = rng.random(shape)
            for side in SIDES:
                assert_exact_median(pixels, side)

    def test_tie_heavy_quantised_images(self, rng):
        for shape in ((19, 26), (30, 12)):
            pixels = quantised_image(rng, shape)
            for side in SIDES:
                assert_exact_median(pixels, side)

    def test_constant_image(self):
        pixels = np.full((9, 10), 0.25)
        for side in SIDES:
            assert_exact_median(pixels, side)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_small_value_sets(self, data):
        side = data.draw(st.sampled_from(SIDES))
        shape = (data.draw(st.integers(side, side + 8)), data.draw(st.integers(side, side + 8)))
        levels = st.sampled_from([0.0, 1 / 255, 0.5, 254 / 255, 1.0])
        pixels = data.draw(arrays(np.float64, shape, elements=levels))
        assert_exact_median(pixels, side)
