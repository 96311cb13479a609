"""The library-backed median filter must agree with a plain windowed median.

`median_filter` hands the work to `scipy.ndimage.median_filter`; here its
output is compared with `np.median` over every side x side window of the
edge-padded image, the replicate-border rule the filter promises.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from finspect import GrayImage, median_filter


def windowed_median(pixels, side):
    padded = np.pad(pixels, side // 2, mode="edge")
    return np.median(sliding_window_view(padded, (side, side)), axis=(-2, -1))


class TestMedianParity:
    def test_random_images(self, rng):
        for side in (3, 5):
            pixels = rng.random((12, 15))
            got = median_filter(GrayImage(pixels), side).pixels
            assert np.array_equal(got, windowed_median(pixels, side))

    def test_constant_image(self):
        pixels = np.full((6, 6), 0.25)
        got = median_filter(GrayImage(pixels), 3).pixels
        assert np.array_equal(got, windowed_median(pixels, 3))
