import dataclasses

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st

from finspect import (BinaryImage, DegenerateHistogramError, EmptyBackgroundError,
                      EmptyForegroundError, GrayImage, ImageTooSmallError, ParameterError,
                      Segmentation, ShapeError, SolverError, SyntheticShapeSpec, binarize,
                      derive_seeds, generate_synthetic, histogram256, median_filter,
                      otsu_threshold, random_walker_segment, segment_image)
from finspect import preprocess
from finspect.preprocess import SEED_EROSION
from finspect.raster import decode_image, gray_levels, to_grayscale

from conftest import (CROSS, build_pixel_graph, canvas_gamma, canvas_seeds, canvas_segmentation,
                      dense_gamma, random_gray, shape_image)


def median_oracle(pixels, side):
    """Replicate-padded median via explicit window sorting."""
    r = side // 2
    padded = np.pad(pixels, r, mode="edge")
    out = np.empty_like(pixels)
    for y in range(pixels.shape[0]):
        for x in range(pixels.shape[1]):
            window = np.sort(padded[y:y + side, x:x + side].ravel())
            out[y, x] = window[window.size // 2]
    return out


class TestMedianFilter:
    def test_matches_sort_oracle(self, rng):
        # the second image has four levels, so many windows hold repeated values
        for img in (random_gray(rng), GrayImage.from_pixels(rng.integers(0, 4, (13, 17)) / 3.0)):
            for side in (3, 5, 7):
                if side <= min(img.pixels.shape):
                    got = median_filter(img, side)
                    assert np.array_equal(got.pixels, median_oracle(img.pixels, side))

    def test_float_image_gets_the_levels_of_its_rounded_median(self, rng):
        # rounding to a level is nondecreasing, so it commutes with the median
        px = rng.random((11, 13))
        for side in (1, 3, 5, 7):
            got = median_filter(GrayImage.from_pixels(px), side)
            assert np.array_equal(got.levels, gray_levels(median_oracle(px, side)))
            assert np.array_equal(got.pixels, got.levels / 255)

    @pytest.mark.parametrize("magic", [b"P5", b"P2"])
    @pytest.mark.parametrize("level_count", [256, 3])
    def test_decoded_pgm_matches_sort_oracle(self, rng, magic, level_count):
        # decoded pixels are exactly level / 255, so the network runs on uint8 levels
        levels = rng.choice(rng.permutation(256)[:level_count], (11, 13)).astype(np.uint8)
        payload = (levels.tobytes() if magic == b"P5"
                   else " ".join(str(v) for v in levels.ravel()).encode())
        img = decode_image(magic + b"\n13 11\n255\n" + payload)
        for side in (3, 5, 7):
            got = median_filter(img, side)
            assert np.array_equal(got.pixels, median_oracle(img.pixels, side))
            assert np.array_equal(got.levels, median_oracle(levels, side))

    def test_grayscale_of_p6_matches_sort_oracle(self, rng):
        rgb = rng.integers(0, 256, (11, 13, 3), dtype=np.uint8)
        img = to_grayscale(decode_image(b"P6\n13 11\n255\n" + rgb.tobytes()))
        f = (0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]) / 255.0
        assert np.array_equal(img.levels, gray_levels(f))
        for side in (3, 5, 7):
            assert np.array_equal(median_filter(img, side).pixels, median_oracle(img.pixels, side))

    def test_builds_no_float_canvas(self, rng):
        levels = rng.integers(0, 256, (11, 13), dtype=np.uint8)
        img = decode_image(b"P5\n13 11\n255\n" + levels.tobytes())
        got = median_filter(img, 3)
        assert "pixels" not in vars(img) and "pixels" not in vars(got)

    def test_side_one_is_identity(self, rng):
        img = random_gray(rng)
        assert np.array_equal(median_filter(img, 1).levels, img.levels)

    def test_output_values_subset_of_input(self, rng):
        img = random_gray(rng)
        got = median_filter(img, 3)
        assert set(np.unique(got.levels)) <= set(np.unique(img.levels))

    def test_even_side_rejected(self):
        with pytest.raises(ParameterError):
            median_filter(GrayImage.from_pixels(np.zeros((4, 4))), 2)

    @pytest.mark.parametrize("side", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_side_rejected(self, side):
        with pytest.raises(ParameterError, match="must be odd and positive"):
            median_filter(GrayImage.from_pixels(np.zeros((4, 4))), side)

    def test_side_larger_than_image_rejected(self):
        with pytest.raises(ImageTooSmallError):
            median_filter(GrayImage.from_pixels(np.zeros((3, 5))), 5)

    def test_constant_region_untouched(self):
        img = GrayImage.from_pixels(np.full((6, 6), 64 / 255))
        assert np.array_equal(median_filter(img, 3).pixels, img.pixels)


def otsu_oracle(img):
    """Exhaustive scan of all 256 thresholds maximizing between-class variance."""
    hist = histogram256(img)
    total = hist.sum()
    g = np.arange(256) / 255.0
    mu = float((hist * g).sum() / total)
    best, best_ts = -1.0, []
    for t in range(256):
        nb = hist[: t + 1].sum()
        na = total - nb
        wb, wa = nb / total, na / total
        mb = (hist[: t + 1] * g[: t + 1]).sum() / nb if nb else 0.0
        ma = (hist[t + 1:] * g[t + 1:]).sum() / na if na else 0.0
        sout = wb * (mb - mu) ** 2 + wa * (ma - mu) ** 2
        if sout > best + 1e-15:
            best, best_ts = sout, [t]
        elif abs(sout - best) <= 1e-15:
            best_ts.append(t)
    return float(np.mean(best_ts) / 255.0), best


class TestOtsu:
    def test_matches_exhaustive_scan(self, rng):
        for _ in range(100):
            img = random_gray(rng, lo=3, hi=16)
            res = otsu_threshold(img)
            theta_ref, sigma_ref = otsu_oracle(img)
            assert res.theta == pytest.approx(theta_ref, abs=1e-12)
            assert res.sigma_out == pytest.approx(sigma_ref, abs=1e-12)

    def test_variance_decomposition(self, rng):
        for _ in range(25):
            img = random_gray(rng)
            res = otsu_threshold(img)
            hist = histogram256(img)
            g = np.arange(256) / 255.0
            mu = (hist * g).sum() / hist.sum()
            total_var = (hist * (g - mu) ** 2).sum() / hist.sum()
            assert res.sigma_in + res.sigma_out == pytest.approx(total_var, abs=1e-9)
            assert res.variance == pytest.approx(total_var, abs=1e-15)

    def test_bimodal_split(self):
        px = np.concatenate([np.full(50, 0.1), np.full(50, 0.9)]).reshape(10, 10)
        res = otsu_threshold(GrayImage.from_pixels(px))
        assert 0.1 < res.theta < 0.9

    def test_tied_thresholds_averaged(self):
        # two populated bins: every threshold between them is equally good
        px = np.array([[0.0, 1.0]] * 2)
        res = otsu_threshold(GrayImage.from_pixels(px))
        ref, _ = otsu_oracle(GrayImage.from_pixels(px))
        assert res.theta == pytest.approx(ref)

    def test_single_valued_rejected(self):
        with pytest.raises(DegenerateHistogramError):
            otsu_threshold(GrayImage.from_pixels(np.full((4, 4), 0.5)))

    def test_histogram_bins(self):
        img = GrayImage.from_pixels(np.array([[0.0, 1.0, 0.5]]))
        hist = histogram256(img)
        assert hist[0] == 1 and hist[255] == 1 and hist[128] == 1
        assert hist.sum() == 3


class TestBinarize:
    def test_threshold_rule(self):
        img = GrayImage.from_pixels(np.array([[51, 128, 204]]) / 255)
        out = binarize(img, 128 / 255)
        assert out.bits.tolist() == [[0, 0, 1]]  # h = 0 when g <= theta

    def test_pixel_in_otsus_background_bin_is_background(self):
        # Otsu's unique optimum puts bin 100 (three pixels) in the background; the
        # pixel at 100.3 / 255 lies in that bin although it is above theta
        px = np.full((4, 4), 101 / 255)
        px[0, :2] = 100 / 255
        px[2, 1] = 100.3 / 255
        img = GrayImage.from_pixels(px)
        theta = otsu_threshold(img).theta
        assert theta == 100 / 255 < px[2, 1]
        bits = binarize(img, theta).bits
        assert bits[2, 1] == 0 and np.array_equal(bits, img.levels > 100)

    def test_theta_range_checked(self):
        with pytest.raises(ParameterError):
            binarize(GrayImage.from_pixels(np.zeros((2, 2))), 1.5)


class TestLevels:
    """Images are counted and compared on their levels; on levels the float definitions hold."""

    @pytest.mark.parametrize("magic", [b"P5", b"P2"])
    def test_histogram_and_binarize_match_the_float_definitions(self, rng, magic):
        samples = rng.integers(0, 256, (9, 14), dtype=np.uint8)
        img = decoded(samples / 255.0, magic)
        plain = GrayImage.from_pixels(img.pixels)
        assert np.array_equal(img.levels, samples) and np.array_equal(plain.levels, samples)
        hist = np.bincount(np.floor(img.pixels * 255.0 + 0.5).astype(int).ravel(), minlength=256)
        assert np.array_equal(histogram256(img), hist)
        assert np.array_equal(histogram256(plain), hist)
        # every level's own intensity, the ulps on either side of it, and points between
        values = np.arange(256) / 255.0
        thetas = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, 1.0),
                                 rng.random(50)])
        for theta in thetas.tolist():
            bits = (img.pixels > theta).astype(np.uint8)
            assert np.array_equal(binarize(img, theta).bits, bits)
            assert np.array_equal(binarize(plain, theta).bits, bits)

    def test_otsu_variance_is_the_pixel_variance(self, rng):
        for _ in range(20):
            img = decoded(rng.integers(0, 256, rng.integers(3, 30, 2)) / 255.0)
            assert otsu_threshold(img).variance == pytest.approx(img.pixels.var(), rel=1e-14)


class TestRandomWalker:
    def test_2x2_matches_dense_solve(self):
        img = GrayImage.from_pixels(np.array([[0.1, 0.9], [0.2, 0.8]]))
        seeds = [np.array([0]), np.array([3])]
        seg = random_walker_segment(img, seeds)
        assert np.abs(canvas_gamma(seg) - dense_gamma(img, seeds)).max() < 1e-8

    def test_3x3_matches_dense_solve(self):
        img = GrayImage.from_pixels(np.array([[0.1, 0.9, 0.8], [0.2, 0.5, 0.9], [0.1, 0.2, 0.85]]))
        seeds = [np.array([0]), np.array([8])]
        seg = random_walker_segment(img, seeds)
        assert np.abs(canvas_gamma(seg) - dense_gamma(img, seeds)).max() < 1e-8

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 0.0, -1.0],
                             ids=["nan", "inf", "zero", "negative"])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        img = GrayImage.from_pixels(np.array([[0.1, 0.9], [0.2, 0.8]]))
        with pytest.raises(ParameterError, match="not 0 < sigma < inf"):
            random_walker_segment(img, [np.array([0]), np.array([3])], sigma=sigma)

    def test_memberships_sum_to_one(self, rng):
        img = random_gray(rng, lo=5, hi=10)
        seeds = [np.array([0, 1]), np.array([img.pixels.size - 1])]
        seg = random_walker_segment(img, seeds)
        assert np.abs(canvas_gamma(seg).sum(axis=2) - 1.0).max() < 1e-6

    def test_seeded_pixels_exact(self):
        img = GrayImage.from_pixels(np.linspace(0, 1, 16).reshape(4, 4))
        seeds = [np.array([0, 5]), np.array([15])]
        seg = random_walker_segment(img, seeds)
        flat = canvas_gamma(seg).reshape(16, 2)
        assert flat[0, 0] == 1.0 and flat[5, 0] == 1.0 and flat[15, 1] == 1.0
        assert flat[0, 1] == 0.0 and flat[15, 0] == 0.0

    def test_keeps_gamma_of_the_free_pixels_only(self, rng):
        img = random_gray(rng, lo=6, hi=12)
        n = img.pixels.size
        seeds = [np.array([0, 1]), np.array([n // 2]), np.array([n - 1])]
        seg = random_walker_segment(img, seeds)
        assert np.array_equal(np.sort(seg.free), np.setdiff1d(np.arange(n), np.concatenate(seeds)))
        assert seg.gamma.shape == (3, seg.free.size)
        assert np.array_equal(seg.pixel_counts, np.bincount(seg.labels.ravel(), minlength=3))

    def test_label_tie_goes_to_lower_index(self):
        # symmetric image, symmetric seeds: center column is an exact tie
        img = GrayImage.from_pixels(np.full((3, 3), 0.5))
        seeds = [np.array([0, 3, 6]), np.array([2, 5, 8])]
        seg = random_walker_segment(img, seeds)
        assert (seg.labels[:, 1] == 0).all()

    def test_overlapping_seeds_rejected(self):
        img = GrayImage.from_pixels(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            random_walker_segment(img, [np.array([0]), np.array([0])])

    def test_empty_seed_set_rejected(self):
        img = GrayImage.from_pixels(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            random_walker_segment(img, [np.array([0]), np.array([], dtype=int)])

    def test_single_seed_set_rejected(self):
        img = GrayImage.from_pixels(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            random_walker_segment(img, [np.array([0])])

    def test_out_of_range_seed_rejected(self):
        img = GrayImage.from_pixels(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            random_walker_segment(img, [np.array([0]), np.array([4])])

    def test_negative_seed_rejected(self):
        # -1 would index the last pixel if it were not range-checked first
        img = GrayImage.from_pixels(np.zeros((2, 2)))
        with pytest.raises(ParameterError, match="range"):
            random_walker_segment(img, [np.array([0]), np.array([-1])])

    def test_repeated_pixel_within_one_set_rejected(self):
        img = GrayImage.from_pixels(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            random_walker_segment(img, [np.array([0, 0]), np.array([3])])

    def test_walled_off_free_pixel_is_solver_error(self):
        # sigma = var ~ 6.2e-4, so exp(-1 / sigma) underflows to 0 on the bright
        # pixel's four edges: it is a free region that touches no seed
        px = np.zeros((40, 40))
        px[20, 20] = 1.0
        with pytest.raises(SolverError):
            random_walker_segment(GrayImage.from_pixels(px), [np.array([0]), np.array([1599])])

    def test_regions_cut_off_by_underflowing_weights_are_solver_errors(self):
        # each block's edges to the zero canvas weigh exp(-400) or less, lost in
        # rounding against its inner degrees, so gamma rows there would sum to about
        # 0; with these draws both blocks are caught by the row-sum check, and with
        # others the factor's last pivot can fail instead
        rng = np.random.default_rng(2)
        for block in ((2, 2), (3, 5)):
            px = np.zeros((40, 40))
            px[20:20 + block[0], 20:20 + block[1]] = 1.0 - 0.01 * rng.random(block)
            with pytest.raises(SolverError):
                random_walker_segment(GrayImage.from_pixels(px), [np.array([0]), np.array([1599])])

    def _check_against_dense(self, img, seeds):
        seg = random_walker_segment(img, seeds)
        dense = dense_gamma(img, seeds)
        assert np.abs(canvas_gamma(seg) - dense).max() < 1e-10
        flat = dense.reshape(-1, len(seeds))
        labels = seg.labels.ravel()
        top = flat.max(axis=1, keepdims=True)
        tied = flat >= top - 1e-9
        decided = tied.sum(axis=1) == 1
        assert np.array_equal(labels[decided], np.argmax(flat, axis=1)[decided])
        assert tied[np.arange(labels.size), labels].all()
        return seg, decided

    def test_labels_match_dense_solve_with_hole_and_components(self):
        px = np.zeros((14, 14))
        px[1:8, 1:8] = 0.9
        px[3:6, 3:6] = 0.0   # a hole: background that reaches no border pixel
        px[9:13, 9:13] = 0.7
        px[11, 3] = 0.8
        img = GrayImage.from_pixels(px)
        seeds = derive_seeds(binarize(img, otsu_threshold(img).theta), img.levels)
        assert len(seeds) == 4  # three shapes + background
        hole = np.arange(px.size).reshape(px.shape)[3:6, 3:6].ravel()
        assert not np.isin(hole, np.concatenate(seeds)).any()
        seg, decided = self._check_against_dense(img, seeds)
        assert decided.all()
        assert (seg.labels[3:6, 3:6] == 0).all()  # the hole joins the ring around it

    def test_labels_match_dense_solve_on_a_tie(self):
        # mirror-symmetric: the middle column is an exact tie in exact arithmetic
        grid = np.arange(35).reshape(5, 7)
        seg, decided = self._check_against_dense(GrayImage.from_pixels(np.full((5, 7), 0.5)),
                                                  [grid[:, 0], grid[:, -1]])
        assert not decided.reshape(5, 7)[:, 3].any()
        assert decided.reshape(5, 7)[:, [1, 2, 4, 5]].all()

    @staticmethod
    def _seeds_around(free_mask):
        """Three seed sets that interleave over every pixel outside ``free_mask``."""
        h, w = free_mask.shape
        ys, xs = np.nonzero(~free_mask)
        index, which = ys * w + xs, (ys + 2 * xs) % 3
        return [index[which == j] for j in range(3)]

    @pytest.mark.parametrize("region", [
        (slice(0, 2), slice(0, 3)), (slice(0, 2), slice(4, 8)), (slice(0, 3), slice(9, 11)),
        (slice(3, 6), slice(9, 11)), (slice(7, 9), slice(8, 11)), (slice(6, 9), slice(3, 6)),
        (slice(6, 9), slice(0, 2)), (slice(2, 6), slice(0, 3)),
    ], ids=["top-left", "top", "top-right", "right", "bottom-right", "bottom",
            "bottom-left", "left"])
    def test_free_region_at_each_border_matches_dense_solve(self, rng, region):
        # the free block lies against the border, so the border masks drop the
        # neighbours its edge pixels would have outside the image
        free_mask = np.zeros((9, 11), dtype=bool)
        free_mask[region] = True
        _, decided = self._check_against_dense(GrayImage.from_pixels(rng.random((9, 11))),
                                               self._seeds_around(free_mask))
        assert decided.all()

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1)], ids=["row", "column"])
    def test_one_pixel_wide_image_matches_dense_solve(self, rng, shape):
        # two of the four border masks are empty: no pixel has a neighbour across the line
        self._check_against_dense(GrayImage.from_pixels(rng.random(shape)),
                                  [np.array([0]), np.array([4]), np.array([8])])

    def test_free_regions_touching_different_seed_sets_match_dense_solve(self, rng):
        # the regions touch sets {0, 1, 2}, {2, 3} and {2}; each region's column of a
        # set it does not touch must solve to exactly 0
        owner = np.full((12, 16), 2)
        owner[:, :6], owner[:, 6:10], owner[11, :] = 0, 1, 3
        owner[3:7, 4:12] = -1
        owner[9:11, 12:14] = -1
        owner[1, 14] = -1
        seeds = [np.flatnonzero(owner == j) for j in range(4)]
        img = GrayImage.from_pixels(rng.random((12, 16)))
        seg, decided = self._check_against_dense(img, seeds)
        assert decided.all()
        assert seg.labels[1, 14] == 2 and canvas_gamma(seg)[1, 14].tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_many_seed_sets_from_specks_match_dense_solve(self, rng):
        # every speck is its own seed set: about a hundred sets, where the benchmark
        # images have two, each with its own right-hand column
        mask = rng.random((40, 40)) < 0.1
        mask[13:27, 13:27] = True
        img = GrayImage.from_pixels(np.where(mask, 0.8, 0.1) + 0.05 * rng.random((40, 40)))
        seeds = derive_seeds(BinaryImage(mask.astype(np.uint8)), img.levels)
        assert len(seeds) > 100
        self._check_against_dense(img, seeds)

    def test_ring_around_a_free_hole_matches_dense_solve(self, rng):
        # the hole is background that reaches no border pixel, so it is free:
        # a disk of free pixels, which reverse Cuthill-McKee orders with a wide band
        yy, xx = np.mgrid[:30, :30]
        radius = np.hypot(yy - 14.5, xx - 14.5)
        ring = (radius < 13) & (radius >= 6)
        img = GrayImage.from_pixels(np.where(ring, 0.8, 0.1) + 0.05 * rng.random((30, 30)))
        seeds = derive_seeds(BinaryImage(ring.astype(np.uint8)), img.levels)
        assert len(seeds) == 2 and not np.isin(np.flatnonzero(radius < 6), seeds[1]).any()
        seg, decided = self._check_against_dense(img, seeds)
        assert decided.all()
        assert (seg.labels[radius < 6] == 0).all()  # the hole joins the ring around it

    def test_isolated_free_pixels_match_dense_solve(self, rng):
        # no two free pixels are 4-neighbours: L_U is diagonal, a band of width 0
        free_mask = np.zeros((9, 11), dtype=bool)
        free_mask[1:8:2, 1:10:2] = True
        free_mask[0, 0] = free_mask[8, 10] = True
        _, decided = self._check_against_dense(GrayImage.from_pixels(rng.random((9, 11))),
                                               self._seeds_around(free_mask))
        assert decided.all()

    def test_free_regions_in_opposite_corners_span_the_image(self, rng):
        free_mask = np.zeros((10, 8), dtype=bool)
        free_mask[:3, :2] = True
        free_mask[-2:, -3:] = True
        free_mask[4:6, 3:5] = True
        _, decided = self._check_against_dense(GrayImage.from_pixels(rng.random((10, 8))),
                                               self._seeds_around(free_mask))
        assert decided.all()


def eroded_core(bits: np.ndarray) -> np.ndarray:
    """Flat indices of the foreground eroded by SEED_EROSION with the 4-connected cross."""
    cross = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    return np.flatnonzero(scipy.ndimage.binary_erosion(bits, structure=cross,
                                                       iterations=SEED_EROSION, border_value=0))


class TestDeriveSeeds:
    def test_one_seed_per_component_plus_background(self):
        bits = np.zeros((8, 8), dtype=np.uint8)
        bits[1:3, 1:3] = 1
        bits[5:7, 5:7] = 1
        seeds = derive_seeds(BinaryImage(bits), bits * 255)
        assert len(seeds) == 3  # two shapes + background last
        assert seeds[0].size == 1 and seeds[1].size == 1
        assert seeds[2].size == (bits == 0).sum()

    def test_foreground_seed_inside_component(self):
        bits = np.zeros((6, 6), dtype=np.uint8)
        bits[2:5, 2:5] = 1
        assert not eroded_core(bits).size  # a speck: erosion empties it
        seeds = derive_seeds(BinaryImage(bits), bits * 255)
        flat = bits.ravel()
        assert seeds[0].size == 1 and flat[seeds[0][0]] == 1
        # nearest pixel to the centroid of a solid square is its middle
        assert seeds[0][0] == 3 * 6 + 3

    def test_speck_seeds_match_the_per_speck_loop(self, rng):
        # the reference: each speck's pixels, their centroid, and np.argmin of
        # the squared distances, which breaks ties to the lowest flat index
        cross = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
        ties = 0
        for _ in range(20):
            bits = (rng.random((30, 40)) < rng.uniform(0.05, 0.3)).astype(np.uint8)
            bits[:2, :2] = 1  # a 2 x 2 speck: all four pixels tie
            bits[2, :3] = bits[:3, 2] = 0
            labels, count = scipy.ndimage.label(bits, structure=cross)
            seeds = derive_seeds(BinaryImage(bits), bits * 255)
            assert len(seeds) == count + 1
            core = eroded_core(bits)
            for comp in range(1, count + 1):
                if np.isin(core, np.flatnonzero(labels == comp)).any():
                    continue
                ys, xs = np.nonzero(labels == comp)
                dist = (ys - ys.mean()) ** 2 + (xs - xs.mean()) ** 2
                nearest = np.argmin(dist)
                ties += np.count_nonzero(dist == dist[nearest]) > 1
                assert np.array_equal(seeds[comp - 1], [ys[nearest] * 40 + xs[nearest]])
            assert seeds[labels[0, 0] - 1][0] == 0
        assert ties >= 20

    def test_speck_is_seeded_nearest_its_intensity_centroid(self):
        # a bright head and a dim tail: the unweighted centroid, column 4, lies in the tail
        bits = np.zeros((3, 9), dtype=np.uint8)
        bits[1, 1:8] = 1
        levels = bits * np.array([0, 255, 255, 255, 10, 10, 10, 10, 0], dtype=np.uint8)
        # sum(level * x) / sum(level) = 1750 / 805, about 2.17
        assert derive_seeds(BinaryImage(bits), levels)[0].tolist() == [1 * 9 + 2]
        assert derive_seeds(BinaryImage(bits), bits * 255)[0].tolist() == [1 * 9 + 4]

    def test_speck_seeds_match_the_canvas_oracle_under_random_levels(self, rng):
        for _ in range(20):
            bits = (rng.random((30, 40)) < rng.uniform(0.05, 0.3)).astype(np.uint8)
            bits[:2, :2] = 1  # a 2 x 2 speck of level 0: weighed uniformly, all four tie
            bits[2, :3] = bits[:3, 2] = 0
            levels = rng.integers(1, 256, bits.shape) * bits
            levels[:2, :2] = 0
            seeds = derive_seeds(BinaryImage(bits), levels)
            expected = canvas_seeds(BinaryImage(bits), levels)
            assert len(seeds) == len(expected) and all(map(np.array_equal, seeds, expected))
            labels, _ = scipy.ndimage.label(bits, structure=CROSS)
            assert seeds[labels[0, 0] - 1].tolist() == [0]

    def test_levels_of_another_shape_rejected(self):
        bits = np.zeros((6, 6), dtype=np.uint8)
        bits[2:4, 2:4] = 1
        with pytest.raises(ShapeError, match=r"levels have shape \(6, 5\), but the bits \(6, 6\)"):
            derive_seeds(BinaryImage(bits), np.zeros((6, 5), dtype=np.uint8))

    def test_large_component_seeds_its_eroded_core(self):
        yy, xx = np.mgrid[0:24, 0:24]
        bits = ((yy - 11) ** 2 + (xx - 12) ** 2 <= 64).astype(np.uint8)
        seeds = derive_seeds(BinaryImage(bits), bits * 255)
        core = eroded_core(bits)
        assert 0 < core.size < bits.sum()
        assert len(seeds) == 2 and np.array_equal(seeds[0], core)

    def test_component_touching_border_is_eroded_there(self):
        bits = np.zeros((16, 16), dtype=np.uint8)
        bits[:10, :12] = 1
        seeds = derive_seeds(BinaryImage(bits), bits * 255)
        assert np.array_equal(seeds[0], eroded_core(bits))
        # pixels outside the image count as background, so the core keeps off row and column 0
        ys, xs = np.divmod(seeds[0], 16)
        assert ys.min() == SEED_EROSION and xs.min() == SEED_EROSION
        assert ys.max() == 9 - SEED_EROSION and xs.max() == 11 - SEED_EROSION

    def test_components_one_pixel_apart_get_disjoint_cores(self):
        bits = np.zeros((16, 21), dtype=np.uint8)
        bits[2:14, 2:10] = 1
        bits[2:14, 11:19] = 1  # column 10 separates the two
        seeds = derive_seeds(BinaryImage(bits), bits * 255)
        assert len(seeds) == 3 and not np.intersect1d(seeds[0], seeds[1]).size
        for seed, cols in zip(seeds, (slice(2, 10), slice(11, 19))):
            alone = np.zeros_like(bits)
            alone[:, cols] = bits[:, cols]
            assert np.array_equal(seed, eroded_core(alone))
            assert alone.ravel()[seed].all()

    def test_background_seed_is_the_background_on_the_border(self):
        # the strip along the border is seeded although the hole is larger; the hole
        # is left free for the walker
        bits = np.ones((12, 12), dtype=np.uint8)
        bits[0, :5] = 0
        bits[3:9, 3:9] = 0
        seeds = derive_seeds(BinaryImage(bits), bits * 255)
        assert len(seeds) == 2 and np.array_equal(seeds[-1], np.arange(5))
        hole = np.arange(144).reshape(12, 12)[3:9, 3:9].ravel()
        assert not np.isin(hole, np.concatenate(seeds)).any()

    def test_background_cut_off_at_a_corner_is_seeded(self):
        # two specks meeting diagonally wall off the top-left corner; 4-connected
        # background cannot pass between them, yet the pocket touches the border
        bits = np.zeros((10, 10), dtype=np.uint8)
        bits[0:4, 4:6] = bits[4:6, 0:4] = 1
        seeds = derive_seeds(BinaryImage(bits), bits * 255)
        assert len(seeds) == 3 and np.array_equal(seeds[-1], np.flatnonzero(bits == 0))

    def test_diagonal_pixels_are_separate_components(self):
        bits = np.zeros((4, 4), dtype=np.uint8)
        bits[0, 0] = bits[1, 1] = 1
        seeds = derive_seeds(BinaryImage(bits), bits * 255)
        assert len(seeds) == 3  # 4-connectivity keeps them apart

    def test_no_foreground_rejected(self):
        with pytest.raises(EmptyForegroundError):
            derive_seeds(BinaryImage(np.zeros((3, 3), dtype=np.uint8)), np.zeros((3, 3)))

    def test_no_background_rejected(self):
        with pytest.raises(EmptyBackgroundError):
            derive_seeds(BinaryImage(np.ones((3, 3), dtype=np.uint8)), np.full((3, 3), 255))

    def test_frame_around_a_hole_rejected(self):
        # there is background, but none of it reaches the border
        bits = np.ones((8, 8), dtype=np.uint8)
        bits[2:6, 2:6] = 0
        with pytest.raises(EmptyBackgroundError, match="touches the image border"):
            derive_seeds(BinaryImage(bits), bits * 255)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_background_seed_is_what_hole_filling_leaves_unset(seed):
    rng = np.random.default_rng(seed)
    h, w = rng.integers(1, 13, 2)
    bits = (rng.random((h, w)) < rng.uniform(0.2, 0.95)).astype(np.uint8)
    outside = np.flatnonzero(~scipy.ndimage.binary_fill_holes(bits, structure=CROSS))
    if not bits.any():
        with pytest.raises(EmptyForegroundError):
            derive_seeds(BinaryImage(bits), bits * 255)
    elif not outside.size:
        with pytest.raises(EmptyBackgroundError):
            derive_seeds(BinaryImage(bits), bits * 255)
    else:
        assert np.array_equal(derive_seeds(BinaryImage(bits), bits * 255)[-1], outside)


def nonzero_crops(img, labels, shape_count):
    """Per label: bbox, pixel count and masked crop, from a canvas-wide np.nonzero."""
    for j in range(shape_count):
        mask = labels == j
        ys, xs = np.nonzero(mask)
        y0, y1, x0, x1 = ys.min(), ys.max() + 1, xs.min(), xs.max() + 1
        yield (y0, x0, y1, x1), ys.size, np.where(mask, img.pixels, 0.0)[y0:y1, x0:x1]


class TestCrops:
    @pytest.mark.parametrize("quarters", range(4))
    def test_matches_nonzero_oracle(self, rng, quarters):
        labels = np.full((7, 9), 4)
        labels[0:2, 0:3] = 0                   # touches the top and left borders
        labels[5:7, 6:9] = 1                   # touches the bottom and right borders
        labels[3, 4] = 2                       # a single pixel
        labels[0, 7] = labels[6, 0:2] = 3      # two pieces in opposite corners
        labels = np.rot90(labels, quarters)    # label 4, the background, is the rest
        img = GrayImage.from_pixels(rng.random(labels.shape))
        seg = Segmentation(image=img, labels=labels, pixel_counts=np.bincount(labels.ravel()),
                           free=np.zeros(0, dtype=np.int64), gamma=np.zeros((5, 0)))
        crops = [seg.crop(j) for j in range(5)]
        assert [c.label for c in crops] == list(range(5))
        for crop, (bbox, count, pixels) in zip(crops, nonzero_crops(img, labels, 5)):
            assert crop.bbox == bbox and crop.pixel_count == count
            assert np.array_equal(crop.image.pixels, pixels)
        assert crops[2].pixel_count == 1

    @pytest.mark.parametrize("j", [2, 5, -1, 1.0, True, np.float64(0.0), "0"],
                             ids=["one-past", "past-end", "negative", "float", "bool",
                                  "numpy-float", "str"])
    def test_label_must_be_one_of_the_labels(self, j):
        labels = np.array([[0, 1], [1, 1]])
        seg = Segmentation(image=GrayImage.from_pixels(np.ones((2, 2))), labels=labels,
                           pixel_counts=np.bincount(labels.ravel()),
                           free=np.zeros(0, dtype=np.int64), gamma=np.zeros((2, 0)))
        with pytest.raises(ParameterError, match="not a label"):
            seg.crop(j)
        assert seg.crop(np.int64(1)).pixel_count == 3
        assert seg.crop(np.uint8(0)).bbox == (0, 0, 1, 1)

    def test_segmentation_crops_match_nonzero_oracle(self):
        img, _ = generate_synthetic(SyntheticShapeSpec(kind="fin_polygon", size=20, canvas=64,
                                                       noise=0.1))
        seg = segment_image(img)
        smoothed = median_filter(img, 3)
        for j, (bbox, count, pixels) in enumerate(nonzero_crops(smoothed, seg.labels,
                                                                seg.pixel_counts.size)):
            crop = seg.crop(j)
            assert crop.bbox == bbox and crop.pixel_count == count
            assert np.array_equal(crop.image.pixels, pixels)


class TestSegmentImage:
    def test_two_blobs_found(self):
        px = np.zeros((24, 24))
        px[3:9, 3:9] = 0.9
        px[14:21, 14:21] = 0.85
        seg = segment_image(GrayImage.from_pixels(px))
        assert seg.pixel_counts.size == 3  # two shapes + background
        counts = sorted(seg.crop(i).pixel_count for i in range(2))
        assert counts == [32, 45]  # the 3x3 median shaves each square's 4 corners

    def test_crop_masks_other_shapes(self):
        px = np.zeros((20, 20))
        px[2:6, 2:6] = 0.9
        px[12:17, 12:17] = 0.8
        seg = segment_image(GrayImage.from_pixels(px))
        for i in range(seg.pixel_counts.size - 1):
            crop = seg.crop(i)
            assert crop.image.pixels.max() > 0
            y0, x0, y1, x1 = crop.bbox
            assert crop.image.pixels.shape == (y1 - y0, x1 - x0)

    @pytest.mark.parametrize("kind", ["disk", "ellipse", "triangle", "fin_polygon"])
    def test_largest_shape_keeps_otsu_foreground_under_noise(self, kind):
        # a lone seed pixel per shape lets the background seed take most of a noisy shape
        img, _ = generate_synthetic(SyntheticShapeSpec(kind=kind, size=28, canvas=96, noise=0.2))
        smoothed = median_filter(img, 3)
        otsu_count = binarize(smoothed, otsu_threshold(smoothed).theta).bits.sum()
        seg = segment_image(img)
        assert seg.pixel_counts[:-1].max() >= 0.9 * otsu_count


    @pytest.mark.parametrize("translate, size, quarters, seed, overlap, union", [
        ((-10, 2), 7, 2, 3695779175, 68, 76),
        ((-4, -5), 5, 1, 4094967909, 40, 43),
        ((0, -12), 5, 3, 3275935626, 39, 43),
    ], ids=["raised-solver-error", "crop-off-the-shape-quarter-1", "crop-off-the-shape-quarter-3"])
    def test_shape_fused_with_a_dim_halo_keeps_its_seed(self, translate, size, quarters, seed,
                                                        overlap, union):
        # Otsu's cut is low, so the shape's component holds dim noise and erosion empties
        # it; seeded nearest its unweighted centroid, the seed fell in the halo, and the
        # walker gave the shape away or found a region cut off from every seed
        spec = SyntheticShapeSpec("fin_polygon", size, canvas=96, translate=translate,
                                  rotate_quarters=quarters, noise=0.3)
        img, _ = generate_synthetic(spec, rng_seed=seed)
        drawn = generate_synthetic(dataclasses.replace(spec, noise=0.0))[0].levels > 0
        seg = segment_image(img)
        mask = seg.labels == np.argmax(seg.pixel_counts[:-1])
        assert ((mask & drawn).sum(), (mask | drawn).sum()) == (overlap, union)

def decoded(pixels, magic=b"P5"):
    """The decode of intensities written as an 8-bit PGM, so the image keeps its levels."""
    levels = gray_levels(np.clip(pixels, 0.0, 1.0))
    payload = (levels.tobytes() if magic == b"P5"
               else " ".join(map(str, levels.ravel().tolist())).encode())
    return decode_image(magic + f"\n{levels.shape[1]} {levels.shape[0]}\n255\n".encode() + payload)


def scene(rng, mask):
    """A noisy image of a foreground mask at about 0.75 on a background at about 0.15."""
    return decoded(0.15 + 0.6 * mask + 0.05 * rng.random(mask.shape))


def disk(shape, cy, cx, r_out, r_in=0.0):
    yy, xx = np.mgrid[:shape[0], :shape[1]]
    radius = np.hypot(yy - cy, xx - cx)
    return (radius < r_out) & (radius >= r_in)


def grown_box(seg):
    """The box of a segmentation's Otsu foreground grown by one pixel, clipped: y0, y1, x0, x1."""
    smoothed = seg.image
    ys, xs = np.nonzero(binarize(smoothed, otsu_threshold(smoothed).theta).bits)
    h, w = smoothed.pixels.shape
    return max(ys.min() - 1, 0), min(ys.max() + 2, h), max(xs.min() - 1, 0), min(xs.max() + 2, w)


def check_against_canvas(img, median_side, gamma_tol):
    """segment_image's result and canvas_segmentation's, checked equal; gamma within gamma_tol."""
    seg = segment_image(img, median_side)
    ref = canvas_segmentation(img, median_side)
    assert np.array_equal(seg.image.pixels, ref.image.pixels)
    assert np.array_equal(seg.labels, ref.labels)
    assert np.array_equal(seg.free, ref.free)
    assert np.array_equal(seg.pixel_counts, ref.pixel_counts)
    assert np.abs(seg.gamma - ref.gamma).max(initial=0.0) <= gamma_tol
    for j in range(ref.pixel_counts.size):
        got, want = seg.crop(j), ref.crop(j)
        assert (got.bbox, got.pixel_count) == (want.bbox, want.pixel_count)
        assert np.array_equal(got.image.pixels, want.image.pixels)
    return seg, ref


class TestWindow:
    """segment_image seeds and walks a window around the foreground; the canvas must not differ."""

    def segment(self, monkeypatch, img, median_side=3):
        """segment_image's result, checked against canvas_segmentation, and the walked part.

        The part is the grown box of the foreground, and gamma matches the
        canvas's within 1e-12.
        """
        walked = []
        walk = preprocess.random_walker_segment

        def spy(part, seeds, **kw):
            walked.append((part, seeds))
            return walk(part, seeds, **kw)

        with monkeypatch.context() as patch:
            patch.setattr(preprocess, "random_walker_segment", spy)
            _, ref = check_against_canvas(img, median_side, 1e-12)
        [(part, seeds)] = walked
        y0, y1, x0, x1 = grown_box(ref)
        assert np.array_equal(part.pixels, ref.image.pixels[y0:y1, x0:x1])
        return part, seeds, ref

    @pytest.mark.parametrize("edge", ["top", "bottom", "left", "right"])
    def test_shape_touching_a_canvas_edge(self, monkeypatch, rng, edge):
        h, w = 40, 56
        cy, cx = {"top": (2, 20), "bottom": (h - 3, 30), "left": (15, 1),
                  "right": (24, w - 2)}[edge]
        img = scene(rng, disk((h, w), cy, cx, 9))
        part, _, _ = self.segment(monkeypatch, img)
        assert part.pixels.size < img.pixels.size / 2

    @pytest.mark.parametrize("kind", ["disk", "ellipse", "triangle", "fin_polygon"])
    def test_benchmark_like_shape(self, monkeypatch, kind):
        img = decoded(shape_image(kind, 40, canvas=192, noise=0.01).pixels)
        part, _, _ = self.segment(monkeypatch, img)
        assert part.pixels.size < img.pixels.size / 2

    @pytest.mark.parametrize("axis", [0, 1], ids=["width", "height"])
    def test_box_spanning_the_canvas(self, monkeypatch, rng, axis):
        mask = disk((40, 56), 12, 30, 6)
        if axis == 0:
            mask[25:31, :] = True  # the box spans the canvas's width, the window does too
        else:
            mask[:, 40:46] = True
        img = scene(rng, mask)
        part, _, _ = self.segment(monkeypatch, img)
        assert part.pixels.shape == ((26, 56) if axis == 0 else (40, 23))

    def test_background_below_a_bar_spanning_the_width(self, monkeypatch, rng):
        # the strip below the bar is cut off from the larger background above it, but
        # it touches the border, so it is background and the bar keeps its own pixels
        mask = disk((40, 56), 12, 30, 6)
        mask[25:31, :] = True
        _, _, ref = self.segment(monkeypatch, scene(rng, mask))
        assert (ref.labels[31:] == ref.pixel_counts.size - 1).all()
        bar = ref.crop(int(np.argmax(ref.pixel_counts[:-1])))
        assert bar.bbox == (25, 0, 31, 56) and bar.pixel_count == 336

    def test_pocket_cut_off_at_a_corner_by_specks(self, monkeypatch, rng):
        # two specks meeting diagonally wall off the top-left corner from the rest
        # of the background; the pocket touches the border, so no speck takes it
        mask = disk((40, 56), 20, 30, 8)
        mask[0:4, 4:6] = mask[4:6, 0:4] = True
        _, seeds, ref = self.segment(monkeypatch, scene(rng, mask), median_side=1)
        assert len(seeds) == 4
        assert (ref.labels[:4, :4] == 3).all() and ref.pixel_counts[:2].tolist() == [8, 8]
        assert ref.crop(2).bbox == (13, 23, 28, 38)

    def test_annulus_hole_larger_than_the_outer_background(self, monkeypatch, rng):
        img = scene(rng, disk((40, 40), 19.5, 19.5, 19, 14))
        part, _, ref = self.segment(monkeypatch, img)
        assert part.pixels.shape == img.pixels.shape  # the ring's box grown by one
        assert 20 * 40 + 20 in ref.free and 0 not in ref.free  # the outside is the seed
        assert (ref.labels[disk((40, 40), 19.5, 19.5, 14)] == 0).all()  # the hole joins the ring

    def test_hole_larger_than_the_windowed_outer_background(self, monkeypatch, rng):
        # the outer background's part inside the window is smaller than the hole, but
        # it touches the window's edge, so it, not the hole, is seeded
        img = scene(rng, disk((96, 96), 47.5, 47.5, 20, 15))
        part, seeds, ref = self.segment(monkeypatch, img)
        assert part.pixels.size < img.pixels.size / 2
        hole = ref.labels[disk((96, 96), 47.5, 47.5, 15)]
        assert hole.size > seeds[-1].size and (hole == 0).all()

    def test_outer_background_and_hole_of_equal_size(self, monkeypatch, rng):
        mask = np.zeros((30, 30), dtype=bool)
        mask[2:28, 2:28] = True
        mask[8:22, 7:23] = False  # 14 x 16 = 224 pixels, as many as outside the frame
        img = scene(rng, mask)
        background, count = scipy.ndimage.label(~mask, structure=CROSS)
        assert count == 2 and np.bincount(background.ravel())[1:].tolist() == [224, 224]
        part, _, ref = self.segment(monkeypatch, img, median_side=1)
        assert part.pixels.shape == (28, 28)
        assert ref.labels[0, 0] == 1 and ref.labels[15, 15] == 0  # the hole joins the frame

    def test_specks_in_opposite_corners(self, monkeypatch, rng):
        mask = disk((40, 56), 20, 28, 8)
        mask[:2, :2] = mask[-2:, -2:] = True  # 2 x 2, so the 3 x 3 median keeps them
        img = scene(rng, mask)
        part, seeds, _ = self.segment(monkeypatch, img)
        assert part.pixels.shape == img.pixels.shape and len(seeds) == 4

    def test_median_side_one(self, monkeypatch, rng):
        img = scene(rng, disk((40, 56), 20, 28, 8))
        part, _, _ = self.segment(monkeypatch, img, median_side=1)
        assert part.pixels.size < img.pixels.size / 2

    @pytest.mark.parametrize("median_side", [1, 3])
    @pytest.mark.parametrize("mask", ["disk", "specks"])
    def test_gray_replicated_p6_segments_as_its_pgm(self, rng, mask, median_side):
        shape = disk((40, 56), 20, 28, 8)
        if mask == "specks":  # the box spans the canvas, so the walk runs on all of it
            shape[:2, :2] = shape[-2:, -2:] = True
        samples = scene(rng, shape).levels
        pgm = decode_image(b"P5\n56 40\n255\n" + samples.tobytes())
        ppm = to_grayscale(decode_image(b"P6\n56 40\n255\n" + np.repeat(samples, 3).tobytes()))
        want, got = segment_image(pgm, median_side), segment_image(ppm, median_side)
        assert np.array_equal(got.image.pixels, want.image.pixels)
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.free, want.free)
        assert np.array_equal(got.gamma, want.gamma)
        for j in range(want.pixel_counts.size):
            a, b = got.crop(j), want.crop(j)
            assert (a.bbox, a.pixel_count) == (b.bbox, b.pixel_count)
            assert np.array_equal(a.image.pixels, b.image.pixels)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_window_matches_the_canvas_on_scenes_with_specks_at_the_edges(seed):
    # specks on the border spread the foreground's box over the canvas and cut
    # background pockets off the rest; the window must still give the canvas's
    # answer. The canvas walk takes sigma from pixels.var(), the window from
    # Otsu's histogram, so gamma may differ by rounding amplified by the solve.
    rng = np.random.default_rng(seed)
    h, w = (int(v) for v in rng.integers(24, 49, 2))
    mask = disk((h, w), h / 2 + rng.uniform(-3, 3), w / 2 + rng.uniform(-3, 3),
                rng.uniform(4, 9))
    for _ in range(int(rng.integers(1, 6))):
        dy, dx = (int(v) for v in rng.integers(2, 4, 2))
        y, x = int(rng.integers(0, h - dy + 1)), int(rng.integers(0, w - dx + 1))
        edge = rng.integers(4)  # pin the speck against one of the four edges
        y = 0 if edge == 0 else h - dy if edge == 1 else y
        x = 0 if edge == 2 else w - dx if edge == 3 else x
        mask[y:y + dy, x:x + dx] = True
    check_against_canvas(scene(rng, mask), int(rng.choice([1, 3])), 1e-6)


class TestPixelGraph:
    def test_laplacian_rows_sum_to_zero(self, rng):
        img = random_gray(rng, lo=3, hi=8)
        lap = build_pixel_graph(img).laplacian.toarray()
        assert np.abs(lap.sum(axis=1)).max() < 1e-12
        assert np.abs(lap - lap.T).max() < 1e-12

    def test_sigma_floor_applied(self):
        img = GrayImage.from_pixels(np.full((2, 3), 0.5))
        assert build_pixel_graph(img).sigma == pytest.approx(1e-6)

    def test_single_pixel_rejected(self):
        with pytest.raises(ShapeError):
            build_pixel_graph(GrayImage.from_pixels(np.zeros((1, 1))))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_median_idempotent_on_binary(seed):
    rng = np.random.default_rng(seed)
    bits = (rng.random((9, 9)) > 0.5).astype(float)
    once = median_filter(GrayImage.from_pixels(bits), 3)
    assert set(np.unique(once.pixels)) <= {0.0, 1.0}
