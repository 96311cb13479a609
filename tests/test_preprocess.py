import numpy as np
import pytest
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st

from finspect import (BinaryImage, DegenerateHistogramError, EmptyBackgroundError,
                      EmptyForegroundError, GrayImage, ImageTooSmallError, ParameterError,
                      ShapeError, SolverError, SyntheticShapeSpec, binarize, build_pixel_graph,
                      derive_seeds, generate_synthetic, histogram256, median_filter,
                      otsu_threshold, random_walker_segment, segment_image)
from finspect.preprocess import SEED_EROSION, _crops
from finspect.raster import decode_image, gray_levels, to_grayscale

from conftest import dense_gamma, random_gray


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
        for img in (random_gray(rng), GrayImage(rng.integers(0, 4, (13, 17)) / 3.0)):
            for side in (3, 5, 7):
                if side <= min(img.pixels.shape):
                    got = median_filter(img, side)
                    assert np.array_equal(got.pixels, median_oracle(img.pixels, side))

    @pytest.mark.parametrize("magic", [b"P5", b"P2"])
    @pytest.mark.parametrize("level_count", [256, 3])
    def test_decoded_pgm_matches_sort_oracle(self, rng, magic, level_count):
        # decoded pixels are exactly level / 255, so the network runs on uint8 levels
        levels = rng.choice(rng.permutation(256)[:level_count], (11, 13)).astype(np.uint8)
        payload = (levels.tobytes() if magic == b"P5"
                   else " ".join(str(v) for v in levels.ravel()).encode())
        img = decode_image(magic + b"\n13 11\n255\n" + payload)
        for side in (3, 5, 7):
            assert np.array_equal(median_filter(img, side).pixels, median_oracle(img.pixels, side))

    def test_grayscale_of_p6_matches_sort_oracle(self, rng):
        rgb = rng.integers(0, 256, (11, 13, 3), dtype=np.uint8)
        img = to_grayscale(decode_image(b"P6\n13 11\n255\n" + rgb.tobytes()))
        assert not np.array_equal(gray_levels(img.pixels) / 255.0, img.pixels)  # the float path
        for side in (3, 5, 7):
            assert np.array_equal(median_filter(img, side).pixels, median_oracle(img.pixels, side))

    def test_pixel_one_ulp_off_its_level_takes_the_float_path(self, rng):
        px = rng.integers(0, 255, (11, 13)) / 255.0
        oracle = median_oracle(px, 3)
        # an inner pixel that is the median of its window and unique in it stays the
        # median when nudged up by one ulp; the uint8 levels would lose the nudge
        y, x = next((y, x) for y in range(1, 10) for x in range(1, 12)
                    if oracle[y, x] == px[y, x]
                    and np.count_nonzero(px[y - 1:y + 2, x - 1:x + 2] == px[y, x]) == 1)
        px[y, x] = np.nextafter(px[y, x], 1.0)
        img = GrayImage(px)
        assert median_filter(img, 3).pixels[y, x] == px[y, x]
        for side in (3, 5, 7):
            assert np.array_equal(median_filter(img, side).pixels, median_oracle(px, side))

    def test_side_one_is_identity(self, rng):
        img = random_gray(rng)
        assert np.array_equal(median_filter(img, 1).pixels, img.pixels)

    def test_output_values_subset_of_input(self, rng):
        img = random_gray(rng)
        got = median_filter(img, 3)
        assert set(np.unique(got.pixels)) <= set(np.unique(img.pixels))

    def test_even_side_rejected(self):
        with pytest.raises(ParameterError):
            median_filter(GrayImage(np.zeros((4, 4))), 2)

    def test_side_larger_than_image_rejected(self):
        with pytest.raises(ImageTooSmallError):
            median_filter(GrayImage(np.zeros((3, 5))), 5)

    def test_constant_region_untouched(self):
        img = GrayImage(np.full((6, 6), 0.25))
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

    def test_bimodal_split(self):
        px = np.concatenate([np.full(50, 0.1), np.full(50, 0.9)]).reshape(10, 10)
        res = otsu_threshold(GrayImage(px))
        assert 0.1 < res.theta < 0.9

    def test_tied_thresholds_averaged(self):
        # two populated bins: every threshold between them is equally good
        px = np.array([[0.0, 1.0]] * 2)
        res = otsu_threshold(GrayImage(px))
        ref, _ = otsu_oracle(GrayImage(px))
        assert res.theta == pytest.approx(ref)

    def test_single_valued_rejected(self):
        with pytest.raises(DegenerateHistogramError):
            otsu_threshold(GrayImage(np.full((4, 4), 0.5)))

    def test_histogram_bins(self):
        img = GrayImage(np.array([[0.0, 1.0, 0.5]]))
        hist = histogram256(img)
        assert hist[0] == 1 and hist[255] == 1 and hist[128] == 1
        assert hist.sum() == 3


class TestBinarize:
    def test_threshold_rule(self):
        img = GrayImage(np.array([[0.2, 0.5, 0.8]]))
        out = binarize(img, 0.5)
        assert out.bits.tolist() == [[0, 0, 1]]  # h = 0 when g <= theta

    def test_theta_range_checked(self):
        with pytest.raises(ParameterError):
            binarize(GrayImage(np.zeros((2, 2))), 1.5)


class TestRandomWalker:
    def test_2x2_matches_dense_solve(self):
        img = GrayImage(np.array([[0.1, 0.9], [0.2, 0.8]]))
        seeds = [np.array([0]), np.array([3])]
        seg = random_walker_segment(img, seeds)
        assert np.abs(seg.gamma - dense_gamma(img, seeds)).max() < 1e-8

    def test_3x3_matches_dense_solve(self):
        img = GrayImage(np.array([[0.1, 0.9, 0.8], [0.2, 0.5, 0.9], [0.1, 0.2, 0.85]]))
        seeds = [np.array([0]), np.array([8])]
        seg = random_walker_segment(img, seeds)
        assert np.abs(seg.gamma - dense_gamma(img, seeds)).max() < 1e-8

    def test_memberships_sum_to_one(self, rng):
        img = random_gray(rng, lo=5, hi=10)
        seeds = [np.array([0, 1]), np.array([img.pixels.size - 1])]
        seg = random_walker_segment(img, seeds)
        assert np.abs(seg.gamma.sum(axis=2) - 1.0).max() < 1e-6

    def test_seeded_pixels_exact(self):
        img = GrayImage(np.linspace(0, 1, 16).reshape(4, 4))
        seeds = [np.array([0, 5]), np.array([15])]
        seg = random_walker_segment(img, seeds)
        flat = seg.gamma.reshape(16, 2)
        assert flat[0, 0] == 1.0 and flat[5, 0] == 1.0 and flat[15, 1] == 1.0
        assert flat[0, 1] == 0.0 and flat[15, 0] == 0.0

    def test_label_tie_goes_to_lower_index(self):
        # symmetric image, symmetric seeds: center column is an exact tie
        img = GrayImage(np.full((3, 3), 0.5))
        seeds = [np.array([0, 3, 6]), np.array([2, 5, 8])]
        seg = random_walker_segment(img, seeds)
        assert (seg.labels[:, 1] == 0).all()

    def test_overlapping_seeds_rejected(self):
        img = GrayImage(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            random_walker_segment(img, [np.array([0]), np.array([0])])

    def test_empty_seed_set_rejected(self):
        img = GrayImage(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            random_walker_segment(img, [np.array([0]), np.array([], dtype=int)])

    def test_single_seed_set_rejected(self):
        img = GrayImage(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            random_walker_segment(img, [np.array([0])])

    def test_out_of_range_seed_rejected(self):
        img = GrayImage(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            random_walker_segment(img, [np.array([0]), np.array([4])])

    def test_negative_seed_rejected(self):
        # -1 would index the last pixel if it were not range-checked first
        img = GrayImage(np.zeros((2, 2)))
        with pytest.raises(ParameterError, match="range"):
            random_walker_segment(img, [np.array([0]), np.array([-1])])

    def test_repeated_pixel_within_one_set_rejected(self):
        img = GrayImage(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            random_walker_segment(img, [np.array([0, 0]), np.array([3])])

    def test_walled_off_free_pixel_is_solver_error(self):
        # sigma = var ~ 6.2e-4, so exp(-1 / sigma) underflows to 0 on the bright
        # pixel's four edges: it is a free region that touches no seed
        px = np.zeros((40, 40))
        px[20, 20] = 1.0
        with pytest.raises(SolverError):
            random_walker_segment(GrayImage(px), [np.array([0]), np.array([1599])])

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
                random_walker_segment(GrayImage(px), [np.array([0]), np.array([1599])])

    def _check_against_dense(self, img, seeds):
        seg = random_walker_segment(img, seeds)
        dense = dense_gamma(img, seeds)
        assert np.abs(seg.gamma - dense).max() < 1e-10
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
        px[3:6, 3:6] = 0.0   # a hole: background, but not the largest background part
        px[9:13, 9:13] = 0.7
        px[11, 3] = 0.8
        img = GrayImage(px)
        seeds = derive_seeds(binarize(img, otsu_threshold(img).theta))
        assert len(seeds) == 4  # three shapes + background
        hole = np.arange(px.size).reshape(px.shape)[3:6, 3:6].ravel()
        assert not np.isin(hole, np.concatenate(seeds)).any()
        seg, decided = self._check_against_dense(img, seeds)
        assert decided.all()
        assert (seg.labels[3:6, 3:6] == 0).all()  # the hole joins the ring around it

    def test_labels_match_dense_solve_on_a_tie(self):
        # mirror-symmetric: the middle column is an exact tie in exact arithmetic
        grid = np.arange(35).reshape(5, 7)
        seg, decided = self._check_against_dense(GrayImage(np.full((5, 7), 0.5)),
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
        _, decided = self._check_against_dense(GrayImage(rng.random((9, 11))),
                                               self._seeds_around(free_mask))
        assert decided.all()

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1)], ids=["row", "column"])
    def test_one_pixel_wide_image_matches_dense_solve(self, rng, shape):
        # two of the four border masks are empty: no pixel has a neighbour across the line
        self._check_against_dense(GrayImage(rng.random(shape)),
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
        seg, decided = self._check_against_dense(GrayImage(rng.random((12, 16))), seeds)
        assert decided.all()
        assert seg.labels[1, 14] == 2 and seg.gamma[1, 14].tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_many_seed_sets_from_specks_match_dense_solve(self, rng):
        # every speck is its own seed set: about a hundred sets, where the benchmark
        # images have two, each with its own right-hand column
        mask = rng.random((40, 40)) < 0.1
        mask[13:27, 13:27] = True
        img = GrayImage(np.where(mask, 0.8, 0.1) + 0.05 * rng.random((40, 40)))
        seeds = derive_seeds(BinaryImage(mask.astype(np.uint8)))
        assert len(seeds) > 100
        self._check_against_dense(img, seeds)

    def test_ring_around_a_free_hole_matches_dense_solve(self, rng):
        # the hole is background but not the largest background part, so it is free:
        # a disk of free pixels, which reverse Cuthill-McKee orders with a wide band
        yy, xx = np.mgrid[:30, :30]
        radius = np.hypot(yy - 14.5, xx - 14.5)
        ring = (radius < 13) & (radius >= 6)
        img = GrayImage(np.where(ring, 0.8, 0.1) + 0.05 * rng.random((30, 30)))
        seeds = derive_seeds(BinaryImage(ring.astype(np.uint8)))
        assert len(seeds) == 2 and not np.isin(np.flatnonzero(radius < 6), seeds[1]).any()
        seg, decided = self._check_against_dense(img, seeds)
        assert decided.all()
        assert (seg.labels[radius < 6] == 0).all()  # the hole joins the ring around it

    def test_isolated_free_pixels_match_dense_solve(self, rng):
        # no two free pixels are 4-neighbours: L_U is diagonal, a band of width 0
        free_mask = np.zeros((9, 11), dtype=bool)
        free_mask[1:8:2, 1:10:2] = True
        free_mask[0, 0] = free_mask[8, 10] = True
        _, decided = self._check_against_dense(GrayImage(rng.random((9, 11))),
                                               self._seeds_around(free_mask))
        assert decided.all()

    def test_free_regions_in_opposite_corners_span_the_image(self, rng):
        free_mask = np.zeros((10, 8), dtype=bool)
        free_mask[:3, :2] = True
        free_mask[-2:, -3:] = True
        free_mask[4:6, 3:5] = True
        _, decided = self._check_against_dense(GrayImage(rng.random((10, 8))),
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
        seeds = derive_seeds(BinaryImage(bits))
        assert len(seeds) == 3  # two shapes + background last
        assert seeds[0].size == 1 and seeds[1].size == 1
        assert seeds[2].size == (bits == 0).sum()

    def test_foreground_seed_inside_component(self):
        bits = np.zeros((6, 6), dtype=np.uint8)
        bits[2:5, 2:5] = 1
        assert not eroded_core(bits).size  # a speck: erosion empties it
        seeds = derive_seeds(BinaryImage(bits))
        flat = bits.ravel()
        assert seeds[0].size == 1 and flat[seeds[0][0]] == 1
        # nearest pixel to the centroid of a solid square is its middle
        assert seeds[0][0] == 3 * 6 + 3

    def test_large_component_seeds_its_eroded_core(self):
        yy, xx = np.mgrid[0:24, 0:24]
        bits = ((yy - 11) ** 2 + (xx - 12) ** 2 <= 64).astype(np.uint8)
        seeds = derive_seeds(BinaryImage(bits))
        core = eroded_core(bits)
        assert 0 < core.size < bits.sum()
        assert len(seeds) == 2 and np.array_equal(seeds[0], core)

    def test_component_touching_border_is_eroded_there(self):
        bits = np.zeros((16, 16), dtype=np.uint8)
        bits[:10, :12] = 1
        seeds = derive_seeds(BinaryImage(bits))
        assert np.array_equal(seeds[0], eroded_core(bits))
        # pixels outside the image count as background, so the core keeps off row and column 0
        ys, xs = np.divmod(seeds[0], 16)
        assert ys.min() == SEED_EROSION and xs.min() == SEED_EROSION
        assert ys.max() == 9 - SEED_EROSION and xs.max() == 11 - SEED_EROSION

    def test_components_one_pixel_apart_get_disjoint_cores(self):
        bits = np.zeros((16, 21), dtype=np.uint8)
        bits[2:14, 2:10] = 1
        bits[2:14, 11:19] = 1  # column 10 separates the two
        seeds = derive_seeds(BinaryImage(bits))
        assert len(seeds) == 3 and not np.intersect1d(seeds[0], seeds[1]).size
        for seed, cols in zip(seeds, (slice(2, 10), slice(11, 19))):
            alone = np.zeros_like(bits)
            alone[:, cols] = bits[:, cols]
            assert np.array_equal(seed, eroded_core(alone))
            assert alone.ravel()[seed].all()

    def test_background_seed_is_largest_background_component(self):
        # the foreground outnumbers every background component, and the larger
        # background part is the inner hole, not the strip along the border
        bits = np.ones((12, 12), dtype=np.uint8)
        bits[0, :5] = 0
        bits[3:9, 3:9] = 0
        seeds = derive_seeds(BinaryImage(bits))
        hole = np.arange(144).reshape(12, 12)[3:9, 3:9].ravel()
        assert len(seeds) == 2 and np.array_equal(np.sort(seeds[-1]), hole)

    def test_diagonal_pixels_are_separate_components(self):
        bits = np.zeros((4, 4), dtype=np.uint8)
        bits[0, 0] = bits[1, 1] = 1
        seeds = derive_seeds(BinaryImage(bits))
        assert len(seeds) == 3  # 4-connectivity keeps them apart

    def test_no_foreground_rejected(self):
        with pytest.raises(EmptyForegroundError):
            derive_seeds(BinaryImage(np.zeros((3, 3), dtype=np.uint8)))

    def test_no_background_rejected(self):
        with pytest.raises(EmptyBackgroundError):
            derive_seeds(BinaryImage(np.ones((3, 3), dtype=np.uint8)))


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
        img = GrayImage(rng.random(labels.shape))
        crops = _crops(img, labels, 5)
        assert [c.label for c in crops] == list(range(5))
        for crop, (bbox, count, pixels) in zip(crops, nonzero_crops(img, labels, 5)):
            assert crop.bbox == bbox and crop.pixel_count == count
            assert np.array_equal(crop.image.pixels, pixels)
        assert crops[2].pixel_count == 1

    def test_segmentation_crops_match_nonzero_oracle(self):
        img, _ = generate_synthetic(SyntheticShapeSpec(kind="fin_polygon", size=20, canvas=64,
                                                       noise=0.1))
        seg, fg = segment_image(img)
        smoothed = median_filter(img, 3)
        oracle = nonzero_crops(smoothed, seg.labels, len(seg.shapes))
        for crop, (bbox, count, pixels) in zip(seg.shapes, oracle):
            assert crop.bbox == bbox and crop.pixel_count == count
            assert np.array_equal(crop.image.pixels, pixels)


class TestSegmentImage:
    def test_two_blobs_found(self):
        px = np.zeros((24, 24))
        px[3:9, 3:9] = 0.9
        px[14:21, 14:21] = 0.85
        seg, fg = segment_image(GrayImage(px))
        assert len(fg) == 2
        counts = sorted(seg.shapes[i].pixel_count for i in fg)
        assert counts == [32, 45]  # the 3x3 median shaves each square's 4 corners

    def test_crop_masks_other_shapes(self):
        px = np.zeros((20, 20))
        px[2:6, 2:6] = 0.9
        px[12:17, 12:17] = 0.8
        seg, fg = segment_image(GrayImage(px))
        for i in fg:
            crop = seg.shapes[i]
            assert crop.image.pixels.max() > 0
            y0, x0, y1, x1 = crop.bbox
            assert crop.image.pixels.shape == (y1 - y0, x1 - x0)

    @pytest.mark.parametrize("kind", ["disk", "ellipse", "triangle", "fin_polygon"])
    def test_largest_shape_keeps_otsu_foreground_under_noise(self, kind):
        # a lone seed pixel per shape lets the background seed take most of a noisy shape
        img, _ = generate_synthetic(SyntheticShapeSpec(kind=kind, size=28, canvas=96, noise=0.2))
        smoothed = median_filter(img, 3)
        otsu_count = binarize(smoothed, otsu_threshold(smoothed).theta).bits.sum()
        seg, fg = segment_image(img)
        assert max(seg.shapes[i].pixel_count for i in fg) >= 0.9 * otsu_count


class TestPixelGraph:
    def test_laplacian_rows_sum_to_zero(self, rng):
        img = random_gray(rng, lo=3, hi=8)
        lap = build_pixel_graph(img).laplacian.toarray()
        assert np.abs(lap.sum(axis=1)).max() < 1e-12
        assert np.abs(lap - lap.T).max() < 1e-12

    def test_sigma_floor_applied(self):
        img = GrayImage(np.full((2, 3), 0.5))
        assert build_pixel_graph(img).sigma == pytest.approx(1e-6)

    def test_single_pixel_rejected(self):
        with pytest.raises(ShapeError):
            build_pixel_graph(GrayImage(np.zeros((1, 1))))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_median_idempotent_on_binary(seed):
    rng = np.random.default_rng(seed)
    bits = (rng.random((9, 9)) > 0.5).astype(float)
    once = median_filter(GrayImage(bits), 3)
    assert set(np.unique(once.pixels)) <= {0.0, 1.0}
