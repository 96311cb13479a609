import numpy as np
import pytest

from finspect import ParameterError
from finspect.synth import SHAPE_CLASS, SyntheticShapeSpec, generate_synthetic


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            SyntheticShapeSpec("square", 10)

    def test_too_large_for_canvas(self):
        with pytest.raises(ParameterError):
            SyntheticShapeSpec("disk", 48, canvas=96)

    def test_tiny_canvas(self):
        with pytest.raises(ParameterError):
            SyntheticShapeSpec("disk", 2, canvas=7)

    def test_bad_scale_and_noise(self):
        with pytest.raises(ParameterError):
            SyntheticShapeSpec("disk", 5, scale=0)
        with pytest.raises(ParameterError):
            SyntheticShapeSpec("disk", 5, noise=-0.1)

    @pytest.mark.parametrize("changes", [
        {"size": float("nan")}, {"size": 5.5}, {"size": 5.0}, {"canvas": 32.0},
        {"rotate_quarters": 1.5}, {"scale": True}, {"scale": 1.5}, {"translate": (1.5, 0)},
        {"translate": (0, True)}, {"translate": (1, 2, 3)}, {"translate": 0},
        {"noise": True},
    ], ids=repr)
    def test_integer_fields_are_ints_and_noise_not_a_bool(self, changes):
        with pytest.raises(ParameterError, match="must be"):
            SyntheticShapeSpec(**{"kind": "disk", "size": 5, "canvas": 32, **changes})

    def test_numpy_integers_are_ints(self):
        spec = SyntheticShapeSpec("disk", np.int64(5), canvas=np.int32(32), scale=np.uint8(2),
                                  translate=(np.int64(1), -2), rotate_quarters=np.int64(1),
                                  noise=np.float64(0.0))
        img, _ = generate_synthetic(spec)
        assert img.pixels.shape == (64, 64)

    def test_polygon_needs_positive_size(self):
        with pytest.raises(ParameterError):
            SyntheticShapeSpec("triangle", 0)

    def test_labels_cover_all_kinds(self):
        for kind, label in SHAPE_CLASS.items():
            img, got = generate_synthetic(SyntheticShapeSpec(kind, 10, canvas=64))
            assert got == label
            assert img.pixels.shape == (64, 64)


class TestGeometry:
    def test_zero_radius_disk_keeps_centre_pixel(self):
        img, _ = generate_synthetic(SyntheticShapeSpec("disk", 0, canvas=32))
        assert img.pixels.sum() == 1.0
        assert img.pixels[16, 16] == 1.0

    @pytest.mark.parametrize("kind", sorted(SHAPE_CLASS))
    def test_smallest_shape_draws_the_centre_pixel(self, kind):
        img, _ = generate_synthetic(SyntheticShapeSpec(kind, int(kind != "disk"), canvas=8))
        assert img.levels[4, 4] == 255

    def test_disk_mask_is_circle_equation(self):
        img, _ = generate_synthetic(SyntheticShapeSpec("disk", 9, canvas=48))
        ys, xs = np.mgrid[0:48, 0:48]
        expected = (xs - 24) ** 2 + (24 - ys) ** 2 <= 81
        assert np.array_equal(img.pixels > 0.5, expected)

    def test_translation_preserves_mass(self):
        base, _ = generate_synthetic(SyntheticShapeSpec("fin_polygon", 12, canvas=64))
        moved, _ = generate_synthetic(
            SyntheticShapeSpec("fin_polygon", 12, canvas=64, translate=(5, -7)))
        assert moved.pixels.sum() == base.pixels.sum()
        # dx moves right, dy > 0 moves up (rows shrink)
        rb, cb = np.nonzero(base.pixels)
        rm, cm = np.nonzero(moved.pixels)
        assert set(zip(rm, cm)) == {(r + 7, c + 5) for r, c in zip(rb, cb)}

    def test_rot90_matches_coordinate_map(self):
        spec = SyntheticShapeSpec("triangle", 14, canvas=48)
        base, _ = generate_synthetic(spec)
        rot, _ = generate_synthetic(SyntheticShapeSpec("triangle", 14, canvas=48,
                                                       rotate_quarters=1))
        assert np.array_equal(rot.pixels, np.rot90(base.pixels))

    def test_scale_is_block_replication(self):
        base, _ = generate_synthetic(SyntheticShapeSpec("ellipse", 8, canvas=24))
        big, _ = generate_synthetic(SyntheticShapeSpec("ellipse", 8, canvas=24, scale=2))
        assert big.pixels.shape == (48, 48)
        assert np.array_equal(big.pixels, np.kron(base.pixels, np.ones((2, 2))))

    def test_off_canvas_shift_rejected(self):
        with pytest.raises(ParameterError):
            generate_synthetic(SyntheticShapeSpec("disk", 10, canvas=32, translate=(10, 0)))


class TestNoise:
    def test_noise_is_seed_deterministic(self):
        spec = SyntheticShapeSpec("disk", 8, canvas=32, noise=0.05)
        a, _ = generate_synthetic(spec, rng_seed=9)
        b, _ = generate_synthetic(spec, rng_seed=9)
        c, _ = generate_synthetic(spec, rng_seed=10)
        assert np.array_equal(a.pixels, b.pixels)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_noise_stays_in_unit_range(self):
        img, _ = generate_synthetic(SyntheticShapeSpec("disk", 8, canvas=32, noise=2.0))
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0
