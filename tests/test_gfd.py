import numpy as np
import pytest

from finspect import ParameterError, ZeroMassError, gfd_features
from finspect.features.gfd import ANGULAR_SAMPLES, RADIAL_SAMPLES, _phases, polar_samples

from conftest import shape_image


def brute_spectrum(polar, radial_count, angular_count):
    """Direct double-sum DFT over the polar sample grid."""
    out = np.zeros((radial_count, angular_count), dtype=complex)
    for rho in range(radial_count):
        for psi in range(angular_count):
            acc = 0j
            for s in range(RADIAL_SAMPLES):
                for t in range(ANGULAR_SAMPLES):
                    phase = rho * (s + 0.5) / RADIAL_SAMPLES + psi * t / ANGULAR_SAMPLES
                    acc += polar[s, t] * np.exp(-2j * np.pi * phase)
            out[rho, psi] = acc
    return out


def bilinear_oracle(g):
    """polar_samples recomputed one sample at a time; pixels off the canvas read 0."""
    h, w = g.shape
    ys, xs = np.mgrid[0:h, 0:w]
    xc, yc = (xs * g).sum() / g.sum(), (ys * g).sum() / g.sum()
    r_max = max(np.hypot(x - xc, y - yc) for y, x in zip(*np.nonzero(g)))
    out = np.zeros((RADIAL_SAMPLES, ANGULAR_SAMPLES))
    for s in range(RADIAL_SAMPLES):
        radius = (s + 0.5) * r_max / RADIAL_SAMPLES
        for t in range(ANGULAR_SAMPLES):
            theta = 2.0 * np.pi * t / ANGULAR_SAMPLES
            x, y = xc + radius * np.cos(theta), yc + radius * np.sin(theta)
            x0, y0 = int(np.floor(x)), int(np.floor(y))
            fx, fy = x - x0, y - y0
            for xi, wx in ((x0, 1.0 - fx), (x0 + 1, fx)):
                for yi, wy in ((y0, 1.0 - fy), (y0 + 1, fy)):
                    if 0 <= xi < w and 0 <= yi < h:
                        out[s, t] += wx * wy * g[yi, xi]
    return out


class TestPolarSampling:
    def test_matches_bilinear_oracle(self, rng):
        sparse = rng.random((11, 16)) * (rng.random((11, 16)) < 0.2)
        for g in (rng.random((16, 16)), rng.random((9, 14)), sparse):
            assert np.abs(polar_samples(g) - bilinear_oracle(g)).max() <= 1e-13

    def test_sample_past_canvas_reads_zero(self):
        # mass in two opposite corners: the outer ring along the axes leaves the canvas
        g = np.zeros((10, 10))
        g[0, 0] = g[9, 9] = 1.0
        r_outer = (RADIAL_SAMPLES - 0.5) / RADIAL_SAMPLES * 4.5 * np.sqrt(2)
        assert 4.5 + r_outer >= 10.0  # both bilinear neighbours lie past the last row/column
        polar = polar_samples(g)
        assert polar[-1, 0] == 0.0
        assert polar[-1, ANGULAR_SAMPLES // 4] == 0.0
        assert np.abs(polar - bilinear_oracle(g)).max() <= 1e-13

    def test_grid_shape(self):
        img = shape_image("disk", 20, canvas=64)
        polar = polar_samples(img.pixels)
        assert polar.shape == (RADIAL_SAMPLES, ANGULAR_SAMPLES)

    def test_disk_is_radius_limited(self):
        img = shape_image("disk", 20, canvas=64)
        polar = polar_samples(img.pixels)
        # intensity beyond the disk boundary must vanish; inner rings are full
        assert polar[0].min() > 0.5
        assert polar[-1].max() <= 1.0

    def test_zero_mass_rejected(self):
        with pytest.raises(ZeroMassError):
            polar_samples(np.zeros((5, 5)))


class TestGfdFeatures:
    def test_matches_brute_force_dft(self, rng):
        px = rng.random((17, 19))
        polar = polar_samples(px)
        ref = np.abs(brute_spectrum(polar, 3, 4))
        ref = (ref / ref[0, 0]).ravel()
        got = gfd_features(px, radial_count=3, angular_count=4).values
        assert np.abs(got - ref).max() < 1e-9

    def test_first_feature_is_one(self, rng):
        px = rng.random((12, 14)) + 0.01
        assert gfd_features(px).values[0] == 1.0

    def test_default_dimensions(self):
        fv = gfd_features(shape_image("triangle", 30, canvas=96).pixels)
        assert fv.values.shape == (36,)
        assert len(fv.descriptor) == 36

    def test_rotation_invariance_exact(self):
        base = shape_image("fin_polygon", 30, canvas=96).pixels
        v0 = gfd_features(base).values
        for q in (1, 2, 3):
            vq = gfd_features(np.rot90(base, q)).values
            assert np.abs(vq - v0).max() < 1e-6

    def test_translation_invariance(self):
        v0 = gfd_features(shape_image("fin_polygon", 24, canvas=96).pixels).values
        vt = gfd_features(shape_image("fin_polygon", 24, canvas=96,
                                      translate=(11, -8)).pixels).values
        assert np.abs(vt - v0).max() < 1e-2

    def test_counts_validated(self, rng):
        px = rng.random((6, 6))
        with pytest.raises(ParameterError):
            gfd_features(px, radial_count=0)
        with pytest.raises(ParameterError):
            gfd_features(px, angular_count=0)

    def test_zero_mass_rejected(self):
        with pytest.raises(ZeroMassError):
            gfd_features(np.zeros((6, 6)))

    def test_values_nonnegative(self, rng):
        vals = gfd_features(rng.random((10, 10))).values
        assert (vals >= 0).all()

    def test_phases_built_once_and_read_only(self, rng):
        gfd_features(rng.random((9, 9)), radial_count=3, angular_count=5)
        radial, angular = _phases(3, 5)
        assert _phases(3, 5)[0] is radial
        assert radial.shape == (3, RADIAL_SAMPLES) and angular.shape == (5, ANGULAR_SAMPLES)
        for phase in (radial, angular):
            with pytest.raises(ValueError):
                phase[0, 0] = 0.0
