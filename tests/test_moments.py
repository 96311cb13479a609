import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finspect import (DEFAULT_CMI_BASIS, BasisError, FeatureVector, GrayImage,
                      MomentProductSpec, ParameterError, ShapeError,
                      SyntheticShapeSpec, ZeroMassError, centroid, cmi_features,
                      complex_moment, generate_synthetic, geometric_moment)

from conftest import shape_image


def brute_complex_moment(pixels, a, b):
    ys, xs = np.mgrid[0:pixels.shape[0], 0:pixels.shape[1]].astype(float)
    mass = pixels.sum()
    xc = (xs * pixels).sum() / mass
    yc = (ys * pixels).sum() / mass
    total = 0j
    for y in range(pixels.shape[0]):
        for x in range(pixels.shape[1]):
            u = (x - xc) + 1j * (y - yc)
            total += u**a * np.conj(u) ** b * pixels[y, x]
    return total


class TestMoments:
    def test_geometric_matches_double_sum(self, rng):
        px = rng.random((7, 5))
        for a, b in [(0, 0), (1, 0), (2, 3)]:
            ref = sum(px[y, x] * x**a * y**b
                      for y in range(7) for x in range(5))
            assert geometric_moment(px, a, b) == pytest.approx(ref)

    def test_central_first_moments_vanish(self, rng):
        px = rng.random((6, 8))
        assert geometric_moment(px, 1, 0, central=True) == pytest.approx(0, abs=1e-9)
        assert geometric_moment(px, 0, 1, central=True) == pytest.approx(0, abs=1e-9)

    def test_centroid_point_mass(self):
        px = np.zeros((5, 5))
        px[3, 1] = 1.0
        assert centroid(px) == (1.0, 3.0)  # (x, y)

    def test_complex_moment_matches_brute_force(self, rng):
        px = rng.random((6, 6))
        for a, b in [(0, 2), (2, 0), (1, 2), (2, 1), (1, 3), (4, 2)]:
            assert complex_moment(px, a, b) == pytest.approx(
                brute_complex_moment(px, a, b), rel=1e-12)

    def test_conjugate_symmetry(self, rng):
        px = rng.random((5, 7))
        c = complex_moment(px, 3, 1)
        assert complex_moment(px, 1, 3) == pytest.approx(np.conj(c))

    def test_zero_mass_rejected(self):
        with pytest.raises(ZeroMassError):
            centroid(np.zeros((3, 3)))

    def test_negative_order_rejected(self, rng):
        for moment in (geometric_moment, complex_moment):
            for a, b in ((-1, 0), (0, -1)):
                with pytest.raises(ParameterError, match="moment orders must be nonnegative"):
                    moment(rng.random((3, 3)), a, b)

    def test_zero_mass_cmi_rejected(self):
        with pytest.raises(ZeroMassError, match="undefined for a zero-mass image"):
            cmi_features(np.zeros((4, 4)))


class TestFeatureVector:
    @pytest.mark.parametrize("values", [[1.0], [[1.0, 2.0]], [1.0, 2.0, 3.0]],
                             ids=["too-few", "2-d", "too-many"])
    def test_labels_and_values_must_align(self, values):
        with pytest.raises(ShapeError, match="descriptor labels and values must align"):
            FeatureVector("cmi", ("a", "b"), values)

    def test_values_must_be_finite(self):
        with pytest.raises(ShapeError, match="feature values must be finite"):
            FeatureVector("cmi", ("a",), [np.inf])


BASIS_PAIRS = sorted({(a, b) for spec in DEFAULT_CMI_BASIS for a, b, _ in spec.factors})
SHAPE_CASES = [(kind, quarters, shift)
               for kind in ("disk", "ellipse", "triangle", "fin_polygon")
               for quarters, shift in ((1, (3, -2)), (3, (-4, 5)))]


def shape_crop(kind, quarters, shift, noise=0.0):
    """A 36 px window of a rotated, translated shape; noise grays the shape's pixels only."""
    spec = dict(kind=kind, size=10, canvas=48, rotate_quarters=quarters, translate=shift)
    mask = generate_synthetic(SyntheticShapeSpec(**spec))[0].pixels > 0
    gray = generate_synthetic(SyntheticShapeSpec(**spec, noise=noise))[0].pixels
    return np.where(mask, gray, 0.0)[6:42, 6:42]


class TestMomentTable:
    @pytest.mark.parametrize("noise", [0.0, 0.1])
    @pytest.mark.parametrize("kind, quarters, shift", SHAPE_CASES)
    def test_complex_moments_match_brute_force(self, kind, quarters, shift, noise):
        px = shape_crop(kind, quarters, shift, noise)
        ys, xs = np.mgrid[0:px.shape[0], 0:px.shape[1]]
        mass = px.sum()
        radius = np.hypot(xs - (xs * px).sum() / mass, ys - (ys * px).sum() / mass)
        for a, b in BASIS_PAIRS:
            # the binomial expansion cancels terms up to sum |u|^(a+b) g in size
            bound = 1e-13 * (radius ** (a + b) * px).sum()
            assert abs(complex_moment(px, a, b) - brute_complex_moment(px, a, b)) <= bound

    @pytest.mark.parametrize("kind, quarters, shift", SHAPE_CASES)
    def test_features_match_brute_force(self, kind, quarters, shift):
        # gray levels keep the odd moments of the disk and ellipse off exact zero, where a
        # relative error means nothing; 1e-10 is about 60 times the worst error seen over
        # five noise seeds, which sits in the disk's invariants of about 1e-26
        px = shape_crop(kind, quarters, shift, noise=0.1)
        moment = {(a, b): brute_complex_moment(px, a, b) for a, b in BASIS_PAIRS}
        ref = np.array([
            abs(np.prod([moment[(a, b)] ** c for a, b, c in spec.factors]))
            / px.sum() ** sum(c * (a + b + 2) / 2 for a, b, c in spec.factors)
            for spec in DEFAULT_CMI_BASIS])
        assert np.max(np.abs(cmi_features(px).values - ref) / ref) < 1e-10


class TestBasisValidation:
    def test_default_basis_is_balanced(self):
        for spec in DEFAULT_CMI_BASIS:
            assert MomentProductSpec(spec.factors) == spec

    def test_unbalanced_product_rejected(self):
        # M21^3 M02: sum c(a-b) = 3*1 + 1*(-2) = 1 != 0
        with pytest.raises(BasisError):
            MomentProductSpec(((2, 1, 3.0), (0, 2, 1.0)))

    def test_empty_product_rejected(self):
        with pytest.raises(BasisError):
            MomentProductSpec(())

    @pytest.mark.parametrize("a, b", [(-1, 1), (1, -1)])
    def test_negative_order_in_a_factor_rejected(self, a, b):
        message = f"moment orders must be nonnegative, got \\({a}, {b}\\)"
        with pytest.raises(BasisError, match=message):
            MomentProductSpec(((a, b, 1.0),))

    @pytest.mark.parametrize("factor, message", [
        ((1.5, 1.5, 1.0), r"moment orders must be integers, got \(1.5, 1.5\)"),
        (("2", 0, 1.0), "moment orders must be integers"),
        ((True, 1, 1.0), "moment orders must be integers"),
        ((2, 0, True), "moment exponents must be finite numbers, got True"),
        ((1, 1, float("inf")), "moment exponents must be finite numbers, got inf"),
        ((1, 1, float("nan")), "moment exponents must be finite numbers, got nan"),
        ((1, 1, "1"), "moment exponents must be finite numbers"),
    ])
    def test_factor_of_the_wrong_type_rejected(self, factor, message):
        with pytest.raises(BasisError, match=message):
            MomentProductSpec((factor,))

    def test_numpy_integer_orders_accepted(self):
        spec = MomentProductSpec(((np.int64(1), np.int64(1), 2),))
        assert spec == MomentProductSpec(((1, 1, 2.0),))

    def test_bad_feature_basis_raises_at_construction(self):
        with pytest.raises(BasisError):
            MomentProductSpec(((2, 1, 1.0),))


class TestCmiInvariance:
    def test_translation_exact(self):
        a = shape_image("fin_polygon", 60).pixels
        b = shape_image("fin_polygon", 60, translate=(13, -7)).pixels
        va, vb = cmi_features(a).values, cmi_features(b).values
        assert np.abs(vb - va).max() / np.abs(va).min() < 1e-9

    def test_quarter_rotation_exact(self):
        a = shape_image("triangle", 60).pixels
        for q in (1, 2, 3):
            b = shape_image("triangle", 60, rotate_quarters=q).pixels
            va, vb = cmi_features(a).values, cmi_features(b).values
            assert np.max(np.abs(vb - va) / np.abs(va)) < 1e-12

    def test_double_scale_within_tolerance(self):
        a = shape_image("fin_polygon", 80).pixels
        b = shape_image("fin_polygon", 80, scale=2).pixels
        va, vb = cmi_features(a).values, cmi_features(b).values
        assert np.max(np.abs(vb - va) / np.abs(va)) < 1e-3

    def test_analytic_scale_power(self, rng):
        # replacing g(x,y) by the same g on a lattice scaled by integer s
        # multiplies C_ab by s^(a+b); the w weights cancel it exactly
        px = rng.random((6, 6))
        big = np.kron(px, np.eye(3)[0:3, 0:1] @ np.eye(3)[0:1, 0:3])  # sparse embed
        c_small = complex_moment(px, 2, 0)
        c_big = complex_moment(big, 2, 0)
        assert c_big == pytest.approx(c_small * 9.0, rel=1e-9)

    def test_shape_discrimination(self):
        ve = cmi_features(shape_image("ellipse", 84).pixels).values
        vt = cmi_features(shape_image("triangle", 84).pixels).values
        rel = np.abs(ve - vt) / np.maximum(np.abs(ve), np.abs(vt))
        assert rel.max() > 1e-2

    def test_feature_vector_layout(self, rng):
        fv = cmi_features(rng.random((8, 8)) + 0.05)
        assert fv.extractor == "CMI"
        assert len(fv.descriptor) == 6 == fv.values.size
        assert np.isfinite(fv.values).all()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rotation_invariance_property(seed):
    rng = np.random.default_rng(seed)
    px = rng.random((9, 9)) + 0.01
    v0 = cmi_features(px).values
    v1 = cmi_features(np.rot90(px)).values
    assert np.max(np.abs(v1 - v0) / np.maximum(np.abs(v0), 1e-300)) < 1e-9
