import numpy as np
import pytest
import sympy
from numpy.polynomial import legendre as npleg

from finspect import ParameterError, ShapeError, elm_features, legendre_poly
from finspect.features.elm import _cell_integrals, _legendre_table

from conftest import shape_image


class TestLegendre:
    def test_matches_rodrigues_formula(self):
        x = sympy.Symbol("x")
        pts = np.linspace(-1, 1, 11)
        for a in range(7):
            rodrigues = sympy.diff((x**2 - 1) ** a, x, a) / (2**a * sympy.factorial(a))
            expected = [float(rodrigues.subs(x, p)) for p in pts]
            got = legendre_poly(a, pts)
            assert np.allclose(got, expected, atol=1e-12)

    def test_scalar_input(self):
        assert legendre_poly(0, 0.3) == 1.0
        assert legendre_poly(1, 0.3) == pytest.approx(0.3)
        assert legendre_poly(2, 0.5) == pytest.approx(0.5 * (3 * 0.25 - 1))

    def test_negative_order_rejected(self):
        with pytest.raises(ParameterError):
            legendre_poly(-1, 0.0)


class TestCellIntegrals:
    def test_matches_quadrature(self):
        # row a-1 must equal (2a+1)/2 * integral of L_a over each cell
        count, max_order = 5, 4
        table = _cell_integrals(count, max_order)
        bounds = -1 + 2 * np.arange(count + 1) / count
        for a in range(1, max_order + 1):
            coeffs = np.zeros(a + 1)
            coeffs[a] = 1.0
            antider = npleg.legint(coeffs)
            for i in range(count):
                ref = (2 * a + 1) / 2 * (npleg.legval(bounds[i + 1], antider)
                                         - npleg.legval(bounds[i], antider))
                assert table[a - 1, i] == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("count", [1, 2, 7, 96])
    def test_shared_table_equals_per_order_polynomials(self, count):
        bounds = -1.0 + 2.0 * np.arange(count + 1) / count
        for max_order in range(1, 9):
            table = _legendre_table(max_order, bounds)
            rows = [legendre_poly(a, bounds) for a in range(max_order + 1)]
            assert np.array_equal(table, rows)
            # the integrals as one row per order, each from its own polynomials
            expected = [(2 * a + 1) / (2 * a + 2)
                        * np.diff(bounds * rows[a] - rows[a - 1]) for a in range(1, max_order + 1)]
            assert np.array_equal(_cell_integrals(count, max_order), expected)

    def test_rows_sum_to_zero(self):
        # integral of L_a over [-1, 1] vanishes for a >= 1
        table = _cell_integrals(7, 5)
        assert np.abs(table.sum(axis=1)).max() < 1e-12


def brute_elm(pixels, max_order):
    m, n = pixels.shape
    ix = _cell_integrals(n, max_order)
    iy = _cell_integrals(m, max_order)
    out = np.zeros((max_order, max_order))
    for a in range(1, max_order + 1):
        for b in range(1, max_order + 1):
            acc = 0.0
            for j in range(m):
                for i in range(n):
                    acc += ix[a - 1, i] * iy[b - 1, j] * pixels[j, i]
            out[a - 1, b - 1] = acc
    return out.ravel()


class TestElmFeatures:
    def test_matches_double_sum(self, rng):
        px = rng.random((6, 9))
        got = elm_features(px, max_order=3).values
        assert np.abs(got - brute_elm(px, 3)).max() < 1e-12

    def test_default_dimensions(self, rng):
        fv = elm_features(rng.random((8, 8)))
        assert fv.values.shape == (25,)
        assert fv.descriptor[0] == "M11" and fv.descriptor[-1] == "M55"

    def test_double_scale_exact(self):
        a = shape_image("fin_polygon", 30, canvas=96).pixels
        b = shape_image("fin_polygon", 30, canvas=96, scale=2).pixels
        va, vb = elm_features(a).values, elm_features(b).values
        den = np.maximum(np.abs(va), 1e-12)
        assert np.max(np.abs(vb - va) / den) < 1e-12

    def test_translation_changes_features(self):
        a = shape_image("fin_polygon", 20, canvas=96).pixels
        b = shape_image("fin_polygon", 20, canvas=96, translate=(24, 0)).pixels
        va, vb = elm_features(a).values, elm_features(b).values
        rel = np.abs(vb - va) / np.maximum(np.abs(va), 1e-12)
        assert rel.max() > 1e-1

    def test_zero_image_gives_zero_features(self):
        assert np.all(elm_features(np.zeros((5, 5))).values == 0.0)

    def test_order_validated(self, rng):
        with pytest.raises(ParameterError):
            elm_features(rng.random((4, 4)), max_order=0)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            elm_features(np.zeros((0, 4)))

    def test_separable_image_factorizes(self):
        # g(x, y) = f(x) h(y) makes the moment matrix an outer product
        col = np.linspace(0.1, 1.0, 8)
        row = np.linspace(1.0, 0.2, 6)
        px = np.outer(row, col)
        vals = elm_features(px, max_order=2).values.reshape(2, 2)
        assert np.linalg.matrix_rank(vals, tol=1e-10) == 1
