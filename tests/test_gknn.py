import numpy as np
import pytest

from finspect import (
    DegeneratePopulationError,
    LabeledSet,
    ParameterError,
    ShapeError,
    one_hot,
)
from finspect import gknn


class TestChromosomeWidth:
    def test_values(self):
        assert [gknn.chromosome_width(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [1, 1, 2, 2, 3, 3, 4]

    def test_zero_rejected(self):
        with pytest.raises(ParameterError):
            gknn.chromosome_width(0)


class TestCrossover:
    def test_worked_pair(self):
        assert gknn.crossover(1, 2, 2, 3) == (2, 1)

    def test_point_bounds(self):
        for v in (0, 3, -1):
            with pytest.raises(ParameterError):
                gknn.crossover(1, 2, v, 3)

    def test_bit_audit_and_involution(self, rng):
        for _ in range(200):
            r = int(rng.integers(2, 9))
            a, b = (int(v) for v in rng.integers(0, 1 << r, 2))
            v = int(rng.integers(1, r))
            o1, o2 = gknn.crossover(a, b, v, r)
            low = (1 << v) - 1
            assert o1 & low == b & low and o1 & ~low == a & ~low
            assert o2 & low == a & low and o2 & ~low == b & ~low
            assert gknn.crossover(o1, o2, v, r) == (a, b)


class TestMutate:
    def test_worked_flips(self):
        assert gknn.mutate(1, 2, 7) == 5
        assert gknn.mutate(2, 2, 7) == 6

    def test_involution_on_power_of_two(self, rng):
        # n = 8: any single-bit flip stays in range, no redraw branch
        for kappa in range(8):
            for v in range(3):
                assert gknn.mutate(gknn.mutate(kappa, v, 8), v, 8) == kappa

    def test_redraw_covers_all_slots(self):
        # n = 6: flipping bit 1 of 5 gives 7, out of range, so v is redrawn
        rng = np.random.default_rng(3)
        for kappa in range(6):
            for v in range(3):
                out = gknn.mutate(kappa, v, 6, rng)
                assert 0 <= out < 6
                if kappa ^ (1 << v) < 6:
                    assert out == kappa ^ (1 << v)

    def test_redraw_without_rng_rejected(self):
        with pytest.raises(ParameterError):
            gknn.mutate(5, 1, 6)  # 5 ^ 2 = 7 >= 6 forces a redraw

    def test_single_point_degenerate(self):
        with pytest.raises(DegeneratePopulationError):
            gknn.mutate(0, 0, 1)

    def test_gene_index_bounds(self):
        with pytest.raises(ParameterError):
            gknn.mutate(0, 3, 8)


class TestMahalanobis:
    def test_identity_reduces_to_euclidean(self, rng):
        ctx = gknn.MahalanobisContext(np.eye(3), np.eye(3))
        for _ in range(20):
            a, b = rng.normal(size=(2, 3))
            assert gknn.mahalanobis(a, b, ctx) == pytest.approx(
                np.linalg.norm(a - b), abs=1e-12)

    def test_context_uses_unbiased_covariance(self):
        x = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0]])
        ctx = gknn.build_context(x)
        diffs = x - x.mean(axis=0)
        expected = diffs.T @ diffs / (len(x) - 1)
        assert np.allclose(ctx.covariance, expected, atol=1e-12)
        ident = ctx.inverse @ (expected + 1e-6 * np.eye(2))
        assert np.allclose(ident, np.eye(2), atol=1e-9)

    def test_needs_two_points(self):
        with pytest.raises(ParameterError):
            gknn.build_context(np.array([[1.0, 2.0]]))

    def test_dimension_mismatch(self):
        ctx = gknn.MahalanobisContext(np.eye(2), np.eye(2))
        with pytest.raises(ShapeError):
            gknn.mahalanobis(np.zeros(3), np.zeros(3), ctx)

    @pytest.mark.parametrize("x_q, x_j", [
        (np.zeros((3, 2)), np.zeros(3)), (np.zeros((3, 2)), np.zeros((2, 2))),
        (np.zeros((1, 3, 2)), np.zeros(2)), (np.float64(0.0), np.zeros(2)),
    ], ids=["row-width", "row-count", "three-dimensional", "scalar"])
    def test_row_stack_shape_mismatch(self, x_q, x_j):
        ctx = gknn.MahalanobisContext(np.eye(2), np.eye(2))
        with pytest.raises(ShapeError):
            gknn.mahalanobis(x_q, x_j, ctx)

    def test_row_stack_gives_each_rows_distance(self, rng):
        x, query = rng.normal(size=(6, 3)), rng.normal(size=3)
        ctx = gknn.build_context(x)
        rows = gknn.mahalanobis(x, query, ctx)
        assert rows.shape == (6,)
        assert np.allclose(rows, [gknn.mahalanobis(row, query, ctx) for row in x],
                           rtol=1e-12, atol=0)
        assert np.array_equal(gknn.mahalanobis(query, x, ctx), rows)

    def test_query_of_the_wrong_width_is_shape_error(self):
        training = LabeledSet(np.eye(3), one_hot([0, 1, 1], 2))
        with pytest.raises(ShapeError, match="dimension does not match"):
            gknn.gknn_classify(np.zeros(2), training, 1)


class TestEvolve:
    def test_k_bounds(self, rng):
        fit = np.linspace(1.0, 0.1, 5)
        for k in (0, 6):
            with pytest.raises(ParameterError):
                gknn.evolve(fit, k, rng)

    def test_full_population_is_sorted_identity(self, rng):
        fit = np.array([0.2, 0.9, 0.4, 0.9, 0.1])
        pop = gknn.evolve(fit, 5, rng)
        assert pop == (1, 3, 2, 0, 4)  # fitness desc, ties by index

    def test_population_invariants(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, n + 1))
            fit = rng.random(n)
            pop = gknn.evolve(fit, k, np.random.default_rng(int(rng.integers(1 << 16))))
            assert len(pop) == k and len(set(pop)) == k
            assert all(0 <= p < n for p in pop)
            ranks = [( -fit[p], p) for p in pop]
            assert ranks == sorted(ranks)

    def test_deterministic_per_seed(self):
        fit = np.random.default_rng(0).random(25)
        a = gknn.evolve(fit, 4, np.random.default_rng(7))
        b = gknn.evolve(fit, 4, np.random.default_rng(7))
        assert a == b


def worked_training():
    x = np.array([[1.0, 1.0], [0.0, 1.0], [2.0, 3.0], [2.0, 2.0], [1.0, 1.0], [4.0, 2.0]])
    return LabeledSet(x, one_hot([0, 0, 1, 1, 0, 1], 2))


class TestClassify:
    def test_worked_example(self):
        # seed chosen so the initial draw and mutations walk to the two
        # nearest neighbours of the query, both in class 0
        shares = gknn.gknn_classify(np.array([1.0, 0.0]), worked_training(), 2, rng_seed=60)
        assert np.allclose(shares, [1.0, 0.0])

    def test_single_point_returns_its_label(self):
        data = LabeledSet(np.array([[3.0, 1.0]]), one_hot([1], 3))
        assert np.array_equal(gknn.gknn_classify(np.zeros(2), data, 1), [0.0, 1.0, 0.0])

    def test_k_equals_n_gives_class_frequencies(self):
        shares = gknn.gknn_classify(np.zeros(2), worked_training(), 6, rng_seed=0)
        assert np.allclose(shares, [0.5, 0.5])

    def test_k_bounds(self):
        data = worked_training()
        for k in (0, 7):
            with pytest.raises(ParameterError):
                gknn.gknn_classify(np.zeros(2), data, k)

    def test_shares_sum_to_one(self, rng):
        data = worked_training()
        for seed in range(10):
            shares = gknn.gknn_classify(rng.normal(size=2), data, 3, rng_seed=seed)
            assert shares.sum() == pytest.approx(1.0)

    def test_given_context_gives_identical_shares(self, rng):
        data = worked_training()
        ctx = gknn.build_context(data.inputs)
        for seed in range(10):
            q = rng.normal(size=2)
            assert np.array_equal(gknn.gknn_classify(q, data, 3, rng_seed=seed, context=ctx),
                                  gknn.gknn_classify(q, data, 3, rng_seed=seed))

    def test_majority_agrees_with_exhaustive_neighbours(self):
        rng = np.random.default_rng(42)
        n, k = 40, 3
        x = np.vstack([rng.normal((0, 0), 1.0, (n // 2, 2)),
                       rng.normal((3, 3), 1.0, (n // 2, 2))])
        labels = np.repeat([0, 1], n // 2)
        data = LabeledSet(x, one_hot(labels, 2))
        ctx = gknn.build_context(x)
        agree = 0
        queries = np.vstack([rng.normal((0, 0), 1.0, (10, 2)),
                             rng.normal((3, 3), 1.0, (10, 2))])
        for q in queries:
            diff = x - q
            d = np.sqrt(np.einsum("ij,jk,ik->i", diff, ctx.inverse, diff))
            order = sorted(range(n), key=lambda i: (d[i], i))[:k]
            oracle = np.argmax(np.bincount(labels[order], minlength=2))
            votes = [int(np.argmax(gknn.gknn_classify(q, data, k, rng_seed=s)))
                     for s in range(9)]
            ga = np.argmax(np.bincount(votes, minlength=2))
            agree += ga == oracle
        assert agree >= 18
