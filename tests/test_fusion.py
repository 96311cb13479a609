import numpy as np
import pytest
import sympy

from finspect import DegenerateBeliefError, ParameterError, ShapeError
from finspect import fusion, pipeline


WORKED_PROFILE = np.array([
    [0.70, 0.30],
    [0.75, 0.25],
    [0.47, 0.53],
    [0.50, 0.50],
])
TEMPLATE_0 = np.array([
    [0.70, 0.30],
    [0.90, 0.10],
    [0.89, 0.11],
    [0.80, 0.20],
])
TEMPLATE_1 = np.array([
    [0.30, 0.70],
    [0.40, 0.60],
    [0.30, 0.70],
    [0.20, 0.80],
])


def worked_templates():
    return fusion.DecisionTemplates(np.stack([TEMPLATE_0, TEMPLATE_1]), np.array([1, 1]))


def fuse_by_hand(profile, matrices):
    """Re-derivation with plain loops, independent of the library internals."""
    n_classes = matrices.shape[0]
    raw = np.ones(n_classes)
    for i in range(profile.shape[0]):
        dists = [np.linalg.norm(matrices[j, i] - profile[i]) for j in range(n_classes)]
        w = np.array([1.0 / (1.0 + d) for d in dists])
        lam = w / w.sum()
        pi = np.empty(n_classes)
        for j in range(n_classes):
            others = 1.0
            for r in range(n_classes):
                if r != j:
                    others *= 1.0 - lam[r]
            pi[j] = lam[j] * others / (1.0 - lam[j] * (1.0 - others))
        raw *= pi
    return raw


def fuse_exact(profile, matrices):
    """Raw supports from the documented formulas, in exact sympy arithmetic.

    Entries are read as the decimals they print as (0.47 -> 47/100). Per
    classifier row i: w_j = 1/(1+||T_j[i]-o_i||_2), lam = w/sum(w);
    pi_j = lam_j P_j / (1 - lam_j (1 - P_j)), P_j = prod_{r!=j}(1-lam_r);
    raw_j is the product of pi_j over rows. Returned as floats rounded from
    30 significant digits.
    """
    def exact(a):
        return [[sympy.Rational(repr(float(v))) for v in row] for row in a]

    rows = exact(profile)
    templates = [exact(m) for m in matrices]
    n_classes = len(templates)
    raw = [sympy.Integer(1)] * n_classes
    for i, o in enumerate(rows):
        w = [1 / (1 + sympy.sqrt(sum((t - v) ** 2 for t, v in zip(tmpl[i], o))))
             for tmpl in templates]
        lam = [wj / sum(w) for wj in w]
        for j in range(n_classes):
            others = sympy.Mul(*(1 - lam[r] for r in range(n_classes) if r != j))
            raw[j] *= lam[j] * others / (1 - lam[j] * (1 - others))
    return np.array([float(sympy.N(v, 30)) for v in raw])


class TestProfileChecks:
    def test_row_sum_enforced(self):
        with pytest.raises(ParameterError):
            fusion.compute_templates([np.array([[0.9, 0.3]])], [0], 1)

    @pytest.mark.parametrize("excess", [9e-6, -9e-6, np.nan])
    def test_row_sum_tolerance_is_absolute(self, excess):
        # 9e-6 lies inside np.allclose's default rtol but outside the documented 1e-6
        with pytest.raises(ParameterError):
            fusion.check_profile(np.array([[0.5, 0.5 + excess], [0.3, 0.7]]))

    def test_row_sum_within_tolerance_accepted(self):
        profile = fusion.check_profile([[0.5, 0.5 + 5e-7], [0.3, 0.7]])
        assert profile.shape == (2, 2)

    def test_range_enforced(self):
        with pytest.raises(ParameterError):
            fusion.compute_templates([np.array([[1.5, -0.5]])], [0], 1)

    def test_one_dimensional_rejected(self):
        with pytest.raises(ShapeError):
            fusion.fuse(np.array([0.5, 0.5]), worked_templates())


class TestTemplates:
    def test_per_class_mean(self):
        p0 = np.array([[1.0, 0.0], [0.8, 0.2]])
        p1 = np.array([[0.6, 0.4], [0.4, 0.6]])
        p2 = np.array([[0.0, 1.0], [0.1, 0.9]])
        t = fusion.compute_templates([p0, p1, p2], [0, 0, 1], 2)
        assert np.allclose(t.matrices[0], (p0 + p1) / 2)
        assert np.allclose(t.matrices[1], p2)
        assert t.counts.tolist() == [2, 1]

    def test_empty_class_rejected(self):
        with pytest.raises(ParameterError):
            fusion.compute_templates([np.array([[1.0, 0.0]])], [0], 2)

    def test_label_count_mismatch(self):
        with pytest.raises(ShapeError):
            fusion.compute_templates([np.array([[1.0, 0.0]])], [0, 1], 2)

    def test_counts_must_be_positive(self):
        with pytest.raises(ParameterError):
            fusion.DecisionTemplates(np.zeros((1, 2, 2)), np.array([0]))

    @pytest.mark.parametrize("row, message", [
        ([5.0, -4.0], r"template entries must lie in \[0, 1\]"),
        ([0.5, 0.4], "every template row must sum to 1"),
    ], ids=["out-of-range", "row-sum"])
    def test_rows_are_membership_rows(self, row, message):
        # a template row is a mean of profile rows, so check_profile's rule holds for it
        mats = np.stack([TEMPLATE_0, TEMPLATE_1])
        mats[1, 2] = row
        with pytest.raises(ParameterError, match=message):
            fusion.DecisionTemplates(mats, np.array([1, 1]))


class TestProximity:
    def test_normalized_and_ordered(self):
        lam = fusion.proximity(np.stack([TEMPLATE_0[0], TEMPLATE_1[0]]), WORKED_PROFILE[0])
        assert lam.sum() == pytest.approx(1.0)
        assert lam[0] == pytest.approx(0.610, abs=5e-4)  # exact row match wins

    def test_exact_match_dominates(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        lam = fusion.proximity(rows, np.array([1.0, 0.0]))
        assert lam[0] > lam[1]

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            fusion.proximity(np.eye(2), np.zeros(3))


class TestBelief:
    def test_certain_evidence(self):
        out = fusion.belief(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(out, [1.0, 0.0, 0.0])

    def test_zero_evidence_gives_zero(self):
        assert fusion.belief(np.array([0.0, 0.5]))[0] == 0.0

    def test_uniform_stays_uniform(self):
        out = fusion.belief(np.full(4, 0.25))
        assert np.allclose(out, out[0])

    def test_total_conflict_degenerate(self):
        with pytest.raises(DegenerateBeliefError):
            fusion.belief(np.array([1.0, 1.0]))

    def test_columns_match_one_dimensional_calls(self, rng):
        for k, l in ((2, 1), (3, 4), (4, 3), (9, 2)):
            lam = rng.random((k, l))
            lam /= lam.sum(axis=0)
            out = fusion.belief(lam)
            assert out.shape == (k, l)
            for i in range(l):
                assert np.abs(out[:, i] - fusion.belief(lam[:, i])).max() <= 1e-15


class TestFuse:
    def test_worked_example_values(self):
        result = fusion.fuse(WORKED_PROFILE, worked_templates())
        assert result.predicted == 0
        assert not result.total_conflict
        exact = fuse_exact(WORKED_PROFILE, worked_templates().matrices)
        assert np.abs(result.raw - exact).max() <= 1e-12
        assert np.abs(result.support - exact / exact.sum()).max() <= 1e-12
        assert result.support[0] == pytest.approx(0.693, abs=1e-3)
        assert result.support.sum() == pytest.approx(1.0)

    def test_matches_hand_recomputation(self, rng):
        for _ in range(20):
            l, k = int(rng.integers(1, 5)), int(rng.integers(2, 5))
            profile = rng.random((l, k))
            profile /= profile.sum(axis=1, keepdims=True)
            mats = rng.random((k, l, k))
            mats /= mats.sum(axis=2, keepdims=True)
            templates = fusion.DecisionTemplates(mats, np.ones(k, dtype=int))
            result = fusion.fuse(profile, templates)
            oracle = fuse_by_hand(profile, mats)
            assert np.allclose(result.raw, oracle, atol=1e-12)

    def test_class_permutation_symmetry(self, rng):
        profile = rng.random((3, 4))
        profile /= profile.sum(axis=1, keepdims=True)
        mats = rng.random((4, 3, 4))
        mats /= mats.sum(axis=2, keepdims=True)
        templates = fusion.DecisionTemplates(mats, np.ones(4, dtype=int))
        base = fusion.fuse(profile, templates)
        perm = np.array([2, 0, 3, 1])
        # permute class columns and template order together
        mats_p = mats[perm][:, :, perm]
        templates_p = fusion.DecisionTemplates(mats_p, np.ones(4, dtype=int))
        result = fusion.fuse(profile[:, perm], templates_p)
        assert np.allclose(result.raw, base.raw[perm], atol=1e-12)

    def test_classifier_count_mismatch(self):
        with pytest.raises(ParameterError):
            fusion.fuse(WORKED_PROFILE[:2], worked_templates())

    def test_all_zero_supports_fall_back_to_uniform(self, monkeypatch):
        # proximity weights are strictly positive, so an all-zero product
        # can only arise from degenerate belief values; stub them in
        monkeypatch.setattr(fusion, "belief", lambda lam: np.zeros_like(lam))
        result = fusion.fuse(WORKED_PROFILE, worked_templates())
        assert result.total_conflict
        assert np.allclose(result.support, [0.5, 0.5])
        assert np.allclose(result.raw, 0.0)
        assert result.predicted == 0


def two_stage(profiles, stage1_templates, stage2_templates, classifiers):
    """The pipeline's two fusion stages, one extractor per profile."""
    exts = pipeline.EXTRACTORS[:len(profiles)]
    config = pipeline.PipelineConfig(extractors=exts, classifiers=classifiers)
    families = {ext: pipeline.Family(np.zeros(1), np.ones(1), {}, t)
                for ext, t in zip(exts, stage1_templates)}
    models = pipeline.PipelineModels(("a", "b"), config, 0, families, stage2_templates)
    final, stage1, _ = pipeline._decide(models, profiles, pipeline._stage1(families, profiles))
    return final, stage1


class TestTwoStage:
    def test_single_row_profiles(self):
        # l = 1 degenerates to template matching on each stage
        t0 = np.array([[[0.9, 0.1]], [[0.2, 0.8]]])
        stage1 = fusion.DecisionTemplates(t0, np.array([1, 1]))
        stage2 = fusion.DecisionTemplates(t0.copy(), np.array([1, 1]))
        final, per_ext = two_stage([np.array([[0.88, 0.12]])], [stage1], stage2, ("svm",))
        assert len(per_ext) == 1
        assert per_ext[0].predicted == 0
        assert final.predicted == 0
        # the second stage is fuse on the stacked stage-1 supports
        direct = fusion.fuse(per_ext[0].support[None, :], stage2)
        assert np.array_equal(final.support, direct.support)

    def test_identical_one_hot_rows_all_stages(self):
        # every classifier of every extractor is certain of class 1
        row = np.array([[0.0, 1.0]] * 3)
        mats = np.stack([np.full((3, 2), 0.5), row.astype(float)])
        mats[0] = np.array([[1.0, 0.0]] * 3)
        stage1 = fusion.DecisionTemplates(mats, np.array([1, 1]))
        stage2_mats = np.stack([np.array([[1.0, 0.0]] * 3), np.array([[0.0, 1.0]] * 3)])
        stage2 = fusion.DecisionTemplates(stage2_mats, np.array([1, 1]))
        final, per_ext = two_stage([row, row, row], [stage1, stage1, stage1], stage2,
                                   pipeline.CLASSIFIERS)
        assert all(s.predicted == 1 for s in per_ext)
        assert final.predicted == 1
        assert final.support[1] > 0.9
