"""Acceptance gate: twelve numbered end-to-end criteria.

Each test prints one "criterion N: PASS/FAIL" line (visible in captured
output) and asserts. Criterion 4 checks the fusion worked example against
raw supports derived exactly (sympy) from the documented proximity and
belief formulas. The source's stated [0.011, 0.006] +- 1e-3 is printed
next to them: no reading of those formulas reproduces it, so the gap with
the source stays visible without being asserted.
"""

import time

import numpy as np
import pytest

from finspect import (
    GrayImage,
    LabeledSet,
    histogram256,
    one_hot,
    otsu_threshold,
    random_walker_segment,
)
from finspect import ann, fusion, gknn, svm
from finspect.features import cmi_features, elm_features, gfd_features
from finspect.pipeline import PipelineConfig, run_pipeline
from finspect.raster import encode_pgm
from finspect.synth import SyntheticShapeSpec, generate_synthetic

from conftest import canvas_gamma, dense_gamma, random_gray
from test_ann import fd_gradients
from test_fusion import fuse_exact
from test_preprocess import otsu_oracle


def _line(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {n}: {status}{suffix}")
    return ok


def rel_diff(a, b):
    return np.abs(a - b) / np.abs(b)


# frozen invariance suite: sizes >= 80 keep the x2-upscale moment error
# under 1e-3; canvas 224 leaves room for the (17, -9) translation
SUITE = (("fin_polygon", 80), ("fin_polygon", 88), ("fin_polygon", 84),
         ("triangle", 84), ("triangle", 88))
CANVAS = 224
TRANSLATE = (17, -9)


def suite_images(kind, size):
    base, _ = generate_synthetic(SyntheticShapeSpec(kind, size, canvas=CANVAS))
    variants = {
        "translate": generate_synthetic(
            SyntheticShapeSpec(kind, size, canvas=CANVAS, translate=TRANSLATE))[0],
        "rot90": generate_synthetic(
            SyntheticShapeSpec(kind, size, canvas=CANVAS, rotate_quarters=1))[0],
        "rot180": generate_synthetic(
            SyntheticShapeSpec(kind, size, canvas=CANVAS, rotate_quarters=2))[0],
        "scale2": generate_synthetic(
            SyntheticShapeSpec(kind, size, canvas=CANVAS, scale=2))[0],
    }
    return base, variants


def test_criterion_01_ann_worked_trace():
    model = ann.MlpModel((2, 1), (np.array([[0.5, 0.4]]),), (np.array([0.7]),))
    x = np.array([[1.0, 0.5]])
    y = np.array([[0.0]])
    out = ann.feedforward(model, x)[-1][0, 0]
    gw, gb = ann.backprop(model, x, y)
    stepped = ann.sgd_step(model, gw, gb, 0.1)
    entropy = ann.cross_entropy([[0.802]], [[0.0]])

    start = time.perf_counter()  # post-warmup timing of one full trace
    for _ in range(100):
        acts = ann.feedforward(model, x)
        g = ann.backprop(model, x, y)
        ann.sgd_step(model, *g, 0.1)
        ann.cross_entropy(acts[-1], y)
    per_trace = (time.perf_counter() - start) / 100

    checks = [
        abs(out - 0.802) <= 5e-4,
        abs(gb[0][0] - 0.802) <= 5e-4,
        abs(stepped.weights[0][0, 0] - 0.4198) <= 1e-4,
        abs(stepped.weights[0][0, 1] - 0.3599) <= 1e-4,
        abs(stepped.biases[0][0] - 0.6198) <= 1e-4,
        abs(entropy - 1.619488) <= 1e-5,
        per_trace < 1e-3,
    ]
    assert _line(1, all(checks), f"o={out:.6f}, E_c={entropy:.6f}, "
                                 f"{per_trace * 1e3:.3f} ms/trace")


def test_criterion_02_gknn_worked_trace():
    assert gknn.crossover(0b001, 0b010, 2, 3) == (0b010, 0b001)
    assert gknn.mutate(0b001, 2, 7) == 0b101
    assert gknn.mutate(0b010, 2, 7) == 0b110

    x = np.array([[1.0, 1.0], [0.0, 1.0], [2.0, 3.0],
                  [2.0, 2.0], [1.0, 1.0], [4.0, 2.0]])
    training = LabeledSet(x, one_hot([0, 0, 1, 1, 0, 1], 2))
    query = np.array([1.0, 0.0])
    ctx = gknn.build_context(x)
    d = [gknn.mahalanobis(query, x[i], ctx) for i in (0, 1, 5)]
    dist_ok = (abs(d[0] - 1.53) <= 0.02 and abs(d[1] - 2.198) <= 0.02
               and abs(d[2] - 2.614) <= 0.02)

    diff = x - query
    dists = np.sqrt(np.einsum("ij,jk,ik->i", diff, ctx.inverse, diff))
    final = gknn.evolve(1.0 / (1.0 + dists), 2, np.random.default_rng(60))
    shares = gknn.gknn_classify(query, training, 2, rng_seed=60)
    end_ok = set(final) == {0, 4} and np.allclose(shares, [1.0, 0.0])

    assert _line(2, dist_ok and end_ok,
                 f"d=({d[0]:.4f}, {d[1]:.4f}, {d[2]:.4f}), final={sorted(final)}")


def test_criterion_03_svm_worked_and_separable():
    w, b = svm.two_point_line([1.0, 1.0], [2.0, 2.0])
    decision = float(w @ np.array([1.0, 0.0]) + b)
    line_ok = np.allclose(w, [1.0, 1.0]) and b == -3.0 and decision == -2.0

    rng = np.random.default_rng(0)
    centers = np.array([[8.0, 0.0], [-4.0, 7.0], [-4.0, -7.0]])
    pts = np.vstack([rng.normal(c, 0.6, (10, 2)) for c in centers])
    data = LabeledSet(pts, one_hot(np.repeat([0, 1, 2], 10), 3))
    model = svm.train_svm(data)  # default budget is 1000 sweeps
    error = svm.empirical_error(model, data)

    assert _line(3, line_ok and model.converged and error == 0.0,
                 f"F((1,0))={decision}, error={error}, converged={model.converged}")


def test_criterion_04_fusion_worked_example():
    profile = np.array([[0.70, 0.30], [0.75, 0.25], [0.47, 0.53], [0.50, 0.50]])
    t0 = np.array([[0.70, 0.30], [0.90, 0.10], [0.89, 0.11], [0.80, 0.20]])
    t1 = np.array([[0.30, 0.70], [0.40, 0.60], [0.30, 0.70], [0.20, 0.80]])
    templates = fusion.DecisionTemplates(np.stack([t0, t1]), np.array([1, 1]))
    result = fusion.fuse(profile, templates)
    exact = fuse_exact(profile, templates.matrices)

    argmax_ok = result.predicted == 0 and int(np.argmax(exact)) == 0
    gap = np.abs(result.raw - exact).max()
    assert _line(4, argmax_ok and gap <= 1e-12,
                 f"raw=[{result.raw[0]:.6f}, {result.raw[1]:.6f}], exact "
                 f"[{exact[0]:.6f}, {exact[1]:.6f}], gap {gap:.1e}; "
                 "source states [0.011, 0.006]+-0.001")


def test_criterion_05_cmi_invariance():
    start = time.perf_counter()
    worst = 0.0
    for kind, size in SUITE:
        base, variants = suite_images(kind, size)
        ref = cmi_features(base.pixels).values
        for img in variants.values():
            worst = max(worst, rel_diff(cmi_features(img.pixels).values, ref).max())
    elapsed = time.perf_counter() - start

    ellipse, _ = generate_synthetic(SyntheticShapeSpec("ellipse", 80, canvas=CANVAS))
    triangle, _ = generate_synthetic(SyntheticShapeSpec("triangle", 80, canvas=CANVAS))
    separation = rel_diff(cmi_features(ellipse.pixels).values,
                          cmi_features(triangle.pixels).values).max()

    ok = worst <= 1e-3 and separation > 1e-2 and elapsed < 10.0
    assert _line(5, ok, f"worst rel dev {worst:.2e}, "
                        f"ellipse-vs-triangle {separation:.3f}, {elapsed:.2f} s")


def test_criterion_06_gfd_invariance():
    worst_rot = 0.0
    worst_shift = 0.0
    feature0_ok = True
    for kind, size in SUITE:
        base, variants = suite_images(kind, size)
        ref = gfd_features(base.pixels).values
        feature0_ok &= ref[0] == 1.0
        for name in ("rot90", "rot180"):
            got = gfd_features(variants[name].pixels).values
            feature0_ok &= got[0] == 1.0
            worst_rot = max(worst_rot, rel_diff(got, ref).max())
        got = gfd_features(variants["translate"].pixels).values
        worst_shift = max(worst_shift, rel_diff(got, ref).max())

    ok = feature0_ok and worst_rot <= 1e-6 and worst_shift <= 1e-2
    assert _line(6, ok, f"rotation {worst_rot:.2e}, translation {worst_shift:.2e}")


def test_criterion_07_elm_scale_but_not_translation():
    spec = SyntheticShapeSpec("fin_polygon", 40, canvas=192)
    base, _ = generate_synthetic(spec)
    ref = elm_features(base.pixels).values

    scaled, _ = generate_synthetic(SyntheticShapeSpec("fin_polygon", 40, canvas=192, scale=2))
    scale_dev = rel_diff(elm_features(scaled.pixels).values, ref).max()

    # 25% of the canvas width
    moved, _ = generate_synthetic(
        SyntheticShapeSpec("fin_polygon", 40, canvas=192, translate=(48, 0)))
    shift_dev = rel_diff(elm_features(moved.pixels).values, ref).max()

    ok = scale_dev <= 1e-2 and shift_dev > 1e-1
    assert _line(7, ok, f"x2 scale dev {scale_dev:.2e}, translation dev {shift_dev:.2f}")


def test_criterion_08_otsu_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    matches = 0
    for _ in range(100):
        img = random_gray(rng, lo=3, hi=16)
        res = otsu_threshold(img)
        theta_ref, _ = otsu_oracle(img)
        matches += abs(res.theta - theta_ref) <= 1e-12
        hist = histogram256(img)
        g = np.arange(256) / 255.0
        mu = (hist * g).sum() / hist.sum()
        total_var = (hist * (g - mu) ** 2).sum() / hist.sum()
        worst_gap = max(worst_gap, abs(res.sigma_in + res.sigma_out - total_var))

    ok = matches == 100 and worst_gap <= 1e-9
    assert _line(8, ok, f"{matches}/100 thresholds match, decomposition gap {worst_gap:.1e}")


def test_criterion_09_random_walker():
    img2 = GrayImage.from_pixels(np.array([[0.1, 0.9], [0.2, 0.8]]))
    seeds2 = [np.array([0]), np.array([3])]
    dev2 = np.abs(canvas_gamma(random_walker_segment(img2, seeds2))
                  - dense_gamma(img2, seeds2)).max()

    img3 = GrayImage.from_pixels(np.array([[0.1, 0.9, 0.8], [0.2, 0.5, 0.9], [0.1, 0.2, 0.85]]))
    seeds3 = [np.array([0]), np.array([8])]
    seg3 = random_walker_segment(img3, seeds3)
    dev3 = np.abs(canvas_gamma(seg3) - dense_gamma(img3, seeds3)).max()

    rng = np.random.default_rng(5)
    img = random_gray(rng, lo=6, hi=9)
    seeds = [np.array([0, 1]), np.array([img.pixels.size - 1])]
    gamma = canvas_gamma(random_walker_segment(img, seeds))
    sums_gap = np.abs(gamma.sum(axis=2) - 1.0).max()
    flat = gamma.reshape(-1, 2)
    seeded_exact = (flat[0, 0] == 1.0 and flat[1, 0] == 1.0 and flat[-1, 1] == 1.0
                    and flat[0, 1] == 0.0 and flat[-1, 0] == 0.0)

    ok = dev2 <= 1e-8 and dev3 <= 1e-8 and sums_gap <= 1e-6 and seeded_exact
    assert _line(9, ok, f"oracle dev {max(dev2, dev3):.1e}, sum gap {sums_gap:.1e}")


def test_criterion_10_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        layers = tuple(int(v) for v in rng.integers(1, 5, rng.integers(2, 4)))
        model = ann.init_model(layers, rng, 0.8)
        n = int(rng.integers(1, 5))
        x = rng.normal(size=(n, layers[0]))
        y = (rng.random((n, layers[-1])) > 0.5).astype(float)
        gw, gb = ann.backprop(model, x, y)
        fw, fb = fd_gradients(model, x, y)
        for g, f in zip(gw + gb, fw + fb):
            worst = max(worst, np.abs(g - f).max() / max(np.abs(f).max(), 1.0))
    assert _line(10, worst <= 1e-5, f"worst rel gap {worst:.2e} over 20 networks")


def test_criterion_11_svm_dual_feasible_and_monotone():
    from finspect.svm import svm_sweep_core
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(10):
        n, k = int(rng.integers(5, 20)), int(rng.integers(2, 5))
        pts = rng.normal(size=(n, 3))
        gram = pts @ pts.T
        targets = one_hot(rng.integers(0, k, n), k)
        eta = np.zeros((n, k))
        weights = np.zeros((3, k))
        prev = svm.dual_objective(gram, eta, targets, 1.0)
        for _ in range(40):
            svm_sweep_core(pts, weights, eta, targets, 1.0)
            cur = svm.dual_objective(gram, eta, targets, 1.0)
            ok &= cur >= prev - 1e-9
            prev = cur
            ok &= bool(np.abs(eta.sum(axis=1)).max() <= 1e-9)
            ok &= bool((eta <= targets + 1e-9).all())
            ok &= bool(np.abs(weights - pts.T @ eta).max() <= 1e-9)
    assert _line(11, ok, "10 problems x 40 sweeps")


def p16_margin(seed, accs=(0.86, 0.78, 0.72), n_classes=3, n=240):
    """Fused-vs-best-single accuracy margin on simulated classifier outputs."""
    rng = np.random.default_rng(seed)

    def profiles(labels):
        out = []
        for y in labels:
            rows = []
            for a in accs:
                if rng.random() < a:
                    pred = int(y)
                else:
                    others = [c for c in range(n_classes) if c != y]
                    pred = others[int(rng.integers(0, n_classes - 1))]
                row = np.full(n_classes, 0.1) + rng.random(n_classes) * 0.15
                row[pred] += 1.0
                rows.append(row / row.sum())
            out.append(np.stack(rows))
        return out

    y_train = rng.integers(0, n_classes, n)
    train_profiles = profiles(y_train)
    y_test = rng.integers(0, n_classes, n)
    test_profiles = profiles(y_test)

    templates = fusion.compute_templates(train_profiles, y_train, n_classes)
    fused = np.array([fusion.fuse(p, templates).predicted for p in test_profiles])
    fused_acc = float(np.mean(fused == y_test))
    singles = [float(np.mean([int(np.argmax(p[i])) == y
                              for p, y in zip(test_profiles, y_test)]))
               for i in range(len(accs))]
    return fused_acc - max(singles)


def test_criterion_12_end_to_end(tmp_path):
    rng = np.random.default_rng(11)
    entries = []
    for kind, base in (("disk", 14), ("triangle", 20)):
        for i in range(20):
            size = int(base * rng.uniform(0.7, 1.0))
            img, label = generate_synthetic(
                SyntheticShapeSpec(kind, size, canvas=96, noise=0.01),
                rng_seed=int(rng.integers(1 << 32)))
            name = f"{kind}_{i}.pgm"
            (tmp_path / name).write_bytes(encode_pgm(img))
            entries.append({"path": name, "label": label})

    accs = []
    for seed in (0, 1, 2):
        _, report = run_pipeline(entries, PipelineConfig(), seed=seed, base_dir=tmp_path)
        accs.append(report["final_accuracy"])
    accuracy_ok = all(a >= 0.9 for a in accs)

    margins = [p16_margin(seed) for seed in range(20)]
    margin_ok = all(m >= -0.05 for m in margins)

    assert _line(12, accuracy_ok and margin_ok,
                 f"fused acc {min(accs):.3f}..{max(accs):.3f}, "
                 f"worst fusion margin {min(margins):+.4f} over 20 seeds")
