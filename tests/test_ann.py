import numpy as np
import pytest

from finspect import (DataError, LabeledSet, ParameterError, ShapeError, TrainingDivergedError,
                      one_hot)
from finspect import ann


def fd_gradients(model, x, y, eps=1e-6):
    """Central finite differences of the batch loss in every parameter."""
    def loss(m):
        return ann.cross_entropy(ann.feedforward(m, x)[-1], y)

    grads_w, grads_b = [], []
    for li in range(len(model.weights)):
        gw = np.zeros_like(model.weights[li])
        for idx in np.ndindex(*gw.shape):
            for sign in (1, -1):
                ws = [w.copy() for w in model.weights]
                ws[li][idx] += sign * eps
                m = ann.MlpModel(model.layers, tuple(ws), model.biases)
                gw[idx] += sign * loss(m)
        grads_w.append(gw / (2 * eps))
        gb = np.zeros_like(model.biases[li])
        for idx in np.ndindex(*gb.shape):
            for sign in (1, -1):
                bs = [b.copy() for b in model.biases]
                bs[li][idx] += sign * eps
                m = ann.MlpModel(model.layers, model.weights, tuple(bs))
                gb[idx] += sign * loss(m)
        grads_b.append(gb / (2 * eps))
    return grads_w, grads_b


def single_neuron():
    return ann.MlpModel((2, 1), (np.array([[0.5, 0.4]]),), (np.array([0.7]),))


class TestWorkedTrace:
    def test_forward_values(self):
        acts = ann.feedforward(single_neuron(), np.array([1.0, 0.5]))
        assert acts[-1][0, 0] == pytest.approx(0.802, abs=5e-4)

    def test_one_step_updates(self):
        m = single_neuron()
        gw, gb = ann.backprop(m, np.array([[1.0, 0.5]]), np.array([[0.0]]))
        assert gb[0][0] == pytest.approx(0.802, abs=5e-4)  # output delta
        m2 = ann.sgd_step(m, gw, gb, 0.1)
        assert m2.weights[0][0, 0] == pytest.approx(0.4198, abs=1e-4)
        assert m2.weights[0][0, 1] == pytest.approx(0.3599, abs=1e-4)
        assert m2.biases[0][0] == pytest.approx(0.6198, abs=1e-4)


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            layers = tuple(int(v) for v in rng.integers(1, 5, rng.integers(2, 4)))
            model = ann.init_model(layers, rng, 0.8)
            n = int(rng.integers(1, 5))
            x = rng.normal(size=(n, layers[0]))
            y = (rng.random((n, layers[-1])) > 0.5).astype(float)
            gw, gb = ann.backprop(model, x, y)
            fw, fb = fd_gradients(model, x, y)
            for g, f in zip(gw + gb, fw + fb):
                assert np.abs(g - f).max() <= 1e-5 * max(np.abs(f).max(), 1.0)

    def test_batch_gradient_is_mean_of_singles(self, rng):
        model = ann.init_model((3, 4, 2), rng, 0.5)
        x = rng.normal(size=(5, 3))
        y = one_hot(rng.integers(0, 2, 5), 2)
        gw, _ = ann.backprop(model, x, y)
        singles = [ann.backprop(model, x[i:i + 1], y[i:i + 1])[0] for i in range(5)]
        mean0 = np.mean([s[0] for s in singles], axis=0)
        assert np.allclose(gw[0], mean0, atol=1e-12)


class TestTraining:
    def test_xor_learned(self):
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float)
        y = np.array([[1, 0], [0, 1], [0, 1], [1, 0]], float)
        data = LabeledSet(x, y)
        model = ann.train(data, hidden=4, learning_rate=0.5, epochs=5000, rng_seed=0)
        assert (ann.predict(model, x) == y.argmax(1)).all()

    def test_loss_trace_recorded_and_decreasing_overall(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = ann.train(LabeledSet(x, y), hidden=3, epochs=300, rng_seed=1)
        assert len(model.loss_trace) == 300
        assert model.loss_trace[-1] < model.loss_trace[0]

    def test_equals_a_loop_of_the_public_steps(self, rng):
        for _ in range(2):
            n, p, k = int(rng.integers(5, 12)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
            data = LabeledSet(rng.normal(size=(n, p)), one_hot(rng.integers(0, k, n), k))
            hidden, learning_rate, epochs, seed = 5, 0.7, 50, int(rng.integers(1000))
            model = ann.train(data, hidden=hidden, learning_rate=learning_rate, epochs=epochs,
                              rng_seed=seed)
            ref = ann.init_model((p, hidden, k), np.random.default_rng(seed), ann._INIT_SCALE)
            trace = []
            for _ in range(epochs):
                ref = ann.sgd_step(ref, *ann.backprop(ref, data.inputs, data.targets),
                                   learning_rate)
                trace.append(ann.cross_entropy(ann.feedforward(ref, data.inputs)[-1],
                                               data.targets))
            assert all(np.array_equal(a, b) for a, b in zip(model.weights, ref.weights))
            assert all(np.array_equal(a, b) for a, b in zip(model.biases, ref.biases))
            assert model.loss_trace == tuple(trace)

    def test_zero_epochs_rejected(self):
        x = np.eye(2)
        data = LabeledSet(x, x)
        with pytest.raises(ParameterError):
            ann.train(data, epochs=0)

    @pytest.mark.parametrize("bad", [{"hidden": 0}, {"learning_rate": 0.0}])
    def test_bad_hidden_or_rate_rejected(self, bad):
        x = np.eye(2)
        with pytest.raises(ParameterError):
            ann.train(LabeledSet(x, x), **bad)

    def test_non_finite_feature_rejected(self):
        with pytest.raises(DataError, match="inputs must be finite"):
            LabeledSet(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2))

    @pytest.mark.parametrize("epoch", [0, 3])
    def test_non_finite_step_reports_epoch(self, monkeypatch, epoch):
        # the step of epoch `epoch` makes every weight NaN; MlpModel refuses it
        gradients, calls = ann._gradients, []

        def poisoned(model, acts, y):
            grads_w, grads_b = gradients(model, acts, y)
            calls.append(None)
            if len(calls) > epoch:
                grads_w = [np.full_like(g, np.nan) for g in grads_w]
            return grads_w, grads_b

        monkeypatch.setattr(ann, "_gradients", poisoned)
        with pytest.raises(TrainingDivergedError) as e:
            ann.train(LabeledSet(np.eye(2), np.eye(2)), hidden=4, epochs=50, rng_seed=0)
        assert e.value.epoch == epoch

    def test_non_finite_loss_reports_epoch(self, monkeypatch):
        monkeypatch.setattr(ann, "cross_entropy", lambda outputs, targets: float("nan"))
        with pytest.raises(TrainingDivergedError) as e:
            ann.train(LabeledSet(np.eye(2), np.eye(2)), hidden=4, epochs=50, rng_seed=0)
        assert e.value.epoch == 0


class TestShapes:
    @pytest.mark.parametrize("layers, weights, biases, message", [
        ((3,), (), (), "need at least input and output layers"),
        ((3, 2), (), (), "one weight matrix and bias vector per non-input layer"),
        ((3, 2), (np.zeros((3, 2)),), (np.zeros(2),), "layer 1 parameter shapes"),
        ((3, 2), (np.zeros((2, 3)),), (np.zeros(3),), "layer 1 parameter shapes"),
    ], ids=["one-layer", "missing-layer", "weights-transposed", "bias-size"])
    def test_model_checks_its_shapes(self, layers, weights, biases, message):
        with pytest.raises(ShapeError, match=message):
            ann.MlpModel(layers, weights, biases)

    def test_cross_entropy_needs_matching_shapes(self):
        with pytest.raises(ShapeError, match="outputs and targets must have the same shape"):
            ann.cross_entropy(np.full((2, 3), 0.5), np.zeros((2, 2)))

    def test_backprop_needs_targets_matching_the_output_layer(self, rng):
        model = ann.init_model((3, 5, 4), rng, 0.5)
        with pytest.raises(ShapeError, match="targets must be \\(n, k\\) matching the output"):
            ann.backprop(model, rng.normal(size=(6, 3)), np.zeros((6, 3)))


class TestInference:
    def test_predict_proba_normalized(self, rng):
        model = ann.init_model((3, 5, 4), rng, 0.5)
        p = ann.predict_proba(model, rng.normal(size=(6, 3)))
        assert np.allclose(p.sum(axis=1), 1.0)
        assert (p >= 0).all()

    def test_sigmoid_stable_at_extremes(self):
        assert ann.sigmoid(1000.0) == 1.0
        assert ann.sigmoid(-1000.0) == 0.0

    def test_sigmoid_bit_identical_to_two_mask_form(self):
        def two_mask(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        rng = np.random.default_rng(11)
        inputs = [rng.normal(scale=scale, size=(80, 16))
                  for scale in (1.0, 10.0, 100.0, 1000.0) for _ in range(200)]
        inputs.append(np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0,
                                np.inf, -np.inf, np.nan]))
        for z in inputs:
            expected, got = two_mask(z), ann.sigmoid(z)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            # NaN stays NaN; only its sign bit, which carries no value, may differ
            nan = np.isnan(expected)
            assert np.array_equal(nan, np.isnan(got))
            assert expected[~nan].tobytes() == got[~nan].tobytes()

    def test_cross_entropy_clamps(self):
        # exact 0/1 outputs must not produce infinities
        val = ann.cross_entropy([[0.0, 1.0]], [[1.0, 0.0]])
        assert np.isfinite(val)

    def test_shape_mismatch_rejected(self, rng):
        model = ann.init_model((3, 2), rng, 0.5)
        with pytest.raises(ShapeError):
            ann.feedforward(model, np.zeros((2, 4)))
