"""Feed-forward sigmoid network trained by batch gradient descent.

The output layer is sigmoid (not softmax); the loss is the mean binary
cross-entropy summed over output units, so the output delta reduces to
(o - y) exactly and the hidden deltas carry the o(1-o) factor.

Training runs one forward pass per epoch: the pass that scores an epoch's
step for the loss trace is the next epoch's backprop pass. ``train`` checks
its own arguments, as ``svm.train_svm`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledSet
from .errors import (DataError, ParameterError, ShapeError, TrainingDivergedError, is_integer,
                     readonly)

_CLAMP = 1e-12
_INIT_SCALE = 0.5  # initial weights and biases are uniform on [-_INIT_SCALE, _INIT_SCALE]


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))  # never overflows; equals exp(z) where z < 0
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class MlpModel:
    """Layer sizes (p, ..., k) with W_l of shape (n_l, n_{l-1}); weights and biases finite."""

    layers: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    loss_trace: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if len(self.layers) < 2:
            raise ShapeError("need at least input and output layers")
        if len(self.weights) != len(self.layers) - 1 or len(self.biases) != len(self.layers) - 1:
            raise ShapeError("one weight matrix and bias vector per non-input layer")
        ws, bs = [], []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = readonly(w, np.float64)
            b = readonly(b, np.float64)
            if w.shape != (self.layers[i + 1], self.layers[i]) or b.shape != (self.layers[i + 1],):
                raise ShapeError(f"layer {i + 1} parameter shapes do not match layer sizes")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise DataError(f"layer {i + 1} weights and biases must be finite")
            ws.append(w)
            bs.append(b)
        object.__setattr__(self, "weights", tuple(ws))
        object.__setattr__(self, "biases", tuple(bs))


def feedforward(model: MlpModel, inputs: np.ndarray) -> list[np.ndarray]:
    """Activations per layer, input batch first. inputs is (n, p) or (p,)."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if x.shape[1] != model.layers[0]:
        raise ShapeError(f"expected {model.layers[0]} inputs, got {x.shape[1]}")
    acts = [x]
    for w, b in zip(model.weights, model.biases):
        x = sigmoid(x @ w.T + b)
        acts.append(x)
    return acts


def cross_entropy(outputs, targets) -> float:
    o = np.clip(np.atleast_2d(np.asarray(outputs, dtype=np.float64)), _CLAMP, 1.0 - _CLAMP)
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if o.shape != y.shape:
        raise ShapeError("outputs and targets must have the same shape")
    return float(-np.sum(y * np.log(o) + (1.0 - y) * np.log(1.0 - o)) / o.shape[0])


def backprop(model: MlpModel, inputs, targets):
    """Mean-over-batch gradients of the cross-entropy loss.

    Returns (grads_w, grads_b) shaped like model.weights / model.biases.
    """
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    acts = feedforward(model, inputs)
    if acts[-1].shape != y.shape:
        raise ShapeError("targets must be (n, k) matching the output layer")
    return _gradients(model, acts, y)


def _gradients(model: MlpModel, acts: list[np.ndarray], y: np.ndarray):
    """backprop's backward pass, from the activations feedforward returned."""
    n = y.shape[0]
    delta = acts[-1] - y
    grads_w, grads_b = [], []
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w.append(delta.T @ acts[layer] / n)
        grads_b.append(delta.mean(axis=0))
        if layer > 0:
            o = acts[layer]
            delta = (delta @ model.weights[layer]) * o * (1.0 - o)
    grads_w.reverse()
    grads_b.reverse()
    return grads_w, grads_b


def sgd_step(model: MlpModel, grads_w, grads_b, learning_rate: float) -> MlpModel:
    ws = tuple(w - learning_rate * g for w, g in zip(model.weights, grads_w))
    bs = tuple(b - learning_rate * g for b, g in zip(model.biases, grads_b))
    return MlpModel(model.layers, ws, bs, model.loss_trace)


def init_model(layers: tuple[int, ...], rng: np.random.Generator, init_scale: float) -> MlpModel:
    ws, bs = [], []
    for i in range(len(layers) - 1):
        ws.append(rng.uniform(-init_scale, init_scale, size=(layers[i + 1], layers[i])))
        bs.append(rng.uniform(-init_scale, init_scale, size=layers[i + 1]))
    return MlpModel(tuple(layers), tuple(ws), tuple(bs))


def train(data: LabeledSet, hidden: int = 16, learning_rate: float = 0.5, epochs: int = 200,
          rng_seed: int = 0) -> MlpModel:
    for name, value in (("epochs", epochs), ("hidden", hidden)):
        if not (is_integer(value) and value >= 1):
            raise ParameterError(f"{name} must be an integer >= 1, got {value!r}")
    if not 0 < learning_rate < math.inf:  # NaN fails every comparison
        raise ParameterError(f"learning_rate must be finite and positive, got {learning_rate!r}")
    rng = np.random.default_rng(rng_seed)
    layers = (data.inputs.shape[1], hidden, data.n_classes)
    model = init_model(layers, rng, _INIT_SCALE)
    trace = []
    acts = feedforward(model, data.inputs)
    for epoch in range(epochs):
        grads_w, grads_b = _gradients(model, acts, data.targets)
        try:
            model = sgd_step(model, grads_w, grads_b, learning_rate)
        except DataError:  # the step made a weight or bias non-finite
            raise TrainingDivergedError(epoch) from None
        acts = feedforward(model, data.inputs)
        loss = cross_entropy(acts[-1], data.targets)
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch)
        trace.append(loss)
    return MlpModel(model.layers, model.weights, model.biases, tuple(trace))


def predict_proba(model: MlpModel, inputs) -> np.ndarray:
    out = feedforward(model, inputs)[-1]
    total = out.sum(axis=1, keepdims=True)
    uniform = np.full_like(out, 1.0 / out.shape[1])
    with np.errstate(invalid="ignore", divide="ignore"):
        proba = np.where(total > 0, out / np.where(total > 0, total, 1.0), uniform)
    return proba


def predict(model: MlpModel, inputs) -> np.ndarray:
    return np.argmax(predict_proba(model, inputs), axis=1)

