"""Every value type keeps its own read-only copy of each array it is given,
and only ``errors.readonly`` freezes an array in the package."""

import ast
from pathlib import Path

import numpy as np
import pytest

import finspect
from finspect import (BinaryImage, DecisionTemplates, FeatureVector, GrayImage, LabeledSet,
                      MahalanobisContext, MlpModel, RgbImage, SvmModel, one_hot)
from finspect.pipeline import Family

_GRID = np.arange(12, dtype=np.uint8).reshape(3, 4)
_FLOATS = np.linspace(0.1, 0.9, 12).reshape(4, 3)

# name -> (the arrays the caller passes, the constructor, the arrays the value stores)
CASES = {
    "GrayImage": ([_GRID], GrayImage, lambda v: [v.levels]),
    "GrayImage.from_pixels": ([_GRID / 255.0], GrayImage.from_pixels, lambda v: [v.levels]),
    "RgbImage": ([np.arange(36, dtype=np.uint8).reshape(3, 4, 3)], RgbImage,
                 lambda v: [v.pixels]),
    "BinaryImage": ([_GRID % 2], BinaryImage, lambda v: [v.bits]),
    "LabeledSet": ([_FLOATS, one_hot([0, 1, 1, 0], 2)], LabeledSet,
                   lambda v: [v.inputs, v.targets]),
    "DecisionTemplates": ([(_FLOATS / _FLOATS.sum(axis=1, keepdims=True)).reshape(2, 2, 3),
                           np.array([1, 2])], DecisionTemplates,
                          lambda v: [v.matrices, v.counts]),
    "SvmModel": ([_FLOATS], SvmModel, lambda v: [v.weights]),
    "MlpModel": ([_FLOATS.T, _FLOATS[:3, 0], _FLOATS[:2, :3], _FLOATS[:2, 1]],
                 lambda w1, b1, w2, b2: MlpModel((4, 3, 2), (w1, w2), (b1, b2)),
                 lambda v: [v.weights[0], v.biases[0], v.weights[1], v.biases[1]]),
    "FeatureVector": ([_FLOATS[:, 0]], lambda values: FeatureVector("X", "abcd", values),
                      lambda v: [v.values]),
    "MahalanobisContext": ([_FLOATS[:2, :2], _FLOATS[2:, 1:]], MahalanobisContext,
                           lambda v: [v.covariance, v.inverse]),
    "Family": ([_FLOATS[:, 0], _FLOATS[:, 1]],
               lambda mean, std: Family(mean, std, {}, DecisionTemplates(
                   np.full((2, 1, 2), 0.5), np.array([1, 1]))),
               lambda v: [v.mean, v.std]),
}


def _view(values: np.ndarray) -> np.ndarray:
    """``values`` as a strided view into a larger writable array of the same dtype."""
    return np.repeat(values[..., None], 2, axis=-1)[..., 0]


@pytest.mark.parametrize("arrays, build, stored", CASES.values(), ids=CASES)
def test_keeps_a_read_only_copy_of_each_callers_array(arrays, build, stored):
    expected = [kept.copy() for kept in stored(build(*arrays))]
    views = [_view(a) for a in arrays]
    assert all(not v.flags.c_contiguous and v.base is not None for v in views)
    kept = stored(build(*views))
    for view, array, own, want in zip(views, arrays, kept, expected, strict=True):
        assert view.flags.writeable and view.base.flags.writeable
        assert not own.flags.writeable
        assert not np.shares_memory(own, view)
        view.base[...] = 7  # the caller writes to the view's base after construction
        assert not np.array_equal(view, array)
        assert own.dtype == want.dtype and np.array_equal(own, want)


def array_freezers(source: str) -> list[str]:
    """The dotted name of the function or class around each ``setflags`` or ``writeable``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Attribute) and child.attr in ("setflags", "writeable"):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def test_array_freezers_are_found():
    source = ("import numpy as np\nA = np.ones(2)\nA.setflags(write=False)\n"
              "def f(a):\n    a.setflags(write=False)\n"
              "class C:\n    def g(self, a):\n        a.flags.writeable = False\n")
    assert array_freezers(source) == ["", "C.g", "f"]


def test_only_readonly_freezes_an_array():
    package = Path(finspect.__file__).parent
    found = [f"{path.relative_to(package)}:{scope}" for path in sorted(package.rglob("*.py"))
             for scope in array_freezers(path.read_text())]
    assert found == ["errors.py:readonly"]
