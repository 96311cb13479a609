"""Every integer parameter of a library call takes an int, numpy's too, and
rejects a bool, a float and NaN with a ParameterError, not numpy's error."""

import math

import numpy as np
import pytest

from finspect import GrayImage, LabeledSet, ParameterError, ann, gknn, median_filter, one_hot
from finspect.features import elm_features, gfd_features
from finspect.svm import train_svm

PIXELS = np.pad(np.ones((8, 8)), 4)
DATA = LabeledSet(np.random.default_rng(0).normal(size=(6, 2)), one_hot([0, 1] * 3, 2))

CALLS = {
    "median_filter side": lambda v: median_filter(GrayImage.from_pixels(PIXELS), v),
    "elm_features max_order": lambda v: elm_features(PIXELS, max_order=v),
    "gfd_features radial_count": lambda v: gfd_features(PIXELS, radial_count=v),
    "gfd_features angular_count": lambda v: gfd_features(PIXELS, angular_count=v),
    "train_svm max_iter": lambda v: train_svm(DATA, max_iter=v),
    "ann.train epochs": lambda v: ann.train(DATA, epochs=v),
    "ann.train hidden": lambda v: ann.train(DATA, hidden=v, epochs=1),
    "gknn_classify k": lambda v: gknn.gknn_classify(DATA.inputs[0], DATA, v),
    "evolve k": lambda v: gknn.evolve(np.linspace(0.1, 0.9, 6), v, np.random.default_rng(0)),
}


@pytest.mark.parametrize("value", [True, 3.0, math.nan], ids=["bool", "float", "nan"])
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_integer_parameter_rejects_a_bool_a_float_and_nan(call, value):
    with pytest.raises(ParameterError, match=repr(value)):
        call(value)


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_integer_parameter_takes_a_numpy_integer(call):
    call(np.int64(3))
