"""Exception hierarchy for the finspect toolkit.

Every error raised on purpose by this package derives from FinspectError,
so callers (and the CLI) can distinguish usage problems from data problems
with two except clauses.

A parameter is checked where it is defined: a frozen dataclass in
``__post_init__`` (so ``dataclasses.replace`` too), a function on entry.
A value type keeps each array it is given as its own read-only copy
(``readonly``), so the caller's array stays writable and a later write to
it, or to the base of a view, cannot change the value.
"""

from __future__ import annotations

import numbers

import numpy as np


def is_integer(value) -> bool:
    """The type check of an integer parameter: a bool, a float or NaN fails it."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def readonly(values, dtype=None) -> np.ndarray:
    """A read-only copy of ``values`` (cast to ``dtype`` if given) that no caller shares."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class FinspectError(Exception):
    """Base class for all finspect errors."""


class ParameterError(FinspectError):
    """A caller-supplied parameter or configuration value violates a precondition."""


class DataError(FinspectError):
    """Input data is structurally valid but unusable (degenerate, empty, non-finite)."""


class PnmDecodeError(DataError):
    """Malformed or unsupported PGM/PPM content.

    Carries the byte offset at which decoding failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class ShapeError(FinspectError):
    """Array dimensions do not match what the operation requires."""


class DegenerateHistogramError(DataError):
    """Single-valued image: no threshold separates background from foreground."""


class EmptyForegroundError(DataError):
    """Binary image contains no foreground pixels to seed."""


class EmptyBackgroundError(DataError):
    """No background pixel of the binary image touches its border, so none is seeded."""


class ImageTooSmallError(DataError):
    """Image is smaller than the median filter's window."""


class SolverError(DataError):
    """A linear system that should be solvable turned out singular."""


class ZeroMassError(DataError):
    """Image has zero total intensity where positive mass is required."""


class BasisError(ParameterError):
    """A moment-product specification violates the rotation-invariance condition."""


class TrainingDivergedError(FinspectError):
    """Training loss became non-finite. Carries the epoch at which it happened."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}: loss is not finite")
        self.epoch = epoch


class DegeneratePopulationError(ParameterError):
    """Training set too small for the genetic operators (n = 1 admits no valid mutation)."""


class DegenerateBeliefError(DataError):
    """Belief denominator vanished: total conflict between proximity evidence."""
