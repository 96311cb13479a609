"""Labeled feature sets and dataset manifests."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError, ShapeError, readonly

CLASS_CATALOG: tuple[str, ...] = ("mature_shark", "shark_school", "baby_shark", "other")


@dataclass(frozen=True)
class LabeledSet:
    """Finite feature rows with one-hot targets."""

    inputs: np.ndarray   # (n, p)
    targets: np.ndarray  # (n, k) one-hot

    def __post_init__(self):
        x = readonly(self.inputs, np.float64)
        y = readonly(self.targets, np.float64)
        if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[0] < 1:
            raise ShapeError("inputs (n, p) and targets (n, k) must share n >= 1")
        ones = np.isclose(y, 1.0)
        zeros = np.isclose(y, 0.0)
        if not ((ones | zeros).all() and (ones.sum(axis=1) == 1).all()):
            raise ShapeError("targets must be one-hot rows")
        if not np.isfinite(x).all():
            raise DataError("inputs must be finite")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_classes(self) -> int:
        return self.targets.shape[1]

    @property
    def labels(self) -> np.ndarray:
        return np.argmax(self.targets, axis=1)


def one_hot(labels, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ParameterError("label index out of range")
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def load_manifest(path: str | Path) -> list[dict]:
    """JSON array of {path, label}. Labels must be in CLASS_CATALOG, paths unique strings."""
    try:
        entries = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ParameterError(f"{path}: manifest is not valid JSON ({exc})") from exc
    if not isinstance(entries, list) or not entries:
        raise ParameterError(f"{path}: manifest must be a nonempty JSON array")
    seen = set()
    for entry in entries:
        if not isinstance(entry, dict) or "path" not in entry or "label" not in entry:
            raise ParameterError(f"{path}: each manifest entry needs 'path' and 'label'")
        if not isinstance(entry["path"], str):
            raise ParameterError(f"{path}: manifest path {entry['path']!r} is not a string")
        if entry["label"] not in CLASS_CATALOG:
            raise ParameterError(
                f"{path}: label {entry['label']!r} not in catalog {CLASS_CATALOG}")
        if entry["path"] in seen:
            raise ParameterError(f"{path}: duplicate manifest path {entry['path']!r}")
        seen.add(entry["path"])
    return entries


def save_manifest(entries: list[dict], path: str | Path) -> None:
    Path(path).write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
