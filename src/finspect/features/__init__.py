"""Shape descriptors invariant (or deliberately not) under translation, rotation, scaling."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError


@dataclass(frozen=True)
class FeatureVector:
    """Ordered feature values from one extractor plus an index legend."""

    extractor: str
    descriptor: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or len(self.descriptor) != vals.size:
            raise ShapeError("descriptor labels and values must align")
        if not np.isfinite(vals).all():
            raise ShapeError("feature values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "descriptor", tuple(self.descriptor))

    def to_json(self) -> str:
        # float(.17g) round-trips doubles exactly, so no precision is lost
        payload = {
            "extractor": self.extractor,
            "descriptor": list(self.descriptor),
            "values": [float(f"{v:.17g}") for v in self.values],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


from .moments import (  # noqa: E402
    DEFAULT_CMI_BASIS,
    MomentProductSpec,
    centroid,
    cmi_features,
    complex_moment,
    geometric_moment,
)
from .gfd import gfd_features  # noqa: E402
from .elm import elm_features, legendre_poly  # noqa: E402

__all__ = [
    "FeatureVector",
    "MomentProductSpec",
    "DEFAULT_CMI_BASIS",
    "geometric_moment",
    "complex_moment",
    "centroid",
    "cmi_features",
    "gfd_features",
    "legendre_poly",
    "elm_features",
]
