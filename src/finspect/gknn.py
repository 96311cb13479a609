"""k-NN classification with a genetic search over chromosome-encoded indices.

Training indices are r-bit chromosomes, r = ceil(log2(max(n, 2))). Each
generation crosses adjacent pairs of the fitness-sorted population, mutates
every member of P union offspring by one bit flip, and keeps the k fittest
of mutants + incumbents. Fitness is 1/(1+d) with d the Mahalanobis distance
to the query, so selection favours near neighbours and the incumbent best
always survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledSet
from .errors import DegeneratePopulationError, ParameterError, ShapeError, is_integer, readonly

_RIDGE = 1e-6


def chromosome_width(n: int) -> int:
    if n < 1:
        raise ParameterError("training size must be >= 1")
    return max(1, math.ceil(math.log2(max(n, 2))))


def crossover(rho1: int, rho2: int, v: int, r: int) -> tuple[int, int]:
    """Swap the low v bits of two chromosomes."""
    if not 0 < v < r:
        raise ParameterError(f"crossover point must satisfy 0 < v < {r}")
    m1 = (1 << r) - (1 << v)  # high bits
    m2 = (1 << v) - 1         # complement: low bits
    return (rho1 & m1) | (rho2 & m2), (rho2 & m1) | (rho1 & m2)


def mutate(kappa: int, v: int, n: int, rng: np.random.Generator | None = None) -> int:
    """Flip bit v; if the result is not a valid index, redraw v until it is."""
    if n == 1:
        raise DegeneratePopulationError("no valid mutation target with a single training point")
    r = chromosome_width(n)
    if not 0 <= v < r:
        raise ParameterError(f"gene index must satisfy 0 <= v < {r}")
    out = kappa ^ (1 << v)
    while out >= n:
        if rng is None:
            raise ParameterError("rng required to redraw an out-of-range mutation")
        v = int(rng.integers(0, r))
        out = kappa ^ (1 << v)
    return out


@dataclass(frozen=True)
class MahalanobisContext:
    covariance: np.ndarray
    inverse: np.ndarray  # of covariance + ridge*I

    def __post_init__(self):
        for name in ("covariance", "inverse"):
            object.__setattr__(self, name, readonly(getattr(self, name), np.float64))


def build_context(inputs: np.ndarray) -> MahalanobisContext:
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if x.shape[0] < 2:
        raise ParameterError("covariance needs at least 2 training points")
    cov = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
    inv = np.linalg.inv(cov + _RIDGE * np.eye(cov.shape[0]))
    return MahalanobisContext(cov, inv)


def mahalanobis(x_q, x_j, ctx: MahalanobisContext):
    """Distance sqrt(d^T S^-1 d), d = x_q - x_j, with S^-1 = ctx.inverse.

    Each side is one (p,) point or an (n, p) stack of rows; two points give a
    float, a stack an (n,) array of row distances.
    """
    a, b = (np.asarray(x, dtype=np.float64) for x in (x_q, x_j))
    p = ctx.inverse.shape[0]
    if (any(x.ndim not in (1, 2) or x.shape[-1] != p for x in (a, b))
            or a.ndim == b.ndim == 2 and a.shape != b.shape):
        raise ShapeError("query/training dimension does not match the covariance")
    d = a - b
    dist = np.sqrt(((d @ ctx.inverse) * d).sum(axis=-1))
    return float(dist) if d.ndim == 1 else dist


def _k_best(candidates, fitness, k) -> list[int]:
    return sorted(candidates, key=lambda c: (-fitness[c], c))[:k]


def evolve(fitness: np.ndarray, k: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Run the genetic loop; returns the final population, fittest first."""
    fitness = np.asarray(fitness, dtype=np.float64)
    n = fitness.shape[0]
    if not (is_integer(k) and 1 <= k <= n):
        raise ParameterError(f"k must be an integer in [1, {n}], got {k!r}")
    r = chromosome_width(n)
    pop = _k_best(rng.choice(n, size=k, replace=False).tolist(), fitness, k)
    best = fitness[pop[0]]
    while True:
        offspring = []
        if r >= 2:
            for i in range(0, k - 1, 2):
                v = int(rng.integers(1, r))
                offspring.extend(crossover(pop[i], pop[i + 1], v, r))
        mutants = []
        if n >= 2:
            for t in sorted(set(pop) | set(offspring)):
                mutants.append(mutate(t, int(rng.integers(0, r)), n, rng))
        pop = _k_best(set(mutants) | set(pop), fitness, k)
        new_best = fitness[pop[0]]
        if not new_best > best:
            return tuple(pop)
        best = new_best


def gknn_classify(x_q, training: LabeledSet, k: int, rng_seed: int = 0,
                  context: MahalanobisContext | None = None) -> np.ndarray:
    """Class-membership row: vote shares of the final population's labels.

    ``context`` is ``build_context(training.inputs)``, built here when not
    given; a caller with many queries on one training set builds it once.
    """
    if not (is_integer(k) and 1 <= k <= training.n):
        raise ParameterError(f"k must be an integer in [1, {training.n}], got {k!r}")
    if training.n == 1:
        return training.targets[0].copy()
    ctx = build_context(training.inputs) if context is None else context
    dists = mahalanobis(training.inputs, x_q, ctx)
    final = evolve(1.0 / (1.0 + dists), k, np.random.default_rng(rng_seed))
    votes = np.bincount(training.labels[list(final)], minlength=training.n_classes)
    return votes / k
