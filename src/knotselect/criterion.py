"""Penalized sum of squares and policies for picking its weight.

The selection criterion is ``RSS + lambda * (K + 1)``: K interior knots
cut the domain into K + 1 segments and each segment is charged lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lsq import DataError


class LambdaPolicy(Enum):
    FIXED = "fixed"
    VARIANCE_SCALED_LOG = "variance-scaled-log"
    CROSS_VALIDATION = "cross-validation"


@dataclass(frozen=True)
class Penalty:
    """Penalty weight configuration for the criterion."""

    policy: LambdaPolicy = LambdaPolicy.VARIANCE_SCALED_LOG
    lam: float | None = None
    cv_folds: int = 5
    cv_grid: tuple[float, ...] | None = None
    cv_seed: int = 0

    def __post_init__(self):
        if self.policy is LambdaPolicy.FIXED:
            if self.lam is None or not 0 < self.lam < np.inf:
                raise ValueError(f"fixed policy requires a finite lambda > 0, got {self.lam}")
        if self.policy is LambdaPolicy.CROSS_VALIDATION and self.cv_folds < 2:
            raise ValueError("cross-validation requires cv_folds >= 2")


def pss(rss: float, k: int, lam: float) -> float:
    """Penalized sum of squares: rss + lam * (k + 1)."""
    if rss < 0:
        raise ValueError("rss must be nonnegative")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return rss + lam * (k + 1)


def rice_variance(y, xs) -> float:
    """First-difference noise variance estimate on data sorted by x."""
    y = np.asarray(y, dtype=float)
    xs = np.asarray(xs, dtype=float)
    order = np.argsort(xs, kind="stable")
    d = np.diff(y[order])
    return float(d @ d) / (2.0 * (y.size - 1))


def default_lambda(y, xs) -> float:
    """BIC-flavored default weight: 2 * sigma~^2 * log(n).

    sigma~^2 is the Rice first-difference estimate. On noiseless data it
    is zero, so the result is floored at ``1e-8 * var(y) + 1e-12`` to
    keep the criterion well-posed (any positive weight then selects the
    most parsimonious exact fit).
    """
    y = np.asarray(y, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if y.size < 3:
        raise DataError("default_lambda needs at least 3 observations")
    lam = 2.0 * rice_variance(y, xs) * np.log(y.size)
    floor = 1e-8 * float(np.var(y)) + 1e-12
    return max(lam, floor)


def cv_lambda(xs, y, spec, grid, folds: int, seed: int = 0, **search_kwargs) -> float:
    """Grid value minimizing mean out-of-fold squared error.

    Each fold computes one knot path on its training rows and reads the
    model of every grid value off it, each with its own patience stop
    (:func:`knotselect.search.select_lambdas`); every such model equals
    a full :func:`knotselect.search.select` at that value, so a
    cross-validated fit costs one path per fold plus the final search,
    not one search per (value, fold). The models score the held-out
    points; ties break toward the larger (smoother) value. Fold
    assignment is a seeded permutation, so the score is deterministic
    for a given seed.
    """
    from . import search as _search  # local import: search depends on us

    xs = np.asarray(xs, dtype=float)
    y = np.asarray(y, dtype=float)
    grid = [float(g) for g in grid]
    if not grid or not all(0 < g < np.inf for g in grid):
        raise ValueError("grid must be nonempty with positive finite entries")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if len(grid) == 1:
        return grid[0]

    n = xs.size
    if folds > n:
        raise ValueError(f"cv folds ({folds}) exceed the number of observations ({n})")
    perm = np.random.default_rng(seed).permutation(n)
    assignment = np.empty(n, dtype=int)
    assignment[perm] = np.arange(n) % folds
    min_train = min(np.count_nonzero(assignment != f) for f in range(folds))
    if min_train <= _search._fitted_basis(spec, 0).dimension(0):
        raise DataError("a fold leaves fewer training points than the basis dimension")

    cfg = _search.SearchConfig(basis=spec, **search_kwargs)
    sse = [0.0] * len(grid)
    for f in range(folds):
        tr = assignment != f
        models = _search.select_lambdas(xs[tr], y[tr], cfg, grid)
        for i, model in enumerate(models):
            pred = model.predict(xs[~tr], extrapolate=True)
            sse[i] += float(np.sum((y[~tr] - pred) ** 2))
    scores = [s / n for s in sse]
    best = min(range(len(grid)), key=lambda i: (scores[i], -grid[i]))
    return grid[best]
