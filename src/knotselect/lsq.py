"""Rank-safe linear least squares with pointwise interval half-widths.

Solves are SVD-based (minimum-norm on rank-deficient designs) with
singular values below ``RANK_RTOL`` times the largest treated as zero.
Truncated-power designs are ill-conditioned by nature, so nothing here
goes through the normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

RANK_RTOL = 1e-10


class DataError(ValueError):
    """Non-finite or dimensionally inconsistent input data."""


class UndefinedVarianceError(ValueError):
    """No residual degrees of freedom: sigma^2 cannot be estimated."""


@dataclass
class LsqFit:
    """Least-squares solution plus the pieces needed for inference."""

    coefficients: np.ndarray
    fitted: np.ndarray
    rss: float
    dof: int
    sigma2_hat: float
    rank: int
    # rows of V' / s for the retained singular directions; leverage of an
    # evaluation row a is ||vs_inv @ a||^2
    _vs_inv: np.ndarray = field(repr=False, default=None)

    def leverage(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        proj = self._vs_inv @ rows.T
        return np.sum(proj**2, axis=0)


def solve(design, y) -> LsqFit:
    """Minimum-norm least squares of y on the design matrix.

    Rank is decided by the SVD with relative tolerance ``RANK_RTOL``;
    ``rss`` is the squared residual norm and ``sigma2_hat = rss / dof``
    (zero when dof is zero).
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise DataError("design must be a 2-D matrix")
    if X.shape[0] != y.shape[0]:
        raise DataError(
            f"design has {X.shape[0]} rows but y has {y.shape[0]} entries"
        )
    if y.shape[0] < 1:
        raise DataError("need at least one observation")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DataError("non-finite values in design or response")

    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    if s.size and s[0] > 0:
        keep = s > RANK_RTOL * s[0]
    else:
        keep = np.zeros_like(s, dtype=bool)
    rank = int(np.count_nonzero(keep))
    Ur, sr, Vtr = U[:, keep], s[keep], Vt[keep]
    coef = Vtr.T @ ((Ur.T @ y) / sr) if rank else np.zeros(X.shape[1])
    fitted = X @ coef
    resid = y - fitted
    rss = float(resid @ resid)
    dof = y.shape[0] - rank
    sigma2 = rss / dof if dof > 0 else 0.0
    vs_inv = Vtr / sr[:, None] if rank else np.zeros((0, X.shape[1]))
    return LsqFit(
        coefficients=coef,
        fitted=fitted,
        rss=rss,
        dof=dof,
        sigma2_hat=sigma2,
        rank=rank,
        _vs_inv=vs_inv,
    )


def pointwise_interval(
    fit: LsqFit,
    design_at_eval,
    level: float = 0.95,
    prediction: bool = False,
) -> np.ndarray:
    """Gaussian half-widths z * sqrt(sigma2_hat * h(x)) at the eval rows.

    h(x) is the leverage of the row under the fitted design. With
    ``prediction=True`` the noise variance is added (h(x) + 1), giving a
    band for a new observation instead of the mean. Both are conditional
    on the selected model; there is no selection adjustment.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if fit.dof < 1:
        raise UndefinedVarianceError("dof = 0: noise variance undefined")
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    h = fit.leverage(design_at_eval)
    if prediction:
        h = h + 1.0
    return z * np.sqrt(fit.sigma2_hat * h)
