"""Joint minimization of the penalized criterion over knot count and placement.

For a given number of knots the placement problem is solved exactly by
enumeration up to two knots, and by a seeded exchange heuristic beyond
(best single insertion into the previous optimum, then coordinate
descent over knot positions on the candidate grid). Candidate knots are
restricted to a grid and must respect the minimum-spacing constraint
delta, including against the domain boundaries.

One engine drives the enumeration for all three basis families: on x
rescaled to [0, 1], one knot column per grid point is projected off the
polynomial part once, after which a rank-one least-squares update gives
the RSS of adding each grid point to a knot set, for the whole grid in
one numpy pass. The k = 1 and k = 2 scans, the k >= 3 insertion and every
coordinate-descent move are each a few such passes. Reported models are
always refit through :mod:`knotselect.lsq`, so returned RSS/PSS values
are canonical regardless of the search path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lsq
from .basis import (
    BasisFamily,
    BasisSpec,
    Domain,
    KnotConfig,
    design_matrix,
)
from .criterion import LambdaPolicy, Penalty, cv_lambda, default_lambda, pss
from .lsq import DataError

_REL_IMPROVE = 1e-12  # coordinate-descent stopping threshold
_MAX_CYCLES = 100


class InfeasibleError(Exception):
    """No delta-feasible placement of the requested number of knots."""


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the knot search."""

    basis: BasisSpec
    delta: float = 15.0
    k_max: int = 10
    candidate_grid: tuple[float, ...] | None = None  # default: unique xs
    penalty: Penalty = field(default_factory=Penalty)
    exclude_left_frac: float = 0.0
    patience: int = 2

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")
        if not 0.0 <= self.exclude_left_frac < 1.0:
            raise ValueError("exclude_left_frac must be in [0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class SplineModel:
    """A fitted spline: basis, selected knots, coefficients, criterion value."""

    basis: BasisSpec
    knots: KnotConfig
    coefficients: np.ndarray
    rss: float
    pss: float
    lambda_used: float
    fit: lsq.LsqFit = field(repr=False, default=None)

    @property
    def k(self) -> int:
        return self.knots.k

    def predict(self, xs, extrapolate: bool = False) -> np.ndarray:
        X = design_matrix(xs, self.basis, self.knots, extrapolate=extrapolate)
        return X @ self.coefficients

    def to_dict(self) -> dict:
        return {
            "basis": self.basis.family.value,
            "degree": self.basis.degree,
            "domain": [self.knots.domain.a, self.knots.domain.b],
            "knots": list(self.knots.knots),
            "coefficients": [float(c) for c in self.coefficients],
            "rss": self.rss,
            "pss": self.pss,
            "lambda": self.lambda_used,
        }


# ---------------------------------------------------------------------------
# RSS engine


def _fitted_basis(spec: BasisSpec, k: int) -> BasisSpec:
    """The basis a k-knot model is fitted in.

    Natural cubic needs at least two interior knots; below that the cubic
    truncated-power basis stands in.
    """
    if spec.family is BasisFamily.NATURAL_CUBIC and k < 2:
        return BasisSpec(BasisFamily.TRUNCATED_POWER, degree=3)
    return spec


class _RssEngine:
    """RSS of every one-knot extension of a knot set, in one numpy pass.

    Works on one spline space on x rescaled to z in [0, 1]: polynomial
    columns P plus one knot column per grid point t,

    * truncated power and B-spline (same span): ``z^0..z^p`` and
      ``(z - t)_+^p``, taken as ``(t - z)^p 1[z < t]`` for t < 1/2 (the
      two differ by a polynomial; the shorter support projects off P
      without cancellation);
    * natural cubic: ``1, z`` and ``(z - t)_+^3 - (1 - t) z^3``, the cubic
      truncated-power span with f''(0) = f''(1) = 0 imposed.

    Knot columns are projected off P once, giving V. For a knot set S
    with residual r_S, adding grid point g gives the rank-one update
    ``RSS(S + g) = RSS(S) - (v_g' r_S)^2 / (v_g' (I - P_S) v_g)``. A
    column whose squared norm after projection off P and S is at most
    ``RANK_RTOL**2`` times its raw squared norm (the relative size below
    which :func:`lsq.solve` drops a singular direction) lies in that
    span numerically and lowers the RSS by nothing.
    """

    def __init__(self, xs, y, grid, domain: Domain, spec: BasisSpec):
        z = (xs - domain.a) / domain.width
        t = (grid - domain.a) / domain.width
        C = z[:, None] - t  # built in place: the engine holds O(nG) memory
        if spec.family is BasisFamily.NATURAL_CUBIC:
            P = np.column_stack([np.ones_like(z), z])
            np.maximum(C, 0.0, out=C)
            C **= 3
            C -= np.outer(z**3, 1.0 - t)
        else:
            P = np.column_stack([z**j for j in range(spec.degree + 1)])
            keep = (C >= 0) != (t < 0.5)
            np.abs(C, out=C)
            C **= spec.degree
            C *= keep
        Q0, _ = np.linalg.qr(P)
        self.floor = lsq.RANK_RTOL**2 * np.einsum("ij,ij->j", C, C)
        C -= Q0 @ (Q0.T @ C)
        self.V = C
        self.r0 = y - Q0 @ (Q0.T @ y)
        self.rss0 = float(self.r0 @ self.r0)
        self.vr = self.V.T @ self.r0
        self.norm2 = np.einsum("ij,ij->j", self.V, self.V)

    def _orthonormal(self, idx) -> np.ndarray:
        """Orthonormal basis of the projected columns in idx (Gram-Schmidt)."""
        U = np.empty((self.V.shape[0], 0))
        for i in idx:
            w = self.V[:, i]
            for _ in range(2):  # twice is enough for orthogonality
                w = w - U @ (U.T @ w)
            w2 = float(w @ w)
            if w2 > self.floor[i]:
                U = np.column_stack([U, w / np.sqrt(w2)])
        return U

    def extend(self, idx) -> np.ndarray:
        """RSS(idx + g) for every grid index g (meaningless for g in idx)."""
        U = self._orthonormal(idx)
        ur = U.T @ self.r0
        B = U.T @ self.V
        num = self.vr - B.T @ ur
        den = self.norm2 - np.einsum("ij,ij->j", B, B)
        # where most of v_g lies in span(S) the subtraction loses digits:
        # project those columns explicitly
        redo = np.flatnonzero(den < 1e-3 * self.norm2)
        W = self.V[:, redo] - U @ B[:, redo]
        num[redo] = W.T @ self.r0
        den[redo] = np.einsum("ij,ij->j", W, W)
        drop = np.zeros_like(den)
        np.divide(num * num, den, out=drop, where=den > self.floor)
        return np.maximum(self.rss0 - float(ur @ ur) - drop, 0.0)


def _engines(xs, y, cfg: SearchConfig, grid, domain):
    """Engine for the space a k-knot model is fitted in, built on first use."""
    built = {}

    def engine_for(k: int) -> _RssEngine:
        spec = _fitted_basis(cfg.basis, k)
        if spec not in built:
            built[spec] = _RssEngine(xs, y, grid, domain, spec)
        return built[spec]

    return engine_for


# ---------------------------------------------------------------------------
# feasible placement search


def _feasible_mask(grid: np.ndarray, domain: Domain, delta: float, left_bar: float) -> np.ndarray:
    return (
        (grid - domain.a > delta)
        & (domain.b - grid > delta)
        & (grid >= left_bar)
    )


def _refitter(xs, y, cfg: SearchConfig, grid, domain, lam):
    """Canonical refit of a grid-index tuple: the path every reported model takes."""

    def refit(idx) -> SplineModel:
        kc = KnotConfig(tuple(grid[list(idx)]), domain)
        basis = _fitted_basis(cfg.basis, kc.k)
        fit = lsq.solve(design_matrix(xs, basis, kc), y)
        return SplineModel(
            basis=basis,
            knots=kc,
            coefficients=fit.coefficients,
            rss=fit.rss,
            pss=pss(fit.rss, kc.k, lam),
            lambda_used=lam,
            fit=fit,
        )

    return refit


def _resolve_near_ties(finalists, refit):
    """Pick among near-minimal placements by canonical criterion value.

    The incremental engine's RSS values can differ from the canonical
    refit in the last bits, which matters only when distinct placements
    tie exactly. Refitting the shortlist restores the documented
    tie-break: smallest criterion, then lexicographically smallest knot
    vector.
    """
    if len(finalists) == 1:
        return finalists[0]
    return min((refit(idx).pss, idx) for idx in finalists)[1]


def _best_placement(engine_for, grid, delta, singles_ok, k, prev_best, refit):
    """Best grid indices for exactly k knots; exact for k <= 2.

    ``prev_best`` is the optimal (k-1)-set used to seed the exchange
    heuristic. Exact ties resolve to the lexicographically smallest
    index vector via a canonical refit of the shortlist.
    """
    ok = np.flatnonzero(singles_ok)
    if k == 0:
        return ()
    if ok.size < k:
        raise InfeasibleError(f"cannot place {k} knots on the feasible grid")
    engine = engine_for(k)
    tol = 1e-8 * engine.rss0

    if k == 1:
        rss1 = engine.extend(())
        lo = float(rss1[ok].min())
        finalists = [(int(i),) for i in ok if rss1[i] <= lo + tol]
        return _resolve_near_ties(finalists, refit)

    if k == 2:
        lo, near = np.inf, []
        for i in ok:
            js = ok[grid[ok] - grid[i] > delta]
            if not js.size:
                continue
            vals = engine.extend((i,))[js]
            lo = min(lo, float(vals.min()))
            keep = vals <= lo + tol
            near += [((int(i), int(j)), v) for j, v in zip(js[keep], vals[keep])]
        if not near:
            raise InfeasibleError("no delta-feasible pair of knots")
        finalists = [p for p, v in near if v <= lo + tol]
        return _resolve_near_ties(finalists, refit)

    def candidates(others):
        """RSS of others + g, inf where g is not a delta-feasible addition."""
        ok_g = singles_ok.copy()
        for s in others:
            ok_g &= np.abs(grid - grid[s]) > delta
        return np.where(ok_g, engine.extend(others), np.inf)

    # k >= 3: insert the RSS-minimizing grid point into the previous optimum
    vals = candidates(prev_best)
    g = int(np.argmin(vals))
    if not np.isfinite(vals[g]):
        raise InfeasibleError(f"no delta-feasible insertion for k={k}")
    cur, cur_rss = sorted(list(prev_best) + [g]), float(vals[g])

    # coordinate descent: move each knot to its RSS-minimizing position
    for _ in range(_MAX_CYCLES):
        improved = False
        for j in range(k):
            others = cur[:j] + cur[j + 1 :]
            vals = candidates(others)
            vals[cur[j]] = np.inf
            g = int(np.argmin(vals))
            if vals[g] < cur_rss * (1.0 - _REL_IMPROVE):
                cur, cur_rss = sorted(others + [g]), float(vals[g])
                improved = True
        if not improved:
            break
    return tuple(cur)


# ---------------------------------------------------------------------------
# public operations


def _prepare(xs, y, cfg: SearchConfig):
    xs = np.asarray(xs, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if xs.size != y.size:
        raise DataError("xs and y must have the same length")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(y))):
        raise DataError("non-finite values in xs or y")
    order = np.argsort(xs, kind="stable")
    xs, y = xs[order], y[order]
    if xs[0] == xs[-1]:
        raise DataError("constant x: nothing to fit")
    domain = Domain(float(xs[0]), float(xs[-1]))
    if xs.size <= cfg.basis.dimension(0):
        raise DataError(
            f"need more than {cfg.basis.dimension(0)} observations for the k=0 fit"
        )

    if cfg.candidate_grid is not None:
        grid = np.asarray(cfg.candidate_grid, dtype=float)
        if grid.size and not np.all(np.diff(grid) > 0):
            raise ValueError("candidate_grid must be strictly increasing")
    else:
        grid = np.unique(xs)
    grid = grid[(grid > domain.a) & (grid < domain.b)]
    left_bar = domain.a + cfg.exclude_left_frac * domain.width
    return xs, y, domain, grid, left_bar


def _resolve_lambda(xs, y, cfg: SearchConfig) -> float:
    pen = cfg.penalty
    if pen.policy is LambdaPolicy.FIXED:
        return float(pen.lam)
    if pen.policy is LambdaPolicy.VARIANCE_SCALED_LOG:
        return default_lambda(y, xs)
    base = default_lambda(y, xs)
    grid = pen.cv_grid or tuple(base * f for f in (0.25, 0.5, 1.0, 2.0, 4.0))
    return cv_lambda(
        xs,
        y,
        cfg.basis,
        grid,
        pen.cv_folds,
        seed=pen.cv_seed,
        delta=cfg.delta,
        k_max=cfg.k_max,
        candidate_grid=cfg.candidate_grid,
        exclude_left_frac=cfg.exclude_left_frac,
        patience=cfg.patience,
    )


def best_for_k(xs, y, k: int, cfg: SearchConfig, lam: float | None = None) -> SplineModel:
    """Best delta-feasible placement of exactly k knots.

    Exact by enumeration for k <= 2; the seeded exchange heuristic
    beyond. Raises :class:`InfeasibleError` when no placement fits.
    """
    if k > cfg.k_max:
        raise ValueError(f"k={k} exceeds k_max={cfg.k_max}")
    xs, y, domain, grid, left_bar = _prepare(xs, y, cfg)
    if lam is None:
        lam = _resolve_lambda(xs, y, cfg)
    engine_for = _engines(xs, y, cfg, grid, domain)
    singles_ok = _feasible_mask(grid, domain, cfg.delta, left_bar)
    refit = _refitter(xs, y, cfg, grid, domain, lam)
    prev = ()
    for kk in range(1, k + 1):
        prev = _best_placement(engine_for, grid, cfg.delta, singles_ok, kk, prev, refit)
    return refit(prev)


def select(xs, y, cfg: SearchConfig) -> SplineModel:
    """Minimize the penalized criterion jointly over knot count and placement.

    Knot counts are visited in increasing order and the loop stops once
    the criterion has not improved for ``cfg.patience`` consecutive
    counts (or the count cap / grid feasibility is hit). Ties prefer
    fewer knots, then the lexicographically smallest knot vector.
    """
    xs, y, domain, grid, left_bar = _prepare(xs, y, cfg)
    lam = _resolve_lambda(xs, y, cfg)
    engine_for = _engines(xs, y, cfg, grid, domain)
    singles_ok = _feasible_mask(grid, domain, cfg.delta, left_bar)
    refit = _refitter(xs, y, cfg, grid, domain, lam)

    best_model = None
    stale = 0
    prev_placement = ()
    k = 0
    while k <= cfg.k_max:
        try:
            placement = _best_placement(
                engine_for, grid, cfg.delta, singles_ok, k, prev_placement, refit
            )
        except InfeasibleError:
            break  # larger k cannot be feasible either
        prev_placement = placement
        model = refit(placement)
        if best_model is None or model.pss < best_model.pss:
            best_model = model
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
        k += 1
    return best_model
