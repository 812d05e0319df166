"""Joint minimization of the penalized criterion over knot count and placement.

The search is split in two. The **knot path** visits k = 0, 1, 2, ...
and holds, for each k, the best delta-feasible placement of exactly k
knots with its canonical refit. That placement does not depend on the
penalty weight lambda: it is exact by enumeration up to two knots, and
beyond comes from a seeded exchange heuristic (best single insertion
into the (k-1)-knot placement, then coordinate descent over knot
positions on the candidate grid). Candidate knots are restricted to a
grid and must respect the minimum-spacing constraint delta, including
against the domain boundaries. The path ends after ``k_max`` knots or
at the first infeasible k.

The **stop rule** reads a lambda's model off the path: it keeps the
model with the smallest ``RSS + lambda (k + 1)`` and stops once that
has not improved for ``patience`` consecutive knot counts. The path is
computed lazily, so it goes only as far as the stop rule asks.
:func:`select` follows it with one lambda, :func:`best_for_k` up to k,
and :func:`select_lambdas` with several at once, which is how
cross-validation scores every lambda of its grid from one path per
fold.

Lambda reaches the path in one place only. Placements whose engine RSS
lie within a relative 1e-8 of the best (the near-tie finalists) are
refit once each, and a lambda picks among them by criterion value, then
lexicographically smallest knot vector. Rounding of ``RSS + lambda
(k + 1)`` can merge distinct RSS values into a tie at one lambda and
not at another; a lambda that picks differently from the path leaves it
and gets a search of its own, so every result equals a separate
:func:`select` at that lambda.

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

from dataclasses import dataclass, field, replace

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


def _refitter(xs, y, cfg: SearchConfig, grid, domain):
    """Canonical refit of a grid-index tuple: the path every reported model takes.

    Returns ``(basis, knots, fit)``; the criterion value is left to the
    caller, since one refit serves every lambda.
    """

    def refit(idx):
        kc = KnotConfig(tuple(grid[list(idx)]), domain)
        basis = _fitted_basis(cfg.basis, kc.k)
        return basis, kc, lsq.solve(design_matrix(xs, basis, kc), y)

    return refit


def _pick(k: int, finalists, rss, lam: float) -> int:
    """Index of the finalist lam picks: smallest criterion, then smallest index vector.

    The engine's RSS values can differ from the canonical refit in the
    last bits, which matters only when distinct placements tie exactly,
    so near-minimal placements are compared by their refit RSS. Adding
    ``lam * (k + 1)`` never reorders two RSS values, but rounding can
    merge them into a tie, which the index vector then breaks: that is
    the only way two lambdas can pick differently.
    """
    if len(finalists) == 1:
        return 0
    return min(range(len(finalists)), key=lambda i: (pss(rss[i], k, lam), finalists[i]))


def _finalists(engine_for, grid, delta, singles_ok, k, prev_best) -> list:
    """Near-minimal grid-index placements of exactly k knots; exact for k <= 2.

    For k <= 2 these are every placement whose engine RSS lies within
    a relative 1e-8 of the minimum; beyond, the single placement found
    by the exchange heuristic seeded with ``prev_best``, the placement
    chosen for k - 1.
    """
    ok = np.flatnonzero(singles_ok)
    if k == 0:
        return [()]
    if ok.size < k:
        raise InfeasibleError(f"cannot place {k} knots on the feasible grid")
    engine = engine_for(k)
    tol = 1e-8 * engine.rss0

    if k == 1:
        rss1 = engine.extend(())
        lo = float(rss1[ok].min())
        return [(int(i),) for i in ok if rss1[i] <= lo + tol]

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
        return [p for p, v in near if v <= lo + tol]

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
    return [tuple(cur)]


# ---------------------------------------------------------------------------
# the knot path and the stop rule


@dataclass(frozen=True)
class _PathStep:
    """The knot path at one knot count: its finalists and the chosen refit.

    ``rss`` holds the canonical refit RSS of each finalist, ``chosen``
    indexes the finalist the path continues from, and ``basis``,
    ``knots`` and ``fit`` are that finalist's refit.
    """

    k: int
    finalists: tuple
    rss: tuple
    chosen: int
    basis: BasisSpec
    knots: KnotConfig
    fit: lsq.LsqFit

    def model(self, lam: float) -> SplineModel:
        return SplineModel(
            basis=self.basis,
            knots=self.knots,
            coefficients=self.fit.coefficients,
            rss=self.fit.rss,
            pss=pss(self.fit.rss, self.k, lam),
            lambda_used=lam,
            fit=self.fit,
        )


def _knot_path(xs, y, cfg: SearchConfig, grid, domain, left_bar, tie_lam: float):
    """Yield one :class:`_PathStep` per knot count k = 0, 1, 2, ...

    Each step holds the best delta-feasible placement of exactly k knots
    (k >= 3 seeded by the step before) and its canonical refit. The path
    ends after ``cfg.k_max`` or at the first infeasible k. It does not
    depend on lambda, except that ``tie_lam`` picks among finalists that
    tie after rounding (see :func:`_pick`).
    """
    engine_for = _engines(xs, y, cfg, grid, domain)
    singles_ok = _feasible_mask(grid, domain, cfg.delta, left_bar)
    refit = _refitter(xs, y, cfg, grid, domain)
    prev = ()
    for k in range(cfg.k_max + 1):
        try:
            finalists = tuple(_finalists(engine_for, grid, cfg.delta, singles_ok, k, prev))
        except InfeasibleError:
            return  # larger k cannot be feasible either
        fits = [refit(idx) for idx in finalists]
        rss = tuple(fit.rss for _, _, fit in fits)
        chosen = _pick(k, finalists, rss, tie_lam)
        prev = finalists[chosen]
        step = _PathStep(k, finalists, rss, chosen, *fits[chosen])
        del fits  # the other finalists' refits need not outlive this step
        yield step


def _follow(path, lams, patience: int, own_search) -> list:
    """Best model for each lambda in ``lams``, all read off one knot path.

    The stop rule, per lambda: keep the model with the smallest
    criterion, preferring fewer knots on ties, and stop once it has not
    improved for ``patience`` consecutive knot counts. The path is
    advanced only while some lambda has not stopped. A lambda whose own
    tie-break picks another finalist than the path's leaves the path,
    since the path's placements from there on are not its placements;
    its model is then ``own_search(lam)``.
    """
    best = [None] * len(lams)
    stale = [0] * len(lams)
    live = list(range(len(lams)))
    for step in path:
        for i in list(live):
            if _pick(step.k, step.finalists, step.rss, lams[i]) != step.chosen:
                best[i] = own_search(lams[i])
                live.remove(i)
                continue
            model = step.model(lams[i])
            if best[i] is None or model.pss < best[i].pss:
                best[i], stale[i] = model, 0
            else:
                stale[i] += 1
                if stale[i] >= patience:
                    live.remove(i)
        if not live:
            break
    return best


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
    dim0 = _fitted_basis(cfg.basis, 0).dimension(0)
    if xs.size <= dim0:
        raise DataError(f"need more than {dim0} observations for the k=0 fit")

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
    for step in _knot_path(xs, y, cfg, grid, domain, left_bar, lam):
        if step.k == k:
            return step.model(lam)
    raise InfeasibleError(f"no delta-feasible placement of {k} knots")


def select(xs, y, cfg: SearchConfig) -> SplineModel:
    """Minimize the penalized criterion jointly over knot count and placement.

    Knot counts are visited in increasing order and the loop stops once
    the criterion has not improved for ``cfg.patience`` consecutive
    counts (or the count cap / grid feasibility is hit). Ties prefer
    fewer knots, then the lexicographically smallest knot vector.
    """
    xs, y, domain, grid, left_bar = _prepare(xs, y, cfg)
    lam = _resolve_lambda(xs, y, cfg)
    path = _knot_path(xs, y, cfg, grid, domain, left_bar, lam)
    return _follow(path, [lam], cfg.patience, None)[0]


def select_lambdas(xs, y, cfg: SearchConfig, lams) -> list[SplineModel]:
    """:func:`select` at each fixed lambda in ``lams``, from one knot path.

    ``cfg.penalty`` is not read. Result i equals ``select(xs, y, cfg)``
    with the penalty fixed at ``lams[i]``, bit for bit: a lambda whose
    tie-break leaves the shared path gets that search of its own.
    """
    lams = [float(lam) for lam in lams]
    if not lams or min(lams) <= 0:
        raise ValueError("lams must be nonempty with positive entries")
    xs, y, domain, grid, left_bar = _prepare(xs, y, cfg)
    path = _knot_path(xs, y, cfg, grid, domain, left_bar, lams[0])

    def own_search(lam: float) -> SplineModel:
        fixed = Penalty(policy=LambdaPolicy.FIXED, lam=lam)
        return select(xs, y, replace(cfg, penalty=fixed))

    return _follow(path, lams, cfg.patience, own_search)
