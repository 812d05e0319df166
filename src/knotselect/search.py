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

One engine drives the enumeration for all three basis families. Its
design half depends only on x, the grid and the spline space: on x
rescaled to [0, 1], one knot column per grid point is projected off the
polynomial part once. Its response half holds each response's residual
off the polynomials and that residual's products with the knot columns.
A rank-one least-squares update then gives the RSS of adding each grid
point to a knot set, for the whole grid in one numpy pass. The k = 1
and k = 2 scans, the k >= 3 insertion and every coordinate-descent move
are each a few such passes.

:func:`select_many` searches many responses that share x, the grid and
the config, as the replications of a simulation do. The design half is
built once, and the k = 1 and k = 2 scans, which are exhaustive and need
no earlier placement, run once for all responses: each row of the k = 2
scan does its design work once, and each response keeps its own
minimum and near-tie finalists. From k = 3 on each response follows its
own path. :func:`select` is the one-response case. Reported models are
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
        if not 0 < self.delta < np.inf:
            raise ValueError(f"delta must be a positive finite number, got {self.delta}")
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


_BLOCK = 32  # knot columns built and projected per pass: bounds the temporaries


class _Design:
    """Design half of the RSS engine: one spline space on a fixed x and grid.

    Works on x rescaled to z in [0, 1]: polynomial columns P plus one
    knot column per grid point t,

    * truncated power and B-spline (same span): ``z^0..z^p`` and
      ``(z - t)_+^p``, taken as ``(t - z)^p 1[z < t]`` for t < 1/2 (the
      two differ by a polynomial; the shorter support projects off P
      without cancellation);
    * natural cubic: ``1, z`` and ``(z - t)_+^3 - (1 - t) z^3``, the cubic
      truncated-power span with f''(0) = f''(1) = 0 imposed.

    Knot columns are built and projected off P a block at a time, giving
    V, stored transposed as ``Vt``, with no second n x G array. A column
    whose squared norm after projection off P and a knot set is at most
    ``RANK_RTOL**2`` times its raw squared norm (the relative size below
    which :func:`lsq.solve` drops a singular direction) lies in that span
    numerically and lowers the RSS by nothing.
    """

    def __init__(self, xs, grid, domain: Domain, spec: BasisSpec):
        z = (xs - domain.a) / domain.width
        t = (grid - domain.a) / domain.width
        natural = spec.family is BasisFamily.NATURAL_CUBIC
        if natural:
            P = np.column_stack([np.ones_like(z), z])
        else:
            P = np.column_stack([z**j for j in range(spec.degree + 1)])
        Q0, _ = np.linalg.qr(P)
        Vt = np.empty((t.size, z.size))  # row g is the knot column of grid point g
        raw2 = np.empty(t.size)
        for a in range(0, t.size, _BLOCK):
            b = slice(a, a + _BLOCK)
            C = Vt[b]
            np.subtract(z, t[b, None], out=C)
            if natural:
                np.maximum(C, 0.0, out=C)
                C **= 3
                C -= np.outer(1.0 - t[b], z**3)
            else:
                keep = (C >= 0) != (t[b, None] < 0.5)
                np.abs(C, out=C)
                C **= spec.degree
                C *= keep
            raw2[b] = np.einsum("ij,ij->i", C, C)
            C -= (C @ Q0) @ Q0.T
        self.Q0, self.Vt = Q0, Vt
        self.floor = lsq.RANK_RTOL**2 * raw2
        self.norm2 = np.einsum("ij,ij->i", Vt, Vt)

    def _orthonormal(self, idx) -> np.ndarray:
        """Orthonormal rows spanning the projected columns in idx (Gram-Schmidt)."""
        U = np.empty((len(idx), self.Vt.shape[1]))
        m = 0
        for i in idx:
            w = self.Vt[i]
            for _ in range(2 if m else 0):  # twice is enough for orthogonality
                w = w - (U[:m] @ w) @ U[:m]
            w2 = float(w @ w)
            if w2 > self.floor[i]:
                U[m] = w / np.sqrt(w2)
                m += 1
        return U[:m]

    def part(self, idx, cols: slice):
        """The response-free work of extending idx by the grid points in ``cols``.

        Returns ``(U, B, den, redo, W)``: the rows of U span the
        projected columns of idx, ``B = U V``, ``den`` is each column's
        squared norm after projection off U, and the ``redo`` columns,
        where most of v_g lies in span(U) so that the subtraction loses
        digits, are projected explicitly into the rows of W.
        """
        U = self._orthonormal(idx)
        Vt, norm2 = self.Vt[cols], self.norm2[cols]
        B = U @ Vt.T
        den = norm2 - np.einsum("ij,ij->j", B, B)
        redo = np.flatnonzero(den < 1e-3 * norm2)
        W = Vt[redo] - B[:, redo].T @ U
        den[redo] = np.einsum("ij,ij->i", W, W)
        return U, B, den, redo, W


def _dot_rows(A, B) -> np.ndarray:
    """``A @ B.T``; for a 2-D A each entry is its own dot product.

    So row r of the result does not depend on the other rows of A,
    whereas a BLAS matrix product sums in an order that changes with
    A's shape.
    """
    if A.ndim == 1:
        return B @ A
    return np.einsum("rn,mn->rm", A, B)


class _Responses:
    """Response half of the RSS engine: R responses, one per row, on one design.

    Holds each response's residual r0 off the polynomials, its RSS and
    ``V'r0``. For a knot set S with residual r_S, adding grid point g
    gives the rank-one update
    ``RSS(S + g) = RSS(S) - (v_g' r_S)^2 / (v_g' (I - P_S) v_g)``, for
    every g and every response in one numpy pass. A response's values do
    not depend on the other rows: the residuals are built one response
    at a time and every product over the data is taken row by row
    (:func:`_dot_rows`), so a batch gives each response the bits it gets
    alone.
    """

    def __init__(self, design: _Design, r0, rss0, vr):
        self.design, self.r0, self.rss0, self.vr = design, r0, rss0, vr

    @classmethod
    def of(cls, design: _Design, Y) -> _Responses:
        Q0, Vt = design.Q0, design.Vt
        r0 = np.array([y - Q0 @ (Q0.T @ y) for y in Y])
        rss0 = np.array([float(r @ r) for r in r0])
        return cls(design, r0, rss0, np.array([Vt @ r for r in r0]))

    def rows(self, rows) -> _Responses:
        """The responses in ``rows`` alone; an int gives one response, unbatched."""
        return _Responses(self.design, self.r0[rows], self.rss0[rows], self.vr[rows])

    def extend(self, idx, cols: slice = slice(None)) -> np.ndarray:
        """RSS(idx + g) for every response and grid index g in cols (meaningless for g in idx).

        The design part is computed once and serves every response.
        """
        U, B, den, redo, W = self.design.part(idx, cols)
        ur = _dot_rows(self.r0, U)
        num = self.vr[..., cols] - ur @ B
        num[..., redo] = _dot_rows(self.r0, W)
        drop = np.zeros_like(num)
        np.divide(num * num, den, out=drop, where=den > self.design.floor[cols])
        return np.maximum((self.rss0 - (ur * ur).sum(axis=-1))[..., None] - drop, 0.0)


# ---------------------------------------------------------------------------
# feasible placement search


def _feasible_mask(grid: np.ndarray, domain: Domain, delta: float, left_bar: float) -> np.ndarray:
    return (
        (grid - domain.a > delta)
        & (domain.b - grid > delta)
        & (grid >= left_bar)
    )


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


def _scan_singles(engine: _Responses, ok) -> list:
    """Every response's single knots within a relative 1e-8 of its minimum RSS."""
    vals = engine.extend(())[:, ok]
    bound = vals.min(axis=1) + 1e-8 * engine.rss0
    return [[(int(i),) for i in ok[v <= b]] for v, b in zip(vals, bound)]


def _scan_pairs(engine: _Responses, grid, delta, ok) -> list:
    """Every response's delta-feasible knot pairs within a relative 1e-8 of its minimum RSS.

    One pass over the first knot i serves all responses: each
    ``extend((i,), ...)`` does its design work once, and only for the
    partners j that may follow i. Each response keeps its own running
    minimum and the pairs within tolerance of it.
    """
    tol = 1e-8 * engine.rss0
    lo = np.full(tol.size, np.inf)
    near = []
    for i in ok:
        js = ok[grid[ok] - grid[i] > delta]
        if not js.size:
            continue
        vals = engine.extend((i,), slice(js[0], js[-1] + 1))[:, js - js[0]]
        lo = np.minimum(lo, vals.min(axis=1))
        keep = vals <= (lo + tol)[:, None]
        if keep.any():
            rr, jj = np.nonzero(keep)
            near.append((i, rr, js[jj], vals[rr, jj]))
    if not near:
        raise InfeasibleError("no delta-feasible pair of knots")
    pairs = [[] for _ in tol]
    for i, rr, js, vals in near:
        final = vals <= (lo + tol)[rr]
        for r, j in zip(rr[final], js[final]):
            pairs[r].append((int(i), int(j)))
    return pairs


def _exchange(engine: _Responses, grid, delta, singles_ok, k, prev_best) -> list:
    """One k-knot placement by the exchange heuristic, seeded with ``prev_best``.

    Inserts the RSS-minimizing grid point into the (k-1)-knot placement,
    then moves each knot to its RSS-minimizing position until no move
    helps. ``engine`` holds the one response being searched.
    """

    def candidates(others):
        """RSS of others + g, inf where g is not a delta-feasible addition."""
        ok_g = singles_ok.copy()
        for s in others:
            ok_g &= np.abs(grid - grid[s]) > delta
        return np.where(ok_g, engine.extend(others), np.inf)

    vals = candidates(prev_best)
    g = int(np.argmin(vals))
    if not np.isfinite(vals[g]):
        raise InfeasibleError(f"no delta-feasible insertion for k={k}")
    cur, cur_rss = sorted(list(prev_best) + [g]), float(vals[g])

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


class _Search:
    """One search over responses that share x, the candidate grid and the config.

    ``Y`` holds one response per row, sorted by x. The design half of
    each engine is built once per fitted space. The k = 1 and k = 2
    scans are exhaustive and need no earlier placement, so each runs
    once, on its first request, for every response not yet released;
    beyond, each response follows its own exchange search. Refits are
    per response.
    """

    def __init__(self, xs, Y, cfg: SearchConfig, grid, domain, left_bar):
        self.xs, self.Y, self.cfg, self.grid, self.domain = xs, Y, cfg, grid, domain
        self.singles_ok = _feasible_mask(grid, domain, cfg.delta, left_bar)
        self.pending = set(range(len(Y)))
        self._engines = {}
        self._scans = {}

    def engine(self, k: int) -> _Responses:
        """The engine, over all responses, for the space a k-knot model is fitted in; built once."""
        spec = _fitted_basis(self.cfg.basis, k)
        if spec not in self._engines:
            design = _Design(self.xs, self.grid, self.domain, spec)
            self._engines[spec] = _Responses.of(design, self.Y)
        return self._engines[spec]

    def release(self, r: int) -> None:
        """Response r needs no further knot counts: later scans leave it out."""
        self.pending.discard(r)

    def finalists(self, r: int, k: int, prev_best) -> list:
        """Near-minimal grid-index placements of exactly k knots for response r; exact for k <= 2.

        For k <= 2 these are every placement whose engine RSS lies within
        a relative 1e-8 of the minimum; beyond, the single placement found
        by the exchange heuristic seeded with ``prev_best``, the placement
        chosen for k - 1.
        """
        ok = np.flatnonzero(self.singles_ok)
        if k == 0:
            return [()]
        if ok.size < k:
            raise InfeasibleError(f"cannot place {k} knots on the feasible grid")
        if k > 2:
            engine = self.engine(k).rows(r)
            return _exchange(engine, self.grid, self.cfg.delta, self.singles_ok, k, prev_best)
        if k not in self._scans:
            rows = sorted(self.pending)
            engine = self.engine(k).rows(rows)
            if k == 1:
                found = _scan_singles(engine, ok)
            else:
                found = _scan_pairs(engine, self.grid, self.cfg.delta, ok)
            self._scans[k] = dict(zip(rows, found))
        return self._scans[k].pop(r)

    def refit(self, r: int, idx):
        """Canonical refit of a grid-index tuple: the path every reported model takes.

        Returns ``(basis, knots, fit)``; the criterion value is left to the
        caller, since one refit serves every lambda.
        """
        kc = KnotConfig(tuple(self.grid[list(idx)]), self.domain)
        basis = _fitted_basis(self.cfg.basis, kc.k)
        return basis, kc, lsq.solve(design_matrix(self.xs, basis, kc), self.Y[r])


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


def _knot_path(search: _Search, r: int, tie_lam: float):
    """Yield one :class:`_PathStep` per knot count k = 0, 1, 2, ... for response r.

    Each step holds the best delta-feasible placement of exactly k knots
    (k >= 3 seeded by the step before) and its canonical refit. The path
    ends after ``k_max`` or at the first infeasible k. It does not
    depend on lambda, except that ``tie_lam`` picks among finalists that
    tie after rounding (see :func:`_pick`).
    """
    prev = ()
    for k in range(search.cfg.k_max + 1):
        try:
            finalists = tuple(search.finalists(r, k, prev))
        except InfeasibleError:
            return  # larger k cannot be feasible either
        fits = [search.refit(r, idx) for idx in finalists]
        rss = tuple(fit.rss for _, _, fit in fits)
        chosen = _pick(k, finalists, rss, tie_lam)
        prev = finalists[chosen]
        step = _PathStep(k, finalists, rss, chosen, *fits[chosen])
        del fits  # the other finalists' refits need not outlive this step
        yield step


class _StopRule:
    """Best model for each lambda in ``lams``, read off one knot path a step at a time.

    The stop rule, per lambda: keep the model with the smallest
    criterion, preferring fewer knots on ties, and stop once it has not
    improved for ``patience`` consecutive knot counts. A lambda whose own
    tie-break picks another finalist than the path's leaves the path,
    since the path's placements from there on are not its placements;
    its model is then ``own_search(lam)``.
    """

    def __init__(self, lams, patience: int, own_search):
        self.lams, self.patience, self.own_search = lams, patience, own_search
        self.best = [None] * len(lams)
        self.stale = [0] * len(lams)
        self.live = list(range(len(lams)))

    def offer(self, step: _PathStep) -> bool:
        """Score one path step for every live lambda; whether any lambda is still live."""
        for i in list(self.live):
            if _pick(step.k, step.finalists, step.rss, self.lams[i]) != step.chosen:
                self.best[i] = self.own_search(self.lams[i])
                self.live.remove(i)
                continue
            model = step.model(self.lams[i])
            if self.best[i] is None or model.pss < self.best[i].pss:
                self.best[i], self.stale[i] = model, 0
            else:
                self.stale[i] += 1
                if self.stale[i] >= self.patience:
                    self.live.remove(i)
        return bool(self.live)


def _follow(path, lams, patience: int, own_search) -> list:
    """Best model for each lambda in ``lams`` (see :class:`_StopRule`), all read off one path.

    The path is advanced only while some lambda has not stopped.
    """
    rule = _StopRule(lams, patience, own_search)
    for step in path:
        if not rule.offer(step):
            break
    return rule.best


# ---------------------------------------------------------------------------
# public operations


def _prepare_rows(xs, Y, cfg: SearchConfig, out: list):
    """Sort the data by x, check it and build the candidate grid.

    ``Y`` holds one response per row. A row with non-finite values gets
    a DataError in ``out`` and is dropped; ``rows`` indexes the rows
    kept. A fault every row shares (x itself, no finite row) raises.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    if xs.size != Y.shape[1]:
        raise DataError("xs and y must have the same length")
    finite = np.isfinite(Y).all(axis=1)
    if not (np.all(np.isfinite(xs)) and finite.any()):
        raise DataError("non-finite values in xs or y")
    for r in np.flatnonzero(~finite):
        out[r] = DataError("non-finite values in xs or y")
    rows = np.flatnonzero(finite)
    order = np.argsort(xs, kind="stable")
    xs, Y = xs[order], Y[rows][:, order]
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
    return xs, Y, rows, domain, grid, left_bar


def _prepare(xs, y, cfg: SearchConfig):
    """:func:`_prepare_rows` for a single response, which raises on every fault."""
    y = np.asarray(y, dtype=float).ravel()
    xs, Y, _, domain, grid, left_bar = _prepare_rows(xs, y[None], cfg, [None])
    return xs, Y[0], domain, grid, left_bar


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
    for step in _knot_path(_Search(xs, y[None], cfg, grid, domain, left_bar), 0, lam):
        if step.k == k:
            return step.model(lam)
    raise InfeasibleError(f"no delta-feasible placement of {k} knots")


def select(xs, y, cfg: SearchConfig) -> SplineModel:
    """Minimize the penalized criterion jointly over knot count and placement.

    Knot counts are visited in increasing order and the loop stops once
    the criterion has not improved for ``cfg.patience`` consecutive
    counts (or the count cap / grid feasibility is hit). Ties prefer
    fewer knots, then the lexicographically smallest knot vector. This
    is :func:`select_many` with one response.
    """
    model = select_many(xs, np.asarray(y, dtype=float).ravel()[:, None], cfg)[0]
    if isinstance(model, Exception):
        raise model
    return model


def select_many(xs, ys, cfg: SearchConfig) -> list:
    """:func:`select` for every column of ``ys`` (n x R), which share ``xs`` and ``cfg``.

    Entry r equals ``select(xs, ys[:, r], cfg)`` bit for bit, or is the
    ``DataError`` or ``LinAlgError`` that call raises; the other columns
    still complete. Any other exception propagates. The engines' design
    half and the exhaustive k = 1 and k = 2 scans are computed once for
    all columns; from k = 3 on each column follows its own path, with
    its own lambda, stop and refits.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 2:
        raise ValueError("ys must be an n x R array, one response per column")
    out = [None] * ys.shape[1]
    try:
        xs, Y, rows, domain, grid, left_bar = _prepare_rows(xs, ys.T, cfg, out)
    except DataError as exc:  # a fault of x: every column fails alike
        return [exc if m is None else m for m in out]
    search = _Search(xs, Y, cfg, grid, domain, left_bar)
    paths, rules = {}, {}
    for r in range(len(rows)):
        try:
            lam = _resolve_lambda(xs, Y[r], cfg)
        except (DataError, np.linalg.LinAlgError) as exc:
            out[rows[r]] = exc
            search.release(r)
            continue
        paths[r] = _knot_path(search, r, lam)
        rules[r] = _StopRule([lam], cfg.patience, None)
    # every column advances one knot count per round, so a shared scan
    # runs once, for exactly the columns that are still searching
    while paths:
        for r in list(paths):
            try:
                step = next(paths[r], None)
                if step is not None and rules[r].offer(step):
                    continue
            except (DataError, np.linalg.LinAlgError) as exc:
                out[rows[r]] = exc
                del rules[r]
            del paths[r]
            search.release(r)
    for r, rule in rules.items():
        out[rows[r]] = rule.best[0]
    return out


def select_lambdas(xs, y, cfg: SearchConfig, lams) -> list[SplineModel]:
    """:func:`select` at each fixed lambda in ``lams``, from one knot path.

    ``cfg.penalty`` is not read. Result i equals ``select(xs, y, cfg)``
    with the penalty fixed at ``lams[i]``, bit for bit: a lambda whose
    tie-break leaves the shared path gets that search of its own.
    """
    lams = [float(lam) for lam in lams]
    if not lams or not all(0 < lam < np.inf for lam in lams):
        raise ValueError("lams must be nonempty with positive finite entries")
    xs, y, domain, grid, left_bar = _prepare(xs, y, cfg)
    search = _Search(xs, y[None], cfg, grid, domain, left_bar)

    def own_search(lam: float) -> SplineModel:
        fixed = Penalty(policy=LambdaPolicy.FIXED, lam=lam)
        return select(xs, y, replace(cfg, penalty=fixed))

    return _follow(_knot_path(search, 0, lams[0]), lams, cfg.patience, own_search)
