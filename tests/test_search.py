"""Search tests, anchored by an independent brute-force oracle."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knotselect import lsq, search
from knotselect.basis import BasisFamily, BasisSpec, Domain, KnotConfig, design_matrix
from knotselect.criterion import LambdaPolicy, Penalty, pss
from knotselect.lsq import DataError
from knotselect.search import InfeasibleError, SearchConfig, best_for_k, select

TP = BasisFamily.TRUNCATED_POWER
BS = BasisFamily.BSPLINE
NC = BasisFamily.NATURAL_CUBIC


def brute_force(xs, y, cfg, lam, k_cap=2):
    """Exhaustive minimizer of the criterion over all feasible configs.

    Deliberately built only from design_matrix + lsq.solve so it shares
    nothing with the incremental machinery inside search.
    """
    xs = np.asarray(xs, float)
    y = np.asarray(y, float)
    order = np.argsort(xs)
    xs, y = xs[order], y[order]
    a, b = float(xs[0]), float(xs[-1])
    domain = Domain(a, b)
    grid = np.asarray(cfg.candidate_grid if cfg.candidate_grid is not None else np.unique(xs))
    grid = grid[(grid > a) & (grid < b)]
    left_bar = a + cfg.exclude_left_frac * (b - a)
    singles = grid[(grid - a > cfg.delta) & (b - grid > cfg.delta) & (grid >= left_bar)]

    best = None
    for k in range(0, min(k_cap, cfg.k_max) + 1):
        for combo in combinations(singles, k):
            if k >= 2 and not all(
                combo[i + 1] - combo[i] > cfg.delta for i in range(k - 1)
            ):
                continue
            kc = KnotConfig(combo, domain)
            X = design_matrix(xs, cfg.basis, kc)
            fit = lsq.solve(X, y)
            val = pss(fit.rss, k, lam)
            key = (val, k, combo)
            if best is None or key < best[0]:
                best = (key, combo, val)
    return best[1], best[2]


def random_instance(rng):
    n = int(rng.integers(15, 51))
    xs = np.sort(rng.uniform(0, 10, n))
    while np.unique(xs).size < 5:
        xs = np.sort(rng.uniform(0, 10, n))
    y = rng.normal(size=n) + np.sin(xs * rng.uniform(0.3, 2.0))
    g = int(rng.integers(8, 31))
    grid = tuple(np.linspace(0.5, 9.5, g))
    p = int(rng.integers(1, 4))
    lam = float(rng.uniform(0.05, 5.0))
    cfg = SearchConfig(
        basis=BasisSpec(TP, p),
        delta=float(rng.uniform(0.5, 2.0)),
        k_max=2,
        candidate_grid=grid,
        penalty=Penalty(policy=LambdaPolicy.FIXED, lam=lam),
    )
    return xs, y, cfg, lam


class TestOracleEquivalence:
    def test_select_matches_brute_force(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            xs, y, cfg, lam = random_instance(rng)
            model = select(xs, y, cfg)
            knots, val = brute_force(xs, y, cfg, lam)
            assert model.knots.knots == knots
            assert model.pss == val

    def test_k3_heuristic_matches_exhaustive_on_coarse_grid(self):
        rng = np.random.default_rng(7)
        xs = np.sort(rng.uniform(0, 10, 60))
        y = np.sin(1.5 * xs) + rng.normal(0, 0.2, 60)
        grid = tuple(np.linspace(0.5, 9.5, 20))
        cfg = SearchConfig(
            basis=BasisSpec(TP, 1),
            delta=0.8,
            k_max=3,
            candidate_grid=grid,
            penalty=Penalty(policy=LambdaPolicy.FIXED, lam=0.05),
        )
        model = best_for_k(xs, y, 3, cfg, lam=0.05)

        # exhaustive 3-knot oracle at desk scale
        a, b = xs[0], xs[-1]
        singles = [g for g in grid if g - a > 0.8 and b - g > 0.8]
        best = np.inf
        for combo in combinations(singles, 3):
            if not all(combo[i + 1] - combo[i] > 0.8 for i in range(2)):
                continue
            kc = KnotConfig(combo, Domain(float(a), float(b)))
            fit = lsq.solve(design_matrix(xs, cfg.basis, kc), y)
            best = min(best, fit.rss)
        assert model.rss == pytest.approx(best, rel=1e-9)


class TestBestForK:
    def test_k0_is_global_polynomial(self):
        rng = np.random.default_rng(1)
        xs = np.linspace(0, 10, 50)
        y = 1 + xs + rng.normal(0, 0.1, 50)
        cfg = SearchConfig(basis=BasisSpec(TP, 2), delta=1.0)
        model = best_for_k(xs, y, 0, cfg)
        X = np.column_stack([xs**j for j in range(3)])
        assert model.rss == pytest.approx(lsq.solve(X, y).rss, rel=1e-10)
        assert model.k == 0

    def test_noiseless_one_knot_exact(self):
        xs = np.linspace(0, 10, 100)
        y = 2.0 + xs - 3.0 * np.where(xs >= 4.0, xs - 4.0, 0.0)
        cfg = SearchConfig(
            basis=BasisSpec(TP, 1),
            delta=1.0,
            candidate_grid=tuple(np.arange(0.5, 10.0, 0.5)),
        )
        model = best_for_k(xs, y, 1, cfg)
        assert model.knots.knots == (4.0,)
        assert model.rss <= 1e-16 * float(y @ y)

    def test_infeasible_k_raises(self):
        xs = np.linspace(0, 10, 30)
        y = np.sin(xs)
        cfg = SearchConfig(basis=BasisSpec(TP, 1), delta=4.0, candidate_grid=(5.0,))
        with pytest.raises(InfeasibleError):
            best_for_k(xs, y, 2, cfg)

    def test_k_above_cap_rejected(self):
        xs = np.linspace(0, 10, 30)
        cfg = SearchConfig(basis=BasisSpec(TP, 1), delta=1.0, k_max=1)
        with pytest.raises(ValueError):
            best_for_k(xs, np.sin(xs), 2, cfg)


class TestSelect:
    def test_delta_feasibility_including_boundaries(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            xs = np.sort(rng.uniform(0, 10, 60))
            y = np.sin(2 * xs) + rng.normal(0, 0.3, 60)
            cfg = SearchConfig(basis=BasisSpec(TP, 1), delta=2.0)
            model = select(xs, y, cfg)
            pts = (xs[0],) + model.knots.knots + (xs[-1],)
            assert all(pts[i + 1] - pts[i] > 2.0 for i in range(len(pts) - 1))

    def test_monotone_rss_with_feasible_superset(self):
        # delta small enough that the optimal 1-knot config extends to 2
        xs = np.linspace(0, 10, 80)
        rng = np.random.default_rng(9)
        y = np.abs(xs - 5.0) + rng.normal(0, 0.1, 80)
        cfg = SearchConfig(
            basis=BasisSpec(TP, 1),
            delta=0.5,
            candidate_grid=tuple(np.arange(1.0, 10.0)),
        )
        lam = 1.0
        m1 = best_for_k(xs, y, 1, cfg, lam=lam)
        m2 = best_for_k(xs, y, 2, cfg, lam=lam)
        assert m2.rss <= m1.rss + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        xs = np.sort(rng.uniform(0, 10, 70))
        y = np.sin(xs) + rng.normal(0, 0.2, 70)
        cfg = SearchConfig(basis=BasisSpec(BS, 3), delta=1.5)
        a = select(xs, y, cfg)
        b = select(xs, y, cfg)
        assert a.knots.knots == b.knots.knots
        assert a.pss == b.pss
        assert a.coefficients.tolist() == b.coefficients.tolist()

    def test_pss_consistency_invariant(self):
        rng = np.random.default_rng(11)
        xs = np.sort(rng.uniform(0, 10, 60))
        y = np.cos(xs) + rng.normal(0, 0.2, 60)
        cfg = SearchConfig(basis=BasisSpec(TP, 2), delta=1.0)
        model = select(xs, y, cfg)
        expected = model.rss + model.lambda_used * (model.k + 1)
        assert model.pss == pytest.approx(expected, rel=1e-10)

    def test_degenerate_data_rejected(self):
        cfg = SearchConfig(basis=BasisSpec(TP, 1), delta=1.0)
        with pytest.raises(Exception):
            select(np.full(10, 3.0), np.arange(10.0), cfg)
        with pytest.raises(Exception):
            select(np.arange(2.0), np.arange(2.0), cfg)

    def test_natural_cubic_k0_needs_more_than_four_points(self):
        cfg = SearchConfig(basis=BasisSpec(NC), delta=0.5)
        xs = np.arange(5.0)
        with pytest.raises(DataError, match="more than 4"):
            select(xs[:4], xs[:4] ** 2, cfg)
        assert select(xs, xs**2, cfg).k == 0

    def test_natural_cubic_falls_back_below_two_knots(self):
        rng = np.random.default_rng(12)
        xs = np.linspace(0, 10, 60)
        y = 1 + 0.3 * xs + rng.normal(0, 0.05, 60)
        cfg = SearchConfig(
            basis=BasisSpec(BasisFamily.NATURAL_CUBIC),
            delta=1.0,
            penalty=Penalty(policy=LambdaPolicy.FIXED, lam=100.0),
        )
        model = select(xs, y, cfg)
        assert model.k < 2
        assert model.basis.family is TP


@st.composite
def oracle_instances(draw):
    """Small problems over every family: duplicated x, shifted and scaled
    x and y, explicit or default grids, and delta down to a sliver of
    the domain so the grid points next to the boundary are candidates.

    x stays within one domain width of zero: further out, the raw-x cubic
    design that the refit solves drops real directions at singular values
    below 1e-14, and the refit stops being an oracle."""
    family = draw(st.sampled_from([TP, BS, NC]))
    degree = 3 if family is NC else draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.sort(rng.uniform(0.0, 1.0, draw(st.integers(9, 24))))
    if draw(st.booleans()):
        u = np.sort(np.concatenate([u, rng.choice(u, draw(st.integers(1, 8)))]))
    x_scale = draw(st.sampled_from([1.0, 30.0]))
    xs = x_scale * (draw(st.sampled_from([-1.0, 0.0, 1.0])) + u)
    y = draw(st.sampled_from([1e-3, 1.0, 1e4])) * (
        np.sin(draw(st.floats(1.0, 12.0)) * u) + rng.normal(0.0, 0.3, u.size)
    ) + draw(st.sampled_from([0.0, 50.0]))
    grid = None
    if draw(st.booleans()):
        grid = tuple(np.linspace(xs[0], xs[-1], draw(st.integers(4, 30)))[1:-1])
    delta = x_scale * draw(st.sampled_from([1e-9, 1e-3, 0.05, 0.15]))
    cfg = SearchConfig(
        basis=BasisSpec(family, degree),
        delta=delta,
        k_max=4,
        candidate_grid=grid,
        penalty=Penalty(policy=LambdaPolicy.FIXED, lam=1.0),
    )
    return xs, y, cfg, rng


def refit_rss(xs, y, spec, kc):
    """RSS of the canonical refit, or None where it is no oracle.

    Natural cubic below two knots is read as cubic truncated power. A
    design with a singular value between 1e-14 and 1e-8 of the largest
    pins its RSS to no better than about 1e-8 in any solver, and
    lsq.RANK_RTOL may cut a real direction from it, so it is no oracle.
    Exactly rank-deficient designs (below 1e-14) stay.
    """
    if spec.family is NC and kc.k < 2:
        spec = BasisSpec(TP, 3)
    X = design_matrix(xs, spec, kc)
    s = np.linalg.svd(X, compute_uv=False)
    if np.any((s > 1e-14 * s[0]) & (s < 1e-8 * s[0])):
        return None
    return lsq.solve(X, y).rss


class TestOracleProperty:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(oracle_instances())
    def test_best_for_k_matches_exhaustive_and_engine_matches_refit(self, inst):
        xs, y, cfg, rng = inst
        xs_s, y_s, domain, grid, left_bar = search._prepare(xs, y, cfg)
        ok = np.flatnonzero(search._feasible_mask(grid, domain, cfg.delta, left_bar))

        def refit(idx):
            return refit_rss(xs_s, y_s, cfg.basis, KnotConfig(tuple(grid[list(idx)]), domain))

        for k in (1, 2):
            combos = [
                c for c in combinations(ok, k)
                if all(grid[c[i + 1]] - grid[c[i]] > cfg.delta for i in range(k - 1))
            ]
            if not combos:
                with pytest.raises(InfeasibleError):
                    best_for_k(xs, y, k, cfg, lam=1.0)
                continue
            rss = [refit(c) for c in combos]
            assume(None not in rss)
            best = min((pss(r, k, 1.0), c) for r, c in zip(rss, combos))
            model = best_for_k(xs, y, k, cfg, lam=1.0)
            assert model.pss == best[0]
            assert model.knots.knots == tuple(grid[list(best[1])])

        # the engine's RSS for random feasible subsets agrees with a refit
        one = search._Search(xs_s, y_s[None], cfg, grid, domain, left_bar)
        engine_for = lambda k: one.engine(k).rows(0)
        for _ in range(6):
            k = int(rng.integers(1, 5))
            if ok.size < k:
                break
            idx = sorted(rng.choice(ok, k, replace=False))
            if any(grid[idx[i + 1]] - grid[idx[i]] <= cfg.delta for i in range(k - 1)):
                continue
            expected = refit(idx)
            if expected is None:
                continue
            engine = engine_for(k)
            assert abs(engine.extend(idx[:-1])[idx[-1]] - expected) <= 1e-8 * engine.rss0

    def test_candidates_crowding_the_left_boundary(self):
        # several candidates share each data gap near x = 0, so many knot
        # sets span the same space or nearly so
        rng = np.random.default_rng(2)
        xs = 30.0 * np.concatenate([[0.0, 0.1, 0.2], np.sort(rng.uniform(0.3, 1.0, 12))])
        y = 1e4 * (np.sin(xs / 6.0) + rng.normal(0.0, 0.3, xs.size))
        grid = np.linspace(0.6, 29.4, 25)
        cfg = SearchConfig(
            basis=BasisSpec(BS, 3),
            delta=0.03,
            k_max=4,
            candidate_grid=tuple(grid),
            penalty=Penalty(policy=LambdaPolicy.FIXED, lam=1.0),
        )
        _, val = brute_force(xs, y, cfg, 1.0)
        assert select(xs, y, cfg).pss <= val
        domain = Domain(xs[0], xs[-1])
        engine = search._Search(xs, y[None], cfg, grid, domain, domain.a).engine(4).rows(0)
        checked = 0
        for idx in combinations(range(12), 4):
            expected = refit_rss(xs, y, cfg.basis, KnotConfig(tuple(grid[list(idx)]), domain))
            if expected is not None:
                assert abs(engine.extend(idx[:-1])[idx[-1]] - expected) <= 1e-8 * engine.rss0
                checked += 1
        assert checked > 400
