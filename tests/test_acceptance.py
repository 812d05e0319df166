"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with its headline numbers (visible
under ``pytest -s`` or in the captured output); the assertions encode
the same bounds.
"""

from datetime import date, timedelta
from itertools import combinations

import numpy as np
import pytest

from knotselect import lsq
from knotselect.basis import (
    BasisFamily,
    BasisSpec,
    Domain,
    KnotConfig,
    design_matrix,
)
from knotselect.cli import main as cli_main
from knotselect.criterion import LambdaPolicy, Penalty, pss
from knotselect.search import SearchConfig, select
from knotselect.sim import SimScenario, TRUTHS, run as sim_run
from knotselect.timeseries import DailySeries, FitOptions, Scale, fit_series

TP = BasisFamily.TRUNCATED_POWER
BS = BasisFamily.BSPLINE


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS — {text}")


def test_01_basis_partition_of_unity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(0, 6))
        knots = ()
        if k:
            knots = np.sort(rng.uniform(0.5, 9.5, k))
            while k > 1 and np.any(np.diff(knots) < 1e-3):
                knots = np.sort(rng.uniform(0.5, 9.5, k))
        config = KnotConfig(tuple(knots), Domain(0.0, 10.0))
        spec = BasisSpec(BS, 3)
        xs = rng.uniform(0.0, 10.0, 1000)
        X = design_matrix(xs, spec, config)
        worst = max(worst, float(np.max(np.abs(X.sum(axis=1) - 1.0))))
        assert np.all(X >= 0.0)  # nonnegativity exact
        # compact support exact: zero outside [t_i, t_{i+m}]
        t = np.r_[[0.0] * 4, config.knots, [10.0] * 4]
        for i in range(X.shape[1]):
            outside = (xs < t[i]) | (xs > t[i + 4])
            assert np.all(X[outside, i] == 0.0)
    assert worst <= 1e-12
    report(1, f"100 configs x 1000 points, max |sum-1| = {worst:.2e}")


def test_02_span_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(1, 4))
        k = int(rng.integers(0, 5))
        knots = np.sort(rng.uniform(1.0, 9.0, k))
        while k > 1 and np.any(np.diff(knots) < 0.4):
            knots = np.sort(rng.uniform(1.0, 9.0, k))
        config = KnotConfig(tuple(knots), Domain(0.0, 10.0))
        xs = np.sort(rng.uniform(0.0, 10.0, 80))
        y = rng.normal(size=80)
        f_tp = lsq.solve(design_matrix(xs, BasisSpec(TP, p), config), y).fitted
        f_bs = lsq.solve(design_matrix(xs, BasisSpec(BS, p), config), y).fitted
        scale = max(1.0, float(np.abs(f_tp).max()))
        worst = max(worst, float(np.abs(f_tp - f_bs).max()) / scale)
    assert worst <= 1e-8
    report(2, f"50 settings, max relative gap = {worst:.2e}")


def _brute_force(xs, y, cfg, lam):
    a, b = float(xs[0]), float(xs[-1])
    domain = Domain(a, b)
    grid = np.asarray(cfg.candidate_grid)
    grid = grid[(grid > a) & (grid < b)]
    singles = grid[(grid - a > cfg.delta) & (b - grid > cfg.delta)]
    best = None
    for k in range(0, 3):
        for combo in combinations(singles, k):
            if k == 2 and combo[1] - combo[0] <= cfg.delta:
                continue
            fit = lsq.solve(
                design_matrix(xs, cfg.basis, KnotConfig(combo, domain)), y
            )
            key = (pss(fit.rss, k, lam), k, combo)
            if best is None or key < best:
                best = key
    return best[2], best[0]


def test_03_oracle_equivalence():
    rng = np.random.default_rng(303)
    for _ in range(200):
        n = int(rng.integers(15, 51))
        xs = np.sort(rng.uniform(0.0, 10.0, n))
        y = rng.normal(size=n) + np.sin(xs * rng.uniform(0.3, 2.0))
        grid = tuple(np.linspace(0.5, 9.5, int(rng.integers(8, 31))))
        lam = float(rng.uniform(0.05, 5.0))
        cfg = SearchConfig(
            basis=BasisSpec(TP, int(rng.integers(1, 4))),
            delta=float(rng.uniform(0.5, 2.0)),
            k_max=2,
            candidate_grid=grid,
            penalty=Penalty(policy=LambdaPolicy.FIXED, lam=lam),
        )
        model = select(xs, y, cfg)
        knots, val = _brute_force(xs, y, cfg, lam)
        assert model.pss == val
        assert model.knots.knots == tuple(knots)
    report(3, "200/200 instances match the exhaustive minimizer exactly")


def test_04_noiseless_recovery():
    rng = np.random.default_rng(404)
    for _ in range(50):
        n = int(rng.integers(60, 201))
        xs = np.linspace(0.0, 10.0, n)
        grid = tuple(np.arange(0.5, 10.0, 0.5))
        k = int(rng.integers(1, 3))  # exact-enumeration regime
        while True:
            kn = np.sort(rng.choice(np.arange(1.5, 9.0, 0.5), size=k, replace=False))
            if k == 1 or np.all(np.diff(kn) > 1.2):
                break
        p = int(rng.integers(1, 4))
        spec = BasisSpec(TP, p)
        coef = rng.uniform(0.5, 2.0, p + 1 + k) * rng.choice([-1, 1], p + 1 + k)
        y = design_matrix(xs, spec, KnotConfig(tuple(kn), Domain(0.0, 10.0))) @ coef
        floor = 1e-8 * float(np.var(y)) + 1e-12
        cfg = SearchConfig(
            basis=spec,
            delta=1.2,
            k_max=5,
            candidate_grid=grid,
            penalty=Penalty(policy=LambdaPolicy.FIXED, lam=floor),
        )
        model = select(xs, y, cfg)
        assert model.k == k
        assert model.knots.knots == tuple(kn)
    report(4, "50/50 noiseless instances recovered K and knots exactly")


def _scenario(truth, snr, n, reps, seed):
    return SimScenario(
        truth_knots=TRUTHS[truth], snr=snr, n=n, replications=reps, seed=seed,
        name=f"{truth}-snr{snr:g}-n{n}",
    )


def test_05_one_knot_large_sample():
    sd_caps = {3.0: 2.5, 6.0: 1.3, 9.0: 1.0}
    lines = []
    for snr, cap in sd_caps.items():
        rep = sim_run(_scenario("one-knot", snr, 1000, 200, seed=505))
        assert rep.prop_correct_k >= 0.98
        st = rep.knot_stats[0]
        assert abs(st.mean - 50.0) <= 1.0
        assert st.sd <= cap
        lines.append(f"SNR{snr:g}: prop={rep.prop_correct_k:.3f} mean={st.mean:.2f} sd={st.sd:.2f}")
    report(5, "; ".join(lines))


def test_06_three_knots_small_sample():
    rep = sim_run(_scenario("three-knots", 3.0, 100, 200, seed=606))
    assert rep.prop_correct_k >= 0.90
    means = [st.mean for st in rep.knot_stats]
    for m, truth in zip(means, (25.0, 50.0, 75.0)):
        assert abs(m - truth) <= 1.5
    report(
        6,
        f"prop={rep.prop_correct_k:.3f} means=" + ", ".join(f"{m:.2f}" for m in means),
    )


def test_07_monotone_in_snr():
    cells = {}
    for truth in TRUTHS:
        for n in (100, 1000):
            for snr in (3.0, 6.0, 9.0):
                rep = sim_run(_scenario(truth, snr, n, 100, seed=707))
                cells[(truth, n, snr)] = rep.prop_correct_k
    for truth in TRUTHS:
        for n in (100, 1000):
            props = [cells[(truth, n, s)] for s in (3.0, 6.0, 9.0)]
            assert props[0] <= props[1] <= props[2], (truth, n, props)
    report(7, "prop_correct_k non-decreasing in SNR for all 6 (truth, n) pairs")


def test_08_demo_truth_recovered():
    scenario = SimScenario(
        truth_knots=(20.0, 45.0, 80.0), snr=3.0, n=200, replications=100, seed=808,
        name="demo",
    )
    rep = sim_run(scenario)
    close = sum(
        1
        for sample in rep.knot_samples
        if all(abs(e - t) <= 4.0 for e, t in zip(sample, (20.0, 45.0, 80.0)))
    )
    assert close >= 85
    report(8, f"{close}/100 runs gave K=3 with every knot within ±4")


def test_09_timeseries_pipeline():
    start = date(2020, 3, 1)

    def counts_for(seed, n=150, base=30.0, changes=(50, 100), slopes=(0.08, 0.01, -0.05)):
        rng = np.random.default_rng(seed)
        log_rate = np.empty(n)
        level = np.log(base)
        bounds = (0,) + tuple(changes) + (n,)
        for (lo, hi), s in zip(zip(bounds, bounds[1:]), slopes):
            for t in range(lo, hi):
                log_rate[t] = level
                level += s
        return rng.poisson(np.exp(log_rate)).astype(float)

    hits = exclusion_ok = continuity_ok = 0
    for seed in range(100):
        counts = counts_for(seed)
        days = tuple(start + timedelta(days=i) for i in range(len(counts)))
        series = DailySeries(dates=days, counts=tuple(counts))
        fit = fit_series(series, FitOptions(scale=Scale.LOG))
        kd = [(d - start).days for d in fit.knot_dates]
        if fit.model.k == 2 and abs(kd[0] - 50) <= 3 and abs(kd[1] - 100) <= 3:
            hits += 1
        if all(t >= 0.10 * (len(counts) - 1) for t in fit.model.knots.knots):
            exclusion_ok += 1
        if abs(fit.forecast[0].point - fit.fitted_values()[-1]) <= 1e-10:
            continuity_ok += 1
    assert hits >= 90
    assert exclusion_ok == 100
    assert continuity_ok == 100
    report(9, f"hits={hits}/100, exclusion={exclusion_ok}/100, continuity={continuity_ok}/100")


def test_10_cli_determinism(capsys):
    args = ["simulate", "--scenario", "one-knot-snr9-n100", "--replications", "5", "--seed", "10"]

    def run(extra=()):
        assert cli_main(args + list(extra)) == 0
        return capsys.readouterr().out

    first = run()
    assert run() == first

    assert cli_main(["demo", "--seed", "3"]) == 0
    demo1 = capsys.readouterr().out
    assert cli_main(["demo", "--seed", "3"]) == 0
    assert capsys.readouterr().out == demo1
    report(10, "byte-identical JSON across repeats")
