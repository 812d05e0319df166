"""The workloads: seeded inputs, one operation ("op"), and its output checks.

Each workload builds a pool of inputs from the seed during set-up and
cycles through it in a fixed order. The pool is laid out in passes of
``pass_len`` items with fixed sizes, so a run that covers whole passes
sees the same mix of input sizes whatever the seed; the seed only moves
knots, slopes and noise. Warm-up items (outside the pool, smaller, same
code paths) run before timing. Truth knot counts are known for every
input, so ``prop_correct_k`` is measured on all workloads.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

import checks


def _tp_truth(z, knots, degree, target):
    """Least-squares projection of ``target`` onto the degree-p truncated-power spline with ``knots``."""
    X = np.column_stack(
        [checks.poly_columns(z, False, degree), checks.knot_columns(z, knots, False, degree)]
    )
    return X @ np.linalg.lstsq(X, target, rcond=None)[0]


@dataclass
class Outcome:
    problems: list[str]
    k_hits: list[bool]  # one per op: selected k equals the truth


class Workload:
    name = ""
    pass_len = 1
    min_ops = 20  # a run covers at least this many ops, so its tail percentile has ten beyond it
    pool_passes = 40
    warm_count = 1
    repeat_check = False  # repeat the first op and require identical output

    def __init__(self, seed: int, tiny: bool = False, workdir: str | None = None):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.pool = [self.make(i) for i in range(self.pass_len * self.pool_passes)]
        self.warm = [self.make(len(self.pool) + j, warm=True) for j in range(self.warm_count)]

    def warm_up(self) -> None:
        for item in self.warm:
            self.op(item)

    def rng(self, i):
        return np.random.default_rng([self.seed, i])

    def item(self, i):
        return self.pool[i % len(self.pool)]

    def ops_in(self, item) -> int:
        return 1

    def make(self, i, warm=False):
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def check(self, item, out, calls) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


def _check_selects(calls, truth_k) -> Outcome:
    problems, hits = [], []
    for xs, y, cfg, model in calls:
        problems += checks.check_model(xs, y, cfg, model)
        hits.append(model.k == truth_k)
    return Outcome(problems, hits)


# ---------------------------------------------------------------------------
# mc: Monte Carlo replications through sim.run


class MonteCarlo(Workload):
    """``sim.run`` over a fixed mix of built-in scenarios; an op is one replication.

    Each call runs a block of ``block`` replications of one scenario (the
    scenarios rotate), so per-op time is call time / block.
    """

    name = "mc"
    pass_len = 3
    pool_passes = 200
    warm_count = 3  # one replication of each scenario

    def __init__(self, seed, tiny=False, workdir=None):
        self.mix = (
            ("three-knots-snr3-n40", "one-knot-snr3-n60", "two-knots-snr6-n60")
            if tiny
            else ("three-knots-snr3-n100", "one-knot-snr3-n1000", "two-knots-snr6-n1000")
        )
        self.block = 1 if tiny else 4
        self.min_ops = 3 if tiny else 120
        super().__init__(seed, tiny, workdir)

    def make(self, i, warm=False):
        from knotselect import sim

        scenario_seed = int(self.rng(i).integers(0, 2**31))
        return sim.builtin_scenario(self.mix[i % 3], replications=1 if warm else self.block, seed=scenario_seed)

    def ops_in(self, item) -> int:
        return item.replications

    def op(self, item):
        from knotselect import sim

        return sim.run(item)

    def check(self, item, report, calls) -> Outcome:
        truth_k = len(item.truth_knots)
        if len(calls) != item.replications:
            calls = self._recompute(item)
        out = _check_selects(calls, truth_k)
        if report.n_total != item.replications or report.failures:
            out.problems.append(f"{report.failures} of {report.n_total} replications failed")
        counts: dict[int, int] = {}
        for c in calls:
            counts[c[3].k] = counts.get(c[3].k, 0) + 1
        if report.khat_counts != counts:
            out.problems.append(f"khat_counts {report.khat_counts} != selections {counts}")
        samples = [list(c[3].knots.knots) for c in calls if c[3].k == truth_k]
        if report.knot_samples != samples:
            out.problems.append("knot_samples differ from the selected knots")
        return out

    @staticmethod
    def _recompute(sc):
        """Selections by the documented simulation config, for when no select call was seen."""
        from knotselect import BasisFamily, BasisSpec, Penalty, SearchConfig, select, sim

        cfg = SearchConfig(
            basis=BasisSpec(BasisFamily.BSPLINE, degree=3),
            delta=sc.delta,
            k_max=sc.k_max,
            candidate_grid=sc.candidate_grid(),
            penalty=Penalty(),
        )
        calls = []
        for rep in range(sc.replications):
            xs, y = sim.generate(sc, rep)
            calls.append((xs, y, cfg, select(xs, y, cfg)))
        return calls


# ---------------------------------------------------------------------------
# select: library searches, a dense default-grid one alternating with a cross-validated one


def _dense_item(rng, n):
    """Scattered all-unique x on [0, 100], two kinks, unit noise; degree-1 truncated power, default grid."""
    from knotselect import BasisFamily, BasisSpec, SearchConfig

    xs = np.unique(rng.uniform(0.0, 100.0, n))
    while xs.size < n:  # all-unique x, so the default grid has G ~ n
        xs = np.unique(np.concatenate([xs, rng.uniform(0.0, 100.0, n - xs.size)]))
    rng.shuffle(xs)
    # kinks sit on data points, so the truth lies on the default candidate grid
    t1, t2 = (xs[np.argmin(np.abs(xs - t))] for t in (rng.uniform(25.0, 40.0), rng.uniform(60.0, 75.0)))
    d1, d2 = rng.choice([-1.0, 1.0], 2) * rng.uniform(1.0, 2.0, 2)
    f = rng.uniform(-1.0, 1.0) * xs + d1 * np.maximum(xs - t1, 0) + d2 * np.maximum(xs - t2, 0)
    y = f + rng.normal(0.0, 1.0, n)
    return xs, y, SearchConfig(basis=BasisSpec(BasisFamily.TRUNCATED_POWER, degree=1), delta=5.0)


def _cv_item(rng, n, grid_step, folds):
    """Two-knot cubic truth (knots near 25 and 75) at signal-to-noise 40 on n equispaced points;
    cubic B-spline, integer grid, delta 15, lambda by cross-validation."""
    from knotselect import BasisFamily, BasisSpec, LambdaPolicy, Penalty, SearchConfig

    xs = np.linspace(0.0, 100.0, n)
    t = np.array([25.0, 75.0]) + rng.uniform(-3.0, 3.0, 2)
    target = np.interp(xs, [0.0, t[0], 50.0, t[1], 100.0], [0.0, 1.0, 0.0, -1.0, 0.0])
    f = _tp_truth(xs / 100.0, t / 100.0, 3, target)
    f *= 10.0 / np.max(np.abs(f))
    y = f + rng.normal(0.0, np.std(f) / 40.0, n)
    cfg = SearchConfig(
        basis=BasisSpec(BasisFamily.BSPLINE, degree=3),
        delta=15.0,
        candidate_grid=tuple(np.arange(grid_step, 100.0, grid_step)),
        penalty=Penalty(policy=LambdaPolicy.CROSS_VALIDATION, cv_folds=folds),
    )
    return xs, y, cfg


class Select(Workload):
    """Library ``select`` calls; a pass alternates the two kinds of search.

    * dense: scattered data with the default grid (G ~ n), n = 300, 350, 400;
    * cv: ``LambdaPolicy.CROSS_VALIDATION`` (5 lambdas x 5 folds, 26
      searches) at n = 200 on the simulation grid (G = 99).
    """

    name = "select"
    pass_len = 6
    warm_count = 2

    def __init__(self, seed, tiny=False, workdir=None):
        self.sizes = (40, 50, 60) if tiny else (300, 350, 400)
        self.cv_n, self.folds = (60, 3) if tiny else (200, 5)
        if tiny:
            self.min_ops = 6
        super().__init__(seed, tiny, workdir)

    def make(self, i, warm=False):
        rng = self.rng(i)
        slot = i % self.pass_len
        if slot % 2:
            return _cv_item(rng, self.cv_n, 5.0 if warm else 1.0, self.folds)
        return _dense_item(rng, 100 if warm else self.sizes[slot // 2])

    def op(self, item):
        from knotselect import select

        return select(*item)

    def check(self, item, model, calls) -> Outcome:
        out = _check_selects(calls, 2)
        if len(calls) != 1 or calls[0][3] is not model:
            out.problems.append("op result is not the selected model")
        return out


# ---------------------------------------------------------------------------
# epi-linear: the predict CLI on daily-count CSVs


@dataclass(frozen=True)
class Curve:
    path: str
    label: str
    start: date
    counts: tuple[float, ...]


class EpiLinear(Workload):
    """``cli.main(["predict", csv, "--scale", "linear", ...])`` in-process on synthetic epidemic curves.

    Mean daily counts are a cubic with one knot (growth, then decline
    after an intervention day) plus Poisson noise; each curve is its own
    CSV in the ECDC layout, newest day first.
    """

    name = "epi-linear"
    pass_len = 4
    pool_passes = 30
    repeat_check = True  # the CLI promises byte-identical output for identical input
    _WINDOW = 7  # CLI default moving-average window
    _HORIZON = 7  # CLI default forecast horizon

    def __init__(self, seed, tiny=False, workdir=None):
        self.sizes = (40, 45, 50, 55) if tiny else (90, 100, 110, 120)
        if tiny:
            self.min_ops = 4
        os.makedirs(workdir, exist_ok=True)
        super().__init__(seed, tiny, workdir)

    def make(self, i, warm=False):
        rng = self.rng(i)
        days = 60 if warm else self.sizes[i % self.pass_len]
        z = np.arange(days) / (days - 1.0)
        t = rng.uniform(0.45, 0.6)
        target = np.interp(z, [0.0, t, 1.0], [0.05, 1.0, rng.uniform(0.2, 0.5)])
        mean = 20.0 + rng.uniform(500.0, 2000.0) * np.maximum(_tp_truth(z, [t], 3, target), 0.0)
        counts = rng.poisson(mean).astype(float)
        start = date(2020, 2, 1) + timedelta(days=int(rng.integers(0, 60)))
        label = f"Region_{i}"
        path = os.path.join(self.workdir, f"curve-{i}.csv")
        with open(path, "w") as fh:
            fh.write("dateRep,cases,countriesAndTerritories\n")
            for d in reversed(range(days)):
                day = start + timedelta(days=d)
                fh.write(f"{day.strftime('%d/%m/%Y')},{int(counts[d])},{label}\n")
        return Curve(path, label, start, tuple(counts))

    def op(self, item):
        from knotselect import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(["predict", item.path, "--scale", "linear", "--country", item.label])
        return rc, out.getvalue()

    def check(self, item, result, calls) -> Outcome:
        rc, text = result
        out = _check_selects(calls, 1)
        if rc != 0:
            out.problems.append(f"predict exited {rc}")
            return out
        if len(calls) != 1:
            out.problems.append(f"expected one select call, saw {len(calls)}")
            return out
        payload = json.loads(text)
        xs, target, _cfg, model = calls[0]
        counts = np.asarray(item.counts)
        csum = np.concatenate([[0.0], np.cumsum(counts)])
        lo = np.maximum(np.arange(counts.size) - self._WINDOW + 1, 0)
        smoothed = (csum[1:] - csum[lo]) / (np.arange(counts.size) + 1 - lo)
        if not np.allclose(target, smoothed, rtol=1e-12, atol=1e-9):
            out.problems.append("fitted target is not the trailing moving average of the counts")
        lam = 3.0 * self._WINDOW * checks.auto_lambda(xs, smoothed)
        if abs(model.lambda_used - lam) > checks.LAMBDA_RTOL * lam:
            out.problems.append(f"lambda {model.lambda_used} != 3 * window * auto lambda {lam}")
        if payload["effective_config"]["lambda_used"] != model.lambda_used:
            out.problems.append("payload lambda differs from the model's")
        lag = (self._WINDOW - 1) // 2
        dates = [
            (item.start + timedelta(days=max(int(round(t)) - lag, 0))).isoformat()
            for t in model.knots.knots
        ]
        if payload["knots"] != dates:
            out.problems.append(f"payload knots {payload['knots']} != model knots as dates {dates}")
        last = item.start + timedelta(days=len(counts) - 1)
        fc = payload["forecast"]
        want = [(last + timedelta(days=s)).isoformat() for s in range(self._HORIZON + 1)]
        if [p["date"] for p in fc] != want:
            out.problems.append("forecast dates are not the last day plus the horizon")
        if not all(np.isfinite([p["lower"], p["point"], p["upper"]]).all() for p in fc) or not all(
            p["lower"] <= p["point"] <= p["upper"] for p in fc
        ):
            out.problems.append("forecast band is not finite and ordered")
        return out

    def close(self) -> None:
        for i in range(len(self.pool) + self.warm_count):
            path = os.path.join(self.workdir, f"curve-{i}.csv")
            if os.path.exists(path):
                os.remove(path)
        os.rmdir(self.workdir)


WORKLOADS = {w.name: w for w in (MonteCarlo, EpiLinear, Select)}
