import io
from datetime import date, timedelta
from itertools import combinations

import numpy as np
import pytest

from knotselect import lsq
from knotselect.basis import BasisFamily, BasisSpec, Domain, KnotConfig, design_matrix
from knotselect.criterion import LambdaPolicy, Penalty
from knotselect.lsq import DataError
from knotselect.timeseries import (
    DailySeries,
    FitOptions,
    Scale,
    fit_series,
    forecast,
    ingest_csv,
    moving_average,
)

START = date(2020, 3, 1)


def make_series(counts, label="X", start=START):
    days = tuple(start + timedelta(days=i) for i in range(len(counts)))
    return DailySeries(dates=days, counts=tuple(float(c) for c in counts), label=label)


def piecewise_linear_counts(n=150, base=30.0, changes=(50, 100), slopes=(0.08, 0.01, -0.05), seed=0):
    """Piecewise-exponential daily counts with Poisson noise."""
    rng = np.random.default_rng(seed)
    log_rate = np.empty(n)
    level = np.log(base)
    bounds = (0,) + tuple(changes) + (n,)
    for (lo, hi), s in zip(zip(bounds, bounds[1:]), slopes):
        for t in range(lo, hi):
            log_rate[t] = level
            level += s
    return rng.poisson(np.exp(log_rate)).astype(float)


class TestDailySeries:
    def test_validates_consecutive(self):
        days = (START, START + timedelta(days=2))
        with pytest.raises(DataError):
            DailySeries(dates=days, counts=(1.0, 2.0))

    def test_rejects_negative(self):
        with pytest.raises(DataError):
            make_series([1, -2, 3])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            DailySeries(dates=(), counts=())

    def test_length(self):
        assert len(make_series([1, 2, 3])) == 3


class TestMovingAverage:
    def test_window_one_is_identity(self):
        s = make_series([3, 1, 4, 1, 5])
        assert moving_average(s, 1).tolist() == [3, 1, 4, 1, 5]

    def test_trailing_mean(self):
        s = make_series([0, 7, 14])
        out = moving_average(s, 7)
        # prefix days average whatever exists so far
        assert out.tolist() == [0.0, 3.5, 7.0]

    def test_never_uses_future(self):
        s1 = make_series([5, 5, 5, 5, 100])
        s2 = make_series([5, 5, 5, 5, 0])
        a, b = moving_average(s1, 3), moving_average(s2, 3)
        assert a[:4].tolist() == b[:4].tolist()

    def test_constant_series_fixed_point(self):
        s = make_series([4] * 20)
        assert np.allclose(moving_average(s, 7), 4.0)

    def test_window_validation(self):
        s = make_series([1, 2, 3])
        with pytest.raises(ValueError):
            moving_average(s, 0)

    def test_window_longer_than_series_is_running_mean(self):
        s = make_series([2, 4, 6])
        assert moving_average(s, 10).tolist() == [2.0, 3.0, 4.0]


CSV_HEADER = "dateRep,cases,countriesAndTerritories\n"


class TestIngest:
    def test_basic_rows(self):
        text = CSV_HEADER + (
            "01/03/2020,5,Aland\n02/03/2020,7,Aland\n03/03/2020,6,Aland\n"
        )
        res = ingest_csv(io.StringIO(text))
        s = res.by_label("Aland")
        assert s.counts == (5.0, 7.0, 6.0)
        assert s.dates[0] == date(2020, 3, 1)
        assert res.row_errors == []

    def test_out_of_order_and_duplicates(self):
        text = CSV_HEADER + (
            "03/03/2020,6,A\n01/03/2020,5,A\n02/03/2020,3,A\n02/03/2020,4,A\n"
        )
        s = ingest_csv(io.StringIO(text)).by_label("A")
        assert s.counts == (5.0, 7.0, 6.0)  # duplicates summed

    def test_gap_filled_and_flagged(self):
        text = CSV_HEADER + "01/03/2020,5,A\n04/03/2020,8,A\n"
        s = ingest_csv(io.StringIO(text)).by_label("A")
        assert s.counts == (5.0, 0.0, 0.0, 8.0)
        assert s.fill_flags == (date(2020, 3, 2), date(2020, 3, 3))

    def test_bad_rows_collected_with_line_numbers(self):
        text = CSV_HEADER + (
            "01/03/2020,5,A\nnot-a-date,5,A\n03/03/2020,-1,A\n03/03/2020,6,A\n"
        )
        res = ingest_csv(io.StringIO(text))
        assert len(res.row_errors) == 2
        assert res.row_errors[0].startswith("line 3:")
        assert res.row_errors[1].startswith("line 4:")

    def test_infinite_count_is_a_row_error(self):
        text = CSV_HEADER + "01/03/2020,5,A\n02/03/2020,inf,A\n03/03/2020,6,A\n"
        res = ingest_csv(io.StringIO(text))
        assert len(res.row_errors) == 1
        assert res.row_errors[0].startswith("line 3:")
        assert res.by_label("A").counts == (5.0, 0.0, 6.0)

    def test_missing_column_raises(self):
        with pytest.raises(DataError, match="cases"):
            ingest_csv(io.StringIO("dateRep,countriesAndTerritories\n01/03/2020,A\n"))

    def test_multiple_groups_sorted(self):
        text = CSV_HEADER + "01/03/2020,1,B\n01/03/2020,2,A\n"
        res = ingest_csv(io.StringIO(text))
        assert [s.label for s in res] == ["A", "B"]


class TestFitSeries:
    def test_too_short_raises(self):
        with pytest.raises(DataError, match="too short"):
            fit_series(make_series([5] * 20))

    def test_left_exclusion_honored(self):
        counts = piecewise_linear_counts(seed=1)
        fit = fit_series(make_series(counts), FitOptions(scale=Scale.LOG))
        n = len(counts)
        for t in fit.model.knots.knots:
            assert t >= 0.10 * (n - 1)

    def test_knot_dates_compensate_smoothing_lag(self):
        counts = piecewise_linear_counts(seed=2)
        opts = FitOptions(scale=Scale.LOG)
        fit = fit_series(make_series(counts), opts)
        lag = (opts.window - 1) // 2
        for t, d in zip(fit.model.knots.knots, fit.knot_dates):
            assert d == START + timedelta(days=int(round(t)) - lag)

    def test_raw_counts_untouched(self):
        counts = piecewise_linear_counts(seed=3)
        s = make_series(counts)
        before = s.counts
        fit_series(s, FitOptions(scale=Scale.LOG))
        assert s.counts == before

    def test_one_slope_change_recovered(self):
        # single change at day 60: growth then decay, log-linear segments
        counts = piecewise_linear_counts(
            n=120, base=50.0, changes=(60,), slopes=(0.06, -0.04), seed=0
        )
        fit = fit_series(make_series(counts), FitOptions(scale=Scale.LOG))
        assert fit.model.k == 1
        change_day = (fit.knot_dates[0] - START).days
        assert abs(change_day - 60) <= 2

    def test_brute_force_agrees_on_one_change(self):
        counts = piecewise_linear_counts(
            n=120, base=50.0, changes=(60,), slopes=(0.06, -0.04), seed=4
        )
        opts = FitOptions(scale=Scale.LOG)
        fit = fit_series(make_series(counts), opts)
        lam = fit.model.lambda_used

        # independent exhaustive scan for K in {0, 1, 2}
        target = np.log1p(moving_average(make_series(counts), opts.window))
        xs = np.arange(120.0)
        dom = Domain(0.0, 119.0)
        spec = BasisSpec(BasisFamily.TRUNCATED_POWER, degree=1)
        singles = [
            g
            for g in range(1, 119)
            if g > opts.delta and 119 - g > opts.delta and g >= 0.10 * 119
        ]
        best = (np.inf, None)
        for k in (0, 1, 2):
            for combo in combinations(singles, k):
                if k == 2 and combo[1] - combo[0] <= opts.delta:
                    continue
                kc = KnotConfig(tuple(float(c) for c in combo), dom)
                f = lsq.solve(design_matrix(xs, spec, kc), target)
                val = f.rss + lam * (k + 1)
                if val < best[0]:
                    best = (val, combo)
        assert fit.model.pss == pytest.approx(best[0], rel=1e-12)
        assert fit.model.knots.knots == tuple(float(c) for c in best[1])

    def test_linear_scale_uses_natural_cubic(self):
        counts = piecewise_linear_counts(seed=5)
        fit = fit_series(make_series(counts), FitOptions(scale=Scale.LINEAR))
        assert fit.scale is Scale.LINEAR
        assert np.all(np.isfinite(fit.fitted_values()))

    def test_fixed_penalty_not_inflated(self):
        counts = piecewise_linear_counts(seed=6)
        opts = FitOptions(
            scale=Scale.LOG, penalty=Penalty(policy=LambdaPolicy.FIXED, lam=2.5)
        )
        fit = fit_series(make_series(counts), opts)
        assert fit.model.lambda_used == 2.5


class TestForecast:
    def opts(self, **kw):
        return FitOptions(scale=Scale.LOG, **kw)

    def test_anchor_and_length(self):
        counts = piecewise_linear_counts(seed=7)
        fit = fit_series(make_series(counts), self.opts(horizon=5))
        assert len(fit.forecast) == 6
        anchor = fit.forecast[0]
        assert anchor.day == fit.series.dates[-1]
        assert not anchor.extrapolated
        assert all(p.extrapolated for p in fit.forecast[1:])

    def test_continuous_at_last_day(self):
        counts = piecewise_linear_counts(seed=8)
        fit = fit_series(make_series(counts), self.opts())
        assert fit.forecast[0].point == pytest.approx(
            fit.fitted_values()[-1], abs=1e-10
        )

    def test_dates_advance_daily(self):
        counts = piecewise_linear_counts(seed=9)
        fit = fit_series(make_series(counts), self.opts(horizon=4))
        days = [p.day for p in fit.forecast]
        assert all((b - a).days == 1 for a, b in zip(days, days[1:]))

    def test_half_widths_non_decreasing(self):
        counts = piecewise_linear_counts(seed=10)
        fit = fit_series(make_series(counts), self.opts(horizon=10))
        # measure width on the model scale where the interval is symmetric
        widths = [
            np.log1p(max(p.upper, 0.0)) - np.log1p(max(p.lower, -0.999))
            for p in fit.forecast
        ]
        assert all(b >= a - 1e-12 for a, b in zip(widths, widths[1:]))

    def test_bounds_bracket_point(self):
        counts = piecewise_linear_counts(seed=11)
        fit = fit_series(make_series(counts), self.opts())
        for p in fit.forecast:
            assert p.lower <= p.point <= p.upper

    def test_long_horizon_warns(self):
        counts = piecewise_linear_counts(seed=12)
        fit = fit_series(make_series(counts), self.opts())
        forecast(fit, horizon=40)
        assert any("horizon" in w for w in fit.warnings)

    def test_k0_log_line_continues(self):
        # pure exponential: no knots, forecast continues the log-line
        rng = np.random.default_rng(13)
        n = 90
        rate = 80 * np.exp(0.01 * np.arange(n))
        counts = rng.poisson(rate).astype(float)
        fit = fit_series(make_series(counts), self.opts(horizon=3))
        assert fit.model.k == 0
        logs = np.log1p([p.point for p in fit.forecast])
        assert np.allclose(np.diff(logs, 2), 0.0, atol=1e-9)

    def test_horizon_validation(self):
        counts = piecewise_linear_counts(seed=14)
        fit = fit_series(make_series(counts), self.opts())
        with pytest.raises(ValueError):
            forecast(fit, horizon=0)


class TestSerialization:
    def test_to_dict_keys(self):
        counts = piecewise_linear_counts(seed=15)
        fit = fit_series(make_series(counts), FitOptions(scale=Scale.LOG))
        d = fit.to_dict()
        for key in ("label", "scale", "knots", "coefficients", "fitted", "forecast"):
            assert key in d
        assert all(isinstance(k, str) for k in d["knots"])
        assert len(d["fitted"]) == len(counts)
