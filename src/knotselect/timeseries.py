"""Daily-count pipeline: ingest, smooth, select knots, extrapolate.

The pipeline smooths a daily series with a trailing moving average
(never looking at future days), optionally moves to log scale, runs the
knot search with the leading region excluded from candidate positions,
and extrapolates the fitted spline a few days ahead with pointwise
intervals.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from enum import Enum

import numpy as np

from .basis import BasisFamily, BasisSpec, design_matrix
from .criterion import LambdaPolicy, Penalty, default_lambda
from .lsq import DataError, pointwise_interval
from .search import SearchConfig, SplineModel, select


class Scale(Enum):
    LINEAR = "linear"
    LOG = "log"


@dataclass(frozen=True)
class DailySeries:
    """Consecutive daily nonnegative counts for one label."""

    dates: tuple[date, ...]
    counts: tuple[float, ...]
    label: str = ""
    fill_flags: tuple[date, ...] = ()  # days that were absent and filled with 0

    def __post_init__(self):
        if len(self.dates) != len(self.counts):
            raise DataError("dates and counts must have the same length")
        if not self.dates:
            raise DataError("empty series")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if (cur - prev).days != 1:
                raise DataError(f"dates not consecutive around {prev} -> {cur}")
        if any(c < 0 for c in self.counts):
            raise DataError("counts must be nonnegative")

    def __len__(self) -> int:
        return len(self.dates)


def moving_average(series: DailySeries, window: int) -> np.ndarray:
    """Trailing mean of the last ``window`` observations at each day.

    The first window - 1 days average whatever is available so far, so
    no value ever depends on future observations.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    counts = np.asarray(series.counts, dtype=float)
    csum = np.concatenate([[0.0], np.cumsum(counts)])
    idx = np.arange(counts.size)
    lo = np.maximum(idx - window + 1, 0)
    return (csum[idx + 1] - csum[lo]) / (idx + 1 - lo)


@dataclass(frozen=True)
class FitOptions:
    """Pipeline configuration; defaults mirror the epidemic-curve use case."""

    scale: Scale = Scale.LINEAR
    basis: BasisSpec | None = None  # default depends on scale
    window: int = 7
    delta: float = 7.0
    exclude_left_frac: float = 0.10
    k_max: int = 10
    penalty: Penalty = field(default_factory=Penalty)
    # inflation of the automatic penalty weight; None means 3x the window,
    # compensating the serial correlation the trailing smoother induces
    # (the Rice estimate on a smoothed series badly understates the noise)
    lambda_scale: float | None = None
    horizon: int = 7
    level: float = 0.95
    prediction_band: bool = False

    def resolved_basis(self) -> BasisSpec:
        if self.basis is not None:
            return self.basis
        if self.scale is Scale.LOG:
            return BasisSpec(BasisFamily.TRUNCATED_POWER, degree=1)
        return BasisSpec(BasisFamily.NATURAL_CUBIC, degree=3)


@dataclass
class ForecastPoint:
    day: date
    point: float
    lower: float
    upper: float
    extrapolated: bool

    def to_dict(self) -> dict:
        return {
            "date": self.day.isoformat(),
            "point": self.point,
            "lower": self.lower,
            "upper": self.upper,
            "extrapolated": self.extrapolated,
        }


@dataclass
class SeriesFit:
    """A fitted daily series plus its short-term extrapolation."""

    series: DailySeries
    smoothed: np.ndarray
    scale: Scale
    model: SplineModel
    knot_dates: tuple[date, ...]
    forecast: list[ForecastPoint]
    options: FitOptions
    warnings: list[str] = field(default_factory=list)

    def fitted_values(self) -> np.ndarray:
        """Fitted curve on the observed days, back on the count scale."""
        xs = np.arange(len(self.series), dtype=float)
        vals = self.model.predict(xs)
        return _from_scale(vals, self.scale)

    def to_dict(self) -> dict:
        return {
            "label": self.series.label,
            "scale": self.scale.value,
            "knots": [d.isoformat() for d in self.knot_dates],
            "coefficients": [float(c) for c in self.model.coefficients],
            "fitted": [float(v) for v in self.fitted_values()],
            "forecast": [p.to_dict() for p in self.forecast],
            "lambda": self.model.lambda_used,
            "rss": self.model.rss,
            "pss": self.model.pss,
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _to_scale(values: np.ndarray, scale: Scale) -> np.ndarray:
    # +1 offset tolerates zero-count days on the log scale
    return np.log1p(values) if scale is Scale.LOG else values


def _from_scale(values: np.ndarray, scale: Scale) -> np.ndarray:
    return np.expm1(values) if scale is Scale.LOG else values


def fit_series(series: DailySeries, opts: FitOptions | None = None) -> SeriesFit:
    """Smooth, (optionally) log-transform, and select knots for one series.

    Candidate knots are the day indices, excluding the leading
    ``exclude_left_frac`` share of the observation span, and knots may
    not sit closer than ``delta`` days to each other or the ends.
    """
    opts = opts or FitOptions()
    n = len(series)
    if n < 30:
        raise DataError(f"series too short ({n} days; need >= 30)")
    smoothed = moving_average(series, opts.window)
    target = _to_scale(smoothed, opts.scale)
    xs = np.arange(n, dtype=float)
    penalty = opts.penalty
    if penalty.policy is LambdaPolicy.VARIANCE_SCALED_LOG:
        scale = opts.lambda_scale if opts.lambda_scale is not None else 3.0 * opts.window
        lam = scale * default_lambda(target, xs)
        penalty = Penalty(policy=LambdaPolicy.FIXED, lam=lam)
    cfg = SearchConfig(
        basis=opts.resolved_basis(),
        delta=opts.delta,
        k_max=opts.k_max,
        candidate_grid=None,  # the day indices themselves
        penalty=penalty,
        exclude_left_frac=opts.exclude_left_frac,
    )
    model = select(xs, target, cfg)
    # a trailing mean of w days lags features by (w-1)/2 days; undo that
    # when reporting knots as calendar dates
    lag = (opts.window - 1) // 2
    knot_dates = tuple(
        series.dates[max(int(round(t)) - lag, 0)] for t in model.knots.knots
    )
    fit = SeriesFit(
        series=series,
        smoothed=smoothed,
        scale=opts.scale,
        model=model,
        knot_dates=knot_dates,
        forecast=[],
        options=opts,
    )
    fit.forecast = forecast(fit, opts.horizon)
    return fit


def forecast(fit: SeriesFit, horizon: int = 7) -> list[ForecastPoint]:
    """Extrapolate the fitted spline ``horizon`` days past the last day.

    The first row is the anchor at the last observed day (step 0, the
    same basis row as the final fitted value); the remaining ``horizon``
    rows follow it. Intervals come from the pointwise leverage at the
    extrapolated rows; log-scale results are back-transformed with the
    endpoints mapped monotonically.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n = len(fit.series)
    last = fit.series.dates[-1]
    steps = np.arange(horizon + 1, dtype=float)
    x_eval = (n - 1) + steps
    rows = design_matrix(x_eval, fit.model.basis, fit.model.knots, extrapolate=True)
    point = rows @ fit.model.coefficients
    half = pointwise_interval(
        fit.model.fit, rows, level=fit.options.level, prediction=fit.options.prediction_band
    )
    lower = _from_scale(point - half, fit.scale)
    upper = _from_scale(point + half, fit.scale)
    point = _from_scale(point, fit.scale)
    if horizon > 4 * fit.options.window:
        msg = f"horizon {horizon} exceeds 4x the smoothing window ({fit.options.window})"
        if msg not in fit.warnings:
            fit.warnings.append(msg)
    return [
        ForecastPoint(
            day=last + timedelta(days=int(s)),
            point=float(p),
            lower=float(lo),
            upper=float(hi),
            extrapolated=bool(s > 0),
        )
        for s, p, lo, hi in zip(steps, point, lower, upper)
    ]


# ---------------------------------------------------------------------------
# CSV ingestion


@dataclass
class IngestResult:
    """Sequence of parsed series plus per-row parse problems."""

    series: list[DailySeries]
    row_errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def __iter__(self):
        return iter(self.series)

    def __len__(self):
        return len(self.series)

    def __getitem__(self, i):
        return self.series[i]

    def by_label(self, label: str) -> DailySeries:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)


def ingest_csv(
    source,
    date_col: str = "dateRep",
    count_col: str = "cases",
    group_col: str | None = "countriesAndTerritories",
    date_format: str = "%d/%m/%Y",
) -> IngestResult:
    """Parse a daily-count CSV into one series per group label.

    Dates are normalized to consecutive days: missing days are filled
    with 0 and flagged, out-of-order rows are sorted, duplicate dates
    summed. Unparseable rows are collected with their line numbers
    rather than aborting the whole file.
    """
    close = False
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        fh = open(source, newline="")
        close = True
    else:
        fh = source
    try:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError("CSV has no header row")
        for col in (date_col, count_col) + ((group_col,) if group_col else ()):
            if col not in reader.fieldnames:
                raise DataError(f"missing column {col!r} in CSV header")
        groups: dict[str, dict[date, float]] = {}
        row_errors: list[str] = []
        for lineno, row in enumerate(reader, start=2):
            label = (row.get(group_col) or "").strip() if group_col else ""
            try:
                from datetime import datetime

                day = datetime.strptime(row[date_col].strip(), date_format).date()
                count = float(row[count_col])
                if not math.isfinite(count) or count < 0:
                    raise ValueError(f"invalid count {row[count_col]!r}")
            except (ValueError, AttributeError, TypeError) as exc:
                row_errors.append(f"line {lineno}: {exc}")
                continue
            groups.setdefault(label, {})
            groups[label][day] = groups[label].get(day, 0.0) + count
    finally:
        if close:
            fh.close()

    series: list[DailySeries] = []
    warnings: list[str] = []
    for label in sorted(groups):
        by_day = groups[label]
        if not by_day:
            warnings.append(f"group {label!r} has no parseable rows; skipped")
            continue
        first, last = min(by_day), max(by_day)
        days, counts, flags = [], [], []
        d = first
        while d <= last:
            days.append(d)
            if d in by_day:
                counts.append(by_day[d])
            else:
                counts.append(0.0)
                flags.append(d)
            d += timedelta(days=1)
        series.append(
            DailySeries(
                dates=tuple(days),
                counts=tuple(counts),
                label=label,
                fill_flags=tuple(flags),
            )
        )
    if not series and row_errors:
        raise DataError("no parseable rows: " + "; ".join(row_errors[:5]))
    return IngestResult(series=series, row_errors=row_errors, warnings=warnings)
