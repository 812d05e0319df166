"""Command-line front end: fit, predict, simulate, demo.

Data goes to standard output, diagnostics to standard error. Exit codes:
0 success, 2 data errors (bad/missing input), 3 configuration errors
(bad flags or scenario files). Every run embeds its full effective
configuration, including defaulted values and the RNG seed, in the
output so any result can be replayed from its own artifact.
"""

from __future__ import annotations

import argparse
import csv as _csv
import io
import json
import secrets
import sys

import numpy as np

from . import lsq, sim, svgplot, timeseries
from .basis import BasisFamily, BasisSpec, Domain, KnotConfig, SplineDomainError, design_matrix
from .criterion import LambdaPolicy, Penalty
from .lsq import DataError
from .search import SearchConfig, select
from .sim import ConfigError

_FAMILIES = {
    "truncated-power": BasisFamily.TRUNCATED_POWER,
    "bspline": BasisFamily.BSPLINE,
    "natural": BasisFamily.NATURAL_CUBIC,
}


class _Parser(argparse.ArgumentParser):
    # exit taxonomy: flag problems are configuration errors (3)
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(3)


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = secrets.randbits(32)
        print(f"seed not given; drew {seed} (recorded in output)", file=sys.stderr)
    return seed


def _effective_config(args, **extra) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg.update(extra)
    return {k: v for k, v in sorted(cfg.items())}


def _penalty_from_args(args) -> Penalty:
    if args.lam is not None:
        return Penalty(policy=LambdaPolicy.FIXED, lam=args.lam)
    if args.lambda_policy == "cv":
        return Penalty(policy=LambdaPolicy.CROSS_VALIDATION, cv_folds=args.cv_folds)
    return Penalty(policy=LambdaPolicy.VARIANCE_SCALED_LOG)


def _add_model_flags(p: argparse.ArgumentParser, default_basis: str):
    p.add_argument("--basis", choices=sorted(_FAMILIES), default=default_basis)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="fixed penalty weight")
    p.add_argument("--lambda-policy", choices=["auto", "cv"], default="auto")
    p.add_argument("--cv-folds", type=int, default=5)
    p.add_argument("--delta", type=float, default=None, help="minimum knot spacing (x-units)")
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--grid-step", type=float, default=None, help="uniform candidate-grid spacing")
    p.add_argument("--exclude-left-frac", type=float, default=None)


def _add_series_flags(p: argparse.ArgumentParser):
    p.add_argument("--country", "--group", dest="group", default=None, help="series label to fit")
    p.add_argument("--date-col", default="dateRep")
    p.add_argument("--count-col", default="cases")
    p.add_argument("--group-col", default="countriesAndTerritories")
    p.add_argument("--date-format", default="%d/%m/%Y")
    p.add_argument("--scale", choices=["linear", "log"], default="linear")
    p.add_argument("--ma-window", type=int, default=7)
    p.add_argument("--horizon", type=int, default=7)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--prediction-band", action="store_true")


def _read_xy(path, x_col, y_col):
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open input: {exc}") from exc
    with fh:
        rows = list(_csv.reader(fh))
    if not rows:
        raise DataError("empty input file")
    header = rows[0]
    try:
        float(header[0]), float(header[1])
        data = rows
        ix, iy = 0, 1
    except (ValueError, IndexError):
        if x_col in header and y_col in header:
            ix, iy = header.index(x_col), header.index(y_col)
        else:
            ix, iy = 0, 1
        data = rows[1:]
    try:
        xs = np.array([float(r[ix]) for r in data])
        y = np.array([float(r[iy]) for r in data])
    except (ValueError, IndexError) as exc:
        raise DataError(f"unparseable (x, y) row: {exc}") from exc
    return xs, y


def _series_options(args) -> timeseries.FitOptions:
    scale = timeseries.Scale(args.scale)
    basis = None
    if args.basis_given:
        basis = BasisSpec(_FAMILIES[args.basis], 3 if args.basis == "natural" else args.degree)
    return timeseries.FitOptions(
        scale=scale,
        basis=basis,
        window=args.ma_window,
        delta=args.delta if args.delta is not None else 7.0,
        exclude_left_frac=(
            args.exclude_left_frac if args.exclude_left_frac is not None else 0.10
        ),
        k_max=args.k_max,
        penalty=_penalty_from_args(args),
        horizon=args.horizon,
        level=args.level,
        prediction_band=args.prediction_band,
    )


def _fit_one_series(args):
    result = timeseries.ingest_csv(
        args.input,
        date_col=args.date_col,
        count_col=args.count_col,
        group_col=args.group_col,
        date_format=args.date_format,
    )
    for err in result.row_errors:
        print(f"warning: {err}", file=sys.stderr)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.group:
        try:
            series = result.by_label(args.group)
        except KeyError:
            raise DataError(f"no series labeled {args.group!r} in the input")
    elif len(result) == 1:
        series = result[0]
    else:
        labels = [s.label for s in result]
        raise DataError(f"multiple series in input; pick one with --country: {labels}")
    return timeseries.fit_series(series, _series_options(args))


def cmd_fit(args) -> int:
    if args.group or args.timeseries:
        fit = _fit_one_series(args)
        payload = fit.to_dict()
        payload["effective_config"] = _effective_config(args, lambda_used=fit.model.lambda_used)
        if args.format == "svg":
            _emit(svgplot.series_svg(fit), args.output)
        elif args.format == "table":
            _emit(_series_table(fit), args.output)
        else:
            _emit(_json(payload), args.output)
        return 0

    if args.format != "json":
        raise ConfigError(
            f"--format {args.format} needs a time series (--timeseries or --country)"
        )
    xs, y = _read_xy(args.input, args.x_col, args.y_col)
    grid = None
    if args.grid_step is not None:
        if not 0 < args.grid_step < np.inf:
            raise ValueError(f"--grid-step must be a positive number, got {args.grid_step}")
        a, b = float(np.min(xs)), float(np.max(xs))
        grid = tuple(np.arange(a + args.grid_step, b, args.grid_step))
    delta = args.delta if args.delta is not None else (float(np.max(xs) - np.min(xs))) / 20.0
    cfg = SearchConfig(
        basis=BasisSpec(_FAMILIES[args.basis], 3 if args.basis == "natural" else args.degree),
        delta=delta,
        k_max=args.k_max,
        candidate_grid=grid,
        penalty=_penalty_from_args(args),
        exclude_left_frac=args.exclude_left_frac or 0.0,
    )
    model = select(xs, y, cfg)
    payload = model.to_dict()
    payload["effective_config"] = _effective_config(
        args, delta_used=delta, lambda_used=model.lambda_used
    )
    _emit(_json(payload), args.output)
    return 0


def _series_table(fit) -> str:
    lines = [f"{'date':>12} {'smoothed':>10} {'fitted':>10}"]
    for d, s, f in zip(fit.series.dates, fit.smoothed, fit.fitted_values()):
        lines.append(f"{d.isoformat():>12} {s:>10.2f} {f:>10.2f}")
    lines.append("forecast:")
    for p in fit.forecast:
        lines.append(
            f"{p.day.isoformat():>12} {p.point:>10.2f} [{p.lower:.2f}, {p.upper:.2f}]"
        )
    return "\n".join(lines)


def cmd_predict(args) -> int:
    fit = _fit_one_series(args)
    payload = {
        "label": fit.series.label,
        "scale": fit.scale.value,
        "knots": [d.isoformat() for d in fit.knot_dates],
        "forecast": [p.to_dict() for p in fit.forecast],
        "warnings": list(fit.warnings),
        "effective_config": _effective_config(args, lambda_used=fit.model.lambda_used),
    }
    if args.format == "svg":
        _emit(svgplot.series_svg(fit), args.output)
    elif args.format == "csv":
        buf = io.StringIO()
        w = _csv.writer(buf)
        w.writerow(["date", "point", "lower", "upper", "extrapolated"])
        for p in fit.forecast:
            w.writerow([p.day.isoformat(), p.point, p.lower, p.upper, p.extrapolated])
        _emit(buf.getvalue(), args.output)
    else:
        _emit(_json(payload), args.output)
    return 0


def cmd_simulate(args) -> int:
    from dataclasses import replace

    if args.config:
        scenarios = sim.load_scenarios(args.config)
        if args.seed is not None:
            scenarios = [replace(sc, seed=args.seed) for sc in scenarios]
    elif args.scenario:
        seed = _resolve_seed(args)
        scenarios = [sim.builtin_scenario(args.scenario, seed=seed)]
    else:
        raise ConfigError("simulate needs --scenario NAME or --config FILE")
    reports = []
    for sc in scenarios:
        if args.replications is not None:
            sc = replace(sc, replications=args.replications)
        print(
            f"running {sc.name or sc.truth_knots}: n={sc.n} snr={sc.snr} "
            f"reps={sc.replications} seed={sc.seed}",
            file=sys.stderr,
        )
        reports.append(sim.run(sc))
    payload = {
        "reports": [r.to_dict() for r in reports],
        "effective_config": _effective_config(
            args, seeds=[sc.scenario.seed for sc in reports]
        ),
    }
    table = sim.format_table(reports)
    if args.format == "table":
        _emit(table, args.output)
    else:
        _emit(_json(payload), args.output)
        print(table, file=sys.stderr)
    return 0


_DEMO_TRUTH = (20.0, 45.0, 80.0)
_DEMO_BAD_KNOTS = tuple(float(t) for t in range(6, 27, 2))  # 11 clustered knots


def cmd_demo(args) -> int:
    seed = args.seed
    scenario = sim.SimScenario(
        truth_knots=_DEMO_TRUTH,
        snr=args.snr,
        n=args.n,
        replications=1,
        seed=seed,
        name="demo",
    )
    xs, y = sim.generate(scenario, 0)
    dom = Domain(0.0, 100.0)
    spec = BasisSpec(BasisFamily.BSPLINE, 3)
    dense = np.linspace(0.0, 100.0, 401)
    truth_curve = design_matrix(dense, spec, KnotConfig(_DEMO_TRUTH, dom)) @ np.asarray(
        scenario.resolved_coefficients()
    )

    bad_kc = KnotConfig(_DEMO_BAD_KNOTS, dom)
    bad_fit = lsq.solve(design_matrix(xs, spec, bad_kc), y)
    bad_curve = design_matrix(dense, spec, bad_kc) @ bad_fit.coefficients

    cfg = SearchConfig(
        basis=spec,
        delta=15.0,
        candidate_grid=tuple(np.arange(1.0, 100.0)),
        penalty=Penalty(),
    )
    model = select(xs, y, cfg)
    auto_curve = model.predict(dense)

    payload = {
        "truth": {
            "knots": list(_DEMO_TRUTH),
            "coefficients": [float(c) for c in scenario.resolved_coefficients()],
        },
        "bad_fit": {
            "knots": list(_DEMO_BAD_KNOTS),
            "rss": bad_fit.rss,
        },
        "automatic_fit": {
            "k_hat": model.k,
            "knots": list(model.knots.knots),
            "rss": model.rss,
            "pss": model.pss,
            "lambda": model.lambda_used,
        },
        "curves": {
            "x": [float(v) for v in dense],
            "truth": [float(v) for v in truth_curve],
            "bad": [float(v) for v in bad_curve],
            "automatic": [float(v) for v in auto_curve],
        },
        "effective_config": _effective_config(args, seed=seed),
    }
    if args.format == "svg":
        svg = svgplot.curves_svg(
            dense,
            [(truth_curve, "black", None), (bad_curve, "#e377c2", None), (auto_curve, "#1f77b4", None)],
            knot_lines=_DEMO_TRUTH,
            points=(xs, y),
            title=f"penalized knot selection demo (K-hat={model.k})",
        )
        _emit(svg, args.output)
    else:
        _emit(_json(payload), args.output)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="knotselect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a spline with automatic knot selection")
    p_fit.add_argument("input", help="CSV of (x, y) or a daily-count CSV")
    p_fit.add_argument("--x-col", default="x")
    p_fit.add_argument("--y-col", default="y")
    p_fit.add_argument("--timeseries", action="store_true", help="force time-series mode")
    _add_model_flags(p_fit, default_basis="bspline")
    _add_series_flags(p_fit)
    p_fit.add_argument("--format", choices=["json", "table", "svg"], default="json")
    p_fit.add_argument("--output", default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="fit a daily series and forecast ahead")
    p_pred.add_argument("input")
    _add_model_flags(p_pred, default_basis="natural")
    _add_series_flags(p_pred)
    p_pred.add_argument("--format", choices=["json", "csv", "svg"], default="json")
    p_pred.add_argument("--output", default=None)
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="run Monte Carlo scenarios")
    p_sim.add_argument("--scenario", default=None, help="builtin name, e.g. three-knots-snr9-n100")
    p_sim.add_argument("--config", default=None, help="JSON scenario file")
    p_sim.add_argument("--replications", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--format", choices=["json", "table"], default="json")
    p_sim.add_argument("--output", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_demo = sub.add_parser("demo", help="clustered-knots overfit vs automatic selection")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--n", type=int, default=200)
    p_demo.add_argument("--snr", type=float, default=3.0)
    p_demo.add_argument("--format", choices=["json", "svg"], default="json")
    p_demo.add_argument("--output", default=None)
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # record whether --basis was given explicitly (series mode uses the
    # scale-dependent default basis otherwise)
    args.basis_given = argv is not None and any(
        a == "--basis" or a.startswith("--basis=") for a in argv
    )
    if argv is None:
        args.basis_given = any(
            a == "--basis" or a.startswith("--basis=") for a in sys.argv[1:]
        )
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        if isinstance(exc, (DataError, SplineDomainError)):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
