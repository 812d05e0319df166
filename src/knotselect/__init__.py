"""Spline regression with automatic knot selection by penalized least squares."""

from .basis import (
    BasisFamily,
    BasisSpec,
    Domain,
    KnotConfig,
    SplineDomainError,
    UnsupportedConfigError,
    basis_row,
    bspline_row,
    design_matrix,
    natural_cubic_row,
    truncated_power_row,
)
from .criterion import LambdaPolicy, Penalty, cv_lambda, default_lambda, pss
from .lsq import DataError, LsqFit, UndefinedVarianceError, pointwise_interval, solve
from .search import (
    InfeasibleError,
    SearchConfig,
    SplineModel,
    best_for_k,
    select,
    select_lambdas,
    select_many,
)
from .sim import SimReport, SimScenario, builtin_scenario, generate, load_scenarios, run
from .timeseries import (
    DailySeries,
    FitOptions,
    Scale,
    SeriesFit,
    fit_series,
    forecast,
    ingest_csv,
    moving_average,
)

__version__ = "0.1.0"

__all__ = [
    "BasisFamily",
    "BasisSpec",
    "DailySeries",
    "DataError",
    "Domain",
    "FitOptions",
    "InfeasibleError",
    "KnotConfig",
    "LambdaPolicy",
    "LsqFit",
    "Penalty",
    "Scale",
    "SearchConfig",
    "SeriesFit",
    "SimReport",
    "SimScenario",
    "SplineDomainError",
    "SplineModel",
    "UndefinedVarianceError",
    "UnsupportedConfigError",
    "basis_row",
    "best_for_k",
    "bspline_row",
    "builtin_scenario",
    "cv_lambda",
    "default_lambda",
    "design_matrix",
    "fit_series",
    "forecast",
    "generate",
    "ingest_csv",
    "load_scenarios",
    "moving_average",
    "natural_cubic_row",
    "pointwise_interval",
    "pss",
    "run",
    "select",
    "select_lambdas",
    "select_many",
    "solve",
    "truncated_power_row",
]
