"""Monte Carlo harness for the knot-selection estimator.

Generates data from cubic B-spline ground truths on [0, 100] at a given
signal-to-noise ratio, runs the selection on every replication, and
aggregates the proportion of correct knot counts plus per-knot location
statistics (conditional on the count being right).

Every replication of a scenario shares x, the candidate grid and the
search config; only the noise differs. So replications are drawn and
searched in blocks (:func:`knotselect.search.select_many`): each block
builds the search engines and runs the exhaustive one- and two-knot
scans once for all of its replications, and each replication gets
exactly the model a separate ``select`` would give it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisFamily, BasisSpec, Domain, KnotConfig, design_matrix
from .criterion import Penalty
from .lsq import DataError
from .search import SearchConfig, select_many

_DOMAIN = Domain(0.0, 100.0)


class ConfigError(ValueError):
    """Malformed scenario configuration; the message names the key path."""


def _alternating_coefficients(n_knots: int) -> np.ndarray:
    """Sign-alternating bump pattern, zero at the boundary coefficients."""
    dim = 4 + n_knots  # cubic B-spline dimension
    raw = np.zeros(dim)
    raw[1:-1] = [(-1.0) ** i for i in range(dim - 2)]
    return raw


def truth_coefficients(knots: tuple[float, ...], peak: float = 10.0) -> tuple[float, ...]:
    """Documented truth coefficients: alternating bumps scaled to max |f| = peak."""
    raw = _alternating_coefficients(len(knots))
    kc = KnotConfig(tuple(knots), _DOMAIN)
    spec = BasisSpec(BasisFamily.BSPLINE, degree=3)
    dense = np.linspace(_DOMAIN.a, _DOMAIN.b, 2001)
    f = design_matrix(dense, spec, kc) @ raw
    return tuple(raw * (peak / np.max(np.abs(f))))


TRUTHS = {
    "one-knot": (50.0,),
    "two-knots": (25.0, 75.0),
    "three-knots": (25.0, 50.0, 75.0),
}


@dataclass(frozen=True)
class SimScenario:
    """One cell of the simulation design."""

    truth_knots: tuple[float, ...]
    snr: float
    n: int
    replications: int
    seed: int
    truth_coefficients: tuple[float, ...] | None = None
    delta: float = 15.0
    k_max: int = 8
    grid_step: float = 1.0  # integer candidate positions by default
    name: str = ""

    def __post_init__(self):
        if not self.snr > 0:
            raise ConfigError(f"snr must be a positive number, got {self.snr}")
        if not 0 < self.grid_step < np.inf:
            raise ConfigError(f"grid_step must be a positive finite number, got {self.grid_step}")
        if self.n < 10:
            raise ConfigError("n must be >= 10")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")

    def resolved_coefficients(self) -> tuple[float, ...]:
        if self.truth_coefficients is not None:
            return self.truth_coefficients
        return truth_coefficients(self.truth_knots)

    def truth_signal(self, xs: np.ndarray) -> np.ndarray:
        kc = KnotConfig(self.truth_knots, _DOMAIN)
        spec = BasisSpec(BasisFamily.BSPLINE, degree=3)
        return design_matrix(xs, spec, kc) @ np.asarray(self.resolved_coefficients())

    def candidate_grid(self) -> tuple[float, ...]:
        g = np.arange(_DOMAIN.a + self.grid_step, _DOMAIN.b, self.grid_step)
        return tuple(g)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "truth_knots": list(self.truth_knots),
            "truth_coefficients": [float(c) for c in self.resolved_coefficients()],
            "snr": self.snr,
            "n": self.n,
            "replications": self.replications,
            "seed": self.seed,
            "delta": self.delta,
            "k_max": self.k_max,
            "grid_step": self.grid_step,
        }


def _design(scenario: SimScenario) -> tuple[np.ndarray, np.ndarray, float]:
    """Equispaced design, truth signal on it and noise sd; the same for every replication."""
    xs = np.linspace(_DOMAIN.a, _DOMAIN.b, scenario.n)
    f = scenario.truth_signal(xs)
    return xs, f, float(np.std(f)) / scenario.snr


def _noisy(scenario: SimScenario, rep_index: int, f: np.ndarray, sigma: float) -> np.ndarray:
    rng = np.random.default_rng([scenario.seed, rep_index])
    return f + rng.normal(0.0, sigma, scenario.n)


def generate(scenario: SimScenario, rep_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Equispaced design plus truth signal plus calibrated Gaussian noise.

    sigma = sd(signal) / snr with the population standard deviation, and
    the noise stream is keyed by (seed, rep_index) so any replication is
    replayable in isolation.
    """
    xs, f, sigma = _design(scenario)
    return xs, _noisy(scenario, rep_index, f, sigma)


def _search_config(scenario: SimScenario) -> SearchConfig:
    return SearchConfig(
        basis=BasisSpec(BasisFamily.BSPLINE, degree=3),
        delta=scenario.delta,
        k_max=scenario.k_max,
        candidate_grid=scenario.candidate_grid(),
        penalty=Penalty(),
    )


@dataclass
class KnotStats:
    mean: float
    median: float
    sd: float
    ci_low: float
    ci_high: float

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "median": self.median,
            "sd": self.sd,
            "ci95": [self.ci_low, self.ci_high],
        }


@dataclass
class SimReport:
    """Aggregated outcome of one scenario."""

    scenario: SimScenario
    prop_correct_k: float
    n_correct: int
    n_total: int
    knot_stats: list[KnotStats]
    khat_counts: dict[int, int]
    knot_samples: list[list[float]] = field(repr=False, default_factory=list)
    failures: int = 0
    mean_rep_seconds: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict:
        # timing stays out of the default payload so identical seeds give
        # byte-identical JSON
        out = {
            "scenario": self.scenario.to_dict(),
            "prop_correct_k": self.prop_correct_k,
            "n_correct": self.n_correct,
            "n_total": self.n_total,
            "failures": self.failures,
            "khat_counts": {str(k): v for k, v in sorted(self.khat_counts.items())},
            "knots": [s.to_dict() for s in self.knot_stats],
            "knot_samples": self.knot_samples,
        }
        if include_timing:
            out["mean_rep_seconds"] = self.mean_rep_seconds
        return out

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(**kwargs), indent=2, sort_keys=True)


def run(scenario: SimScenario) -> SimReport:
    """Execute every replication and aggregate the scenario statistics.

    The design and the truth signal are built once; each replication
    draws only its noise, exactly as :func:`generate` would.
    Replications are searched together in blocks of at most G, the
    candidate-grid size, so a block's residuals take no more memory than
    the search's own n x G engine; a replication's time is its block's
    time over the block size. A replication whose data cannot be fitted
    (``DataError`` or ``LinAlgError``) is counted as a failure, not
    fatal; any other exception propagates.
    """
    cfg = _search_config(scenario)
    true_k = len(scenario.truth_knots)
    xs, f, sigma = _design(scenario)

    results = []
    block = max(len(cfg.candidate_grid), 1)
    for start in range(0, scenario.replications, block):
        reps = range(start, min(start + block, scenario.replications))
        t0 = time.perf_counter()
        ys = np.column_stack([_noisy(scenario, rep, f, sigma) for rep in reps])
        models = select_many(xs, ys, cfg)
        seconds = (time.perf_counter() - t0) / len(reps)
        for model in models:
            if isinstance(model, (DataError, np.linalg.LinAlgError)):
                results.append((None, None, seconds))
            else:
                results.append((model.k, list(model.knots.knots), seconds))

    khats = [r[0] for r in results]
    failures = sum(1 for k in khats if k is None)
    correct = [r[1] for r in results if r[0] == true_k]
    counts: dict[int, int] = {}
    for k in khats:
        if k is not None:
            counts[k] = counts.get(k, 0) + 1

    stats: list[KnotStats] = []
    if correct:
        arr = np.asarray(correct)
        for j in range(true_k):
            col = np.sort(arr[:, j])
            lo, hi = np.quantile(col, [0.025, 0.975])
            stats.append(
                KnotStats(
                    mean=float(np.mean(col)),
                    median=float(np.median(col)),
                    sd=float(np.std(col, ddof=1)) if col.size > 1 else 0.0,
                    ci_low=float(lo),
                    ci_high=float(hi),
                )
            )

    valid = scenario.replications - failures
    return SimReport(
        scenario=scenario,
        prop_correct_k=len(correct) / valid if valid else 0.0,
        n_correct=len(correct),
        n_total=scenario.replications,
        knot_stats=stats,
        khat_counts=counts,
        knot_samples=[list(map(float, c)) for c in correct],
        failures=failures,
        mean_rep_seconds=float(np.mean([r[2] for r in results])),
    )


def format_table(reports: list[SimReport]) -> str:
    """Aligned plain-text table, one block per scenario row."""
    header = f"{'n':>6} {'SNR':>5} {'% correct':>10} {'Knot':>5} {'Mean':>8} {'Median':>8} {'SD':>7} {'CI(95%)':>18}"
    lines = [header, "-" * len(header)]
    for rep in reports:
        sc = rep.scenario
        pct = f"{100 * rep.prop_correct_k:.0f}%"
        if not rep.knot_stats:
            lines.append(f"{sc.n:>6} {sc.snr:>5g} {pct:>10} {'-':>5}")
            continue
        for j, st in enumerate(rep.knot_stats):
            lead = f"{sc.n:>6} {sc.snr:>5g} {pct:>10}" if j == 0 else " " * 23
            ci = f"({st.ci_low:.2f} ; {st.ci_high:.2f})"
            lines.append(
                f"{lead} {j + 1:>5} {st.mean:>8.2f} {st.median:>8.2f} {st.sd:>7.2f} {ci:>18}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# scenario configuration files


def builtin_scenario(name: str, replications: int = 1000, seed: int = 0) -> SimScenario:
    """Named scenario like ``three-knots-snr9-n100``."""
    parts = name.rsplit("-", 2)
    if len(parts) != 3 or not parts[1].startswith("snr") or not parts[2].startswith("n"):
        raise ConfigError(f"unknown scenario name: {name!r}")
    truth, snr_s, n_s = parts
    if truth not in TRUTHS:
        raise ConfigError(f"unknown truth {truth!r}; expected one of {sorted(TRUTHS)}")
    try:
        snr = float(snr_s[3:])
        n = int(n_s[1:])
    except ValueError as exc:
        raise ConfigError(f"unparseable scenario name {name!r}") from exc
    return SimScenario(
        truth_knots=TRUTHS[truth],
        snr=snr,
        n=n,
        replications=replications,
        seed=seed,
        name=name,
    )


_SCENARIO_KEYS = {
    "name": str,
    "truth": (str, list),
    "truth_coefficients": list,
    "snr": (int, float),
    "n": int,
    "replications": int,
    "seed": int,
    "delta": (int, float),
    "k_max": int,
    "grid_step": (int, float),
}
_REQUIRED_KEYS = ("truth", "snr", "n", "replications")


def _scenario_from_dict(d: dict, path: str) -> SimScenario:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in _REQUIRED_KEYS:
        if key not in d:
            raise ConfigError(f"{path}.{key}: missing required key")
    for key, val in d.items():
        if key not in _SCENARIO_KEYS:
            raise ConfigError(f"{path}.{key}: unknown key")
        if not isinstance(val, _SCENARIO_KEYS[key]):
            raise ConfigError(f"{path}.{key}: expected {_SCENARIO_KEYS[key]}")
    truth = d["truth"]
    if isinstance(truth, str):
        if truth not in TRUTHS:
            raise ConfigError(f"{path}.truth: unknown truth {truth!r}")
        knots = TRUTHS[truth]
    else:
        knots = tuple(float(t) for t in truth)
    try:
        return SimScenario(
            truth_knots=knots,
            truth_coefficients=(
                tuple(float(c) for c in d["truth_coefficients"])
                if "truth_coefficients" in d
                else None
            ),
            snr=float(d["snr"]),
            n=d["n"],
            replications=d["replications"],
            seed=d.get("seed", 0),
            delta=float(d.get("delta", 15.0)),
            k_max=d.get("k_max", 8),
            grid_step=float(d.get("grid_step", 1.0)),
            name=d.get("name", ""),
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_scenarios(path) -> list[SimScenario]:
    """Read scenario definitions from a JSON config file.

    Accepts either a single scenario object or
    ``{"scenarios": [ ... ]}``. Errors name the offending key path.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"$: invalid JSON ({exc})") from exc
    if isinstance(doc, dict) and "scenarios" in doc:
        items = doc["scenarios"]
        if not isinstance(items, list):
            raise ConfigError("$.scenarios: expected a list")
        return [
            _scenario_from_dict(item, f"$.scenarios[{i}]") for i, item in enumerate(items)
        ]
    return [_scenario_from_dict(doc, "$")]
