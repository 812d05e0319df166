"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Every workload runs end to end at a tiny size, untraced and traced,
   and reports every metric named in BENCHMARK.json with its unit.
2. The output checks reject deliberately wrong models (a shifted knot,
   an off-grid knot, an altered RSS, a suboptimal placement, a tampered
   simulation report or CLI payload), so ``ok_frac`` can actually fall.

Exits 0 when everything holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import SelectTap  # noqa: E402
from worker import check_records  # noqa: E402

FAILURES = []


def expect(cond, msg):
    print(("ok   " if cond else "FAIL ") + msg)
    if not cond:
        FAILURES.append(msg)


def end_to_end_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"], "--seed", "5",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            tag = f"{w['name']} trace={trace}"
            if proc.returncode != 0:
                expect(False, f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{tag}: result keys")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{tag}: all ops correct")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{tag}: every {key} metric present with its unit")
            expect(all(np.isfinite(v["value"]) for v in res["metrics"].values()), f"{tag}: finite values")


def _tapped_op(wl, item):
    """(op output, tapped select calls) for one op."""
    tap = SelectTap()
    tap.install()
    try:
        return wl.op(item), tap.take()
    finally:
        tap.remove()


def _shift_knot(model, grid, steps):
    knots = list(model.knots.knots)
    pos = int(np.searchsorted(grid, knots[0]))
    knots[0] = float(grid[pos + steps])
    return replace(model, knots=type(model.knots)(tuple(knots), model.knots.domain))


def checker_rejects_wrong_models():
    from knotselect import select

    wl = workloads.Select(3, True)
    xs, y, cfg = wl.item(0)
    model = select(xs, y, cfg)
    grid = checks.candidate_grid(xs, cfg)
    expect(model.k >= 1, "tiny select item selects at least one knot")
    expect(checks.check_model(xs, y, cfg, model) == [], "the library's own model passes")
    expect(checks.check_optimal(xs, y, cfg, model) == [], "the library's k<=2 placement is optimal")

    shifted = _shift_knot(model, grid, 1)
    expect(checks.check_model(xs, y, cfg, shifted) != [], "a knot shifted one grid step is rejected")
    off = replace(model, knots=type(model.knots)(
        (model.knots.knots[0] + 1e-3,) + model.knots.knots[1:], model.knots.domain))
    expect(checks.check_model(xs, y, cfg, off) != [], "an off-grid knot is rejected")
    expect(checks.check_model(xs, y, cfg, replace(model, rss=model.rss * (1 + 1e-6))) != [],
           "an RSS altered by one part in a million is rejected")
    expect(checks.check_model(xs, y, cfg, replace(model, lambda_used=model.lambda_used * 1.01)) != [],
           "a wrong lambda is rejected")

    # refit honestly at a worse placement: the refit checks pass, the oracle does not
    worse = _shift_knot(model, grid, 3)
    natural, degree = False, worse.basis.degree
    rss = checks.refit_rss(xs, y, worse.knots.knots, natural, degree)
    worse = replace(worse, rss=rss, pss=rss + worse.lambda_used * (worse.k + 1))
    expect(checks.check_optimal(xs, y, cfg, worse) != [], "a suboptimal placement fails the brute-force oracle")

    # a wrong model in a record makes the whole op count as failed
    rec = {"idx": 0, "s": 0.1, "ops": 1, "out": shifted, "err": None, "calls": [(xs, y, cfg, shifted)]}
    expect(check_records(wl, [rec])["failed"] == 1, "a rejected model counts as a failed op")


def checker_rejects_tampered_outputs():
    mc = workloads.MonteCarlo(3, True)
    item = mc.item(1)
    report, calls = _tapped_op(mc, item)
    expect(mc.check(item, report, calls).problems == [], "an untouched simulation report passes")
    bad = replace(report, khat_counts={k + 1: v for k, v in report.khat_counts.items()})
    expect(mc.check(item, bad, calls).problems != [], "a tampered simulation report is rejected")

    tmp = os.path.join(ROOT, ".bench_out", f"smoke-{os.getpid()}")
    epi = workloads.EpiLinear(3, True, tmp)
    try:
        item = epi.item(0)
        (rc, text), calls = _tapped_op(epi, item)
        expect(epi.check(item, (rc, text), calls).problems == [], "an untouched predict payload passes")
        payload = json.loads(text)
        payload["knots"] = ["2000-01-01"]
        expect(epi.check(item, (rc, json.dumps(payload)), calls).problems != [],
               "a predict payload with wrong knot dates is rejected")
    finally:
        epi.close()


def main() -> int:
    end_to_end_runs()
    checker_rejects_wrong_models()
    checker_rejects_tampered_outputs()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
