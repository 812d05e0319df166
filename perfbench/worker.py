"""One benchmark process: import, build inputs, warm up, then (optionally) measure.

Started by ``run.py`` in a fresh interpreter so that set-up includes the
library import. Prints ``READY`` once the warm-up op has finished, then,
unless ``--mode setup``, runs the closed loop (one caller, the next op
starts when the previous one returns) and prints one JSON line.
"""

import argparse
import json
import os
import platform
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_library() -> float:
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import knotselect

    elapsed = perf_counter() - t0
    if not os.path.abspath(knotselect.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"knotselect imported from {knotselect.__file__}, not from {SRC}")
    return elapsed


def timed_loop(wl, tap, seconds: float, min_ops: int, indices=None, tracer=None) -> dict:
    """Run whole passes over the pool until ``seconds`` and ``min_ops`` are both reached.

    With ``indices`` given, replay exactly those pool items instead, and
    tag each op's spans with its position when a ``tracer`` is given.
    """
    records = []
    ops = 0
    i = 0
    t_start = perf_counter()
    while indices is None or i < len(indices):
        idx = i if indices is None else indices[i]
        if tracer is not None:
            tracer.op = i
        item = wl.item(idx)
        t0 = perf_counter()
        try:
            out, err = wl.op(item), None
        except Exception as exc:  # a failed op is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        records.append({"idx": idx, "s": dt, "ops": wl.ops_in(item), "out": out, "err": err, "calls": tap.take()})
        ops += wl.ops_in(item)
        i += 1
        if indices is None and i % wl.pass_len == 0 and ops >= min_ops and perf_counter() - t_start >= seconds:
            break
    return {"records": records, "elapsed": perf_counter() - t_start, "ops": ops}


def tail(samples: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def check_records(wl, records) -> dict:
    """Output checks, outside the timed region. Returns failure counts and the truth hit rate.

    The hit rate covers the first ``wl.min_ops`` selections, which every run makes.
    """
    import checks

    failed = 0
    reasons = []
    hits = []
    eligible = 0
    oracle_runs = 0
    repeats = 0
    for rec in records:
        item = wl.item(rec["idx"])
        problems = [rec["err"]] if rec["err"] else []
        if not rec["err"]:
            try:
                outcome = wl.check(item, rec["out"], rec["calls"])
                problems += outcome.problems
                hits += outcome.k_hits
                # brute-force optimality on a deterministic sample of k <= 2 selections
                for xs, y, cfg, model in rec["calls"]:
                    if model.k in (1, 2):
                        if eligible % 4 == 0 and oracle_runs < 8:
                            problems += checks.check_optimal(xs, y, cfg, model)
                            oracle_runs += 1
                        eligible += 1
                # determinism: the first op, repeated, must give identical output
                if wl.repeat_check and repeats == 0:
                    repeats += 1
                    again = wl.op(item)
                    if again != rec["out"]:
                        problems.append("repeating the op changed its output")
            except Exception as exc:  # a crashing check is a failed op
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        if problems:
            failed += rec["ops"]
            reasons.append(f"item {rec['idx']}: " + "; ".join(problems))
    return {
        "failed": failed,
        "reasons": reasons[:20],
        "prop_correct_k": sum(hits[: wl.min_ops]) / max(len(hits[: wl.min_ops]), 1),
        "oracle_runs": oracle_runs,
        "repeats": repeats,
    }


def end_to_end(loop) -> dict:
    samples = [r["s"] / r["ops"] for r in loop["records"]]
    t_val, t_pct = tail(samples)
    return {
        "ops_per_s": loop["ops"] / loop["elapsed"],
        "op_s_p50": statistics.median(samples),
        "op_s_tail": t_val,
        "op_s_tail_percentile": t_pct,
        "op_samples": len(samples),
    }


def per_layer(traced, untraced, tracer, alloc_peaks) -> dict:
    from knotselect import sim

    ops = traced["ops"]
    summ = tracer.summary()
    op_time = sum(r["s"] for r in traced["records"])
    out = {f"{layer}.self_s_per_op": summ["self_s"].get(layer, 0.0) / ops
           for layer in ("basis", "lsq", "criterion", "search", "sim", "timeseries", "cli")}
    for name in ("basis.design_matrix", "lsq.solve", "search.select"):
        out[f"{name}.calls_per_op"] = summ["calls"].get(name, 0) / ops
    for name in ("basis.design_matrix", "lsq.solve", "criterion.cv_lambda", "sim.generate",
                 "timeseries.ingest_csv", "timeseries.fit_series", "timeseries.forecast"):
        out[f"{name}.s_per_op"] = summ["incl_s"].get(name, 0.0) / ops
    out["search.select.peak_alloc_mb"] = max(alloc_peaks, default=0) / 2**20
    reports = [r["out"] for r in traced["records"] + untraced["records"] if isinstance(r["out"], sim.SimReport)]
    out["sim.failures_frac"] = (
        sum(r.failures for r in reports) / sum(r.n_total for r in reports) if reports else 0.0
    )
    out["trace.op_s"] = op_time / ops
    out["trace.layer_self_frac"] = sum(summ["self_s"].values()) / op_time
    out["trace.overhead_frac"] = 1.0 - (ops / traced["elapsed"]) / (untraced["ops"] / untraced["elapsed"])
    return out


def write_spans(path, tracer) -> None:
    with open(path, "w") as fh:
        fh.write('{"fields": ["id", "parent", "op", "name", "start_s", "end_s"], "spans": [\n')
        fh.write(",\n".join(json.dumps(s) for s in tracer.spans))
        fh.write("\n]}\n")


def blas_threads():
    """OpenBLAS thread count of numpy's bundled BLAS, or None when it cannot be read."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--outdir", required=True)
    args = p.parse_args()

    import_s = import_library()
    # the benchmark's own modules import numpy, so they load after the timed library import
    import workloads
    from tracing import SelectAllocProbe, SelectTap, Tracer

    t0 = perf_counter()
    workdir = os.path.join(args.outdir, f"inputs-{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    inputs_s = perf_counter() - t0
    try:
        t0 = perf_counter()
        wl.warm_up()
        warmup_s = perf_counter() - t0
        print("READY", flush=True)
        setup = {"setup.import_s": import_s, "setup.inputs_s": inputs_s, "setup.warmup_s": warmup_s}
        if args.mode == "setup":
            print(json.dumps({"setup": setup}), flush=True)
            return 0

        tap = SelectTap()
        tap.install()
        if args.mode == "run":
            loop = timed_loop(wl, tap, args.seconds, wl.min_ops)
            import resource

            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            loops = [loop]
            metrics = end_to_end(loop)
            metrics["peak_rss_mb"] = peak_rss_mb
        else:
            untraced = timed_loop(wl, tap, args.seconds / 2, wl.min_ops // 2)
            tracer = Tracer()
            tracer.install()
            traced = timed_loop(wl, tap, 0, 0, indices=[r["idx"] for r in untraced["records"]], tracer=tracer)
            tracer.remove()
            probe = SelectAllocProbe()
            probe.install()
            for i in range(wl.pass_len):
                wl.op(wl.item(i))
                tap.take()
            probe.remove()
            loops = [untraced, traced]
            metrics = per_layer(traced, untraced, tracer, probe.peaks)
            write_spans(os.path.join(args.outdir, f"spans-{args.workload}-seed{args.seed}.json"), tracer)
        tap.remove()

        records = [r for lp in loops for r in lp["records"]]
        attempted = sum(r["ops"] for r in records)
        result = check_records(wl, records)
        metrics["ok_frac"] = 1.0 - result["failed"] / attempted
        metrics["prop_correct_k"] = result["prop_correct_k"]
        print(json.dumps({
            "attempted": attempted,
            "failed": result["failed"],
            "failure_reasons": result["reasons"],
            "oracle_runs": result["oracle_runs"],
            "repeat_checks": result["repeats"],
            "setup": setup,
            "environment": environment(),
            "metrics": metrics,
        }), flush=True)
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
