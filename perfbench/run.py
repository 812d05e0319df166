"""knotselect benchmark entry point.

    python3 perfbench/run.py --workload {mc,epi-linear,select} --seed N --seconds S --trace {0,1}

Run from the repository root. The library is imported from ``src/``
(nothing is installed). Each run starts fresh interpreters: ``SETUPS - 1``
that only set up (import, build inputs from the seed, one warm-up op) and
one that sets up and then measures, so ``setup_s`` is the median of
``SETUPS`` cold starts. The last line of standard output is the result
JSON; with ``--trace 0`` it holds every end-to-end metric named in
``BENCHMARK.json``, with ``--trace 1`` every per-layer metric. Details
(environment, tail percentile and sample count, failure reasons) go to
``.bench_out/`` and to the line before the result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(ROOT, ".bench_out")
SETUPS = 3
# single-threaded BLAS: on a small shared host a second BLAS thread mostly adds
# run-to-run noise; fixed hash seed so set and dict orders repeat
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
DEADLINE_S = 170.0  # the whole run, children included


def _spawn(args, mode: str, deadline: float) -> tuple[float, dict]:
    """Start a worker; return (seconds until it reported READY, its final JSON)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--outdir", OUTDIR,
    ] + (["--tiny"] if args.tiny else [])
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=dict(os.environ, **WORKER_ENV))
    killer = threading.Timer(max(deadline - perf_counter(), 1.0), proc.kill)
    killer.start()
    try:
        ready = None
        last = None
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = perf_counter() - t0
            elif line.strip():
                last = line
        rc = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or ready is None or last is None:
        raise RuntimeError(f"worker ({mode}) exited {rc} without a result")
    return ready, json.loads(last)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["mc", "epi-linear", "select"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs (smoke test only)")
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "knotselect", "__init__.py")):
        print(f"error: no library source at {os.path.join(ROOT, 'src', 'knotselect')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(OUTDIR, exist_ok=True)
    deadline = perf_counter() + DEADLINE_S
    try:
        setups = [_spawn(args, "setup", deadline) for _ in range(SETUPS - 1)]
        main_ready, res = _spawn(args, "trace" if args.trace else "run", deadline)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append((main_ready, res))

    values = dict(res["metrics"])
    values["setup_s"] = statistics.median(s[0] for s in setups)
    for key in res["setup"]:
        values[key] = statistics.median(s[1]["setup"][key] for s in setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": res["environment"],
        "setup_samples_s": [s[0] for s in setups],
        "op_samples": values.get("op_samples"),
        "op_s_tail_percentile": values.get("op_s_tail_percentile"),
        "oracle_runs": res["oracle_runs"],
        "repeat_checks": res["repeat_checks"],
        "failure_reasons": res["failure_reasons"],
        "all_values": values,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUTDIR, f"result-{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=2)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
