"""museb benchmark: one workload, timed from outside the package.

    python3 perfbench/run.py --workload grow_c24 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in its own fresh
interpreter (perfbench/worker.py) with the BLAS thread count set explicitly.
Set-up time is measured on several fresh interpreters, some before the timed
run and some after it, and reported as their median.  With ``--trace 0`` the last line of output carries the end-to-end
metrics listed in BENCHMARK.json, with ``--trace 1`` the per-layer ones; the
lines before it record the environment and diagnostics.  Exits non-zero,
without a result, when the checkout holds no museb sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3  # set-up-only interpreters on each side of the timed run
# One BLAS thread: with two, OpenBLAS's second thread spins through the tiny
# matmuls of probe_search and some ops stall for several times their median.
BLAS_THREADS = 1


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def start_worker(args: argparse.Namespace, setup_only: bool, limit_s: float):
    """Start a worker; return its set-up seconds (to READY) and its stdout after READY.

    A timer kills a worker that outlives ``limit_s``; the worker is always
    waited for before this returns.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(limit_s, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker for {args.workload} exited with code {proc.returncode}")
    return setup_s, rest


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "museb" / "__init__.py").is_file():
        print(f"error: no museb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups = [start_worker(args, True, 60)[0] for _ in range(SETUP_PROBES)]
        setup_s, out = start_worker(args, False, args.seconds + 90)
        setups += [setup_s] + [start_worker(args, True, 60)[0] for _ in range(SETUP_PROBES)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    figures = dict(result.pop("metrics"), setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        print(f"error: the worker did not measure {missing}", file=sys.stderr)
        return 1
    attempted, failed = result.pop("attempted"), result.pop("failed")
    print("env " + json.dumps(result.pop("env")))
    result.update(workload=args.workload, seed=args.seed, error_rate=failed / attempted,
                  blas_threads=BLAS_THREADS, setup_samples_s=setups)
    print("diagnostics " + json.dumps(result))
    if not result.get("counts_repeat", True):
        print("warning: computed counts differ between ops", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
