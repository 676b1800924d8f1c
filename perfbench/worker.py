"""Run one workload in a fresh interpreter.

Imports museb from the checkout's ``src``, sets the workload up, prints
``READY`` just before the first timed op, runs a closed loop (one client; the
next op starts only after the last one ended and was checked) and prints one
JSON line with the run's figures.  run.py starts this; the BLAS thread count
comes from the environment it sets.

With ``--trace 1`` ops alternate between untraced and traced (span wrappers
installed), so drift in the machine's speed hits both alike and the tracing
overhead is the difference of the two medians.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"


@dataclass
class Loop:
    times: list[float] = field(default_factory=list)
    failed: int = 0
    quality: list[float] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)


def run_ops(workload, seconds: float, tracer=None, perturb: bool = False,
            into: Loop | None = None) -> Loop:
    """Closed loop of ops for ``seconds`` of wall time; at least one op runs.

    Results are added to ``into`` when given, else to a new Loop.
    """
    loop = Loop() if into is None else into
    deadline = perf_counter() + seconds
    while True:
        inputs = workload.next_inputs()
        if tracer is not None:
            tracer.recording = True
        start = perf_counter()
        try:
            out = workload.op(inputs, perturb)
        except Exception:
            loop.times.append(perf_counter() - start)
            reason = "op raised:\n" + traceback.format_exc()
        else:
            loop.times.append(perf_counter() - start)
            reason = None
        finally:
            if tracer is not None:
                tracer.recording = False
                loop.spans.append(tracer.take())
        if reason is None:
            reason = workload.check(out)
        if reason is not None:
            loop.failed += 1
            print(f"check failed: {reason}", file=sys.stderr)
        elif hasattr(workload, "quality"):
            loop.quality.append(workload.quality(out))
        if perf_counter() >= deadline:
            return loop


def tail(times: list[float]) -> dict:
    """The highest whole percentile with at least ten samples above it."""
    n = len(times)
    pct = int(100 * (1 - 10 / n)) if n > 20 else None
    if pct is None:
        return {"percentile": None, "value_s": None, "samples": n}
    return {"percentile": pct,
            "value_s": statistics.quantiles(times, n=100, method="inclusive")[pct - 1],
            "samples": n}


def zgemm_gflops(shape: tuple[int, int, int], min_seconds: float = 0.3) -> float:
    """Rate of a plain complex matmul of the given (n, k, m) Gram shape."""
    import numpy as np

    n, k, m = shape
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    b = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    start = perf_counter()
    a @ b
    reps = max(1, int(1e-3 / max(perf_counter() - start, 1e-9)))
    samples: list[float] = []
    start = perf_counter()
    while len(samples) < 5 or perf_counter() - start < min_seconds:
        t0 = perf_counter()
        for _ in range(reps):
            a @ b
        samples.append((perf_counter() - t0) / reps)
    return 8 * n * k * m / statistics.median(samples) / 1e9


def traced_figures(untraced: Loop, traced: Loop) -> tuple[dict, bool]:
    from layers import COMPUTED, gram_shape, op_layers

    per_op = [op_layers(spans) for spans in traced.spans]
    figures = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    repeat = all(op[name] == per_op[0][name] for op in per_op for name in COMPUTED)
    figures.update((name, per_op[0][name]) for name in COMPUTED)
    shape = gram_shape(traced.spans[0])
    ref = zgemm_gflops(shape) if shape else 0.0
    figures["ref.zgemm_gflops"] = ref
    figures["verify.gram_peak_frac"] = figures["verify.gram_gflops"] / ref if ref else 0.0
    figures["trace.overhead_s"] = statistics.median(traced.times) - statistics.median(untraced.times)
    return figures, repeat


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import museb

    if not Path(museb.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: museb imported from {museb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from envinfo import environment
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, str(WORKDIR))
    try:
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result: dict = {"env": environment()}
        if args.trace:
            from spans import Tracer

            untraced, traced, tracer = Loop(), Loop(), Tracer()
            deadline = perf_counter() + args.seconds
            while perf_counter() < deadline:
                run_ops(workload, 0, into=untraced)
                tracer.install()
                result["traced_bindings"] = len(tracer.bindings())
                try:
                    run_ops(workload, 0, tracer, into=traced)
                finally:
                    tracer.uninstall()
            result["metrics"], result["counts_repeat"] = traced_figures(untraced, traced)
            loops = (untraced, traced)
        else:
            loop = run_ops(workload, args.seconds)
            result["metrics"] = {
                "op_s_p50": statistics.median(loop.times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            result["tail"] = tail(loop.times)
            if loop.quality:
                result["search_best_cost"] = statistics.median(loop.quality)
            loops = (loop,)
        result["attempted"] = sum(len(lp.times) for lp in loops)
        result["failed"] = sum(lp.failed for lp in loops)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
