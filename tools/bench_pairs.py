"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --parent HEAD --pr 17 [--claim probe_search:op_s_p50]

Run from anywhere inside the repository.  The parent revision is extracted
with ``git archive`` and the working tree's files (tracked and untracked, not
ignored) are copied, each into a clean temporary directory, so nothing is
written to the repository until the result.  Every workload in
BENCHMARK.json gets PAIRS pairs, and every pair runs

    python3 perfbench/run.py --workload <w> --seed <s> --seconds <run_seconds> --trace 0

once on each side, at BENCHMARK.json's ``run_seconds``, with the side that
runs first alternating from pair to pair and from workload to workload.  The
workloads are interleaved so drift in the machine's speed reaches every
workload and both sides alike.  Pair i of workload j uses seed
1000 * pr + 100 * j + i + 1.  The medians, quartiles and spreads of each
end-to-end metric, the count of pairs in which the change came out better,
the verdict on whether the change made the metric worse (``worse``,
``unresolved`` or ``no_worse``, against the metric's bound in
BENCHMARK.json), and the failed and attempted ops of each side are written
to ``BENCH_<pr>.json`` at the root of the repository.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PAIRS = 10  # pairs per workload; the paired rule needs at least ten
CLAIM_SHARE = 0.9  # a claimed gain must show in at least this share of the pairs


def _quartiles(values) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(q1), float(median), float(q3)


def summarize(values) -> dict:
    """Median, quartiles and spread (q3 - q1) / median of one side's values,
    rounded to four decimals for the record."""
    q1, median, q3 = _quartiles(values)
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "spread": round((q3 - q1) / median, 4)}


def better_in_pairs(parent, change, better: str = "lower") -> int:
    """Pairs in which the change's value beats the parent's."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change, strict=True))
    return sum(c > p for p, c in zip(parent, change, strict=True))


def claim_holds(parent, change, better: str = "lower") -> bool:
    """A gain holds when the change is better in at least CLAIM_SHARE of the
    pairs and its median beats the parent's by more than the parent's q3 - q1.
    Decided on the unrounded quartiles."""
    p_q1, p_median, p_q3 = _quartiles(parent)
    c_median = _quartiles(change)[1]
    gain = p_median - c_median if better == "lower" else c_median - p_median
    share = better_in_pairs(parent, change, better) / len(parent)
    return share >= CLAIM_SHARE and gain > p_q3 - p_q1


def verdict(parent, change, better: str, bound: float) -> str:
    """Whether the change made a metric worse, decided on the unrounded values.

    "worse" when the change's median is worse than the parent's by more than
    bound, a fraction of the parent's median; otherwise "unresolved" when the
    parent's spread (q3 - q1) / median exceeds bound, unless every change run
    beats every parent run; otherwise "no_worse".
    """
    p_q1, p_median, p_q3 = _quartiles(parent)
    c_median = _quartiles(change)[1]
    loss = c_median - p_median if better == "lower" else p_median - c_median
    if loss > bound * p_median:
        return "worse"
    beats_all = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    if (p_q3 - p_q1) / p_median > bound and not beats_all:
        return "unresolved"
    return "no_worse"


def parent_first(pair: int, workload: int) -> bool:
    """Whether the parent runs first in this pair; alternates along both axes."""
    return (pair + workload) % 2 == 0


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def extract_parent(root: Path, rev: str, into: Path) -> None:
    archive = _git(root, "archive", "--format=tar", rev)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def copy_working_tree(root: Path, into: Path) -> None:
    listed = _git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        src = root / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, into / name)


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One perfbench run; returns its result line and its env line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited with code "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def workload_record(runs: list[tuple[int, str, dict, dict]], metrics: list[dict]) -> dict:
    """The record of one workload from its pairs (seed, first side, parent, change)."""
    seeds = [seed for seed, *_ in runs]
    record = {"seeds": f"{seeds[0]}-{seeds[-1]}"}
    for m in metrics:
        parent = [p["metrics"][m["name"]]["value"] for _, _, p, _ in runs]
        change = [c["metrics"][m["name"]]["value"] for _, _, _, c in runs]
        record[m["name"]] = {
            "parent": summarize(parent), "change": summarize(change),
            f"change_{m['better']}_in_pairs":
                f"{better_in_pairs(parent, change, m['better'])}/{len(runs)}",
        }
        if "bound" in m:  # every end-to-end metric of BENCHMARK.json has one
            record[m["name"]]["verdict"] = verdict(parent, change, m["better"], m["bound"])
    for key in ("failed", "attempted"):
        record[f"{key}_ops"] = {"parent": sum(p[key] for _, _, p, _ in runs),
                                "change": sum(c[key] for _, _, _, c in runs)}
    for m in metrics:
        record[f"per_pair_{m['name']}"] = {
            str(seed): [round(p["metrics"][m["name"]]["value"], 4),
                        round(c["metrics"][m["name"]]["value"], 4)]
            for seed, _, p, c in runs
        }
    record["first_in_pair"] = {str(seed): first for seed, first, _, _ in runs}
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--change", default="", help="one line saying what the change does")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="the claimed gain, checked against the paired rule")
    args = parser.parse_args(argv)

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    if args.claim:  # checked before the runs, which take the better part of an hour
        workload, _, metric = args.claim.partition(":")
        if workload not in workloads or metric not in [m["name"] for m in metrics]:
            parser.error(f"--claim {args.claim!r} names no workload:metric of BENCHMARK.json")
    parent_rev = _git(root, "rev-parse", "--short", args.parent).decode().strip()

    runs: dict[str, list] = {w: [] for w in workloads}
    env = None
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for path in sides.values():
            path.mkdir()
        extract_parent(root, args.parent, sides["parent"])
        copy_working_tree(root, sides["change"])
        for pair in range(PAIRS):
            for j, w in enumerate(workloads):
                seed = 1000 * args.pr + 100 * j + pair + 1
                order = ("parent", "change") if parent_first(pair, j) else ("change", "parent")
                result = {}
                for side in order:
                    result[side], side_env = run_once(sides[side], w, seed, seconds)
                    env = env or side_env
                    print(f"{w} seed {seed} {side}: " + json.dumps(
                        {k: round(v["value"], 4) for k, v in result[side]["metrics"].items()}),
                        flush=True)
                runs[w].append((seed, order[0], result["parent"], result["change"]))

    out = {
        "change": args.change,
        "parent": parent_rev,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds} "
                   "--trace 0",
        "method": ("tools/bench_pairs.py: parent (git archive) and change (the working tree's "
                   "files) run from clean copies, alternating which runs first from pair to "
                   "pair and from workload to workload, the workloads interleaved "
                   f"{', '.join(workloads)}; {PAIRS} pairs per workload; q1/median/q3 by "
                   "numpy.percentile over the pairs' values; spread = (q3 - q1) / median, as "
                   "in perfbench/baseline.json"),
        "env": env,
    }
    if args.claim:
        better = next(m["better"] for m in metrics if m["name"] == metric)
        values = [(p["metrics"][metric]["value"], c["metrics"][metric]["value"])
                  for _, _, p, c in runs[workload]]
        parent, change = zip(*values)
        out["claim"] = {
            "workload": workload, "metric": metric,
            "rule": (f"change {better} in >= {CLAIM_SHARE:.0%} of the pairs and median "
                     "better by more than the parent's q3 - q1"),
            "holds": claim_holds(parent, change, better),
        }
    out["end_to_end"] = {w: workload_record(runs[w], metrics) for w in workloads}
    target = root / f"BENCH_{args.pr}.json"
    target.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for w in workloads:
        print(w, " ".join(f"{m['name']}={out['end_to_end'][w][m['name']]['verdict']}"
                          for m in metrics))
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
