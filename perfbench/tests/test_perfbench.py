"""Tests of the benchmark itself: output checks, tracing, computed counts.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import museb
from layers import COMPUTED, op_layers
from spans import Tracer, summarize
from worker import ROOT, run_ops
from workloads import WORKLOADS


@pytest.fixture(params=sorted(WORKLOADS))
def workload(request, tmp_path):
    wl = WORKLOADS[request.param](3, str(tmp_path / "work"))
    yield wl
    wl.close()


def test_seed_code_passes_every_check(workload):
    loop = run_ops(workload, 0)
    assert (len(loop.times), loop.failed) == (1, 0)


def test_negative_control_counts_as_failure(workload):
    # one witness element scaled by 1.001 must fail the op's output check
    loop = run_ops(workload, 0, perturb=True)
    assert (len(loop.times), loop.failed) == (1, 1)


def test_tracer_wraps_every_binding_and_restores_them():
    original = museb.verify.check_museb_set
    tracer = Tracer()
    tracer.install()
    try:
        bound = set(tracer.bindings())
        for ns in ("museb", "museb.verify", "museb.compose", "museb.cli"):
            assert f"{ns}.check_museb_set" in bound
        assert {"museb.search.c23_family", "museb.search.catalog"} <= bound
        assert museb.compose.check_museb_set is museb.check_museb_set is not original
    finally:
        tracer.uninstall()
    assert museb.compose.check_museb_set is museb.check_museb_set is original


def test_summarize_self_time_and_nesting():
    spans = [
        ["cli.main", -1, 0.0, 10.0, None],
        ["verify.check_museb_set", 0, 1.0, 9.0, None],
        ["verify.check_sebk", 1, 2.0, 4.0, None],
        ["verify.check_museb_set", 1, 5.0, 6.0, None],
    ]
    agg = summarize(spans)
    assert agg["incl"] == {"cli.main": 10.0, "verify.check_museb_set": 8.0,
                           "verify.check_sebk": 2.0}
    assert agg["self"]["cli.main"] == 2.0
    assert agg["self"]["verify.check_museb_set"] == 5.0 + 1.0
    assert agg["calls"]["verify.check_museb_set"] == 2


def _traced_layers(name, seed, tmp_path, ops=2):
    wl = WORKLOADS[name](seed, str(tmp_path / "work"))
    tracer = Tracer()
    tracer.install()
    try:
        loop = run_ops(wl, 0, tracer)
        while len(loop.spans) < ops:
            run_ops(wl, 0, tracer, into=loop)
    finally:
        tracer.uninstall()
        wl.close()
    assert loop.failed == 0
    return [op_layers(spans) for spans in loop.spans]


def test_grow_c24_counts_follow_from_shapes(tmp_path):
    ops = _traced_layers("grow_c24", 1, tmp_path) + _traced_layers("grow_c24", 2, tmp_path, 1)
    n = 576  # elements per family; each is a 24 x 24 matrix
    want = {
        "verify.check_mu_pair.calls": 3,
        "verify.svd_count": 3 * n,
        "verify.gram_gflop": 3 * 8 * n * n * n / 1e9,
        "verify.checks_run": 3 * (n + n * n) + 3 * n * n,
        "compose.tensor_families.out_mb": 3 * n * n * 16 / 1e6,
    }
    for op in ops:
        assert {k: op[k] for k in want} == want


def test_probe_search_counts_repeat_across_seeds(tmp_path):
    first = _traced_layers("probe_search", 1, tmp_path)
    second = _traced_layers("probe_search", 9, tmp_path)
    counts = [{k: op[k] for k in COMPUTED} for op in first + second]
    assert all(c == counts[0] for c in counts)
    # 4 restarts of 1 + 300 penalty evaluations, plus the final recomputation
    assert counts[0]["search.unbiasedness_penalty.calls"] == 4 * 301 + 1
    assert counts[0]["construct.c23_family.calls"] == 4 * 301 + 1


def test_layer_metrics_cover_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    op = _traced_layers("probe_search", 1, tmp_path, 1)[0]
    whole_run = {"ref.zgemm_gflops", "verify.gram_peak_frac", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == set(op) | whole_run
    assert set(COMPUTED) <= set(op)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe_search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
