"""The statistics of tools/bench_pairs.py on fixed numbers; no benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [0.056, 0.055, 0.057, 0.054, 0.058, 0.056, 0.055, 0.060, 0.053, 0.056]
CHANGE = [0.014, 0.013, 0.015, 0.014, 0.014, 0.013, 0.016, 0.014, 0.013, 0.057]
METRICS = [{"name": "op_s_p50", "better": "lower"}, {"name": "peak_rss_mb", "better": "lower"}]


def test_summarize_uses_numpy_percentiles_and_the_relative_spread():
    got = bench_pairs.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert got == {"median": 3.0, "q1": 2.0, "q3": 4.0, "spread": 0.6667}
    # linear interpolation between order statistics, as numpy.percentile does
    assert bench_pairs.summarize([1.0, 2.0, 3.0, 4.0]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25, "spread": 0.6}
    # q3 sits three quarters of the way from the 7th to the 8th value: 0.05675
    assert bench_pairs.summarize(PARENT) == {
        "median": 0.056, "q1": 0.055, "q3": 0.0568, "spread": 0.0313}


def test_better_in_pairs_counts_strict_wins_only():
    assert bench_pairs.better_in_pairs(PARENT, CHANGE) == 9
    assert bench_pairs.better_in_pairs(CHANGE, PARENT) == 1
    assert bench_pairs.better_in_pairs([1.0, 2.0], [1.0, 3.0], "higher") == 1
    assert bench_pairs.better_in_pairs([1.0, 2.0], [1.0, 2.0]) == 0  # ties are no win
    with pytest.raises(ValueError):
        bench_pairs.better_in_pairs([1.0, 2.0], [1.0])


def test_claim_needs_the_share_of_pairs_and_a_gain_beyond_the_parent_spread():
    assert bench_pairs.claim_holds(PARENT, CHANGE)
    assert not bench_pairs.claim_holds(CHANGE, PARENT)
    # better in 9 of 10 pairs, but by less than the parent's q3 - q1 of 0.0018
    slightly = [p - 0.0005 for p in PARENT[:9]] + [PARENT[9] + 0.01]
    assert bench_pairs.better_in_pairs(PARENT, slightly) == 9
    assert not bench_pairs.claim_holds(PARENT, slightly)
    # a large median gain that shows in only 8 of 10 pairs
    mostly = CHANGE[:8] + [0.07, 0.07]
    assert not bench_pairs.claim_holds(PARENT, mostly)
    assert bench_pairs.claim_holds([1.0] * 10, [2.0] * 10, "higher")


def test_claim_is_decided_on_unrounded_quartiles():
    # to four decimals the parent's q1, median and q3 all read 0.0101 and the
    # change's median 0.01, a gain of 0.0001 over a q3 - q1 of 0; unrounded
    # the gain is 0.00002 and the parent's q3 - q1 is 0.0000525
    parent = [0.01005] * 3 + [0.01006] * 4 + [0.01012] * 3
    change = [p - 0.00002 for p in parent]
    assert bench_pairs.summarize(parent) == {
        "median": 0.0101, "q1": 0.0101, "q3": 0.0101, "spread": 0.0052}
    assert bench_pairs.summarize(change)["median"] == 0.01
    assert bench_pairs.better_in_pairs(parent, change) == 10
    assert not bench_pairs.claim_holds(parent, change)


def test_parent_first_alternates_by_pair_and_by_workload():
    assert [bench_pairs.parent_first(p, 0) for p in range(4)] == [True, False, True, False]
    assert [bench_pairs.parent_first(0, j) for j in range(3)] == [True, False, True]
    # over 10 pairs every workload runs each side first five times
    for j in range(3):
        assert sum(bench_pairs.parent_first(p, j) for p in range(10)) == 5


def _run(op_s, rss, failed=0, attempted=100):
    return {"failed": failed, "attempted": attempted,
            "metrics": {"op_s_p50": {"value": op_s, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_workload_record_has_the_keys_of_earlier_records():
    runs = [(17201 + i, "parent" if i % 2 == 0 else "change",
             _run(PARENT[i], 39.6), _run(CHANGE[i], 39.7, failed=int(i == 3)))
            for i in range(10)]
    got = bench_pairs.workload_record(runs, METRICS)
    assert list(got) == [
        "seeds", "op_s_p50", "peak_rss_mb", "failed_ops", "attempted_ops",
        "per_pair_op_s_p50", "per_pair_peak_rss_mb", "first_in_pair"]
    assert got["seeds"] == "17201-17210"
    assert got["op_s_p50"]["parent"] == bench_pairs.summarize(PARENT)
    assert got["op_s_p50"]["change_lower_in_pairs"] == "9/10"
    assert got["peak_rss_mb"]["change_lower_in_pairs"] == "0/10"
    assert got["failed_ops"] == {"parent": 0, "change": 1}
    assert got["attempted_ops"] == {"parent": 1000, "change": 1000}
    assert got["per_pair_op_s_p50"]["17201"] == [0.056, 0.014]
    assert got["first_in_pair"]["17202"] == "change"


def test_verdict_is_worse_beyond_the_bound_in_either_direction():
    # medians 0.056 -> 0.0705: 26% slower against a bound of 25%
    slower = [p * 1.26 for p in PARENT]
    assert bench_pairs.verdict(PARENT, slower, "lower", 0.25) == "worse"
    assert bench_pairs.verdict(PARENT, slower, "lower", 0.3) == "no_worse"
    # for a rate, the change is worse when it is lower
    fewer = [p * 0.74 for p in PARENT]
    assert bench_pairs.verdict(PARENT, fewer, "higher", 0.25) == "worse"
    assert bench_pairs.verdict(PARENT, fewer, "lower", 0.25) == "no_worse"
    assert bench_pairs.verdict(PARENT, slower, "higher", 0.25) == "no_worse"


def test_verdict_is_unresolved_when_the_parent_spreads_beyond_the_bound():
    wide = [1.0, 1.0, 1.0, 0.6, 1.4, 0.6, 1.4, 0.6, 1.4, 1.0]  # (q3 - q1) / median = 0.8
    same = list(wide)
    assert bench_pairs.verdict(wide, same, "lower", 0.25) == "unresolved"
    assert bench_pairs.verdict(wide, same, "higher", 0.25) == "unresolved"
    assert bench_pairs.verdict(wide, same, "lower", 0.9) == "no_worse"
    # unless every change run beats every parent run
    assert bench_pairs.verdict(wide, [0.5] * 10, "lower", 0.25) == "no_worse"
    assert bench_pairs.verdict(wide, [1.5] * 10, "higher", 0.25) == "no_worse"
    # one change run that does not beat the slowest parent run leaves it open
    assert bench_pairs.verdict(wide, [0.5] * 9 + [0.6], "lower", 0.25) == "unresolved"
    # a loss beyond the bound is worse whatever the spread
    assert bench_pairs.verdict(wide, [1.4] * 10, "lower", 0.25) == "worse"


def test_verdict_is_decided_on_unrounded_values():
    # to four decimals both medians read 0.0101; unrounded the change is
    # slower by 0.000003, more than a bound of 0.0002 of the parent's median
    parent = [0.01005] * 3 + [0.01006] * 4 + [0.01012] * 3
    change = [p + 0.000003 for p in parent]
    assert bench_pairs.summarize(change)["median"] == bench_pairs.summarize(parent)["median"]
    assert bench_pairs.verdict(parent, change, "lower", 0.0002) == "worse"
    # the parent's unrounded spread, 0.0052, exceeds a bound of 0.005
    assert bench_pairs.verdict(parent, parent, "lower", 0.005) == "unresolved"
    assert bench_pairs.verdict(parent, parent, "lower", 0.0053) == "no_worse"


def test_workload_record_gives_each_bounded_metric_a_verdict():
    bounded = [dict(m, bound=0.25) for m in METRICS]
    runs = [(17201 + i, "parent", _run(PARENT[i], 39.6), _run(PARENT[i] * 1.3, 39.7))
            for i in range(10)]
    got = bench_pairs.workload_record(runs, bounded)
    assert got["op_s_p50"]["verdict"] == "worse"
    assert got["peak_rss_mb"]["verdict"] == "no_worse"
