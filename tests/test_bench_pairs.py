import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def perfbench_results(values, name):
    return [{"metrics": {name: {"value": v}}, "attempted": 10, "failed": 0} for v in values]


@pytest.mark.parametrize("better,change,within", [
    ("lower", [1.2, 1.2, 1.2], True),    # 20% slower, bound 25%
    ("lower", [1.3, 1.3, 1.3], False),   # 30% slower
    ("lower", [0.5, 0.5, 0.5], True),    # faster
    ("higher", [0.8, 0.8, 0.8], True),   # 20% fewer, bound 25%
    ("higher", [0.7, 0.7, 0.7], False),  # 30% fewer
    ("higher", [2.0, 2.0, 2.0], True),   # more
])
def test_workload_entry_records_the_bound(better, change, within):
    spec = [{"name": "m", "better": better, "bound": 0.25}]
    results = {"parent": perfbench_results([1.0, 1.0, 1.0], "m"),
               "change": perfbench_results(change, "m")}
    entry = bench_pairs.workload_entry(results, [1, 2, 3], spec)
    metric = entry["metrics"]["m"]
    assert metric["bound"] == 0.25
    assert metric["within_bound"] is within
    assert metric["parent"]["median"] == 1.0
    assert metric["change"]["median"] == change[0]
    assert entry["attempted"] == {"parent": 30, "change": 30}
    assert entry["failed"] == {"parent": 0, "change": 0}


PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # median 1.45, q3 - q1 = 0.55


@pytest.mark.parametrize("better,change,meets", [
    ("lower", [v - 0.6 for v in PARENT], True),          # wins 10/10 by more than the spread
    ("lower", [v - 0.5 for v in PARENT], False),         # wins 10/10 by less than the spread
    ("lower", [v - 0.6 for v in PARENT[:9]] + [9.0], True),         # wins 9/10
    ("lower", [v - 0.6 for v in PARENT[:8]] + [9.0, 9.0], False),  # wins 8/10
    ("lower", PARENT, False),                            # ties win nothing
    ("higher", [v + 0.6 for v in PARENT], True),
    ("higher", [v - 0.6 for v in PARENT], False),
    ("higher", [v + 0.6 for v in PARENT[:8]] + [0.0, 0.0], False),
])
def test_workload_entry_applies_the_gain_rule(better, change, meets):
    spec = [{"name": "m", "better": better, "bound": 0.25}]
    results = {"parent": perfbench_results(PARENT, "m"),
               "change": perfbench_results(change, "m")}
    metric = bench_pairs.workload_entry(results, list(range(10)), spec)["metrics"]["m"]
    assert metric["parent"]["q3"] - metric["parent"]["q1"] == pytest.approx(0.55)
    assert metric["meets_gain_rule"] is meets


@pytest.mark.parametrize("better,parent,change,unresolved", [
    ("lower", PARENT, PARENT, True),                        # spread 0.55 > 25% of 1.45
    ("lower", PARENT, [v - 0.6 for v in PARENT], True),     # better, but the runs overlap
    ("lower", PARENT, [0.9] * 10, False),                   # every run below every parent run
    ("higher", PARENT, [2.0] * 10, False),                  # every run above every parent run
    ("higher", PARENT, [v + 0.6 for v in PARENT], True),
    ("lower", [1.0] * 10, [1.2] * 10, False),               # no spread
    ("lower", [1.0, 1.1, 1.2] * 3 + [1.1], PARENT, False),  # spread 0.2 < 25% of 1.1
])
def test_workload_entry_flags_unresolved_metrics(better, parent, change, unresolved):
    spec = [{"name": "m", "better": better, "bound": 0.25}]
    results = {"parent": perfbench_results(parent, "m"),
               "change": perfbench_results(change, "m")}
    metric = bench_pairs.workload_entry(results, list(range(10)), spec)["metrics"]["m"]
    assert metric["unresolved"] is unresolved
