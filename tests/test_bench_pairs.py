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
