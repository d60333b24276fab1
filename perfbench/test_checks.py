"""Tests of the benchmark's own output checks: each accepts the program's
real output and rejects a corrupted copy of it.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_qvmp()

import checks  # noqa: E402
import workloads  # noqa: E402
from qvmp.grover import scan_success_probability  # noqa: E402
from qvmp.runner import emit_metrics, generate_instance, qvmp_verify  # noqa: E402

SMALL_GRID = [(4, 4, 1), (16, 4, 2), (32, 8, 1)]


@pytest.fixture(scope="module")
def flipped():
    n = 8
    a, b, _, bad, row, col = workloads.flipped_product(n, seed=3)
    report = qvmp_verify(a, b, bad, workloads._verify_config(n, seed=3))
    return report, n, row, col


def test_flipped_check_accepts_the_real_verdict(flipped):
    report, n, row, col = flipped
    assert checks.check_verify_flipped(report, n, row, col) is None


def test_flipped_check_rejects_a_wrong_witness(flipped):
    report, n, row, col = flipped
    block, witness_row = report.witness
    wrong = dataclasses.replace(report, witness=(block, (witness_row + 1) % n))
    assert checks.check_verify_flipped(wrong, n, row, col) is not None
    wrong_block = dataclasses.replace(report, witness=(block + 1, witness_row))
    assert checks.check_verify_flipped(wrong_block, n, row, col) is not None


def test_flipped_check_rejects_a_consistent_verdict(flipped):
    report, n, row, col = flipped
    missed = dataclasses.replace(report, decision="consistent", witness=None)
    assert checks.check_verify_flipped(missed, n, row, col) is not None


def test_true_check_accepts_consistent_and_rejects_inconsistent():
    n = 8
    a, b, c, _, _, _ = workloads.flipped_product(n, seed=4)
    report = qvmp_verify(a, b, c, workloads._verify_config(n, seed=4))
    assert checks.check_verify_true(report) is None
    rejected = dataclasses.replace(report, decision="inconsistent", witness=(0, 0))
    assert checks.check_verify_true(rejected) is not None


def _expected_rows(seed):
    rows = []
    for n, m, mismatches in SMALL_GRID:
        inst = generate_instance(n, m, mismatches, seed)
        table_bits = sum(w.bit_count() for w in inst.matrix.row_words) + inst.z.bits.bit_count()
        rows.append(checks.expected_metrics_row(n, m, mismatches, table_bits,
                                                inst.y.bits.bit_count()))
    return rows


def test_metrics_check_accepts_the_real_rows():
    assert checks.check_metrics(emit_metrics(SMALL_GRID, seed=5), _expected_rows(5)) is None


@pytest.mark.parametrize("field", ["qubits", "lowered_qubits", "mcx", "lowered_ccx", "iterations"])
def test_metrics_check_rejects_an_off_by_one(field):
    rows = emit_metrics(SMALL_GRID, seed=5)
    rows[-1] = {**rows[-1], field: rows[-1][field] + 1}
    assert checks.check_metrics(rows, _expected_rows(5)) is not None


def test_scan_check_accepts_exact_masses_and_rejects_a_1e6_shift():
    inst = generate_instance(8, 3, 2, seed=6)
    points = scan_success_probability(inst, 3)
    assert checks.check_scan(points, 8, 2, 3) is None
    k, mass = points[1]
    shifted = points[:1] + [(k, mass + 1e-6)] + points[2:]
    assert checks.check_scan(shifted, 8, 2, 3) is not None
    assert checks.check_scan(points[:-1], 8, 2, 3) is not None


def test_outputs_match_the_metric_lists(capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "verify_true", "--seed", "0",
                         "--seconds", "0.2", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert printed == {metric["name"]: metric["unit"] for metric in spec[key]}
