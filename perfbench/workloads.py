"""The benchmark workloads: inputs made from a seed, one operation on an
input through a public entry point, and the check of its output.

Entry points are looked up on their modules at call time (``runner.
qvmp_verify``, not a name bound at import), so the tracer's wrappers see
the benchmark's own calls as well as the program's.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import qvmp.bitlinalg as bitlinalg
import qvmp.grover as grover
import qvmp.runner as runner

import checks

VERIFY_N = 16
VERIFY_TRIALS = 8
VERIFY_SHOTS = 1024
# The acceptance suite's criterion-8 products: flipped ones from seeds
# 1000..1099, true ones from 5000..5099. The run seed picks their order.
CRITERION8_PRODUCTS = 100
FLIPPED_BASE_SEED = 1000
TRUE_BASE_SEED = 5000

# Full (non-compact) circuit, log2(8) + 2*9 + 1 = 22 qubits.
SCAN_N, SCAN_M, SCAN_MAX_ITERS = 8, 9, 2
POOL = 16


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list]
    operation: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]
    warm_up: Callable[[int], Any]


def _product(a: bitlinalg.BitMatrix, b: bitlinalg.BitMatrix) -> bitlinalg.BitMatrix:
    """A·B over F2 by row expansion, kept apart from ``bitlinalg.matmul``."""
    words = []
    for row in a.row_words:
        acc = 0
        for k in range(a.cols):
            if (row >> k) & 1:
                acc ^= b.row_words[k]
        words.append(acc)
    return bitlinalg.BitMatrix(a.rows, b.cols, tuple(words))


def flipped_product(n: int, seed: int):
    """(A, B, A·B, A·B with one entry flipped, row, col), drawn as the
    acceptance suite's criterion-8 generator draws them."""
    rng = random.Random(seed)
    a = bitlinalg.random_matrix(n, n, rng)
    b = bitlinalg.random_matrix(n, n, rng)
    c = _product(a, b)
    row, col = rng.randrange(n), rng.randrange(n)
    words = list(c.row_words)
    words[row] ^= 1 << col
    return a, b, c, bitlinalg.BitMatrix(n, n, tuple(words)), row, col


def _verify_config(n: int, seed: int) -> runner.ExperimentConfig:
    return runner.ExperimentConfig(n=n, m=n, mismatches=0, shots=VERIFY_SHOTS,
                                   seed=seed, trials=VERIFY_TRIALS)


@dataclass(frozen=True)
class VerifyInput:
    a: Any
    b: Any
    c: Any
    config: Any
    row: int | None = None
    col: int | None = None


def _verify_inputs(base: int, flipped: bool, seed: int) -> list[VerifyInput]:
    order = random.Random(seed).sample(range(CRITERION8_PRODUCTS), CRITERION8_PRODUCTS)
    items = []
    for i in order:
        a, b, c, bad, row, col = flipped_product(VERIFY_N, base + i)
        cfg = _verify_config(VERIFY_N, base + i)
        if flipped:
            items.append(VerifyInput(a, b, bad, cfg, row, col))
        else:
            items.append(VerifyInput(a, b, c, cfg))
    return items


def _verify(item: VerifyInput):
    return runner.qvmp_verify(item.a, item.b, item.c, item.config)


def _verify_warm_up(seed: int):
    a, b, _, bad, _, _ = flipped_product(4, seed)
    return runner.qvmp_verify(a, b, bad, _verify_config(4, seed))


@dataclass(frozen=True)
class MetricsInput:
    seed: int
    expected: list


def _metrics_inputs(seed: int) -> list[MetricsInput]:
    rng = random.Random(seed)
    items = []
    for _ in range(POOL):
        grid_seed = rng.getrandbits(31)
        expected = []
        for n, m, mismatches in runner.DEFAULT_METRICS_GRID:
            inst = runner.generate_instance(n, m, mismatches, grid_seed)
            table_bits = sum(w.bit_count() for w in inst.matrix.row_words) + inst.z.bits.bit_count()
            expected.append(checks.expected_metrics_row(
                n, m, mismatches, table_bits, inst.y.bits.bit_count()))
        items.append(MetricsInput(grid_seed, expected))
    return items


@dataclass(frozen=True)
class ScanInput:
    instance: Any
    solutions: int


def _scan_inputs(seed: int) -> list[ScanInput]:
    rng = random.Random(seed)
    return [ScanInput(runner.generate_instance(SCAN_N, SCAN_M, 1 + j % 3, rng.getrandbits(31)),
                      1 + j % 3) for j in range(POOL)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_flipped",
            lambda seed: _verify_inputs(FLIPPED_BASE_SEED, True, seed),
            _verify,
            lambda item, report: checks.check_verify_flipped(report, VERIFY_N, item.row, item.col),
            _verify_warm_up,
        ),
        Workload(
            "verify_true",
            lambda seed: _verify_inputs(TRUE_BASE_SEED, False, seed),
            _verify,
            lambda item, report: checks.check_verify_true(report),
            _verify_warm_up,
        ),
        Workload(
            "metrics_grid",
            _metrics_inputs,
            lambda item: runner.emit_metrics(seed=item.seed),
            lambda item, rows: checks.check_metrics(rows, item.expected),
            lambda seed: runner.emit_metrics(grid=[(4, 4, 1)], seed=seed),
        ),
        Workload(
            "scan_wide",
            _scan_inputs,
            lambda item: grover.scan_success_probability(item.instance, SCAN_MAX_ITERS),
            lambda item, points: checks.check_scan(points, SCAN_N, item.solutions, SCAN_MAX_ITERS),
            lambda seed: grover.scan_success_probability(
                runner.generate_instance(4, 2, 1, seed), 1),
        ),
    )
}
