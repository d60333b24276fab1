"""Expected outputs of each workload, computed apart from the program.

Nothing here imports qvmp: every expected value is a closed form or plain
integer arithmetic on the generated inputs. Each ``check_*`` function
returns ``None`` when the program's output is correct and a one-line
description of the first discrepancy otherwise.
"""
from __future__ import annotations

import math

SCAN_TOLERANCE = 1e-9


def block_width(n: int) -> int:
    """Column-block width the verifier uses: 2^floor(log2(n) / 2)."""
    return 1 << ((n.bit_length() - 1) // 2)


def check_verify_flipped(report, n: int, row: int, col: int) -> str | None:
    """A product with entry (row, col) flipped must be rejected, naming
    the block that holds the flipped column and the flipped row."""
    expected = (col // block_width(n), row)
    if report.decision != "inconsistent":
        return f"decision {report.decision!r} on a flipped product"
    if report.witness is None or tuple(report.witness) != expected:
        return f"witness {report.witness} != {expected}"
    return None


def check_verify_true(report) -> str | None:
    """A correct product must never be rejected."""
    if report.decision != "consistent" or report.witness is not None:
        return f"decision {report.decision!r} with witness {report.witness} on a true product"
    return None


def _kind(controls: int) -> str:
    """Gate kind of an X with this many controls, as the IR canonicalises it."""
    return {0: "x", 1: "cx", 2: "ccx"}.get(controls, "mcx")


def expected_metrics_row(n: int, m: int, mismatches: int, table_bits: int, y_weight: int) -> dict:
    """Closed-form metrics of the full measured search circuit.

    ``table_bits`` is the number of set bits in the lookup table [A | z]
    and ``y_weight`` the number of set bits in y. One iteration is a
    lookup (one k-control X per set table bit, and n*k X gates selecting
    and releasing the rows), m ccx for the inner product, one Z, the
    inverse inner product and lookup, and a diffuser (2k+2 H, 2k X and
    one (k-1)-control X).
    Lowering turns every X with c >= 3 controls into 2c-3 ccx on k-2
    shared ancillas.
    """
    k = n.bit_length() - 1
    its = math.floor(math.pi / 4 * math.sqrt(n / mismatches))
    counts = {kind: 0 for kind in ("x", "h", "z", "cx", "ccx", "mcx", "measure")}
    counts["h"] = k + its * (2 * k + 2)
    counts["x"] = y_weight + its * (2 * n * k + 2 * k)
    counts["z"] = its
    counts["ccx"] = its * 2 * m
    counts["measure"] = k
    counts[_kind(k)] += its * 2 * table_bits
    counts[_kind(k - 1)] += its
    wide = [(c, its * 2 * table_bits if c == k else its) for c in (k, k - 1)]
    wide = [(c, count) for c, count in wide if c >= 3 and count]
    extra_ccx = sum(count * (2 * c - 3) for c, count in wide)
    ancillas = max((c - 2 for c, _ in wide), default=0)
    total = sum(counts.values())
    return {
        "n": n,
        "m": m,
        "mismatches": mismatches,
        "iterations": its,
        "qubits": k + 2 * m + 1,
        "total_gates": total,
        **counts,
        "lowered_qubits": k + 2 * m + 1 + ancillas,
        "lowered_total_gates": total - counts["mcx"] + extra_ccx,
        "lowered_ccx": counts["ccx"] + extra_ccx,
    }


def check_metrics(rows: list[dict], expected: list[dict]) -> str | None:
    """Every expected field of every grid row must match exactly."""
    if len(rows) != len(expected):
        return f"{len(rows)} rows != {len(expected)}"
    for row, want in zip(rows, expected):
        for key, value in want.items():
            if row.get(key) != value:
                grid_row = (want["n"], want["m"], want["mismatches"])
                return f"row {grid_row}: {key} {row.get(key)} != {value}"
    return None


def expected_scan_mass(n: int, solutions: int, k: int) -> float:
    """Solution mass after k Grover iterations: sin^2((2k+1) asin sqrt(M/n))."""
    theta = math.asin(math.sqrt(solutions / n))
    return math.sin((2 * k + 1) * theta) ** 2


def check_scan(points: list, n: int, solutions: int, max_iters: int) -> str | None:
    """One (k, mass) point per k = 0..max_iters, each within 1e-9 of the
    closed form."""
    ks = [k for k, _ in points]
    if ks != list(range(max_iters + 1)):
        return f"iteration points {ks} != 0..{max_iters}"
    for k, mass in points:
        want = expected_scan_mass(n, solutions, k)
        if not abs(mass - want) <= SCAN_TOLERANCE:
            return f"mass at k={k} is {mass!r}, expected {want!r}"
    return None
