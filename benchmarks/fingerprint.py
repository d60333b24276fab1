#!/usr/bin/env python3
"""Output-identity fingerprint: one sha256 per family of program outputs.

    PYTHONPATH=src python benchmarks/fingerprint.py

Run it on two checkouts (each with its own ``src`` on the path) and compare
the lines: equal digests mean the change left that family of outputs
byte-identical. The families are

- ``verify``: the 200 acceptance criterion-8 reports (16x16 products, seeds
  1000+i with one flipped entry and 5000+i true), as ``to_json`` with the
  ``timings`` values dropped and their keys kept;
- ``metrics``: the ``emit_metrics`` CSV of the default grid, seeds 0-9;
- ``histogram``: ``emit_histogram`` payloads in optimal, dual and qvmp modes;
- ``scan``: ``scan_success_probability``, plain and dual;
- ``search``: ``dump`` and ``metrics`` of ``build_grover_search``, plain and
  dual, for several sizes and iteration counts;
- ``builders``: ``dump`` and registers of the public sub-builders on the
  same sizes: ``build_qrom`` of each instance's [A | z] table,
  ``build_inner_product(m)``, ``build_diffuser(log2 n)`` and
  ``build_oracle`` for all four (dual, fold_y) pairs;
- ``search_lowered`` and ``builders_lowered``: the same circuits through
  ``lower``, as ``dump`` and registers of the lowered circuit;
- ``scaling``: the ``emit_metrics`` CSV of the ``scaling_grid.json`` rows
  with n <= 1024 (up to 25 iterations), and ``metrics`` and
  ``lowered_metrics`` of ``build_grover_search`` at 5, 9 and 17
  iterations, plain, dual and ``fold_y``, on the ``search`` sizes;
- ``verify_modes``: ``qvmp_verify`` reports in the ``qvmp``, ``dual``,
  ``explicit`` 0 and ``explicit`` 2 iteration modes, on 4x4, 8x8 and 16x16
  products (seeds 0-19, flipped and true, 4 trials of 256 shots), with the
  ``timings`` values dropped as in ``verify``;
- ``statevector``: the ``statevector`` amplitudes, as hex of their raw
  bytes, of 200 seeded random circuits of 3-12 qubits with 40 gates drawn
  from x, h, z, cx, ccx, mcx, mcz and lookup; every other circuit starts
  with an H on each qubit, so its gates run at full support;
- ``wide``: ``scan_success_probability`` at n = 1024 and 4096 (m = 8,
  three mismatched rows, k = 0..3, plain and dual) and ``emit_histogram``
  at n = 1024 in the optimal, qvmp, explicit (2 iterations) and dual
  modes, so the engine's outputs are pinned on supports of thousands of
  addresses.

The unlowered ``search`` and ``builders`` dumps show a table lookup as one
``lookup`` gate since that op was added, and a diffuser as one ``diffuse``
gate since that op was added, so only the lowered families compare across
those two changes; the metrics in ``search`` stay the same across both.

Only long-standing public API is used, so the script runs unchanged on
older checkouts, except the ``statevector`` family: it needs the lookup
op (``Circuit.lookup``).
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from qvmp import circuit
from qvmp.bitlinalg import BitMatrix, append_column, matmul, random_matrix
from qvmp.grover import (
    build_diffuser,
    build_grover_search,
    build_inner_product,
    build_oracle,
    build_qrom,
    plan_iterations,
    scan_success_probability,
)
from qvmp.runner import (
    ExperimentConfig,
    emit_histogram,
    emit_metrics,
    generate_instance,
    metrics_to_csv,
    qvmp_verify,
)
from qvmp.simulator import statevector

# (mode, n, m, mismatches, seed) of each histogram payload
HISTOGRAM_CASES = (
    ("optimal", 8, 8, (2, 5, 7), 0),
    ("dual", 8, 4, (2, 3, 5, 6, 7), 1),
    ("qvmp", 16, 8, 2, 2),
)
# (iteration mode, explicit iterations) of the verify_modes reports
VERIFY_MODES = (("qvmp", None), ("dual", None), ("explicit", 0), ("explicit", 2))
SEARCH_SIZES = ((4, 4), (8, 8), (16, 16), (32, 6), (64, 8))
STATEVECTOR_KINDS = ("x", "h", "z", "cx", "ccx", "mcx", "mcz", "lookup")
SCALING_GRID = Path(__file__).with_name("scaling_grid.json")
# (n, mismatches) of each wide scan, and (mode, explicit iterations,
# mismatches) of each wide histogram at n = 1024
WIDE_SCANS = ((1024, 3), (4096, 3))
WIDE_HISTOGRAMS = (("optimal", None, 3), ("qvmp", None, 3), ("explicit", 2, 3),
                   ("dual", None, 1021))


def flipped_product(n: int, seed: int):
    """A, B, A·B and A·B with one flipped entry, as criterion 8 draws them."""
    rng = random.Random(seed)
    a = random_matrix(n, n, rng)
    b = random_matrix(n, n, rng)
    c = matmul(a, b)
    row, col = rng.randrange(n), rng.randrange(n)
    words = list(c.row_words)
    words[row] ^= 1 << col
    return a, b, c, BitMatrix(n, n, tuple(words))


def report_line(a, b, c, cfg) -> str:
    report = qvmp_verify(a, b, c, cfg)
    report.timings = {key: None for key in report.timings}
    return report.to_json()


def verify_lines():
    for base, flipped in ((1000, True), (5000, False)):
        for i in range(100):
            a, b, c, bad = flipped_product(16, base + i)
            cfg = ExperimentConfig(n=16, m=16, mismatches=0, shots=1024,
                                   seed=base + i, trials=8)
            yield report_line(a, b, bad if flipped else c, cfg)


def verify_modes_lines():
    for mode, explicit in VERIFY_MODES:
        for n in (4, 8, 16):
            for seed in range(20):
                a, b, c, bad = flipped_product(n, seed)
                cfg = ExperimentConfig(n=n, m=n, mismatches=0, iteration_mode=mode,
                                       explicit_iterations=explicit, shots=256,
                                       seed=seed, trials=4)
                for product in (bad, c):
                    yield report_line(a, b, product, cfg)


def metrics_lines():
    for seed in range(10):
        yield metrics_to_csv(emit_metrics(seed=seed))


def histogram_lines():
    for mode, n, m, mismatches, seed in HISTOGRAM_CASES:
        inst = generate_instance(n, m, mismatches, seed)
        plan = plan_iterations(n, len(inst.solutions), mode)
        yield json.dumps(emit_histogram(inst, plan, 4096, seed), sort_keys=True)


def scan_lines():
    inst = generate_instance(8, 4, (2, 5, 7), seed=3)
    for dual in (False, True):
        yield repr(scan_success_probability(inst, 4, dual=dual))


def search_circuits():
    for n, m in SEARCH_SIZES:
        inst = generate_instance(n, m, 2, seed=n + m)
        for k in range(4):
            for dual in (False, True):
                yield build_grover_search(inst, k, dual=dual)


def builder_circuits():
    for n, m in SEARCH_SIZES:
        inst = generate_instance(n, m, 2, seed=n + m)
        yield build_qrom(append_column(inst.matrix, inst.z))
        yield build_inner_product(m)
        yield build_diffuser(inst.address_bits)
        for dual in (False, True):
            for fold_y in (False, True):
                yield build_oracle(inst, dual, fold_y)


def search_lines():
    for c in search_circuits():
        yield circuit.dump(c)
        yield json.dumps(circuit.metrics(c))


def builders_lines():
    for c in builder_circuits():
        yield circuit.dump(c)
        yield repr(c.registers)


def lowered_lines(circuits):
    for c in circuits():
        lowered = circuit.lower(c)
        yield circuit.dump(lowered)
        yield repr(lowered.registers)


def scaling_lines():
    grid = [(row["n"], row["m"], row["mismatches"])
            for row in json.loads(SCALING_GRID.read_text()) if row["n"] <= 1024]
    yield metrics_to_csv(emit_metrics(grid=grid))
    for n, m in SEARCH_SIZES:
        inst = generate_instance(n, m, 2, seed=n + m)
        for k in (5, 9, 17):
            for dual, fold_y in ((False, False), (True, False), (False, True)):
                c = build_grover_search(inst, k, dual=dual, fold_y=fold_y)
                yield json.dumps([circuit.metrics(c), circuit.lowered_metrics(c)])


def random_circuit(seed: int) -> circuit.Circuit:
    """A ``statevector`` family circuit: 3-12 qubits, an H layer first
    on even seeds, then 40 gates of ``STATEVECTOR_KINDS``."""
    rng = random.Random(seed)
    n = rng.randint(3, 12)
    c = circuit.Circuit((("q", n),))
    if seed % 2 == 0:
        for q in range(n):
            c.h(q)
    for _ in range(40):
        kind = rng.choice(STATEVECTOR_KINDS)
        order = rng.sample(range(n), n)
        if kind in ("x", "h", "z"):
            getattr(c, kind)(order[0])
        elif kind == "cx":
            c.cx(order[1], order[0])
        elif kind == "ccx":
            c.ccx(order[1], order[2], order[0])
        elif kind in ("mcx", "mcz"):
            k = min(n - 1, rng.randint(3, 5) if kind == "mcx" else rng.randint(1, 4))
            getattr(c, kind)(order[1:1 + k], order[0])
        else:
            k = rng.randint(1, min(3, n - 1))
            d = rng.randint(1, min(3, n - k))
            c.lookup(order[:k], order[k:k + d], [rng.randrange(1 << d) for _ in range(1 << k)])
    return c


def statevector_lines():
    for seed in range(200):
        yield statevector(random_circuit(seed)).amplitudes.tobytes().hex()


def wide_lines():
    for n, mismatches in WIDE_SCANS:
        inst = generate_instance(n, 8, mismatches, seed=n)
        for dual in (False, True):
            yield repr(scan_success_probability(inst, 3, dual=dual))
    for mode, explicit, mismatches in WIDE_HISTOGRAMS:
        inst = generate_instance(1024, 8, mismatches, seed=mismatches)
        plan = plan_iterations(1024, len(inst.solutions), mode, explicit)
        yield json.dumps(emit_histogram(inst, plan, 4096, mismatches), sort_keys=True)


FAMILIES = {
    "verify": verify_lines,
    "metrics": metrics_lines,
    "histogram": histogram_lines,
    "scan": scan_lines,
    "search": search_lines,
    "builders": builders_lines,
    "search_lowered": lambda: lowered_lines(search_circuits),
    "builders_lowered": lambda: lowered_lines(builder_circuits),
    "scaling": scaling_lines,
    "verify_modes": verify_modes_lines,
    "statevector": statevector_lines,
    "wide": wide_lines,
}


def main() -> None:
    for name, lines in FAMILIES.items():
        digest = hashlib.sha256()
        for line in lines():
            digest.update(line.encode())
            digest.update(b"\n")
        print(f"{name} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
