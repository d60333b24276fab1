#!/usr/bin/env python3
"""Measure where the sparse engine should hand off to the dense state.

Part 1 times one gate of each kind on a sparse state of 2^n / f random
entries against the same gate on the dense array, for a range of support
fractions 1/f; the crossover is the fraction at which the sparse gate
costs as much as the dense one.

Part 2 evolves random circuits whose support grows from one basis state
to 2^n, once with each handoff fraction (by rebinding the simulator's
``_DENSE_FRACTION``; 1/1 never hands off), and reports the median wall
time of each.

    PYTHONPATH=src python benchmarks/bench_handoff.py --qubits 14 16 18 20
"""
import argparse
import random
import statistics
import time

import numpy as np

from qvmp import simulator
from qvmp.circuit import Circuit
from qvmp.simulator import _apply_h, _apply_mcx, _apply_phase, _evolve, _scatter, _sparse_h

FRACTIONS = (64, 32, 16, 8, 4, 2, 1)


def median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def gate_costs(n: int, fraction: int, repeats: int, rng: np.random.Generator) -> dict:
    """Seconds per gate, sparse and dense, at support 2^n / fraction."""
    size = (1 << n) // fraction
    index = np.sort(rng.choice(1 << n, size=size, replace=False)).astype(np.int64)
    amp = rng.standard_normal(size)
    amp /= np.linalg.norm(amp)
    dense = _scatter(n, index, amp, n)
    q, cmask, tmask = n // 2, (1 << 1) | (1 << 3), (1 << 5) | (1 << 7)
    return {
        "h": (median_time(lambda: _sparse_h(index, amp, q, False), repeats),
              median_time(lambda: _apply_h(dense, q, False), repeats)),
        "mcx": (median_time(lambda: sparse_mcx(index, tmask, cmask), repeats),
                median_time(lambda: _apply_mcx(dense, tmask, cmask, cmask), repeats)),
        "mcz": (median_time(lambda: sparse_phase(index, amp, cmask), repeats),
                median_time(lambda: _apply_phase(dense, cmask, cmask), repeats)),
    }


# The engine's sparse controlled-X and phase steps, as written in _evolve.
def sparse_mcx(index: np.ndarray, tmask: int, cmask: int) -> None:
    index[(index & cmask) == cmask] ^= tmask


def sparse_phase(index: np.ndarray, amp: np.ndarray, mask: int) -> None:
    amp[(index & mask) == mask] *= -1.0


def growing_circuit(n: int, seed: int) -> Circuit:
    """Rounds of mixing controlled-X and phase gates around one H each, so
    the support doubles at most once per round on its way to 2^n."""
    rng = random.Random(seed)
    c = Circuit((("q", n),))
    for q in rng.sample(range(n), n):
        c.h(q)
        for _ in range(6):
            a, b, t = rng.sample(range(n), 3)
            rng.choice((lambda: c.cx(a, t), lambda: c.ccx(a, b, t),
                        lambda: c.mcz([a, b], t), lambda: c.x(t)))()
    return c


def handoff_costs(n: int, repeats: int) -> dict:
    """Median seconds to evolve ``growing_circuit`` under each fraction;
    at 1/1 the support never exceeds 2^n, so the run never hands off."""
    circuits = [growing_circuit(n, seed) for seed in range(3)]
    saved = simulator._DENSE_FRACTION
    out = {}
    try:
        for fraction in FRACTIONS:
            simulator._DENSE_FRACTION = fraction
            out[fraction] = median_time(
                lambda: [_evolve(c, cap=n + 1) for c in circuits], repeats)
    finally:
        simulator._DENSE_FRACTION = saved
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qubits", type=int, nargs="+", default=[14, 16, 18, 20])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    print("per gate, sparse/dense time ratio (<1: sparse is cheaper)")
    print("qubits  gate " + "".join(f"{'1/' + str(f):>8}" for f in FRACTIONS))
    for n in args.qubits:
        costs = {f: gate_costs(n, f, args.repeats, rng) for f in FRACTIONS}
        for gate in ("h", "mcx", "mcz"):
            ratios = "".join(f"{costs[f][gate][0] / costs[f][gate][1]:8.2f}" for f in FRACTIONS)
            print(f"{n:>6}  {gate:<4} {ratios}")
    print("growing circuits, ms to evolve 3 circuits, by handoff fraction")
    print("qubits " + "".join(f"{'1/' + str(f):>8}" for f in FRACTIONS))
    for n in args.qubits:
        costs = handoff_costs(n, args.repeats)
        print(f"{n:>6} " + "".join(f"{costs[f] * 1e3:8.1f}" for f in FRACTIONS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
