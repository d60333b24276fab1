#!/usr/bin/env python3
"""Benchmark the compiled dense kernels against the pure-NumPy fallback.

Search circuits stay sparse and never reach the dense kernels, so this
times a circuit that does: an H layer on every qubit (the support passes
the sparse engine's handoff threshold within the layer) followed by seeded
controlled and single-qubit gates, evolved under each available backend.

    python benchmarks/bench_kernels.py --qubits 20 --gates 60
"""
import argparse
import random
import statistics
import time

from qvmp.circuit import Circuit
from qvmp.kernels import available_backends
from qvmp.simulator import probabilities, use_backend


def dense_circuit(qubits: int, gates: int, seed: int) -> Circuit:
    rng = random.Random(seed)
    c = Circuit((("q", qubits),))
    for q in range(qubits):
        c.h(q)
    for _ in range(gates):
        order = rng.sample(range(qubits), 4)
        kind = rng.choice(("h", "z", "cx", "ccx", "mcx", "mcz"))
        if kind == "h":
            c.h(order[0])
        elif kind == "z":
            c.z(order[0])
        elif kind == "cx":
            c.cx(order[0], order[1])
        elif kind == "ccx":
            c.ccx(order[0], order[1], order[2])
        elif kind == "mcx":
            c.mcx(order[:3], order[3])
        else:
            c.mcz(order[:2], order[2])
    return c


def time_backend(name: str, circuit: Circuit, repeats: int) -> list[float]:
    use_backend(name)
    samples = []
    for _ in range(repeats):
        stats: dict = {}
        start = time.perf_counter()
        probabilities(circuit, [0], stats=stats)
        samples.append(time.perf_counter() - start)
        assert stats["engine"] == "dense", stats
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qubits", type=int, default=20)
    parser.add_argument("--gates", type=int, default=60)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    circuit = dense_circuit(args.qubits, args.gates, args.seed)
    print(f"dense circuit: {circuit.num_qubits} qubits, {len(circuit.gates)} gates")

    results = {}
    for name in available_backends():
        samples = time_backend(name, circuit, args.repeats)
        results[name] = statistics.median(samples)
        print(f"{name:>8}: {results[name] * 1000:9.2f} ms (median of {args.repeats})")
    use_backend("auto")
    if len(results) == 2:
        print(f"speedup: {results['python'] / results['cython']:.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
