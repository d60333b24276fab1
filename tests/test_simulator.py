import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvmp.circuit import Circuit
from qvmp.errors import ContractError, FormatError, ResourceError
from qvmp.grover import build_grover_search, build_grover_search_compact, plan_iterations
from qvmp.runner import generate_instance
from qvmp.simulator import (
    SPARSE_MAX_QUBITS,
    Histogram,
    _evolve,
    probabilities,
    run,
    statevector,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def bell_circuit(classical=0):
    c = Circuit((("q", 2),), classical_bits=classical)
    c.h(0)
    c.cx(0, 1)
    return c


GATE_KINDS = ("x", "h", "z", "cx", "ccx", "mcx", "mcz")


def circuit_from(num_qubits, gates):
    c = Circuit((("q", num_qubits),))
    for kind, order in gates:
        if kind in ("x", "h", "z"):
            getattr(c, kind)(order[0])
        elif kind == "cx":
            c.cx(order[0], order[1])
        elif kind == "ccx":
            c.ccx(order[0], order[1], order[2])
        elif kind == "mcx":
            c.mcx(order[:3], order[3])
        else:
            c.mcz(order[:2], order[2])
    return c


def random_circuit(num_qubits, num_gates, rng):
    gates = []
    for _ in range(num_gates):
        kind = rng.choice(GATE_KINDS)
        gates.append((kind, rng.sample(range(num_qubits), num_qubits)))
    return circuit_from(num_qubits, gates)


def reference_amplitudes(circuit, initial):
    """Gate-by-gate dense evolution by explicit index arithmetic, sharing
    no code with the engine."""
    idx = np.arange(1 << circuit.num_qubits)
    psi = np.zeros(idx.size)
    psi[initial] = 1.0
    for g in circuit.gates:
        t = 1 << g.targets[0]
        cmask = sum(1 << c for c in g.controls)
        on = (idx & cmask) == cmask
        if g.kind == "h":
            lo, hi = psi[idx & ~t], psi[idx | t]
            psi = np.where(idx & t, lo - hi, lo + hi) * INV_SQRT2
        elif g.kind in ("x", "cx", "ccx", "mcx"):
            psi = np.where(on, psi[idx ^ t], psi)
        else:  # z, mcz
            psi = np.where(on & ((idx & t) != 0), -psi, psi)
    return psi


@st.composite
def gate_lists(draw, num_qubits, max_gates, kinds=GATE_KINDS):
    """(kind, qubit order) pairs for ``random_circuit``'s gate rule."""
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        gates.append((kind, draw(st.permutations(range(num_qubits)))))
    return gates


def evolved_amplitudes(circuit, initial):
    stats = {}
    dense = _evolve(circuit, initial, stats=stats).to_dense(circuit.num_qubits)
    return dense, stats


class TestSparseEngine:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_dense_reference(self, data):
        n = data.draw(st.integers(4, 9))
        c = circuit_from(n, data.draw(gate_lists(n, 40)))
        initial = data.draw(st.integers(0, (1 << n) - 1))
        amps, stats = evolved_amplitudes(c, initial)
        assert np.max(np.abs(amps - reference_amplitudes(c, initial))) < 1e-12
        assert stats["pruned_mass"] <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_dense_handoff_midway(self, data):
        # Without H the gates before the layer keep the support at one
        # basis state, which an H on every qubit spreads over all 2^n
        # indices, past the handoff fraction. So the random gates run
        # sparse before the layer and dense after it.
        n = data.draw(st.integers(4, 8))
        before = data.draw(gate_lists(n, 20, tuple(k for k in GATE_KINDS if k != "h")))
        after = data.draw(gate_lists(n, 20))
        c = circuit_from(n, before + [("h", [q] + [p for p in range(n) if p != q])
                                      for q in range(n)] + after)
        initial = data.draw(st.integers(0, (1 << n) - 1))
        amps, stats = evolved_amplitudes(c, initial)
        assert stats["engine"] == "dense"
        assert stats["peak_support"] == 1 << n
        assert np.max(np.abs(amps - reference_amplitudes(c, initial))) < 1e-12

    def test_few_hadamards_stay_sparse(self):
        c = Circuit((("q", 12),))
        c.h(3)
        c.cx(3, 11)
        c.x(5)
        c.h(5)
        c.mcz([3, 5], 11)
        amps, stats = evolved_amplitudes(c, 6)
        assert stats == {"engine": "sparse", "peak_support": 4, "pruned_mass": 0.0}
        assert np.max(np.abs(amps - reference_amplitudes(c, 6))) < 1e-12

    @pytest.mark.parametrize("n,m", [(4, 4), (8, 8), (16, 16)])
    @pytest.mark.parametrize("builder", [build_grover_search_compact, build_grover_search])
    def test_search_circuits_prune_nothing(self, n, m, builder):
        inst = generate_instance(n, m, 1, seed=n)
        plan = plan_iterations(n, 1, "optimal")
        stats = {}
        run(builder(inst, plan.iterations), 256, seed=0, stats=stats)
        assert stats["engine"] == "sparse"
        assert stats["peak_support"] <= n
        assert stats["pruned_mass"] <= 1e-12

    def test_probabilities_fill_stats(self):
        stats = {}
        probabilities(bell_circuit(), stats=stats)
        assert stats["engine"] == "dense"
        assert stats["peak_support"] == 4

    def test_sparse_run_is_not_bounded_by_the_cap(self, monkeypatch):
        monkeypatch.setenv("QVMP_SIM_MAX_QUBITS", "4")
        c = Circuit((("q", 40),), classical_bits=2)
        c.h(0)
        c.cx(0, 39)
        c.measure(0, 0)
        c.measure(39, 1)
        hist = run(c, 100, seed=0)
        assert set(hist.counts) == {"00", "11"}

    def test_dense_handoff_above_cap_raises(self, monkeypatch):
        monkeypatch.setenv("QVMP_SIM_MAX_QUBITS", "6")
        c = Circuit((("q", 8),), classical_bits=1)
        for q in range(8):
            c.h(q)
        c.measure(0, 0)
        with pytest.raises(ResourceError, match="cap of 6"):
            run(c, 10, seed=0)

    def test_sparse_support_above_cap_raises(self, monkeypatch):
        # 2^8 entries on 40 qubits: more than the cap allows in either shape.
        monkeypatch.setenv("QVMP_SIM_MAX_QUBITS", "6")
        c = Circuit((("q", 40),), classical_bits=1)
        for q in range(8):
            c.h(q)
        c.measure(0, 0)
        with pytest.raises(ResourceError, match="cap of 6"):
            run(c, 10, seed=0)

    def test_sparse_index_limit(self):
        c = Circuit((("q", SPARSE_MAX_QUBITS + 1),), classical_bits=1)
        c.measure(0, 0)
        with pytest.raises(ResourceError, match="sparse index limit"):
            run(c, 10, seed=0)


class TestStatevector:
    def test_empty_circuit(self):
        sv = statevector(Circuit((("q", 3),)))
        assert sv.amplitudes[0] == 1.0
        assert np.all(sv.amplitudes[1:] == 0.0)

    def test_single_hadamard(self):
        c = Circuit((("q", 1),))
        c.h(0)
        sv = statevector(c)
        assert np.allclose(sv.amplitudes, [INV_SQRT2, INV_SQRT2])

    def test_bell_state(self):
        sv = statevector(bell_circuit())
        assert np.allclose(sv.amplitudes, [INV_SQRT2, 0.0, 0.0, INV_SQRT2])

    def test_initial_basis_state(self):
        c = Circuit((("q", 2),))
        c.cx(0, 1)
        sv = statevector(c, initial=1)
        assert sv.amplitudes[3] == 1.0

    def test_x_frame_with_hadamard(self):
        # H applied after X must act on |1>: amplitudes (1, -1)/sqrt(2)
        c = Circuit((("q", 1),))
        c.x(0)
        c.h(0)
        sv = statevector(c)
        assert np.allclose(sv.amplitudes, [INV_SQRT2, -INV_SQRT2])

    def test_x_frame_with_controls(self):
        c = Circuit((("q", 2),))
        c.x(0)
        c.cx(0, 1)
        sv = statevector(c)
        assert sv.amplitudes[3] == 1.0

    def test_x_frame_with_phase(self):
        c = Circuit((("q", 1),))
        c.x(0)
        c.z(0)
        sv = statevector(c)
        assert sv.amplitudes[1] == -1.0

    def test_trailing_x_resolved(self):
        c = Circuit((("q", 3),))
        c.h(0)
        c.x(2)
        sv = statevector(c)
        assert np.allclose(sv.amplitudes[4], INV_SQRT2)
        assert np.allclose(sv.amplitudes[5], INV_SQRT2)

    def test_rejects_measurement(self):
        c = Circuit((("q", 1),), classical_bits=1)
        c.measure(0, 0)
        with pytest.raises(ContractError):
            statevector(c)

    def test_qubit_cap(self, monkeypatch):
        monkeypatch.setenv("QVMP_SIM_MAX_QUBITS", "4")
        c = Circuit((("q", 5),))
        with pytest.raises(ResourceError):
            statevector(c)
        sv = statevector(c, max_qubits=5)
        assert sv.amplitudes.size == 32

    def test_norm_preserved_at_every_prefix(self):
        rng = random.Random(0)
        c = random_circuit(5, 25, rng)
        for cut in range(len(c.gates) + 1):
            prefix = Circuit(c.registers)
            for g in c.gates[:cut]:
                prefix.append(g)
            sv = statevector(prefix)
            assert abs(sv.norm_sq() - 1.0) < 1e-9

    def test_self_inverse_gates_restore(self):
        rng = random.Random(1)
        base = random_circuit(5, 12, rng)
        before = statevector(base).amplitudes
        for g in list(base.gates[-6:]):
            doubled = Circuit(base.registers)
            for gg in base.gates:
                doubled.append(gg)
            doubled.append(g)
            doubled.append(g)
            after = statevector(doubled).amplitudes
            assert np.max(np.abs(after - before)) < 1e-12


class TestProbabilities:
    def test_uniform_three_qubits(self):
        c = Circuit((("q", 3),))
        for q in range(3):
            c.h(q)
        probs = probabilities(c)
        assert set(probs) == {format(v, "03b") for v in range(8)}
        assert all(abs(p - 0.125) < 1e-12 for p in probs.values())

    def test_bell_marginal(self):
        probs = probabilities(bell_circuit(), qubits=[0])
        assert abs(probs["0"] - 0.5) < 1e-12
        assert abs(probs["1"] - 0.5) < 1e-12

    def test_key_order_follows_listing(self):
        c = Circuit((("q", 2),))
        c.x(0)
        assert probabilities(c, qubits=[0, 1]) == {"00": 0.0, "01": 1.0, "10": 0.0, "11": 0.0}
        assert probabilities(c, qubits=[1, 0]) == {"00": 0.0, "01": 0.0, "10": 1.0, "11": 0.0}

    def test_sums_to_one(self):
        rng = random.Random(2)
        c = random_circuit(6, 30, rng)
        probs = probabilities(c, qubits=[1, 3, 5])
        assert abs(sum(probs.values()) - 1.0) < 1e-9

    def test_unknown_qubit(self):
        c = Circuit((("q", 2),))
        with pytest.raises(ContractError):
            probabilities(c, qubits=[7])

    def test_rejects_measurement(self):
        c = bell_circuit(classical=2)
        c.measure(0, 0)
        with pytest.raises(ContractError):
            probabilities(c)


class TestRun:
    def test_deterministic_outcome(self):
        c = Circuit((("q", 1),), classical_bits=1)
        c.x(0)
        c.measure(0, 0)
        hist = run(c, 100, seed=0)
        assert hist.counts == {"1": 100}

    def test_bell_five_sigma(self):
        c = bell_circuit(classical=2)
        c.measure(0, 0)
        c.measure(1, 1)
        shots = 4096
        hist = run(c, shots, seed=3)
        sigma = math.sqrt(shots * 0.25)
        assert abs(hist.counts.get("00", 0) - shots / 2) < 5 * sigma
        assert abs(hist.counts.get("11", 0) - shots / 2) < 5 * sigma
        assert hist.counts.get("01", 0) == 0
        assert hist.counts.get("10", 0) == 0

    def test_determinism(self):
        c = bell_circuit(classical=2)
        c.measure(0, 0)
        c.measure(1, 1)
        assert run(c, 500, seed=42).counts == run(c, 500, seed=42).counts
        assert run(c, 500, seed=42).counts != run(c, 500, seed=43).counts

    def test_classical_bit_mapping(self):
        # qubit 0 measured into classical bit 1 and vice versa
        c = Circuit((("q", 2),), classical_bits=2)
        c.x(0)
        c.measure(0, 1)
        c.measure(1, 0)
        hist = run(c, 10, seed=0)
        assert hist.counts == {"10": 10}

    def test_sampling_matches_probabilities(self):
        rng = random.Random(4)
        c = random_circuit(4, 15, rng)
        probs = probabilities(c)
        measured = Circuit(c.registers, classical_bits=4)
        for g in c.gates:
            measured.append(g)
        for q in range(4):
            measured.measure(q, q)
        shots = 8192
        hist = run(measured, shots, seed=5)
        for key, p in probs.items():
            sigma = math.sqrt(max(shots * p * (1 - p), 1.0))
            assert abs(hist.counts.get(key, 0) - shots * p) < 5 * sigma

    def test_requires_measurement(self):
        with pytest.raises(ContractError):
            run(bell_circuit(), 10, seed=0)

    def test_requires_positive_shots(self):
        c = Circuit((("q", 1),), classical_bits=1)
        c.measure(0, 0)
        with pytest.raises(ContractError):
            run(c, 0, seed=0)


class TestHistogramFormats:
    def test_csv_round_trip(self):
        h = Histogram({"00": 3, "11": 7}, 10)
        assert h.to_csv() == "00,3\n11,7\n"
        assert Histogram.from_csv(h.to_csv()) == h

    def test_json_round_trip(self):
        h = Histogram({"01": 4, "10": 6}, 10)
        assert Histogram.from_json(h.to_json()) == h

    def test_counts_must_sum(self):
        with pytest.raises(FormatError):
            Histogram({"0": 1}, 2)

    def test_bad_csv(self):
        with pytest.raises(FormatError):
            Histogram.from_csv("bitstring,count,extra\n")
