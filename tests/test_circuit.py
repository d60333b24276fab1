import random

import numpy as np
import pytest

from qvmp.circuit import (
    CCX,
    CX,
    H,
    MCX,
    MCZ,
    X,
    Z,
    Circuit,
    Gate,
    compose,
    depth,
    dump,
    gate_counts,
    inverse,
    lower,
    metrics,
)
from qvmp.errors import CompositionError, ContractError, InversionError
from qvmp.simulator import statevector


def random_circuit(num_qubits, num_gates, rng, max_controls=4, with_mcz=True):
    c = Circuit((("q", num_qubits),))
    kinds = [X, H, Z, CX, CCX, MCX] + ([MCZ] if with_mcz else [])
    for _ in range(num_gates):
        kind = rng.choice(kinds)
        order = rng.sample(range(num_qubits), num_qubits)
        if kind in (X, H, Z):
            getattr(c, kind)(order[0])
        elif kind == CX:
            c.cx(order[0], order[1])
        elif kind == CCX:
            c.ccx(order[0], order[1], order[2])
        elif kind == MCX:
            k = rng.randint(3, min(max_controls, num_qubits - 1))
            c.mcx(order[:k], order[k])
        else:
            k = rng.randint(1, min(max_controls, num_qubits - 1))
            c.mcz(order[:k], order[k])
    return c


def reference_depth(c):
    """Greedy layering by a full scan back over the earlier gates."""
    layers = []
    for i, g in enumerate(c.gates):
        shared = [layers[j] for j in range(i) if set(c.gates[j].qubits()) & set(g.qubits())]
        layers.append(1 + max(shared, default=0))
    return max(layers, default=0)


class TestConstruction:
    def test_registers_fix_global_order(self):
        c = Circuit((("address", 2), ("a", 3), ("z", 1)))
        assert c.num_qubits == 6
        assert c.qubit("address", 0).global_index == 0
        assert c.qubit("a", 0).global_index == 2
        assert c.qubit("z", 0).global_index == 5
        assert c.label(3) == "a[1]"

    def test_disjoint_controls_targets(self):
        c = Circuit((("q", 2),))
        with pytest.raises(ContractError):
            c.cx(0, 0)

    def test_undeclared_qubit(self):
        c = Circuit((("q", 2),))
        with pytest.raises(ContractError):
            c.x(5)

    def test_measurement_is_terminal(self):
        c = Circuit((("q", 2),), classical_bits=2)
        c.h(0)
        c.measure(0, 0)
        with pytest.raises(ContractError):
            c.x(0)
        c.x(1)  # other qubits unaffected

    def test_measure_needs_classical_bit(self):
        c = Circuit((("q", 1),))
        with pytest.raises(ContractError):
            c.measure(0, 0)

    def test_frozen_rejects_append(self):
        c = Circuit((("q", 1),))
        c.x(0)
        c.freeze()
        with pytest.raises(ContractError):
            c.x(0)

    def test_control_count_canonicalization(self):
        c = Circuit((("q", 5),))
        c.mcx([0], 4)
        c.mcx([0, 1], 4)
        c.mcx([0, 1, 2], 4)
        assert [g.kind for g in c.gates] == [CX, CCX, MCX]


class TestCompose:
    def test_identity_element(self):
        empty = Circuit((("q", 3),))
        c = random_circuit(3, 10, random.Random(0))
        out = compose(empty, c)
        assert out.gates == c.gates

    def test_unitarity_round_trip(self):
        rng = random.Random(1)
        c = random_circuit(6, 25, rng)
        round_trip = compose(c, inverse(c))
        sv = statevector(round_trip)
        expected = np.zeros(64)
        expected[0] = 1.0
        assert np.allclose(sv.amplitudes, expected, atol=1e-12)

    def test_mapping_collision(self):
        a = Circuit((("q", 3),))
        b = Circuit((("p", 2),))
        b.cx(0, 1)
        with pytest.raises(CompositionError):
            compose(a, b, [0, 0])

    def test_width_mismatch(self):
        a = Circuit((("q", 3),))
        b = Circuit((("p", 2),))
        with pytest.raises(CompositionError):
            compose(a, b)

    def test_mapping_relocates_gates(self):
        a = Circuit((("q", 4),))
        b = Circuit((("p", 2),))
        b.cx(0, 1)
        out = compose(a, b, [3, 1])
        assert out.gates[-1] == Gate(CX, (3,), (1,))


def appended(registers, classical_bits, gate_lists):
    """Reference for compose/extend: every gate appended one at a time."""
    out = Circuit(registers, classical_bits)
    for gates in gate_lists:
        for g in gates:
            out.append(g)
    return out


def mapped(gates, table):
    return [Gate(g.kind, tuple(table[q] for q in g.controls),
                 tuple(table[q] for q in g.targets), g.classical) for g in gates]


def random_measured_circuit(num_qubits, num_gates, rng, classical_bits):
    c = appended((("q", num_qubits),), classical_bits,
                 [random_circuit(num_qubits, num_gates, rng).gates])
    for q in rng.sample(range(num_qubits), rng.randint(0, 2)):
        c.measure(q, rng.randrange(classical_bits))
    return c


class TestExtend:
    def test_random_circuits_match_append_reference(self):
        rng = random.Random(10)
        for _ in range(40):
            width = rng.randint(4, 8)
            a = random_measured_circuit(width, rng.randint(0, 15), rng, 3)
            b_width = rng.randint(4, width)
            b = random_measured_circuit(b_width, rng.randint(0, 15), rng, 2)
            free = [q for q in range(width) if q not in a._measured]
            if len(free) < b_width:
                continue
            table = rng.sample(free, b_width)
            want = appended(a.registers, 3, [a.gates, mapped(b.gates, table)])
            out = compose(a, b, table)
            assert out.gates == want.gates
            assert out.measured_qubits() == want.measured_qubits()
            before = list(a.gates)
            a.extend(b, [a.qubits("q")[q] for q in table])
            assert a.gates == want.gates
            assert compose(Circuit(a.registers, 3), a).gates == want.gates
            assert len(before) + len(b.gates) == len(a.gates)

    def test_identity_mapping_and_self_extend(self):
        c = random_circuit(5, 12, random.Random(11))
        want = appended(c.registers, 0, [c.gates, c.gates])
        c.extend(c)
        assert c.gates == want.gates

    def test_measurements_carry_over(self):
        b = Circuit((("p", 2),), classical_bits=1)
        b.measure(1, 0)
        a = Circuit((("q", 3),), classical_bits=1)
        a.extend(b, [2, 0])
        assert a.measured_qubits() == [(0, 0)]
        with pytest.raises(ContractError):
            a.x(0)

    @staticmethod
    def contract_cases():
        """(target, other, mapping) triples that some gate-by-gate append
        rejects: a frozen target, a gate after measurement, an undeclared
        classical bit."""
        frozen = Circuit((("q", 2),)).freeze()
        one_x = Circuit((("q", 2),))
        one_x.x(1)
        measured = Circuit((("q", 3),), classical_bits=1)
        measured.measure(2, 0)
        reads = Circuit((("p", 2),))
        reads.cx(0, 1)
        narrow = Circuit((("q", 2),), classical_bits=1)
        wide_measure = Circuit((("q", 2),), classical_bits=2)
        wide_measure.measure(0, 1)
        return [
            (frozen, one_x, None),
            (measured, reads, [0, 2]),
            (measured, reads, [2, 1]),
            (narrow, wide_measure, None),
        ]

    @pytest.mark.parametrize("case", range(4))
    def test_contract_errors_match_append(self, case):
        target, other, mapping = self.contract_cases()[case]
        table = list(range(other.num_qubits)) if mapping is None else mapping
        reference = Circuit(target.registers, target.classical_bits)
        reference.gates = list(target.gates)
        reference._measured = set(target._measured)
        reference._frozen = target.frozen
        with pytest.raises(ContractError):
            for g in mapped(other.gates, table):
                reference.append(g)
        before = list(target.gates)
        with pytest.raises(ContractError):
            target.extend(other, mapping)
        assert target.gates == before  # nothing appended on failure

    def test_compose_keeps_measurement_contract(self):
        target, other, mapping = self.contract_cases()[1]
        with pytest.raises(ContractError):
            compose(target, other, mapping)

    def test_compose_widens_classical_bits(self):
        a = Circuit((("q", 2),), classical_bits=1)
        b = Circuit((("q", 2),), classical_bits=2)
        b.measure(0, 1)
        out = compose(a, b)
        assert out.classical_bits == 2 and out.measured_qubits() == [(0, 1)]

    def test_mapping_checked_once(self):
        a = Circuit((("q", 3),))
        b = Circuit((("p", 2),))
        b.cx(0, 1)
        for bad in ([0, 0], [0, 5], [0]):
            with pytest.raises(CompositionError):
                a.extend(b, bad)
        with pytest.raises(CompositionError):
            a.extend(b)
        assert a.gates == []


class TestInverse:
    def test_involution(self):
        c = random_circuit(5, 20, random.Random(2))
        assert inverse(inverse(c)).gates == c.gates

    def test_single_x_self_inverse(self):
        c = Circuit((("q", 1),))
        c.x(0)
        assert inverse(c).gates == c.gates

    def test_rejects_measurement(self):
        c = Circuit((("q", 1),), classical_bits=1)
        c.measure(0, 0)
        with pytest.raises(InversionError):
            inverse(c)

    def test_gate_counts_preserved(self):
        c = random_circuit(6, 30, random.Random(3))
        assert gate_counts(inverse(c)) == gate_counts(c)


class TestDepth:
    def test_empty(self):
        assert depth(Circuit((("q", 2),))) == 0

    def test_parallel_then_dependent(self):
        c = Circuit((("q", 2),))
        c.h(0)
        c.h(1)
        c.cx(0, 1)
        assert depth(c) == 2

    def test_serial_chain(self):
        c = Circuit((("q", 1),))
        for _ in range(3):
            c.x(0)
        assert depth(c) == 3

    def test_measure_counts(self):
        c = Circuit((("q", 1),), classical_bits=1)
        c.h(0)
        c.measure(0, 0)
        assert depth(c) == 2

    def test_subadditive_under_compose(self):
        rng = random.Random(4)
        for _ in range(20):
            a = random_circuit(5, rng.randint(1, 15), rng)
            b = random_circuit(5, rng.randint(1, 15), rng)
            assert depth(compose(a, b)) <= depth(a) + depth(b)

    def test_random_circuits_match_reference_layering(self):
        rng = random.Random(12)
        for _ in range(30):
            c = random_measured_circuit(rng.randint(4, 8), rng.randint(0, 40), rng, 2)
            for circ in (c, lower(c)):
                assert depth(circ) == reference_depth(circ)

    def test_invariant_under_in_layer_reordering(self):
        rng = random.Random(5)
        for _ in range(10):
            c = random_circuit(6, 30, rng)
            layers: dict[int, list] = {}
            level: dict[int, int] = {}
            for g in c.gates:
                layer = 1 + max((level.get(q, 0) for q in g.qubits()), default=0)
                for q in g.qubits():
                    level[q] = layer
                layers.setdefault(layer, []).append(g)
            shuffled = Circuit(c.registers)
            for layer in sorted(layers):
                group = layers[layer][:]
                rng.shuffle(group)  # disjoint support within a layer
                for g in group:
                    shuffled.append(g)
            assert depth(shuffled) == depth(c)


class TestGateCounts:
    def test_empty(self):
        assert gate_counts(Circuit((("q", 1),))) == {}

    def test_census(self):
        c = Circuit((("q", 3),))
        c.h(0)
        c.h(1)
        c.x(2)
        c.ccx(0, 1, 2)
        assert gate_counts(c) == {H: 2, X: 1, CCX: 1}


class TestLower:
    def test_basis_circuit_unchanged(self):
        c = random_circuit(4, 15, random.Random(6), with_mcz=False)
        basis_only = Circuit(c.registers)
        for g in c.gates:
            if g.kind != MCX:
                basis_only.append(g)
        lowered = lower(basis_only)
        assert lowered.gates == basis_only.gates
        assert lowered.registers == basis_only.registers

    def test_mcx3_becomes_three_ccx(self):
        c = Circuit((("q", 4),))
        c.mcx([0, 1, 2], 3)
        lowered = lower(c)
        assert gate_counts(lowered) == {CCX: 3}
        assert lowered.num_qubits == 5  # one clean ancilla
        for basis in range(16):
            got = statevector(lowered, initial=basis)
            want = statevector(c, initial=basis)
            # ancilla stays |0>: the upper half of the lowered state is empty
            assert np.allclose(got.amplitudes[:16], want.amplitudes, atol=1e-12)
            assert np.allclose(got.amplitudes[16:], 0.0, atol=1e-12)

    def test_mcz2_becomes_h_ccx_h(self):
        c = Circuit((("q", 3),))
        c.mcz([0, 1], 2)
        lowered = lower(c)
        assert [g.kind for g in lowered.gates] == [H, CCX, H]
        # 8x8 matrix equality against diag(1,...,1,-1)
        for basis in range(8):
            got = statevector(lowered, initial=basis).amplitudes
            want = np.zeros(8)
            want[basis] = -1.0 if basis == 7 else 1.0
            assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("controls", [3, 4])
    def test_vchain_size(self, controls):
        c = Circuit((("q", controls + 1),))
        c.mcx(list(range(controls)), controls)
        lowered = lower(c)
        assert gate_counts(lowered)[CCX] == 2 * controls - 3
        assert lowered.num_qubits == controls + 1 + (controls - 2)

    def test_random_circuits_equivalent(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(4, 7)
            c = random_circuit(n, 12, rng)
            lowered = lower(c)
            extra = lowered.num_qubits - n
            basis = rng.randrange(1 << n)
            got = statevector(lowered, initial=basis).amplitudes
            want = statevector(c, initial=basis).amplitudes
            block = got.reshape(-1, 1 << n)
            assert np.allclose(block[0], want, atol=1e-9)
            if extra:
                assert np.allclose(block[1:], 0.0, atol=1e-9)


class TestDumpAndMetrics:
    def test_dump_format(self):
        c = Circuit((("a", 2), ("z", 1)), classical_bits=1)
        c.h(c.qubit("a", 0))
        c.ccx(c.qubit("a", 0), c.qubit("a", 1), c.qubit("z", 0))
        c.measure(c.qubit("z", 0), 0)
        assert dump(c) == "H -> a[0]\nCCX a[0],a[1] -> z[0]\nMEASURE z[0] -> c[0]\n"

    def test_metrics_keys(self):
        c = Circuit((("q", 2),))
        c.h(0)
        c.cx(0, 1)
        m = metrics(c)
        assert m == {
            "depth": 2,
            "qubits": 2,
            "counts": {H: 1, CX: 1},
            "total_gates": 2,
        }
