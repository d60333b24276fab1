import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvmp import circuit as circuit_module
from qvmp.circuit import (
    CCX,
    CX,
    DIFFUSE,
    H,
    LOOKUP,
    MCX,
    MCZ,
    MEASURE,
    X,
    Z,
    Circuit,
    Gate,
    _expanded,
    compose,
    depth,
    dump,
    gate_counts,
    inverse,
    lower,
    lowered_metrics,
    metrics,
)
from qvmp.errors import CompositionError, ContractError, InversionError
from qvmp.grover import (
    build_diffuser,
    build_grover_search,
    plan_iterations,
)
from qvmp.runner import generate_instance
from qvmp.simulator import run, statevector


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


def layered_depth(gates):
    """Greedy layering of a materialised gate list, one gate at a time with
    a level per qubit: ``reference_depth`` in linear time."""
    level = {}
    best = 0
    for g in gates:
        layer = 1 + max((level.get(q, 0) for q in g.qubits()), default=0)
        for q in g.qubits():
            level[q] = layer
        best = max(best, layer)
    return best


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

    def test_classical_bit_written_once(self):
        # A second measurement into one classical bit is rejected, by
        # append and by everything built on extend, and nothing is added;
        # before, the bit read the OR of both qubits.
        c = Circuit((("q", 2),), classical_bits=2)
        c.x(0)
        c.measure(0, 0)
        with pytest.raises(ContractError, match="classical bit 0 is already written"):
            c.measure(1, 0)
        other = Circuit((("q", 2),), classical_bits=2)
        other.measure(1, 0)
        with pytest.raises(ContractError, match="already written"):
            compose(c, other)
        for add in (c.extend, lambda o: c.repeat(o, 1)):
            with pytest.raises(ContractError, match="already written"):
                add(other)
        assert c.measured_qubits() == [(0, 0)] and len(c.gates) == 2
        c.measure(1, 1)
        assert run(c, 10, 0).counts == {"01": 10}

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

    def test_append_rejects_malformed_gates(self):
        # A gate whose shape does not fit its kind would run as another
        # gate: an X with a control ignores it, an H on two targets acts on
        # one, and lower would emit a controlled x, h or z as a basis gate.
        c = Circuit((("q", 5),), classical_bits=1)
        bad = [
            Gate(X, (1,), (0,)),
            Gate(H, (), (0, 1)),
            Gate(H, (1,), (0,)),
            Gate(Z, (1,), (0,)),
            Gate(X, (), ()),
            Gate(MEASURE, (1,), (0,), classical=0),
            Gate(MEASURE, (), (0, 1), classical=0),
            Gate(CX, (), (0,)),
            Gate(CX, (1, 2), (0,)),
            Gate(CX, (1,), (0, 2)),
            Gate(CCX, (1,), (0,)),
            Gate(CCX, (1, 2, 3), (0,)),
            Gate(MCX, (1, 2), (0,)),
            Gate(MCX, (1, 2, 3), (0, 4)),
            Gate(MCZ, (), (0,)),
            Gate(MCZ, (1, 2), ()),
        ]
        for g in bad:
            with pytest.raises(ContractError):
                c.append(g)
        assert c.gates == []
        good = [
            Gate(X, (), (0,)),
            Gate(CX, (1,), (0,)),
            Gate(CCX, (1, 2), (0,)),
            Gate(MCX, (1, 2, 3, 4), (0,)),
            Gate(MCZ, (1,), (0,)),
            Gate(MCZ, (1, 2, 3), (0,)),
            Gate(MEASURE, (), (0,), classical=0),
        ]
        for g in good:
            c.append(g)
        assert c.gates == good


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
    """A random circuit, then up to two qubits measured into distinct
    classical bits."""
    c = appended((("q", num_qubits),), classical_bits,
                 [random_circuit(num_qubits, num_gates, rng).gates])
    qubits = rng.sample(range(num_qubits), rng.randint(0, 2))
    for q, bit in zip(qubits, rng.sample(range(classical_bits), len(qubits))):
        c.measure(q, bit)
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
            if set(a._measured.values()) & set(b._measured.values()):
                # b measures into a classical bit a wrote: both ways reject it
                with pytest.raises(ContractError, match="already written"):
                    appended(a.registers, 3, [a.gates, mapped(b.gates, table)])
                with pytest.raises(ContractError, match="already written"):
                    compose(a, b, table)
                continue
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
        reference._measured = dict(target._measured)
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


def flat(c):
    """``c``'s gates with no blocks."""
    out = Circuit(c.registers, c.classical_bits)
    out.gates = list(c.gates)
    return out


@st.composite
def repeats(draw):
    """A circuit written by ``repeat`` and the same one written by ``extend``
    calls: a ``lowering_circuits`` prefix, a body of up to 30 gates on the
    same qubits repeated t = 0..8 times, and terminal measurements."""
    prefix = draw(lowering_circuits(measure=False))
    n = prefix.num_qubits
    body = draw(lowering_circuits(measure=False, qubits=st.just(n)))
    t = draw(st.integers(0, 8))
    measured = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    pair = []
    for by_repeat in (True, False):
        c = Circuit(prefix.registers, n)
        c.extend(prefix)
        if by_repeat:
            c.repeat(body, t)
        else:
            for _ in range(t):
                c.extend(body)
        for q in measured:
            c.measure(q, q)
        pair.append(c)
    return pair


class TestRepeat:
    @pytest.mark.parametrize("case", [0, 3])  # the cases that map identically
    def test_contract_errors_match_extend(self, case):
        target, other, _ = TestExtend.contract_cases()[case]
        with pytest.raises(ContractError):
            target.repeat(other, 2)
        assert target.gates == [] and target.blocks == []

    def test_negative_count(self):
        c, body = Circuit((("q", 2),)), Circuit((("q", 2),))
        body.x(0)
        with pytest.raises(ContractError):
            c.repeat(body, -1)
        assert c.gates == [] and c.blocks == []

    def test_measurement_in_body(self):
        body = Circuit((("q", 2),), classical_bits=1)
        body.h(0)
        body.measure(0, 0)
        c = Circuit((("q", 2),), classical_bits=1)
        with pytest.raises(ContractError, match="gate after measurement"):
            c.repeat(body, 2)
        assert c.gates == [] and c.blocks == []
        c.repeat(body, 1)
        assert c.gates == body.gates and c.measured_qubits() == [(0, 0)]

    def test_nothing_to_repeat(self):
        body, empty = Circuit((("q", 2),)), Circuit((("q", 2),))
        body.x(0)
        c = Circuit((("q", 2),))
        c.x(1)
        c.repeat(body, 0)
        c.repeat(empty, 5)
        assert c.gates == [Gate(X, (), (1,))] and c.blocks == []

    def test_repeat_of_itself(self):
        c = Circuit((("q", 2),))
        c.x(0)
        c.cx(0, 1)
        c.repeat(c, 2)
        assert c.gates == [Gate(X, (), (0,)), Gate(CX, (0,), (1,))] * 3
        assert c.blocks == [(2, 2, 2)]

    @settings(max_examples=200, deadline=None)
    @given(repeats())
    def test_repeat_matches_flat_extends(self, pair):
        rep, plain = pair
        assert rep.gates == plain.gates and plain.blocks == []
        assert metrics(rep) == metrics(plain)
        assert list(gate_counts(rep)) == list(gate_counts(plain))
        got, want = lowered_metrics(rep), lowered_metrics(plain)
        assert got == want and list(got["counts"]) == list(want["counts"])
        assert dump(rep) == dump(plain)

    def test_blocks_survive_composition(self):
        inst = generate_instance(16, 8, 2, seed=7)
        search = build_grover_search(inst, 5)
        bare = build_grover_search(inst, 3, measure=False)
        wide = Circuit(search.registers + (("w", 2),), search.classical_bits)
        wide.h(wide.num_qubits - 1)
        cases = [compose(bare, search), compose(wide, search, range(search.num_qubits)),
                 inverse(bare)]
        assert [len(c.blocks) for c in cases] == [2, 1, 0]
        assert cases[0].blocks[1][0] == len(bare.gates) + search.blocks[0][0]
        for c in cases:
            for start, p, t in c.blocks:
                assert c.gates[start:start + p * t] == c.gates[start:start + p] * t
            assert metrics(c) == metrics(flat(c))
            assert lowered_metrics(c) == lowered_metrics(flat(c))
        assert depth(cases[2]) == depth(bare)
        assert lowered_metrics(cases[2])["depth"] == lowered_metrics(bare)["depth"]


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


@st.composite
def lowering_circuits(draw, measure=True, qubits=st.integers(1, 9)):
    """Circuits over the whole gate set, shaped like the builders' output:
    runs of one to four mcx on one control set (targets may repeat), mcz
    on one to five controls, lookups on one to four address qubits (either
    written order), and terminal measurements; about half are basis-only
    and need no ancilla. ``qubits`` draws the width."""
    n = draw(qubits)
    shapes = [X, H, Z] + [CX] * (n >= 2) + [CCX] * (n >= 3)
    if draw(st.booleans()):
        shapes += [MCZ, LOOKUP] * (n >= 2) + ["run"] * (n >= 4)
    c = Circuit((("q", n),), n if measure else 0)
    for _ in range(draw(st.integers(0, 30))):
        shape = draw(st.sampled_from(shapes))
        order = draw(st.permutations(range(n)))
        if shape in (X, H, Z):
            getattr(c, shape)(order[0])
        elif shape == CX:
            c.cx(order[0], order[1])
        elif shape == CCX:
            c.ccx(order[0], order[1], order[2])
        elif shape == MCZ:
            k = draw(st.integers(1, min(5, n - 1)))
            c.mcz(order[:k], order[k])
        elif shape == LOOKUP:
            c.append(draw(lookup_gates(order)))
        else:
            k = draw(st.integers(3, n - 1))
            for _ in range(draw(st.integers(1, 4))):
                c.mcx(order[:k], draw(st.sampled_from(order[k:])))
    if measure:
        for q in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)):
            c.measure(q, q)
    return c


@st.composite
def lookup_gates(draw, order):
    """A lookup on the leading qubits of ``order``: one to four address
    qubits, then one to three data qubits, a random table, either order."""
    k = draw(st.integers(1, min(4, len(order) - 1)))
    d = draw(st.integers(1, min(3, len(order) - k)))
    words = draw(st.lists(st.integers(0, (1 << d) - 1), min_size=1 << k, max_size=1 << k))
    return Gate(LOOKUP, tuple(order[:k]), tuple(order[k:k + d]), table=tuple(words),
                reverse=draw(st.booleans()))


@st.composite
def lifted_lookups(draw):
    """One lookup gate object appended twice, as a search repeats its
    iteration's gates: three to six address qubits, one to eight data
    qubits, and a table mixing zero words, one-bit words and random words.
    Before it, runs of X gates lift some data qubits and the address qubits
    a v-chain starts and ends on to high levels, and wide mcx gates lift
    the ancillas of their v-chains. After each copy, a run of X gates on
    one data qubit exposes the layer of that qubit's last write."""
    k = draw(st.integers(3, 6))
    d = draw(st.integers(1, 8))
    word = st.one_of(st.just(0), st.integers(0, d - 1).map(lambda i: 1 << i),
                     st.integers(0, (1 << d) - 1))
    words = draw(st.lists(word, min_size=1 << k, max_size=1 << k))
    c = Circuit((("address", k), ("data", d)))
    address, data = list(range(k)), list(range(k, k + d))

    def lift(qubits):
        q = draw(st.sampled_from(qubits))
        for _ in range(draw(st.integers(1, 300))):
            c.x(q)

    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            order = draw(st.permutations(address + data))
            width = draw(st.integers(3, k + d - 1))
            c.mcx(order[:width], order[width])
        else:
            lift(data + [address[0], address[1], address[-1]])
    gate = Gate(LOOKUP, tuple(address), tuple(data), table=tuple(words),
                reverse=draw(st.booleans()))
    for _ in range(2):
        c.append(gate)
        lift(data)
    return c


@st.composite
def laid_lookups(draw):
    """(level, lookup, anc0): one to six address qubits and one to eight
    data qubits in random places, either order, a table mixing zero words,
    one-bit words and random words, a random level on every qubit and
    ancilla, and ``anc0`` None or the first ancilla after the qubits."""
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 8))
    word = st.one_of(st.just(0), st.integers(0, d - 1).map(lambda i: 1 << i),
                     st.integers(0, (1 << d) - 1))
    words = draw(st.lists(word, min_size=1 << k, max_size=1 << k))
    order = draw(st.permutations(range(k + d)))
    gate = Gate(LOOKUP, tuple(order[:k]), tuple(order[k:]), table=tuple(words),
                reverse=draw(st.booleans()))
    anc0 = draw(st.sampled_from([None, k + d]))
    size = k + d + max(k - 2, 0)
    level = draw(st.lists(st.integers(0, 80), min_size=size, max_size=size))
    return level, gate, anc0


@st.composite
def small_gates(draw, n):
    """An x, h, z or cx on ``n`` qubits, or a ladder of one to four
    appends of one x object, which lifts its qubit by that many layers."""
    q, r = draw(st.permutations(range(n)))[:2]
    shape = draw(st.sampled_from([X, H, Z, CX, "ladder"]))
    if shape == CX:
        return [Gate(CX, (q,), (r,))]
    if shape == "ladder":
        return [Gate(X, (), (q,))] * draw(st.integers(1, 4))
    return [Gate(shape, (), (q,))]


@st.composite
def repeated_runs(draw):
    """A run of one to eight gate objects written one to eight times as
    the same objects, as a search repeats its iteration's gates, after a
    ``lowering_circuits`` prefix and before a suffix that ends in
    measurements. The run holds a lookup object, sometimes a second one,
    and an mcx or mcz on three or more controls, so lowered it lays a
    v-chain. Ladders of x lift some qubits in the prefix and in the run, so
    the run lifts qubits unevenly and its shift may settle only after a few
    repeats, or never. Variants: one gate of the last repeat differs, the
    lookup recurs in another run between two stretches of repeats, or a
    part of the run follows the repeats. On about half the draws each
    stretch of repeats is one ``repeat`` call, on the rest flat appends."""
    prefix = draw(lowering_circuits(measure=False, qubits=st.integers(5, 9)))
    n = prefix.num_qubits
    c = Circuit(prefix.registers, n)
    c.extend(prefix)
    for _ in range(draw(st.integers(0, 3))):
        for g in [Gate(X, (), (draw(st.integers(0, n - 1)),))] * draw(st.integers(1, 40)):
            c.append(g)
    lookup = draw(lookup_gates(draw(st.permutations(range(n)))))
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(3, n - 1))
    wide = Gate(draw(st.sampled_from([MCX, MCZ])), tuple(order[:k]), (order[k],))
    run = [lookup, wide]
    if draw(st.booleans()):
        run.append(draw(lookup_gates(draw(st.permutations(range(n))))))
    while len(run) < 8 and draw(st.booleans()):
        run += draw(small_gates(n))
    run = draw(st.permutations(run[:8]))
    t = draw(st.integers(1, 8))
    stretches = [(run, t)]  # (gates, times written)
    variant = draw(st.sampled_from(["repeats", "last differs", "recurs between", "part"]))
    if variant == "last differs":
        last = list(run)
        i = draw(st.integers(0, len(run) - 1))
        last[i] = draw(st.sampled_from([Gate(H, (), (0,)), Gate(Z, (), (0,))])
                       .filter(lambda g: g != run[i]))
        stretches = [(run, t - 1), (last, 1)]
    elif variant == "recurs between":
        between = [lookup]
        for _ in range(draw(st.integers(1, 3))):
            between += draw(small_gates(n))
        stretches += [(draw(st.permutations(between)), 1), (run, draw(st.integers(1, 8)))]
    elif variant == "part":
        stretches.append((run[:draw(st.integers(1, len(run) - 1))], 1))
    by_repeat = draw(st.booleans())
    for gates, times in stretches:
        if by_repeat:
            body = Circuit(c.registers)
            for g in gates:
                body.append(g)
            c.repeat(body, times)
        else:
            for g in gates * times:
                c.append(g)
    for _ in range(draw(st.integers(0, 3))):
        for g in draw(small_gates(n)):
            c.append(g)
    for q in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)):
        c.measure(q, q)
    return c


@st.composite
def diffuse_circuits(draw, measure=True):
    """``lowering_circuits`` gates with one to four diffuse gates written
    between them, each on one qubit to all of them in any order; the tail
    from a drawn point is one block repeated one to four times, so a
    diffuse may sit inside a repeated body, as in a search. ``measure``
    adds terminal measurements."""
    base = draw(lowering_circuits(measure=False))
    n = base.num_qubits
    gates = list(base.gates)
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(range(n)))
        gates.insert(draw(st.integers(0, len(gates))),
                     Gate(DIFFUSE, (), tuple(order[:draw(st.integers(1, n))])))
    cut = draw(st.integers(0, len(gates)))
    c = Circuit(base.registers, n)
    body = Circuit(base.registers)
    for g in gates[:cut]:
        c.append(g)
    for g in gates[cut:]:
        body.append(g)
    c.repeat(body, draw(st.integers(1, 4)))
    if measure:
        for q in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)):
            c.measure(q, q)
    return c


def expanded(c):
    """``c`` with every lookup and diffuse replaced by its expansion."""
    out = Circuit(c.registers, c.classical_bits)
    out.gates = _expanded(c.gates)
    return out


def assert_lowered_metrics_exact(c):
    lowered = lower(c)
    want = metrics(lowered)
    got = lowered_metrics(c)
    assert got == want
    assert list(got["counts"]) == list(want["counts"])  # first-appearance order
    assert got["depth"] == layered_depth(lowered.gates)


class TestLoweredMetrics:
    @settings(max_examples=400, deadline=None)
    @given(lowering_circuits())
    def test_random_circuits_match_lowering(self, c):
        assert_lowered_metrics_exact(c)

    @settings(max_examples=100, deadline=None)
    @given(lowering_circuits())
    def test_linear_reference_matches_full_scan(self, c):
        for circ in (expanded(c), lower(c)):
            assert layered_depth(circ.gates) == reference_depth(circ)

    @settings(max_examples=200, deadline=None)
    @given(lifted_lookups())
    def test_lookup_after_lifted_qubits(self, c):
        # the closed-form rows of the walker against the laid expansion
        assert_lowered_metrics_exact(c)
        assert metrics(c)["depth"] == layered_depth(expanded(c).gates)

    @settings(max_examples=500, deadline=None)
    @given(laid_lookups())
    def test_lay_lookup_leaves_the_levels_of_its_expansion(self, case):
        # the whole level table, address, data and ancilla qubits alike
        level, g, anc0 = case
        want = level.copy()
        circuit_module._lay(want, circuit_module._expansion(g), anc0)
        circuit_module._lay_lookup(level, g, anc0)
        assert level == want

    @settings(max_examples=300, deadline=None)
    @given(repeated_runs())
    def test_repeated_runs(self, c):
        # the walker and the census on blocks and on flat repeats, against
        # the expansion and the lowering, which carry no blocks
        assert_lowered_metrics_exact(c)
        flat = expanded(c)
        assert metrics(c) == metrics(flat)
        assert list(gate_counts(c)) == list(gate_counts(flat))
        assert metrics(c)["depth"] == layered_depth(flat.gates)

    def test_lookup_lays_do_not_grow_with_iterations(self, monkeypatch):
        lay = circuit_module._lay_lookup
        calls = []

        def counted(*args):
            calls.append(args)
            lay(*args)

        monkeypatch.setattr(circuit_module, "_lay_lookup", counted)
        inst = generate_instance(16, 8, 1, seed=3)
        lays = []
        for k in (3, 4, 12, 30):
            c = build_grover_search(inst, k)
            for walk in (metrics, lowered_metrics):
                calls.clear()
                walk(c)
                lays.append(len(calls))
        # the first iteration's two lookups and the second's forward one;
        # the whole repeats and the last reverse lookup and diffuser are lifted
        assert lays == [3] * 8

    @pytest.mark.parametrize("reverse", [False, True])
    def test_no_row_is_read_write_by_write(self, monkeypatch, reverse):
        # 16 rows onto 2 data qubits, in laying order: the second data bit is
        # first written at the last row, and zero-word rows sit between. A
        # lay reads only a row's first writes, never the lookup's expansion
        # (_expansion), and the depths stay exact.
        words = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 1, 3)
        c = Circuit((("q", 7),))
        c.mcx([0, 1, 2], 4)  # the data qubits start late
        c.cx(6, 5)
        c.append(Gate(LOOKUP, (0, 1, 2, 3), (4, 5), table=words[::-1] if reverse else words,
                      reverse=reverse))
        c.mcz([3, 4, 5], 6)
        expansion = circuit_module._expansion
        calls = []
        monkeypatch.setattr(circuit_module, "_expansion",
                            lambda g: calls.append(g) or expansion(g))
        for walk in (metrics, lowered_metrics):
            calls.clear()
            walk(c)
            assert calls == []
        assert_lowered_metrics_exact(c)
        assert metrics(c)["depth"] == layered_depth(expanded(c).gates)

    def test_empty(self):
        assert lowered_metrics(Circuit((("q", 2),))) == metrics(Circuit((("q", 2),)))

    def test_run_then_chain_on_a_target(self):
        # The second chain's controls include the first run's target.
        c = Circuit((("q", 6),))
        c.mcx([0, 1, 2], 3)
        c.mcx([0, 1, 2], 4)
        c.mcx([0, 1, 3], 2)
        c.mcz([0, 1, 3], 5)
        assert_lowered_metrics_exact(c)

    @pytest.mark.parametrize("n,m", [(4, 4), (16, 8), (64, 8)])
    def test_search_builders_match_lowering(self, n, m):
        inst = generate_instance(n, m, 2, seed=n + m)
        iterations = max(1, plan_iterations(n, len(inst.solutions), "optimal").iterations)
        for c in (
            build_grover_search(inst, iterations),
            build_grover_search(inst, iterations, dual=True),
            build_grover_search(inst, iterations, fold_y=True),
            build_grover_search(inst, iterations, fold_y=True, measure=False),
            build_grover_search(inst, iterations, measure=False),
        ):
            assert_lowered_metrics_exact(c)

    def test_runs_across_a_lookup_boundary(self):
        # A forward lookup ends with row n-1's writes and a backward one
        # starts with them (that row selects with no X), so an mcx on the
        # same controls extends the same-control run of the expansion.
        c = Circuit((("q", 7),))
        c.mcx([0, 1, 2], 5)
        c.append(Gate(LOOKUP, (0, 1, 2), (3, 4), table=(1, 0, 2, 3, 0, 1, 2, 3), reverse=True))
        c.append(Gate(LOOKUP, (0, 1, 2), (3, 4), table=(1, 0, 2, 3, 0, 1, 2, 3)))
        c.mcx([0, 1, 2], 6)
        assert_lowered_metrics_exact(c)
        assert metrics(c) == metrics(expanded(c))

    @pytest.mark.parametrize("taken,name", [(("anc",), "anc1"), (("anc", "anc1"), "anc2")])
    def test_circuit_with_its_own_anc_register(self, taken, name):
        c = Circuit((("q", 3),) + tuple((reg, 1) for reg in taken))
        c.mcx([0, 1, 2], 3)
        lowered = lower(c)
        assert lowered.registers == c.registers + ((name, 1),)
        assert gate_counts(lowered) == {CCX: 3}
        assert lowered_metrics(c) == metrics(lowered)
        assert lowered_metrics(c)["qubits"] == c.num_qubits + 1
        for basis in range(1 << c.num_qubits):
            got = statevector(lowered, initial=basis).amplitudes
            want = statevector(c, initial=basis).amplitudes
            assert np.allclose(got[: 1 << c.num_qubits], want, atol=1e-12)


class TestLookup:
    def test_append_rejects_malformed_lookups(self):
        c = Circuit((("q", 4),))
        bad = [
            Gate(LOOKUP, (0,), (1,)),  # no table
            Gate(LOOKUP, (0,), (1,), table=[0, 1]),  # not a tuple
            Gate(LOOKUP, (0,), (1,), table=(0, 1, 0)),  # three words, one address qubit
            Gate(LOOKUP, (0, 1), (2,), table=(0, 1)),  # two words, two address qubits
            Gate(LOOKUP, (0,), (1,), table=(2, 0)),  # word wider than the data
            Gate(LOOKUP, (0,), (1,), table=(-1, 0)),
            Gate(LOOKUP, (0,), (1,), table=(1.0, 0)),
            Gate(LOOKUP, (), (1,), table=(1,)),  # no address qubit
            Gate(LOOKUP, (0,), (0,), table=(1, 0)),  # address and data overlap
            Gate(LOOKUP, (0,), (4,), table=(1, 0)),  # undeclared data qubit
            Gate(X, (), (0,), table=(1,)),  # a table on another kind
            Gate(X, (), (0,), reverse=True),
        ]
        for g in bad:
            with pytest.raises(ContractError):
                c.append(g)
        assert c.gates == []
        c.lookup([0, 1], [2, 3], [3, 0, 1, 2])
        assert c.gates == [Gate(LOOKUP, (0, 1), (2, 3), table=(3, 0, 1, 2))]

    def test_extend_with_mapping_keeps_the_table(self):
        part = Circuit((("addr", 2), ("data", 2)))
        part.lookup(part.qubits("addr"), part.qubits("data"), (1, 2, 3, 0))
        c = Circuit((("q", 6),))
        c.extend(part, [5, 0, 3, 1])
        c.extend(inverse(part), [2, 4, 0, 5])
        assert c.gates == [
            Gate(LOOKUP, (5, 0), (3, 1), table=(1, 2, 3, 0)),
            Gate(LOOKUP, (2, 4), (0, 5), table=(1, 2, 3, 0), reverse=True),
        ]
        assert compose(Circuit((("q", 6),)), part, [5, 0, 3, 1]).gates == c.gates[:1]

    def test_dump_shows_the_table(self):
        c = Circuit((("a", 2), ("d", 2)))
        c.lookup(c.qubits("a"), c.qubits("d"), (0, 1, 2, 3))
        assert dump(c) == "LOOKUP a[0],a[1] -> d[0],d[1] table=0,1,2,3\n"
        assert dump(inverse(c)) == "LOOKUP a[0],a[1] -> d[0],d[1] table=0,1,2,3 reverse\n"

    def test_expansion_of_a_small_table(self):
        c = Circuit((("a", 2), ("d", 2)))
        c.lookup(c.qubits("a"), c.qubits("d"), (2, 0, 3, 1))
        rows = [[X, X, CCX, X, X], [X, X], [X, CCX, CCX, X], [CCX]]
        assert [g.kind for g in expanded(c).gates] == [k for row in rows for k in row]
        assert [g.kind for g in expanded(inverse(c)).gates] == [k for row in rows for k in row][::-1]
        assert lower(c).gates == expanded(c).gates
        assert gate_counts(c) == {X: 8, CCX: 4}
        assert gate_counts(inverse(c)) == {CCX: 4, X: 8}
        assert list(gate_counts(inverse(c))) == [CCX, X]

    @settings(max_examples=300, deadline=None)
    @given(lowering_circuits())
    def test_metrics_count_the_expansion(self, c):
        flat = expanded(c)
        want = metrics(flat)
        got = metrics(c)
        assert got == want
        assert list(got["counts"]) == list(want["counts"])
        assert got["depth"] == layered_depth(flat.gates)

    @settings(max_examples=100, deadline=None)
    @given(lowering_circuits(measure=False))
    def test_lowering_commutes_with_inverse(self, c):
        assert lower(inverse(c)).gates == inverse(lower(c)).gates
        assert inverse(inverse(c)).gates == c.gates


class TestDiffuse:
    def test_append_rejects_malformed_diffuses(self):
        c = Circuit((("q", 3),))
        bad = [
            Gate(DIFFUSE, (), ()),  # no register
            Gate(DIFFUSE, (0,), (1, 2)),  # a control
            Gate(DIFFUSE, (), (0, 1), table=(0, 1, 0, 1)),  # a table
            Gate(DIFFUSE, (), (0, 1), reverse=True),
            Gate(DIFFUSE, (), (0, 0)),  # a repeated qubit
            Gate(DIFFUSE, (), (0, 3)),  # an undeclared qubit
        ]
        for g in bad:
            with pytest.raises(ContractError):
                c.append(g)
        assert c.gates == []
        c.diffuse([2, 0])
        assert c.gates == [Gate(DIFFUSE, (), (2, 0))]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_census_in_closed_form(self, k):
        # 2k + 2 h, 2k x and one (k - 1)-control X, which folds into x, cx
        # and ccx for k = 1, 2 and 3
        core = {1: X, 2: CX, 3: CCX}.get(k, MCX)
        want = {H: 2 * k + 2, X: 2 * k + (k == 1)} | ({} if k == 1 else {core: 1})
        d = build_diffuser(k)
        assert gate_counts(d) == want
        assert list(gate_counts(d)) == list(gate_counts(expanded(d)))
        assert metrics(d) == metrics(expanded(d))

    def test_extend_with_mapping_keeps_the_register_order(self):
        c = Circuit((("q", 5),))
        c.extend(build_diffuser(3), [4, 0, 2])
        assert c.gates == [Gate(DIFFUSE, (), (4, 0, 2))]
        last_controlled = [g for g in lower(c).gates if g.controls]
        assert last_controlled == [Gate(CCX, (4, 0), (2,))]

    def test_inverse_keeps_the_gate(self):
        c = Circuit((("q", 4),))
        c.h(0)
        c.diffuse([3, 1, 0])
        c.cx(1, 2)
        assert inverse(c).gates == c.gates[::-1]
        round_trip = compose(c, inverse(c))
        for basis in range(16):
            amps = statevector(round_trip, initial=basis).amplitudes
            assert abs(amps[basis] - 1.0) < 1e-12

    def test_dump(self):
        c = Circuit((("a", 2), ("z", 1)))
        c.diffuse([c.qubit("z", 0), c.qubit("a", 0), c.qubit("a", 1)])
        assert dump(c) == "DIFFUSE -> z[0],a[0],a[1]\n"

    @settings(max_examples=200, deadline=None)
    @given(diffuse_circuits())
    def test_metrics_and_lowering_match_the_expansion(self, c):
        flat = expanded(c)
        assert metrics(c) == metrics(flat)
        assert list(gate_counts(c)) == list(gate_counts(flat))
        assert lowered_metrics(c) == lowered_metrics(flat)
        assert list(lowered_metrics(c)["counts"]) == list(lowered_metrics(flat)["counts"])
        assert dump(lower(c)) == dump(lower(flat))
        assert metrics(c)["depth"] == layered_depth(flat.gates)
        assert_lowered_metrics_exact(c)

    @settings(max_examples=100, deadline=None)
    @given(diffuse_circuits(measure=False))
    def test_lowering_commutes_with_inverse_up_to_layer_order(self, c):
        # A diffuse is kept by inverse, so its H and X layers are not
        # written backwards: the same gates and layers, not the same list.
        assert metrics(lower(inverse(c))) == metrics(inverse(lower(c)))
        assert inverse(inverse(c)).gates == c.gates


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
