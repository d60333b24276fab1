import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvmp.circuit import DIFFUSE, LOOKUP, Circuit, Gate, _expanded
from qvmp.errors import ContractError, FormatError, ResourceError
from qvmp.grover import build_grover_search, plan_iterations
from qvmp.runner import generate_instance
from qvmp.simulator import (
    SPARSE_MAX_QUBITS,
    Histogram,
    _evolve,
    _gather,
    _Outcomes,
    _outcomes,
    _scatter,
    _spread,
    _State,
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
    state = _evolve(circuit, initial, stats=stats)
    return _scatter(circuit.num_qubits, state.index, state.amp), stats


def merged_h(index, amp, qubit):
    """Hadamard on a sparse state by merging equal indices with np.unique
    and bincount: an earlier form of the engine, kept as the reference for
    ``_State.h``'s grouping into pairs. Returns the new arrays and the
    pruned amplitudes."""
    bit = 1 << qubit
    scaled = amp * INV_SQRT2
    signed = np.where((index & bit) == bit, -scaled, scaled)
    keys, pair = np.unique(index & ~bit, return_inverse=True)
    merged_index = np.concatenate((keys, keys | bit))
    merged_amp = np.concatenate((np.bincount(pair, weights=scaled, minlength=keys.size),
                                 np.bincount(pair, weights=signed, minlength=keys.size)))
    keep = np.abs(merged_amp) > 1e-13
    return merged_index[keep], merged_amp[keep], merged_amp[~keep]


@st.composite
def sparse_states(draw):
    """(num_qubits, index, amp) of a random support in random or sorted
    order. Amplitudes come often from a few values, so that pairs cancel
    exactly or up to rounding, and partners are often missing."""
    n = draw(st.integers(1, 8))
    index = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=1 << n,
                          unique=True))
    if draw(st.booleans()):
        index.sort()
    value = st.one_of(st.sampled_from([0.5, -0.5, 0.5 + 2**-52, -0.25, 0.25 - 2**-54]),
                      st.floats(-1.0, 1.0).filter(lambda v: abs(v) > 1e-6))
    amp = draw(st.lists(value, min_size=len(index), max_size=len(index)))
    return n, np.array(index, dtype=np.int64), np.array(amp)


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
        # indices. So the random gates after the layer run at full support.
        n = data.draw(st.integers(4, 8))
        before = data.draw(gate_lists(n, 20, tuple(k for k in GATE_KINDS if k != "h")))
        after = data.draw(gate_lists(n, 20))
        c = circuit_from(n, before + [("h", [q] + [p for p in range(n) if p != q])
                                      for q in range(n)] + after)
        initial = data.draw(st.integers(0, (1 << n) - 1))
        amps, stats = evolved_amplitudes(c, initial)
        assert stats["engine"] == "sparse"
        assert stats["peak_support"] == 1 << n
        assert np.max(np.abs(amps - reference_amplitudes(c, initial))) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(sparse_states(), st.data())
    def test_h_matches_the_merge_reference(self, state, data):
        """``_State.h`` gives the reference's entries bit for bit, once
        both are sorted by index, and prunes the same amplitudes."""
        n, index, amp = state
        qubit = data.draw(st.integers(0, n - 1))
        ref_index, ref_amp, ref_dropped = merged_h(index, amp, qubit)
        sparse = _State(n, index.copy(), amp.copy())
        dropped = sparse.h(qubit)
        order = np.argsort(sparse.index)
        ref_order = np.argsort(ref_index)
        assert np.array_equal(sparse.index[order], ref_index[ref_order])
        assert sparse.amp[order].tobytes() == ref_amp[ref_order].tobytes()
        assert np.array_equal(np.sort(dropped), np.sort(ref_dropped))

    def test_full_support_peak_within_three_states(self):
        # An H on every qubit of 18, then 60 random gates on all 2^18
        # entries: the evolution holds at most 3x the 16-byte-per-entry state.
        n = 18
        c = Circuit((("q", n),))
        for q in range(n):
            c.h(q)
        c.extend(random_circuit(n, 60, random.Random(0)))
        stats = {}
        tracemalloc.start()
        try:
            _evolve(c, cap=n, stats=stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats["peak_support"] == 1 << n
        assert peak <= 3 * 16 * (1 << n)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_lookup_matches_its_expansion(self, data):
        """A lookup applied as one gather equals its expansion run gate by
        gate, under X gates on its address and data qubits: on the support
        of Hadamards on at most n - 3 qubits, or, in the full case, from a
        basis state through an H on every qubit midway to all 2^n entries."""
        n = data.draw(st.integers(3, 8))
        full = data.draw(st.booleans())

        def lookup():
            order = data.draw(st.permutations(range(n)))
            k = data.draw(st.integers(1, min(3, n - 1)))
            d = data.draw(st.integers(1, min(3, n - k)))
            table = data.draw(st.lists(st.integers(0, (1 << d) - 1),
                                       min_size=1 << k, max_size=1 << k))
            return Gate(LOOKUP, tuple(order[:k]), tuple(order[k:k + d]), table=tuple(table),
                        reverse=data.draw(st.booleans()))

        def xs():
            return [("x", [q]) for q in data.draw(st.lists(st.integers(0, n - 1), max_size=n))]

        spread = [] if full else data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                                     max_size=n - 3))
        c = circuit_from(n, xs() + [("h", [q]) for q in spread] + xs())
        c.append(lookup())
        c.extend(circuit_from(n, xs() + [("h", [q]) for q in range(n) if full] + xs()))
        c.append(lookup())
        c.extend(circuit_from(n, xs()))
        flat = Circuit(c.registers)
        flat.gates = _expanded(c.gates)
        initial = data.draw(st.integers(0, (1 << n) - 1))
        amps, stats = evolved_amplitudes(c, initial)
        assert stats["engine"] == "sparse"
        if full:
            assert stats["peak_support"] == 1 << n
        assert np.array_equal(amps, evolved_amplitudes(flat, initial)[0])
        assert np.max(np.abs(amps - reference_amplitudes(flat, initial))) < 1e-12

    def test_x_then_h_on_every_qubit_at_full_support(self):
        # At full support, an X on each qubit permutes the whole index
        # array before the H that follows it, and the lookup then reads
        # addresses flipped by one more X.
        n = 10
        c = Circuit((("q", n),))
        for q in range(n):
            c.h(q)
        for q in range(n):
            c.x(q)
            c.h(q)
        c.x(1)
        c.lookup((1, 4, 7), (0, 5), (3, 0, 2, 1, 1, 3, 0, 2))
        c.x(1)
        flat = Circuit(c.registers)
        flat.gates = _expanded(c.gates)
        amps, stats = evolved_amplitudes(c, 0)
        assert stats["peak_support"] == 1 << n
        assert np.max(np.abs(amps - reference_amplitudes(flat, 0))) < 1e-12

    @pytest.mark.parametrize("fold_y", [False, True])
    def test_lookup_masks_spread_once_per_table(self, fold_y, monkeypatch):
        # Each iteration's oracle loads the table and its reverse=True copy
        # unloads it: six lookups on one table, whose n words are spread
        # onto the data qubits in one call per evolution.
        import qvmp.simulator as simulator

        n = 16
        search = build_grover_search(generate_instance(n, 4, 2, seed=5), 3, fold_y=fold_y)
        lookups = [g for g in search.gates if g.kind == LOOKUP]
        assert len(lookups) == 6
        assert sum(g.reverse for g in lookups) == 3
        assert len({id(g.table) for g in lookups}) == 1
        assert len({g.targets for g in lookups}) == 1
        data = lookups[0].targets
        calls = []
        spread = simulator._spread
        monkeypatch.setattr(simulator, "_spread",
                            lambda value, qubits: calls.append(qubits) or spread(value, qubits))
        _evolve(search)
        assert calls.count(data) == 1
        _evolve(search)
        assert calls.count(data) == 2

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
    @pytest.mark.parametrize("fold_y", [True, False], ids=["fold_y", "build_grover_search"])
    def test_search_circuits_prune_nothing(self, n, m, fold_y):
        inst = generate_instance(n, m, 1, seed=n)
        plan = plan_iterations(n, 1, "optimal")
        stats = {}
        run(build_grover_search(inst, plan.iterations, fold_y=fold_y), 256, seed=0, stats=stats)
        assert stats["engine"] == "sparse"
        assert stats["peak_support"] <= n
        assert stats["pruned_mass"] <= 1e-12

    def test_probabilities_fill_stats(self):
        stats = {}
        probabilities(bell_circuit(), stats=stats)
        assert stats["engine"] == "sparse"
        assert stats["peak_support"] == 2

    def test_sparse_run_is_not_bounded_by_the_cap(self, monkeypatch):
        monkeypatch.setenv("QVMP_SIM_MAX_QUBITS", "4")
        c = Circuit((("q", 40),), classical_bits=2)
        c.h(0)
        c.cx(0, 39)
        c.measure(0, 0)
        c.measure(39, 1)
        hist = run(c, 100, seed=0)
        assert set(hist.counts) == {"00", "11"}

    @pytest.mark.parametrize("num_qubits", [8, 40])
    def test_support_above_cap_raises(self, monkeypatch, num_qubits):
        # 2^8 entries are more than a cap of 6 allows, on a circuit of 8
        # qubits (full support) or of 40 (wider than the cap).
        monkeypatch.setenv("QVMP_SIM_MAX_QUBITS", "6")
        c = Circuit((("q", num_qubits),), classical_bits=1)
        for q in range(8):
            c.h(q)
        c.measure(0, 0)
        with pytest.raises(ResourceError, match="cap of 6"):
            run(c, 10, seed=0)

    def test_h_cap_counts_the_support_left_after_pruning(self):
        # Five pairs of slots (10 > 2^3), but the three present pairs have
        # equal amplitudes, so their bit-1 members cancel: 7 entries remain.
        index = np.array([0, 1, 2, 3, 4, 5, 8, 10], dtype=np.int64)
        c = Circuit((("q", 4),))
        c.h(0)
        stats = {}
        state = _evolve(c, _State(4, index, np.full(8, 8 ** -0.5)), cap=3, stats=stats)
        assert state.index.size == 7
        assert stats["peak_support"] == 8
        assert np.array_equal(np.sort(state.index), [0, 2, 4, 8, 9, 10, 11])

    def test_sparse_index_limit(self):
        c = Circuit((("q", SPARSE_MAX_QUBITS + 1),), classical_bits=1)
        c.measure(0, 0)
        with pytest.raises(ResourceError, match="sparse index limit"):
            run(c, 10, seed=0)


def expansion_of(c):
    """``c`` with every lookup and diffuse written out gate by gate."""
    flat = Circuit(c.registers)
    flat.gates = _expanded(c.gates)
    return flat


def assert_matches_expansion(c, initial=0):
    """``c`` evolves as its expansion does, gate by gate in the engine and
    in the dense reference, to 1e-12. Returns the stats of ``c``."""
    amps, stats = evolved_amplitudes(c, initial)
    flat = expansion_of(c)
    assert np.max(np.abs(amps - evolved_amplitudes(flat, initial)[0])) < 1e-12
    assert np.max(np.abs(amps - reference_amplitudes(flat, initial))) < 1e-12
    return stats


class TestDiffuse:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_its_expansion(self, data):
        """Diffuse gates on one to five qubits anywhere in the index and in
        any order, among the other kinds, from a basis state through
        Hadamards on a few qubits (several groups outside the register) or,
        in the full case, on every qubit."""
        n = data.draw(st.integers(4, 8))
        full = data.draw(st.booleans())

        def diffuse():
            order = data.draw(st.permutations(range(n)))
            return Gate(DIFFUSE, (), tuple(order[:data.draw(st.integers(1, min(5, n)))]))

        spread = range(n) if full else data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                                         max_size=3))
        c = circuit_from(n, [("h", [q]) for q in spread] + data.draw(gate_lists(n, 6)))
        for _ in range(data.draw(st.integers(1, 3))):
            c.append(diffuse())
            c.extend(circuit_from(n, data.draw(gate_lists(n, 6))))
        stats = assert_matches_expansion(c, data.draw(st.integers(0, (1 << n) - 1)))
        if full:
            assert stats["peak_support"] == 1 << n

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("shape", ["low run", "high run", "permuted"])
    def test_registers_and_groups(self, k, shape):
        # Hadamards on three qubits outside the register make eight groups,
        # and a phase pattern on the register makes each group's amplitudes
        # unequal; Hadamards on the other qubits outside then make every
        # group, and the last diffuser fills each one whose sum is nonzero.
        n = 9
        register = {"low run": list(range(k)), "high run": list(range(n - k, n)),
                    "permuted": [8, 1, 6, 3, 4][:k][::-1]}[shape]
        outside = [q for q in range(n) if q not in register]
        c = Circuit((("q", n),))
        for q in outside[:3] + register[:-1]:
            c.h(q)
        c.mcz(register[:-1] + outside[:1], register[-1]) if k > 1 else c.z(register[0])
        c.cx(outside[1], register[-1])
        c.diffuse(register)
        c.x(outside[2])
        c.diffuse(register[::-1])
        for q in outside[3:]:
            c.h(q)
        c.diffuse(register)
        stats = assert_matches_expansion(c, 0b101)
        assert stats["peak_support"] >= 8 << k

    def test_search_diffusers_call_no_hadamard(self, monkeypatch):
        # A 3-iteration compact search on 16 rows: the four prologue H are
        # the only ones; each diffuser is one reflection, not ten H.
        search = build_grover_search(generate_instance(16, 4, 2, seed=5), 3, fold_y=True)
        calls = []
        h = _State.h
        monkeypatch.setattr(_State, "h", lambda self, q: calls.append(q) or h(self, q))
        _evolve(search)
        assert calls == [0, 1, 2, 3]

    def test_block_above_cap_raises(self):
        # Eight groups (H on three qubits outside the register) of 2^4
        # register values: 128 entries, more than a cap of 6 allows.
        c = Circuit((("q", 8),))
        for q in (5, 6, 7):
            c.h(q)
        c.diffuse(range(4))
        with pytest.raises(ResourceError, match="support of 128 amplitudes exceeds the cap of 6"):
            _evolve(c, cap=6)
        stats = {}
        _evolve(c, cap=7, stats=stats)
        assert stats["peak_support"] == 128

    def test_full_support_peak_within_three_states(self):
        # Diffusers on all 2^18 entries, on a low run, a permuted register
        # and the whole width: the evolution holds at most 3x the
        # 16-byte-per-entry state.
        n = 18
        c = Circuit((("q", n),))
        for q in range(n):
            c.h(q)
        c.z(4)
        c.cx(2, 11)
        c.diffuse(range(6))
        c.diffuse([17, 3, 9, 0])
        c.diffuse(range(n))
        stats = {}
        tracemalloc.start()
        try:
            _evolve(c, cap=n, stats=stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats["peak_support"] == 1 << n
        assert peak <= 3 * 16 * (1 << n)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gather_and_spread_match_the_bit_loop(data):
    # A contiguous ascending run takes one shift and mask; any other qubit
    # list goes bit by bit. Both give the per-bit loop's result exactly, on
    # an int, on an int64 array and on -1 (every listed qubit's bit).
    n = data.draw(st.integers(1, SPARSE_MAX_QUBITS))
    k = data.draw(st.integers(1, min(n, 10)))
    if data.draw(st.booleans()):
        start = data.draw(st.integers(0, n - k))
        qubits = tuple(range(start, start + k))
    else:
        qubits = tuple(data.draw(st.permutations(range(n)))[:k])
    index = np.array(data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=20)),
                     dtype=np.int64)
    gathered = np.zeros(index.size, dtype=np.int64)
    for i, q in enumerate(qubits):
        gathered |= ((index >> q) & 1) << i
    got = _gather(index, qubits)
    assert got.dtype == np.int64 and np.array_equal(got, gathered)
    value = data.draw(st.integers(0, (1 << k) - 1))
    assert _spread(value, qubits) == sum(((value >> i) & 1) << q for i, q in enumerate(qubits))
    assert _spread(-1, qubits) == sum(1 << q for q in qubits)
    values = np.array(data.draw(st.lists(st.integers(0, (1 << k) - 1), max_size=20)),
                      dtype=np.int64)
    spread = _spread(values, qubits)
    assert spread.dtype == np.int64
    assert spread.tolist() == [sum(((v >> i) & 1) << q for i, q in enumerate(qubits))
                               for v in values.tolist()]
    assert np.array_equal(_gather(spread, qubits), values)


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

    @pytest.mark.parametrize("index", [-1, 4])
    def test_probability_rejects_an_index_outside_the_state(self, index):
        with pytest.raises(ContractError, match="outside"):
            statevector(bell_circuit()).probability(index)

    def test_qubit_cap(self, monkeypatch):
        monkeypatch.setenv("QVMP_SIM_MAX_QUBITS", "4")
        c = Circuit((("q", 5),))
        with pytest.raises(ResourceError):
            statevector(c)
        sv = statevector(c, max_qubits=5)
        assert sv.amplitudes.size == 32

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_invalid_qubit_cap_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("QVMP_SIM_MAX_QUBITS", value)
        with pytest.raises(ContractError, match="QVMP_SIM_MAX_QUBITS"):
            probabilities(bell_circuit())

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

    def test_rejects_an_empty_qubit_list(self):
        with pytest.raises(ContractError, match="empty"):
            probabilities(bell_circuit(), qubits=[])

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

    def test_requires_nonnegative_seed(self):
        c = Circuit((("q", 1),), classical_bits=1)
        c.measure(0, 0)
        with pytest.raises(ContractError, match="seed"):
            run(c, 10, seed=-1)


@st.composite
def marginals(draw):
    """Marginals of 1 to 64 outcomes with zeros and rounding-size negative
    entries, and at least one positive entry."""
    entry = st.one_of(st.just(0.0), st.floats(-1e-15, 0.0), st.floats(1e-12, 1.0))
    marg = draw(st.lists(entry, min_size=1, max_size=64))
    marg[draw(st.integers(0, len(marg) - 1))] = draw(st.floats(1e-6, 1.0))
    return np.array(marg)


class TestOutcomes:
    @settings(max_examples=300, deadline=None)
    @given(marginals(), st.integers(1, 3000), st.integers(0, 2**32 - 1))
    def test_sample_matches_inverse_cdf_reference(self, marg, shots, seed):
        size = marg.size
        width = max(1, (size - 1).bit_length())
        outcomes = _Outcomes(marg, [(q, q) for q in range(width)], width)
        hist = outcomes.sample(shots, seed)
        cdf = np.cumsum(np.maximum(marg, 0.0))
        cdf /= cdf[-1]
        draws = np.searchsorted(cdf, np.random.default_rng(seed).random(shots), side="right")
        values, counts = np.unique(np.minimum(draws, size - 1), return_counts=True)
        assert [int(key, 2) for key in hist.counts] == values.tolist()
        assert list(hist.counts.values()) == counts.tolist()
        assert hist.shots == shots
        # a second draw from the same table is the same histogram
        assert outcomes.sample(shots, seed) == hist

    def test_one_evolution_many_samples(self, monkeypatch):
        import qvmp.simulator as simulator

        c = bell_circuit(classical=2)
        c.measure(0, 1)
        c.measure(1, 0)
        calls = []
        evolve = simulator._evolve
        monkeypatch.setattr(simulator, "_evolve", lambda *a, **k: calls.append(1) or evolve(*a, **k))
        outcomes = _outcomes(c)
        hists = [outcomes.sample(300, seed) for seed in range(5)]
        assert len(calls) == 1
        assert hists == [run(c, 300, seed) for seed in range(5)]
        assert outcomes.exact() == pytest.approx({"00": 0.5, "01": 0.0, "10": 0.0, "11": 0.5})


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

    @pytest.mark.parametrize("text", ["bitstring,count,extra\n", "0,1\n0,2\n", "x,1\n",
                                      "0,1\n10,1\n"],
                             ids=["extra_field", "repeated_key", "not_a_bitstring",
                                  "mixed_widths"])
    def test_bad_csv(self, text):
        with pytest.raises(FormatError):
            Histogram.from_csv(text)

    @pytest.mark.parametrize("text", ["{}", "nope", "[1]", '{"counts": {"0": "a"}, "shots": 1}',
                                      '{"counts": {"0": -1, "1": 1}, "shots": 0}',
                                      '{"counts": {"0": true}, "shots": 1}',
                                      '{"counts": {"0": 2}, "shots": 2.7}',
                                      '{"counts": {"0": 2}, "shots": "2"}',
                                      '{"counts": {"x": 1}, "shots": 1}',
                                      '{"counts": {"0": 1, "10": 1}, "shots": 2}',
                                      '{"counts": [["0", 1]], "shots": 1}'])
    def test_bad_json(self, text):
        with pytest.raises(FormatError):
            Histogram.from_json(text)
