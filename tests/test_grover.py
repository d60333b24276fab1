import math
import random

import numpy as np
import pytest

from qvmp.bitlinalg import (
    BitMatrix,
    BitVector,
    append_column,
    matvec,
    mismatch_rows,
    random_matrix,
    random_vector,
)
from qvmp.circuit import CCX, CX, H, MCX, X, Z, Circuit, compose, gate_counts, inverse
from qvmp.errors import ContractError, DimensionError
from qvmp.grover import (
    QvmpInstance,
    build_diffuser,
    build_grover_search,
    build_grover_search_compact,
    build_grover_state,
    build_inner_product,
    build_oracle,
    build_qrom,
    optimal_iterations,
    plan_iterations,
    qvmp_iterations,
    scan_success_probability,
    search_qubit_count,
)
from qvmp.simulator import probabilities, run, statevector

EXAMPLE_ROWS = [
    [0, 1, 0, 1],
    [1, 1, 1, 0],
    [1, 0, 0, 1],
    [1, 0, 1, 0],
]


def closed_form(n, solutions, k):
    theta = math.asin(math.sqrt(solutions / n))
    return math.sin((2 * k + 1) * theta) ** 2


def make_instance(n, m, mismatch_set, seed):
    rng = random.Random(seed)
    a = random_matrix(n, m, rng)
    y = random_vector(m, rng)
    bits = matvec(a, y).bits
    for j in mismatch_set:
        bits ^= 1 << j
    return QvmpInstance(a, y, BitVector(bits, n))


class TestQvmpInstance:
    def test_solutions_recomputed(self):
        inst = make_instance(8, 4, {2, 5}, seed=0)
        assert inst.solutions == {2, 5}
        assert inst.n == 8 and inst.m == 4 and inst.address_bits == 3

    def test_requires_power_of_two_rows(self):
        with pytest.raises(DimensionError):
            make_instance(6, 4, set(), seed=0)

    def test_shape_validation(self):
        a = BitMatrix.identity(4)
        with pytest.raises(DimensionError):
            QvmpInstance(a, BitVector.from_bits([1]), BitVector.from_bits([0] * 4))
        with pytest.raises(DimensionError):
            QvmpInstance(a, BitVector.from_bits([1] * 4), BitVector.from_bits([0]))


class TestQrom:
    def test_example_matrix_row_zero(self):
        # row 0 = [0,1,0,1]: data qubits 1 and 3 flip
        q = build_qrom(BitMatrix.from_rows(EXAMPLE_ROWS))
        sv = statevector(q, initial=0)
        expected_index = (1 << (2 + 1)) | (1 << (2 + 3))
        assert sv.amplitudes[expected_index] == 1.0

    def test_example_matrix_row_two(self):
        q = build_qrom(BitMatrix.from_rows(EXAMPLE_ROWS))
        sv = statevector(q, initial=2)
        expected_index = 2 | (1 << (2 + 0)) | (1 << (2 + 3))  # row [1,0,0,1]
        assert sv.amplitudes[expected_index] == 1.0

    def test_all_rows_exact(self):
        rng = random.Random(0)
        for n, m in [(2, 3), (4, 4), (8, 5), (16, 4)]:
            table = random_matrix(n, m, rng)
            q = build_qrom(table)
            k = n.bit_length() - 1
            for r in range(n):
                sv = statevector(q, initial=r)
                want = r | (table.row_words[r] << k)
                assert sv.amplitudes[want] == 1.0
                assert sv.norm_sq() == 1.0

    def test_zero_matrix_only_scaffolding(self):
        q = build_qrom(BitMatrix.zeros(4, 3))
        counts = gate_counts(q)
        assert set(counts) == {X}
        for r in range(4):
            sv = statevector(q, initial=r)
            assert sv.amplitudes[r] == 1.0  # data register untouched

    def test_chunk_structure(self):
        # each chunk: X selection, one multi-controlled write per set bit, X undo
        q = build_qrom(BitMatrix.from_rows([[1], [0]]))
        assert [g.kind for g in q.gates] == [X, CX, X]

    def test_rejects_non_power_rows(self):
        with pytest.raises(DimensionError):
            build_qrom(BitMatrix.zeros(3, 2))

    def test_uncompute_round_trip(self):
        rng = random.Random(1)
        table = random_matrix(8, 3, rng)
        db = build_qrom(table)
        round_trip = compose(db, inverse(db))
        for basis in range(1 << round_trip.num_qubits):
            sv = statevector(round_trip, initial=basis)
            assert sv.amplitudes[basis] == 1.0


class TestInnerProduct:
    def test_single_overlap_sets_target(self):
        c = build_inner_product(2)
        # a = [1,0], b = [1,0]: indices a0 and b0 set
        init = (1 << 0) | (1 << 2)
        sv = statevector(c, initial=init)
        assert sv.amplitudes[init | (1 << 4)] == 1.0

    def test_even_overlap_cancels(self):
        c = build_inner_product(2)
        init = 0b01111  # a = [1,1], b = [1,1]
        init = (1 << 0) | (1 << 1) | (1 << 2) | (1 << 3)
        sv = statevector(c, initial=init)
        assert sv.amplitudes[init] == 1.0  # out stays 0

    def test_exhaustive_m3(self):
        c = build_inner_product(3)
        for a_bits in range(8):
            for b_bits in range(8):
                for t in (0, 1):
                    init = a_bits | (b_bits << 3) | (t << 6)
                    product = (a_bits & b_bits).bit_count() & 1
                    want = a_bits | (b_bits << 3) | ((t ^ product) << 6)
                    sv = statevector(c, initial=init)
                    assert sv.amplitudes[want] == 1.0

    def test_gate_census(self):
        assert gate_counts(build_inner_product(4)) == {CCX: 4}

    def test_uncompute_round_trip(self):
        dot = build_inner_product(3)
        round_trip = compose(dot, inverse(dot))
        for basis in range(1 << 7):
            sv = statevector(round_trip, initial=basis)
            assert sv.amplitudes[basis] == 1.0


class TestDiffuser:
    def test_three_qubit_gate_sequence(self):
        d = build_diffuser(3)
        kinds = [g.kind for g in d.gates]
        assert kinds == [H, H, H, X, X, X, H, CCX, H, X, X, X, H, H, H]

    def test_three_qubit_counts(self):
        assert gate_counts(build_diffuser(3)) == {H: 8, X: 6, CCX: 1}

    def test_wide_core_uses_mcx(self):
        assert gate_counts(build_diffuser(4))[MCX] == 1

    def test_preserves_uniform_superposition(self):
        c = Circuit((("q", 3),))
        for q in range(3):
            c.h(q)
        c = compose(c, build_diffuser(3))
        probs = probabilities(c)
        assert all(abs(p - 0.125) < 1e-12 for p in probs.values())

    def test_involution(self):
        rng = random.Random(2)
        prep = Circuit((("q", 3),))
        for _ in range(10):
            kind = rng.choice(["x", "h", "z"])
            getattr(prep, kind)(rng.randrange(3))
        before = statevector(prep).amplitudes
        doubled = compose(compose(prep, build_diffuser(3)), build_diffuser(3))
        after = statevector(doubled).amplitudes
        assert np.max(np.abs(after - before)) < 1e-12


class TestOracle:
    def test_gate_ordering_matches_sub_circuits(self):
        inst = make_instance(4, 4, {2}, seed=3)
        oracle = build_oracle(inst)
        db = build_qrom(append_column(inst.matrix, inst.z))
        dot = build_inner_product(4)
        n_db, n_dot = len(db.gates), len(dot.gates)
        kinds = [g.kind for g in oracle.gates]
        assert kinds[:n_db] == [g.kind for g in db.gates]
        assert kinds[n_db:n_db + n_dot] == [g.kind for g in dot.gates]
        assert kinds[n_db + n_dot] == Z
        assert kinds[n_db + n_dot + 1:n_db + 2 * n_dot + 1] == [g.kind for g in inverse(dot).gates]
        assert kinds[n_db + 2 * n_dot + 1:] == [g.kind for g in inverse(db).gates]

    def test_no_solutions_acts_as_identity(self):
        inst = make_instance(8, 4, set(), seed=4)
        c = Circuit(build_oracle(inst).registers)
        for q in c.qubits("address"):
            c.h(q)
        for i in range(inst.m):
            if inst.y[i]:
                c.x(c.qubit("y", i))
        with_oracle = compose(c, build_oracle(inst))
        assert np.max(np.abs(statevector(with_oracle).amplitudes - statevector(c).amplitudes)) == 0.0

    @pytest.mark.parametrize("target", [0, 1, 2, 3])
    def test_example_matrix_single_mismatch(self, target):
        rng = random.Random(5)
        a = BitMatrix.from_rows(EXAMPLE_ROWS)
        y = random_vector(4, rng)
        z = matvec(a, y)
        inst = QvmpInstance(a, y, BitVector(z.bits ^ (1 << target), 4))
        oracle = build_oracle(inst)
        y_shift = 2 + 4
        for j in range(4):
            init = j | (y.bits << y_shift)
            sv = statevector(oracle, initial=init)
            want = -1.0 if j == target else 1.0
            assert sv.amplitudes[init] == want
            assert sv.norm_sq() == 1.0

    def test_8x8_instance_phase_pattern(self):
        inst = make_instance(8, 8, {2, 5, 7}, seed=6)
        oracle = build_oracle(inst)
        y_shift = 3 + 8
        for j in range(8):
            init = j | (inst.y.bits << y_shift)
            sv = statevector(oracle, initial=init)
            want = -1.0 if j in {2, 5, 7} else 1.0
            assert sv.amplitudes[init] == want

    def test_random_instances_match_classical_oracle(self):
        rng = random.Random(7)
        for _ in range(15):
            n = rng.choice([4, 8])
            m = rng.choice([2, 4])
            a = random_matrix(n, m, rng)
            y = random_vector(m, rng)
            z = random_vector(n, rng)
            inst = QvmpInstance(a, y, z)
            flips = mismatch_rows(a, y, z)
            oracle = build_oracle(inst)
            k = inst.address_bits
            for j in range(n):
                init = j | (y.bits << (k + m))
                sv = statevector(oracle, initial=init)
                want = -1.0 if j in flips else 1.0
                assert sv.amplitudes[init] == want

    def test_dual_flips_matches_instead(self):
        inst = make_instance(4, 3, {1}, seed=8)
        oracle = build_oracle(inst, dual=True)
        y_shift = 2 + 3
        for j in range(4):
            init = j | (inst.y.bits << y_shift)
            sv = statevector(oracle, initial=init)
            want = 1.0 if j == 1 else -1.0  # global sign aside, matches flip
            assert sv.amplitudes[init] == want

    def test_uncompute_round_trip(self):
        inst = make_instance(8, 3, {1, 4}, seed=9)
        oracle = build_oracle(inst)
        round_trip = compose(oracle, inverse(oracle))
        for basis in range(1 << round_trip.num_qubits):
            sv = statevector(round_trip, initial=basis)
            assert sv.amplitudes[basis] == 1.0


class TestPlanning:
    # Reported (n, mismatches) -> iterations pairs for the metric grid.
    @pytest.mark.parametrize(
        "n,m,mismatches,iterations",
        [
            (4, 4, 1, 1),
            (16, 4, 2, 2),
            (16, 8, 2, 2),
            (32, 4, 2, 3),
            (32, 8, 1, 4),
            (32, 32, 3, 2),
            (64, 8, 3, 3),
            (64, 8, 1, 6),
            (64, 16, 2, 4),
            (64, 64, 3, 3),
        ],
    )
    def test_reported_iteration_counts(self, n, m, mismatches, iterations):
        plan = plan_iterations(n, mismatches, "optimal")
        assert plan.n_optimal == iterations
        assert plan.iterations == iterations

    def test_zero_optimal_flags_dual(self):
        plan = plan_iterations(8, 5, "optimal")
        assert plan.n_optimal == 0
        assert plan.dual_recommended
        assert plan.iterations == 0

    def test_no_solutions(self):
        plan = plan_iterations(8, 0, "optimal")
        assert plan.n_optimal is None
        assert plan.iterations == 0
        assert not plan.dual_recommended

    @pytest.mark.parametrize("n,expected", [(4, 2), (8, 2), (16, 2), (32, 3), (64, 3), (256, 4)])
    def test_quartic_root_schedule(self, n, expected):
        assert qvmp_iterations(n) == expected
        assert plan_iterations(n, 1, "qvmp").iterations == expected

    def test_explicit_mode(self):
        plan = plan_iterations(16, 2, "explicit", explicit=7)
        assert plan.iterations == 7
        with pytest.raises(ContractError):
            plan_iterations(16, 2, "explicit")

    def test_dual_mode_plans_complement(self):
        plan = plan_iterations(8, 5, "dual")
        assert plan.iterations == optimal_iterations(8, 3) == 1

    def test_solution_count_bounds(self):
        with pytest.raises(ContractError):
            plan_iterations(8, 9, "optimal")
        with pytest.raises(DimensionError):
            plan_iterations(12, 1, "optimal")


class TestGroverSearch:
    def test_zero_iterations_uniform(self):
        inst = make_instance(8, 4, {3}, seed=10)
        state = build_grover_state(inst, 0)
        probs = probabilities(state, state.qubits("address"))
        assert all(abs(p - 0.125) < 1e-12 for p in probs.values())
        hist = run(build_grover_search(inst, 0), 4096, seed=0)
        assert set(hist.counts) <= {format(v, "03b") for v in range(8)}

    def test_single_solution_n4_exact(self):
        # one iteration at n=4, M=1 lands exactly on the solution
        inst = make_instance(4, 4, {2}, seed=11)
        state = build_grover_state(inst, 1)
        probs = probabilities(state, state.qubits("address"))
        assert abs(probs["10"] - 1.0) < 1e-9

    def test_three_solutions_n8(self):
        inst = make_instance(8, 8, {2, 5, 7}, seed=12)
        state = build_grover_state(inst, 1)
        probs = probabilities(state, state.qubits("address"))
        mass = probs["010"] + probs["101"] + probs["111"]
        assert abs(mass - 27 / 32) < 1e-9

    def test_measurement_maps_address_bits(self):
        inst = make_instance(4, 4, {2}, seed=11)
        hist = run(build_grover_search(inst, 1), 256, seed=1)
        assert hist.counts == {"10": 256}

    @pytest.mark.parametrize(
        "n,m", [(4, 4), (16, 4), (16, 8), (32, 4), (32, 8), (64, 8)]
    )
    def test_qubit_count(self, n, m):
        inst = make_instance(n, m, {0}, seed=13)
        c = build_grover_search(inst, 1)
        assert c.num_qubits == search_qubit_count(n, m) == (n.bit_length() - 1) + 2 * m + 1

    def test_rejects_negative_iterations(self):
        inst = make_instance(4, 2, {1}, seed=14)
        with pytest.raises(ContractError):
            build_grover_state(inst, -1)

    @pytest.mark.parametrize("iterations", [0, 1, 2])
    @pytest.mark.parametrize("dual", [False, True])
    def test_compact_matches_full_marginal(self, iterations, dual):
        inst = make_instance(8, 4, {1, 6}, seed=15)
        full = build_grover_state(inst, iterations, dual=dual)
        compact = build_grover_search_compact(inst, iterations, dual=dual, measure=False)
        p_full = probabilities(full, full.qubits("address"))
        p_compact = probabilities(compact, compact.qubits("address"))
        for key, p in p_full.items():
            assert abs(p - p_compact[key]) < 1e-12

    def test_compact_zero_iterations_trims_registers(self):
        inst = make_instance(16, 16, {3}, seed=16)
        c = build_grover_search_compact(inst, 0)
        assert c.num_qubits == 4

    def test_compact_qubit_count(self):
        inst = make_instance(16, 16, {3}, seed=17)
        c = build_grover_search_compact(inst, 1)
        assert c.num_qubits == 4 + 16 + 1


class TestLinearConstruction:
    @pytest.mark.parametrize("builder", [build_grover_search, build_grover_search_compact])
    def test_each_iteration_writes_its_gates_once(self, builder, monkeypatch):
        """Gates written by append and extend, counted without timing:
        going from k to k' iterations writes exactly the gates the extra
        iterations add, so no earlier iteration is copied again."""
        written = [0]
        append, extend = Circuit.append, Circuit.extend

        def counting_append(self, gate):
            written[0] += 1
            append(self, gate)

        def counting_extend(self, other, mapping=None):
            written[0] += len(other.gates)
            extend(self, other, mapping)

        monkeypatch.setattr(Circuit, "append", counting_append)
        monkeypatch.setattr(Circuit, "extend", counting_extend)
        inst = make_instance(16, 8, {3, 9}, seed=18)
        cost, size = {}, {}
        for k in (1, 2, 4):
            written[0] = 0
            size[k] = len(builder(inst, k))
            cost[k] = written[0]
        per_iteration = size[2] - size[1]
        assert per_iteration > 0
        assert cost[2] - cost[1] == per_iteration
        assert cost[4] - cost[2] == 2 * per_iteration


class TestScan:
    def test_no_solutions_flat_zero(self):
        inst = make_instance(8, 4, set(), seed=18)
        scan = scan_success_probability(inst, 4)
        assert [k for k, _ in scan] == [0, 1, 2, 3, 4]
        assert all(p == 0.0 for _, p in scan)

    def test_n8_m3_matches_rotation_formula(self):
        # exact values sin^2((2k+1)*asin(sqrt(3/8))): the k=3 revival
        # (0.9902) tops the k=1 peak (0.84375)
        inst = make_instance(8, 4, {2, 5, 7}, seed=19)
        scan = scan_success_probability(inst, 4)
        for k, p in scan:
            assert abs(p - closed_form(8, 3, k)) < 1e-9
        assert max(scan, key=lambda kp: kp[1])[0] == 3

    def test_n16_m3_overshoot_failure(self):
        # k=4 lands well below the k=1 peak
        inst = make_instance(16, 4, {1, 4, 5}, seed=20)
        scan = dict(scan_success_probability(inst, 4))
        assert abs(scan[1] - closed_form(16, 3, 1)) < 1e-9
        assert abs(scan[4] - closed_form(16, 3, 4)) < 1e-9
        assert scan[4] < scan[1]

    def test_rotation_law_across_sizes(self):
        rng = random.Random(21)
        for n, solutions in [(4, 1), (4, 2), (8, 1), (8, 3), (16, 1), (16, 5)]:
            rows = rng.sample(range(n), solutions)
            inst = make_instance(n, 2, set(rows), seed=rng.randrange(10**6))
            for k, p in scan_success_probability(inst, 3):
                assert abs(p - closed_form(n, solutions, k)) < 1e-9

    def test_dual_tracks_matches(self):
        inst = make_instance(8, 4, {2, 3, 5, 6, 7}, seed=22)
        scan = dict(scan_success_probability(inst, 2, dual=True))
        # dual searches the 3 matching rows: same law with M' = 3
        for k in range(3):
            assert abs(scan[k] - closed_form(8, 3, k)) < 1e-9

    def test_state_carried_across_iterations(self, monkeypatch):
        import qvmp.grover as grover

        inst = make_instance(8, 3, {1, 6}, seed=24)
        calls = []
        evolve = grover._evolve
        monkeypatch.setattr(grover, "_evolve", lambda *a, **k: calls.append(1) or evolve(*a, **k))
        scan = scan_success_probability(inst, 4)
        # one preparation plus one (oracle, diffuser) step per k >= 1
        assert len(calls) == 5
        for k, p in scan:
            circ = build_grover_state(inst, k)
            marginal = probabilities(circ, circ.qubits("address"))
            assert abs(p - sum(marginal[format(j, "03b")] for j in (1, 6))) < 1e-12

    def test_requires_positive_max(self):
        inst = make_instance(4, 2, {0}, seed=23)
        with pytest.raises(ContractError):
            scan_success_probability(inst, 0)
