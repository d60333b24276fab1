"""Acceptance suite: one test per required criterion, each printed as a
PASS/FAIL line by the conftest summary hook.

Criterion 5 encodes a required expectation that exact dynamics contradict
(see the comment there); its test states the requirement faithfully and is
expected to stay red.
"""
import math
import random
import time

import numpy as np

from qvmp.bitlinalg import (
    BitMatrix,
    matmul,
    mismatch_rows,
    random_matrix,
    random_vector,
)
from qvmp.circuit import Circuit, compose, inverse, lower
from qvmp.grover import (
    QvmpInstance,
    build_diffuser,
    build_grover_search,
    build_inner_product,
    build_oracle,
    build_qrom,
    plan_iterations,
    scan_success_probability,
)
from qvmp.runner import ExperimentConfig, generate_instance, qvmp_verify
from qvmp.simulator import probabilities, run, statevector

# (n, m) -> qubits, from the reported dimension grid
QUBIT_TABLE = {
    (4, 4): 11,
    (16, 4): 13,
    (16, 8): 21,
    (32, 4): 14,
    (32, 8): 22,
    (32, 32): 70,
    (64, 8): 23,
    (64, 16): 39,
    (64, 64): 135,
}

# (n, m, mismatches) -> Grover iterations, all ten reported rows
ITERATION_TABLE = [
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
]


def test_criterion_1_qubit_counts():
    start = time.perf_counter()
    mismatch_for = {(n, m): mm for n, m, mm, _ in ITERATION_TABLE}
    for (n, m), expected in QUBIT_TABLE.items():
        inst = generate_instance(n, m, mismatch_for.get((n, m), 1), seed=100 + n + m)
        plan = plan_iterations(n, len(inst.solutions), "optimal")
        search = build_grover_search(inst, plan.iterations)
        assert search.num_qubits == expected, (n, m)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"construction took {elapsed:.3f}s"


def test_criterion_2_iteration_counts():
    for n, m, mismatches, expected in ITERATION_TABLE:
        plan = plan_iterations(n, mismatches, "optimal")
        assert plan.n_optimal == expected, (n, m, mismatches)
    # five solutions in eight rows round the optimal count down to zero
    plan = plan_iterations(8, 5, "optimal")
    assert plan.n_optimal == 0
    assert plan.dual_recommended


def test_criterion_3_three_solution_regime():
    start = time.perf_counter()
    inst = generate_instance(8, 8, (2, 5, 7), seed=3)
    assert inst.solutions == {2, 5, 7}
    exact_mass = math.sin(3 * math.asin(math.sqrt(3 / 8))) ** 2
    state = build_grover_search(inst, 1, measure=False)
    probs = probabilities(state, state.qubits("address"))
    mass = probs["010"] + probs["101"] + probs["111"]
    assert abs(mass - exact_mass) < 1e-9
    shots = 4096
    hist = run(build_grover_search(inst, 1), shots, seed=3)
    sampled = sum(hist.counts.get(k, 0) for k in ("010", "101", "111")) / shots
    assert abs(sampled - exact_mass) < 0.03
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_criterion_4_no_solution_uniformity():
    inst = generate_instance(8, 8, 0, seed=4)
    for k in range(5):
        state = build_grover_search(inst, k, measure=False)
        probs = probabilities(state, state.qubits("address"))
        for key, p in probs.items():
            assert abs(p - 1 / 8) < 1e-9, (k, key)


def test_criterion_5_overshoot_regime_and_dual():
    # Required: with five solutions out of eight, the mass after one and
    # two iterations both sit strictly below the 5/8 baseline, and the dual
    # search (three matching rows) reaches at least 0.8 at its optimum.
    #
    # The k=2 requirement contradicts the exact rotation law: with
    # theta = asin(sqrt(5/8)), sin^2(5*theta) = 125/128, far above 5/8
    # (sin 5t = 5s - 20s^3 + 16s^5 gives -1.25*s exactly). The assertion
    # is kept as required and fails by design; k=1 (5/32) and the dual
    # clause (27/32 at one iteration) both hold.
    inst = generate_instance(8, 8, (2, 3, 5, 6, 7), seed=5)
    assert inst.solutions == {2, 3, 5, 6, 7}
    baseline = 5 / 8
    scan = dict(scan_success_probability(inst, 2))
    assert abs(scan[0] - baseline) < 1e-9

    dual_scan = dict(scan_success_probability(inst, 2, dual=True))
    plan = plan_iterations(8, 5, "dual")
    assert plan.iterations == 1
    assert dual_scan[plan.iterations] >= 0.8
    assert dual_scan[plan.iterations] == max(dual_scan.values())

    assert scan[1] < baseline
    assert scan[2] < baseline, (
        f"mass after two iterations is {scan[2]:.6f} = 125/128; the exact "
        f"rotation law puts it above the 5/8 baseline, so this required "
        f"bound cannot hold for a faithful simulator"
    )


def test_criterion_6_oracle_phase_pattern():
    start = time.perf_counter()
    rng = random.Random(6)
    shapes = [(n, m) for n in (4, 8, 16) for m in (2, 4)]
    for i in range(200):
        n, m = shapes[i % len(shapes)]
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
            expected = -1.0 if j in flips else 1.0
            assert abs(sv.amplitudes[init] - expected) < 1e-9
            # everything else, ancillas included, is exactly untouched
            rest = sv.norm_sq() - abs(sv.amplitudes[init]) ** 2
            assert rest == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.3f}s"


def _assert_identity_on_all_basis_states(circuit, tol=1e-12):
    size = 1 << circuit.num_qubits
    for basis in range(size):
        sv = statevector(circuit, initial=basis)
        assert abs(sv.amplitudes[basis] - 1.0) <= tol, basis
        off = np.abs(sv.amplitudes)
        off[basis] = 0.0
        assert np.max(off) <= tol, basis


def test_criterion_7_uncompute_round_trips():
    rng = random.Random(7)
    for n, m in [(4, 2), (8, 3), (16, 4)]:
        table = random_matrix(n, m, rng)
        db = build_qrom(table)
        _assert_identity_on_all_basis_states(compose(db, inverse(db)))
    for m in (2, 4):
        dot = build_inner_product(m)
        _assert_identity_on_all_basis_states(compose(dot, inverse(dot)))
    for k in (2, 3, 4):
        d = build_diffuser(k)
        _assert_identity_on_all_basis_states(compose(d, inverse(d)))
    for n, m in [(4, 4), (8, 2), (16, 4)]:
        a = random_matrix(n, m, rng)
        y = random_vector(m, rng)
        z = random_vector(n, rng)
        oracle = build_oracle(QvmpInstance(a, y, z))
        _assert_identity_on_all_basis_states(compose(oracle, inverse(oracle)))


def _flipped_product(n, seed):
    rng = random.Random(seed)
    a = random_matrix(n, n, rng)
    b = random_matrix(n, n, rng)
    c = matmul(a, b)
    row, col = rng.randrange(n), rng.randrange(n)
    words = list(c.row_words)
    words[row] ^= 1 << col
    return a, b, c, BitMatrix(n, n, tuple(words)), row, col


def test_criterion_8_end_to_end_verification():
    start = time.perf_counter()
    n = 16
    width = 4
    detected = 0
    for i in range(100):
        a, b, _, bad, row, col = _flipped_product(n, seed=1000 + i)
        cfg = ExperimentConfig(n=n, m=n, mismatches=0, shots=1024, seed=1000 + i, trials=8)
        report = qvmp_verify(a, b, bad, cfg)
        if report.decision == "inconsistent":
            assert report.witness == (col // width, row), f"instance {i}"
            detected += 1
    assert detected >= 95, f"only {detected} of 100 perturbed products detected"
    for i in range(100):
        a, b, c, _, _, _ = _flipped_product(n, seed=5000 + i)
        cfg = ExperimentConfig(n=n, m=n, mismatches=0, shots=1024, seed=5000 + i, trials=8)
        report = qvmp_verify(a, b, c, cfg)
        assert report.decision == "consistent", f"instance {i}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_9_lowering_equivalence():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(5, 10)
        c = Circuit((("q", n),))
        for _ in range(rng.randint(5, 20)):
            kind = rng.choice(["x", "h", "z", "cx", "ccx", "mcx", "mcz"])
            order = rng.sample(range(n), n)
            if kind in ("x", "h", "z"):
                getattr(c, kind)(order[0])
            elif kind == "cx":
                c.cx(order[0], order[1])
            elif kind == "ccx":
                c.ccx(order[0], order[1], order[2])
            elif kind == "mcx":
                k = rng.randint(3, min(4, n - 1))
                c.mcx(order[:k], order[k])
            else:
                k = rng.randint(1, min(4, n - 1))
                c.mcz(order[:k], order[k])
        lowered = lower(c)
        basis = rng.randrange(1 << n)
        want = statevector(c, initial=basis).amplitudes
        got = statevector(lowered, initial=basis).amplitudes
        blocks = got.reshape(-1, 1 << n)
        assert np.max(np.abs(blocks[0] - want)) < 1e-9
        if blocks.shape[0] > 1:
            assert np.max(np.abs(blocks[1:])) < 1e-9  # ancillas restored to |0>
