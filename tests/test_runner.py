import json
import random

import pytest

from qvmp.bitlinalg import (
    BitMatrix,
    format_matrix,
    matmul,
    mismatch_rows,
    random_matrix,
    random_vector,
)
from qvmp.circuit import dump
import qvmp.simulator as simulator
from qvmp.errors import ContractError, DimensionError, FormatError, ResourceError
from qvmp.grover import QvmpInstance, build_grover_search, plan_iterations
from qvmp.runner import (
    DEFAULT_METRICS_GRID,
    METRICS_FIELDS,
    ExperimentConfig,
    VerdictReport,
    _candidate_address,
    emit_histogram,
    emit_metrics,
    generate_instance,
    histogram_from_csv,
    histogram_to_csv,
    metrics_from_csv,
    metrics_to_csv,
    qvmp_verify,
)
from qvmp.simulator import Histogram, run


def flipped_product(n, seed, row=None, col=None):
    rng = random.Random(seed)
    a = random_matrix(n, n, rng)
    b = random_matrix(n, n, rng)
    c = matmul(a, b)
    row = rng.randrange(n) if row is None else row
    col = rng.randrange(n) if col is None else col
    words = list(c.row_words)
    words[row] ^= 1 << col
    return a, b, c, BitMatrix(n, n, tuple(words)), row, col


class TestGenerateInstance:
    def test_explicit_rows(self):
        inst = generate_instance(8, 8, (2, 5, 7), seed=0)
        assert inst.solutions == {2, 5, 7}

    def test_counted_rows(self):
        inst = generate_instance(16, 4, 3, seed=1)
        assert len(inst.solutions) == 3

    def test_empty(self):
        inst = generate_instance(8, 4, 0, seed=2)
        assert inst.solutions == frozenset()

    def test_deterministic(self):
        a = generate_instance(8, 6, 2, seed=3)
        b = generate_instance(8, 6, 2, seed=3)
        assert a.matrix == b.matrix and a.y == b.y and a.z == b.z

    def test_seed_changes_instance(self):
        a = generate_instance(8, 6, 2, seed=4)
        b = generate_instance(8, 6, 2, seed=5)
        assert (a.matrix, a.y, a.z) != (b.matrix, b.y, b.z)

    def test_rejects_bad_index(self):
        with pytest.raises(DimensionError):
            generate_instance(8, 4, (8,), seed=0)
        with pytest.raises(DimensionError):
            generate_instance(8, 4, 9, seed=0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ContractError):
            ExperimentConfig(shots=0)
        with pytest.raises(ContractError):
            ExperimentConfig(trials=0)
        with pytest.raises(ContractError):
            ExperimentConfig(n=4, mismatches=5)
        with pytest.raises(ContractError):
            ExperimentConfig(iteration_mode="bogus")

    def test_repeated_mismatch_rows_count_once(self):
        # generate_instance reads (1, 1, 1) as one mismatched row, so the
        # config must accept it wherever the instance does.
        cfg = ExperimentConfig(n=2, m=2, mismatches=(1, 1, 1))
        assert len(generate_instance(cfg.n, cfg.m, cfg.mismatches, 0).solutions) == 1
        with pytest.raises(ContractError):
            ExperimentConfig(n=2, m=2, mismatches=(0, 1, 2))


class TestVerdictReport:
    def test_witness_iff_inconsistent(self):
        with pytest.raises(ContractError):
            VerdictReport("consistent", (0, 1))
        with pytest.raises(ContractError):
            VerdictReport("inconsistent", None)

    def test_json_round_trip_fields(self):
        rep = VerdictReport(
            "inconsistent",
            (1, 5),
            {"1/0": Histogram({"101": 4}, 4)},
            {"iterations": 2},
            {"build": 0.1, "lower": 0.0, "simulate": 0.2},
        )
        obj = json.loads(rep.to_json())
        assert obj["decision"] == "inconsistent"
        assert obj["witness"] == [1, 5]
        assert obj["histograms"]["1/0"]["counts"] == {"101": 4}


class TestVerify:
    def test_true_product_consistent(self):
        for seed in range(5):
            rng = random.Random(seed)
            a = random_matrix(8, 8, rng)
            b = random_matrix(8, 8, rng)
            cfg = ExperimentConfig(n=8, m=8, mismatches=0, shots=256, seed=seed, trials=3)
            report = qvmp_verify(a, b, matmul(a, b), cfg)
            assert report.decision == "consistent"
            assert report.witness is None

    def test_single_flip_n4(self):
        hits = 0
        for seed in range(10):
            a, b, _, bad, row, col = flipped_product(4, seed)
            cfg = ExperimentConfig(n=4, m=4, mismatches=0, shots=512, seed=seed, trials=4)
            report = qvmp_verify(a, b, bad, cfg)
            if report.decision == "inconsistent":
                block, j = report.witness
                assert block == col // 2
                assert j == row
                hits += 1
        assert hits >= 8

    def test_single_flip_n8_witness(self):
        a, b, _, bad, row, col = flipped_product(8, seed=77, row=5, col=6)
        cfg = ExperimentConfig(n=8, m=8, mismatches=0, shots=512, seed=3, trials=8)
        report = qvmp_verify(a, b, bad, cfg)
        assert report.decision == "inconsistent"
        assert report.witness == (col // 2, row)

    def test_report_payload(self):
        a, b, _, bad, _, _ = flipped_product(8, seed=9)
        cfg = ExperimentConfig(n=8, m=8, mismatches=0, shots=128, seed=1, trials=4)
        report = qvmp_verify(a, b, bad, cfg)
        assert set(report.timings) == {"build", "lower", "simulate"}
        assert report.metrics["circuit"]["qubits"] >= 3
        assert all(h.shots == 128 for h in report.histograms.values())
        engine = report.metrics["engine"]
        assert engine["engine"] == "sparse"
        assert engine["peak_support"] <= 8
        assert engine["pruned_mass"] <= 1e-12

    def test_lowers_the_widest_trial_once(self, monkeypatch):
        # The lowered metrics come from lowered_metrics on the widest
        # trial's circuit, once per verdict; no lowered circuit is built.
        import qvmp.circuit as circuit
        import qvmp.runner as runner

        built, measured, lowered = [], [], []
        build, lowered_metrics, lower = (
            runner.build_grover_search, circuit.lowered_metrics, circuit.lower)

        def recording_build(inst, iterations, **kwargs):
            built.append((iterations, build(inst, iterations, **kwargs)))
            return built[-1][1]

        def recording_lowered_metrics(c):
            measured.append(c)
            return lowered_metrics(c)

        def recording_lower(c):
            lowered.append(c)
            return lower(c)

        monkeypatch.setattr(runner, "build_grover_search", recording_build)
        monkeypatch.setattr(circuit, "lowered_metrics", recording_lowered_metrics)
        monkeypatch.setattr(circuit, "lower", recording_lower)
        a, b, _, bad, _, _ = flipped_product(8, seed=0)
        cfg = ExperimentConfig(n=8, m=8, mismatches=0, shots=128, seed=0, trials=4)
        report = qvmp_verify(a, b, bad, cfg)
        widest = max(built, key=lambda kc: kc[0])[1]  # first trial with the most iterations
        assert len(built) > 1 and measured == [widest]
        assert lowered == []
        assert report.metrics["iterations"] == max(k for k, _ in built)
        assert report.metrics["circuit"] == circuit.metrics(widest)
        assert report.metrics["lowered"] == circuit.metrics(lower(widest))
        assert list(report.metrics) == ["iterations", "circuit", "lowered", "engine"]

    def test_evolves_the_zero_iteration_search_once(self, monkeypatch):
        # Every trial that plans no iterations samples one evolution of the
        # address-only circuit; every other trial evolves its own search.
        import qvmp.runner as runner

        evolved, planned = [], []
        evolve, plan = simulator._evolve, runner.plan_iterations

        def recording_plan(*args, **kwargs):
            result = plan(*args, **kwargs)
            planned.append(result.iterations)
            return result

        monkeypatch.setattr(simulator, "_evolve",
                            lambda *a, **k: evolved.append(1) or evolve(*a, **k))
        monkeypatch.setattr(runner, "plan_iterations", recording_plan)
        for seed in range(3):
            a, b, c, bad, _, _ = flipped_product(16, 1000 + seed)
            cfg = ExperimentConfig(n=16, m=16, mismatches=0, shots=1024, seed=seed, trials=8)
            evolved.clear()
            planned.clear()
            assert qvmp_verify(a, b, c, cfg).decision == "consistent"
            assert len(planned) == 32 and set(planned) == {0}
            assert len(evolved) == 1
            evolved.clear()
            planned.clear()
            assert qvmp_verify(a, b, bad, cfg).decision == "inconsistent"
            assert 0 in planned
            assert len(evolved) == 1 + sum(k > 0 for k in planned)

    @pytest.mark.parametrize("mode,explicit", [("qvmp", None), ("explicit", 2)])
    def test_count_free_modes_read_no_ground_truth(self, monkeypatch, mode, explicit):
        # qvmp and explicit plan without the solution count and check a
        # candidate by its one row, so no verdict computes mismatch_rows
        import qvmp.grover as grover

        calls = []
        mismatch_rows = grover.mismatch_rows
        monkeypatch.setattr(grover, "mismatch_rows",
                            lambda *a: calls.append(1) or mismatch_rows(*a))
        for seed in range(3):
            a, b, c, bad, row, _ = flipped_product(16, 1000 + seed)
            for iteration_mode, iterations in ((mode, explicit), ("optimal", None)):
                cfg = ExperimentConfig(n=16, m=16, mismatches=0, iteration_mode=iteration_mode,
                                       explicit_iterations=iterations, shots=256, seed=seed,
                                       trials=4)
                calls.clear()
                assert qvmp_verify(a, b, c, cfg).decision == "consistent"
                report = qvmp_verify(a, b, bad, cfg)
                assert report.witness is None or report.witness[1] == row
                if iteration_mode == mode:
                    assert calls == []
                else:  # optimal plans from the count, one call per trial
                    assert calls

    def test_zero_iteration_search_does_not_depend_on_the_instance(self):
        # what lets qvmp_verify reuse one evolution for all such trials
        for n in (4, 16, 64):
            dumps = {dump(build_grover_search(generate_instance(n, m, mismatches, seed), 0,
                                              dual=dual, fold_y=True))
                     for m in (1, 5, n) for mismatches in (0, 1, 3)
                     for seed in range(3) for dual in (False, True)}
            assert len(dumps) == 1

    def test_candidate_address_ties(self):
        tied = Histogram({"01": 5, "10": 5, "11": 2}, 12)
        assert _candidate_address(tied, 4, dual=False) == 1
        # dual: the rarest address, counting those never drawn
        assert _candidate_address(tied, 4, dual=True) == 0
        unseen = Histogram({"000": 3, "001": 1, "011": 1, "111": 4}, 9)
        assert _candidate_address(unseen, 8, dual=True) == 2
        assert _candidate_address(unseen, 8, dual=False) == 7
        rare = Histogram({"00": 2, "01": 1, "10": 1, "11": 3}, 7)
        assert _candidate_address(rare, 4, dual=True) == 1
        assert _candidate_address(rare, 4, dual=False) == 3

    def test_single_flip_n32(self):
        # The 38-qubit compact circuit runs, far wider than the qubit cap.
        a, b, _, bad, row, col = flipped_product(32, seed=7)
        cfg = ExperimentConfig(n=32, m=32, mismatches=0, shots=1024, seed=7, trials=8)
        report = qvmp_verify(a, b, bad, cfg)
        assert report.decision == "inconsistent"
        assert report.witness == (col // 8, row)
        assert report.metrics["circuit"]["qubits"] == 38

    def test_compact_64_exceeds_sparse_index_limit(self):
        inst = generate_instance(64, 64, 1, seed=0)
        search = build_grover_search(inst, 1, fold_y=True)
        assert search.num_qubits == 71
        with pytest.raises(ResourceError, match="sparse index limit"):
            run(search, 16, seed=0)

    def test_qvmp_mode(self):
        a, b, _, bad, row, col = flipped_product(8, seed=21, row=2, col=3)
        cfg = ExperimentConfig(
            n=8, m=8, mismatches=0, iteration_mode="qvmp", shots=512, seed=5, trials=8
        )
        report = qvmp_verify(a, b, bad, cfg)
        assert report.decision == "inconsistent"
        assert report.witness == (col // 2, row)

    def test_dual_mode_sound_on_clean(self):
        rng = random.Random(31)
        a = random_matrix(4, 4, rng)
        b = random_matrix(4, 4, rng)
        cfg = ExperimentConfig(
            n=4, m=4, mismatches=0, iteration_mode="dual", shots=512, seed=2, trials=2
        )
        report = qvmp_verify(a, b, matmul(a, b), cfg)
        assert report.decision == "consistent"

    def test_scan_mode_rejected(self):
        with pytest.raises(ContractError):
            ExperimentConfig(n=4, m=4, mismatches=0, iteration_mode="scan")

    def test_shape_errors(self):
        cfg = ExperimentConfig(n=4, m=4, mismatches=0)
        with pytest.raises(DimensionError):
            qvmp_verify(BitMatrix.identity(4), BitMatrix.identity(4), BitMatrix.identity(3), cfg)
        with pytest.raises(DimensionError):
            qvmp_verify(BitMatrix.identity(2), BitMatrix.identity(2), BitMatrix.identity(2), cfg)

    def test_row_check_agrees_with_mismatch_rows(self):
        # the candidate check of qvmp_verify reads one row of A, not the answer
        rng = random.Random(23)
        for _ in range(40):
            n, m = rng.choice([4, 8, 16, 32]), rng.randint(1, 20)
            inst = QvmpInstance(random_matrix(n, m, rng), random_vector(m, rng),
                                random_vector(n, rng))
            checked = {j for j in range(n) if inst.matrix.row(j).dot(inst.y) != inst.z[j]}
            assert checked == mismatch_rows(inst.matrix, inst.y, inst.z)


class TestDetectionRate:
    def test_matches_compounded_rotation_law(self):
        # Single-shot trials make the modal rule equal single-measurement
        # semantics, so the detection rate per instance is
        # 1 - (1 - exposure * sin^2((2N+1)theta))^trials with exposure the
        # chance a random nonzero x lights up the flipped column (2/3 at
        # block width 2) and theta = asin(sqrt(1/8)).
        import math

        n, trials, seeds = 8, 3, 200
        q = math.sin(5 * math.asin(math.sqrt(1 / n))) ** 2  # N_optimal = 2
        p_trial = (2 / 3) * q
        p_detect = 1 - (1 - p_trial) ** trials
        detected = 0
        for seed in range(seeds):
            a, b, _, bad, _, _ = flipped_product(n, seed=seed)
            cfg = ExperimentConfig(
                n=n, m=n, mismatches=0, shots=1, seed=seed, trials=trials
            )
            if qvmp_verify(a, b, bad, cfg).decision == "inconsistent":
                detected += 1
        sigma = math.sqrt(seeds * p_detect * (1 - p_detect))
        assert abs(detected - seeds * p_detect) < 5 * sigma


class TestMetricsEmission:
    def test_reported_rows(self):
        rows = emit_metrics([(4, 4, 1), (16, 8, 2), (64, 16, 2)])
        by_dim = {(r["n"], r["m"]): r for r in rows}
        assert by_dim[(4, 4)]["qubits"] == 11
        assert by_dim[(4, 4)]["iterations"] == 1
        assert by_dim[(16, 8)]["qubits"] == 21
        assert by_dim[(16, 8)]["iterations"] == 2
        assert by_dim[(64, 16)]["qubits"] == 39
        assert by_dim[(64, 16)]["iterations"] == 4

    def test_lowering_reaches_basis(self):
        rows = emit_metrics([(8, 4, 1)])
        row = rows[0]
        assert row["mcx"] > 0  # three address controls pre-lowering
        assert row["lowered_qubits"] >= row["qubits"]
        assert row["lowered_ccx"] > 0

    def test_csv_round_trip(self):
        rows = emit_metrics([(4, 4, 1), (16, 4, 2), (8, 4, (1, 1, 2))])
        assert rows[-1]["mismatches"] == 2  # rows 1 and 2; the repeat counts once
        text = metrics_to_csv(rows)
        assert metrics_from_csv(text) == rows

    @pytest.mark.parametrize("text", [
        "", "a\n", "n,m\n1\n", "n,m\n1,x\n",
        ",".join(METRICS_FIELDS) + "\n1,2\n",
        ",".join(METRICS_FIELDS) + "\n" + ",".join(["1"] * (len(METRICS_FIELDS) - 1) + ["x"]),
        ",".join(METRICS_FIELDS) + "\n" + ",".join(["1"] * (len(METRICS_FIELDS) + 1)),
    ], ids=["empty", "other_header", "short_row", "non_integer", "narrow_row",
            "non_integer_field", "wide_row"])
    def test_bad_csv(self, text):
        with pytest.raises(FormatError):
            metrics_from_csv(text)

    def test_default_grid_rows_pinned(self):
        """Every column of every default-grid row at seed 0, depths
        included, so a change to construction, lower or depth cannot drift
        the reported figures."""
        pinned = [
            (4, 4, 1, 1, 11, 44, 64, 22, 8, 1, 1, 30, 0, 2, 11, 44, 64, 30),
            (16, 4, 2, 2, 13, 314, 495, 275, 24, 2, 0, 16, 174, 4, 15, 966, 1187, 882),
            (16, 8, 2, 2, 21, 430, 637, 277, 24, 2, 0, 32, 298, 4, 23, 1576, 1825, 1518),
            (32, 4, 2, 3, 14, 914, 1585, 993, 41, 3, 0, 24, 519, 5, 17, 3890, 4693, 3651),
            (32, 8, 1, 4, 22, 1658, 2606, 1324, 53, 4, 0, 64, 1156, 5, 25, 8422, 9534, 8148),
            (32, 32, 3, 2, 70, 2414, 2941, 675, 29, 2, 0, 128, 2102, 5, 73, 14880, 15549,
             14838),
            (64, 8, 3, 3, 23, 2576, 4238, 2342, 48, 3, 0, 48, 1791, 6, 27, 16607, 18560, 16161),
            (64, 8, 1, 6, 23, 5126, 8438, 4682, 90, 6, 0, 96, 3558, 6, 27, 32996, 36890, 32106),
            (64, 16, 2, 4, 39, 5450, 7716, 3128, 62, 4, 0, 128, 4388, 6, 43, 40142, 42812,
             39612),
            (64, 64, 3, 3, 135, 13454, 15133, 2371, 48, 3, 0, 384, 12321, 6, 139, 111740,
             113695, 111267),
        ]
        rows = emit_metrics(seed=0)
        assert [tuple(row[f] for f in METRICS_FIELDS) for row in rows] == pinned
        assert all(set(row) == set(METRICS_FIELDS) for row in rows)

    def test_default_grid_covers_reported_dimensions(self):
        dims = {(n, m) for n, m, _ in DEFAULT_METRICS_GRID}
        assert (4, 4) in dims and (64, 64) in dims and len(DEFAULT_METRICS_GRID) == 10


class TestHistogramEmission:
    def test_payload_and_round_trip(self):
        inst = generate_instance(8, 8, (2, 5, 7), seed=0)
        plan = plan_iterations(8, 3, "optimal")
        payload = emit_histogram(inst, plan, shots=2048, seed=0)
        assert payload["iterations"] == 1
        assert sum(payload["counts"].values()) == 2048
        assert abs(sum(payload["probabilities"].values()) - 1.0) < 1e-9
        parsed = histogram_from_csv(histogram_to_csv(payload))
        assert parsed["counts"] == payload["counts"]
        assert parsed["probabilities"] == payload["probabilities"]

    @pytest.mark.parametrize("text", ["", "0,3,0.5\n1,1,0.5\n"] + [
        "bitstring,count,probability\n" + rows + "\n"
        for rows in ("0,x,0.5", "0,-1,0.5", "0,1,0.5\n0,2,0.5", "x,1,0.5", "0,1,0.5\n10,1,0.5",
                     "0,1,nan", "1,0,-0.5", "0,1,inf")
    ], ids=["empty", "no_header", "bad_count", "negative_count", "repeated_key",
            "not_a_bitstring", "mixed_widths", "nan_probability", "negative_probability",
            "infinite_probability"])
    def test_bad_csv(self, text):
        with pytest.raises(FormatError):
            histogram_from_csv(text)

    def test_probability_above_one_reads_back(self):
        # an exact probability that rounding leaves an ulp above 1
        payload = {"counts": {"1": 5}, "probabilities": {"0": 0.0, "1": 1.0000000000000002}}
        parsed = histogram_from_csv(histogram_to_csv(payload))
        assert parsed == {"counts": {"1": 5}, "probabilities": payload["probabilities"]}

    def test_one_evolution_matches_run(self, monkeypatch):
        inst = generate_instance(8, 4, 2, seed=4)
        plan = plan_iterations(8, 2, "optimal")
        expected = run(build_grover_search(inst, plan.iterations), 512, seed=9).counts
        calls = []
        evolve = simulator._evolve
        monkeypatch.setattr(simulator, "_evolve", lambda *a, **k: calls.append(1) or evolve(*a, **k))
        payload = emit_histogram(inst, plan, shots=512, seed=9)
        assert len(calls) == 1
        assert payload["counts"] == expected
        assert set(payload["probabilities"]) == {format(j, "03b") for j in range(8)}

    def test_solution_mass_sampled(self):
        inst = generate_instance(8, 8, (2, 5, 7), seed=0)
        plan = plan_iterations(8, 3, "optimal")
        payload = emit_histogram(inst, plan, shots=4096, seed=1)
        mass = sum(payload["counts"].get(k, 0) for k in ("010", "101", "111")) / 4096
        assert abs(mass - 27 / 32) < 0.03


class TestEndToEndText:
    def test_matrix_files_drive_verify(self, tmp_path):
        a, b, c, bad, _, _ = flipped_product(4, seed=5)
        paths = {}
        for name, m in [("a", a), ("b", b), ("c", c), ("bad", bad)]:
            p = tmp_path / f"{name}.txt"
            p.write_text(format_matrix(m))
            paths[name] = str(p)
        from qvmp.cli import main

        assert main(["verify", paths["a"], paths["b"], paths["c"]]) == 0
        assert main(["verify", paths["a"], paths["b"], paths["bad"], "--trials", "6"]) == 1
