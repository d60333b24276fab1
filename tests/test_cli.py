import json

import pytest

from qvmp.bitlinalg import BitMatrix, format_matrix, matmul, random_matrix
from qvmp.cli import main
from qvmp.runner import histogram_from_csv, metrics_from_csv


@pytest.fixture
def product_files(tmp_path):
    import random

    rng = random.Random(0)
    a = random_matrix(4, 4, rng)
    b = random_matrix(4, 4, rng)
    c = matmul(a, b)
    out = {}
    for name, m in [("a", a), ("b", b), ("c", c)]:
        p = tmp_path / f"{name}.txt"
        p.write_text(format_matrix(m))
        out[name] = str(p)
    return out


class TestVerifyCommand:
    def test_consistent_exit_zero(self, product_files, capsys):
        code = main(["verify", product_files["a"], product_files["b"], product_files["c"]])
        assert code == 0
        assert "consistent" in capsys.readouterr().out

    def test_report_file(self, product_files, tmp_path):
        out = tmp_path / "report.json"
        main([
            "verify", product_files["a"], product_files["b"], product_files["c"],
            "--out", str(out), "--shots", "128", "--trials", "2",
        ])
        obj = json.loads(out.read_text())
        assert obj["decision"] == "consistent"
        assert obj["witness"] is None

    def test_inconsistent_n32_exit_one(self, tmp_path, capsys):
        import random

        rng = random.Random(7)
        a = random_matrix(32, 32, rng)
        b = random_matrix(32, 32, rng)
        c = matmul(a, b)
        row, col = rng.randrange(32), rng.randrange(32)
        words = list(c.row_words)
        words[row] ^= 1 << col
        paths = []
        for name, m in [("a", a), ("b", b), ("c", BitMatrix(32, 32, tuple(words)))]:
            p = tmp_path / f"{name}.txt"
            p.write_text(format_matrix(m))
            paths.append(str(p))
        assert main(["verify", *paths, "--trials", "8", "--seed", "7"]) == 1
        assert f"inconsistent: block {col // 8}, row {row}" in capsys.readouterr().out

    def test_missing_file_exit_two(self, tmp_path):
        ghost = str(tmp_path / "ghost.txt")
        assert main(["verify", ghost, ghost, ghost]) == 2

    def test_bad_matrix_exit_two(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("not a matrix\n")
        assert main(["verify", str(p), str(p), str(p)]) == 2

    def test_undecodable_matrix_exit_two(self, product_files, tmp_path, capsys):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\xff4 4\n")
        assert main(["verify", str(p), product_files["b"], product_files["c"]]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text", ['{"rows": 4, "cols": 4, "data": 5}',
                                      '{"rows": 2, "cols": 2, "data": [[0, 1], 5]}',
                                      '{"rows": 1, "cols": 1, "data": [null]}',
                                      '{"rows": 1, "cols": 1, "data": [[1.0]]}',
                                      '{"rows": 2, "cols": 1, "data": [[0.0], [1]]}',
                                      '{"rows": 4, "cols": 4, "data": [[1, 0, 0, 0], [0, 1, 0, 0],'
                                      ' [0, 0, 1, 0], [0, 0, 0, true]]}',
                                      '{"rows": 4, "cols": 4, "data": [[1, 0, 0, 0], [0, 1, 0, 0],'
                                      ' [0, 0, 1, 0], [false, 0, 0, 1]]}'])
    def test_bad_json_matrix_exit_two(self, tmp_path, capsys, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert main(["verify", str(p), str(p), str(p)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])  # missing operands
        assert exc.value.code == 2


class TestHistogramCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "hist.csv"
        code = main([
            "histogram", "--n", "8", "--m", "4", "--mismatches", "2,5,7",
            "--shots", "1024", "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        parsed = histogram_from_csv(out.read_text())
        assert sum(parsed["counts"].values()) == 1024
        assert len(parsed["probabilities"]) == 8

    def test_json_output(self, tmp_path):
        out = tmp_path / "hist.json"
        main([
            "histogram", "--n", "4", "--m", "4", "--mismatches", "1",
            "--shots", "256", "--out", str(out), "--format", "json",
        ])
        obj = json.loads(out.read_text())
        assert obj["shots"] == 256
        assert sum(obj["counts"].values()) == 256

    def test_explicit_mode(self, capsys):
        code = main([
            "histogram", "--n", "4", "--m", "2", "--mismatches", "1",
            "--mode", "explicit", "--iterations", "2", "--shots", "64",
        ])
        assert code == 0
        assert "bitstring,count,probability" in capsys.readouterr().out


    def test_wide_search_simulates_the_compact_form(self, tmp_path):
        # log2 32 + 2·32 + 1 = 70 qubits unfolded, past the sparse index
        # limit; the compact form verify simulates has 38
        out = tmp_path / "hist.json"
        code = main(["histogram", "--n", "32", "--m", "32", "--mismatches", "3,17",
                     "--shots", "512", "--out", str(out), "--format", "json"])
        assert code == 0
        obj = json.loads(out.read_text())
        assert sum(obj["counts"].values()) == 512
        assert len(obj["probabilities"]) == 32
        assert abs(sum(obj["probabilities"].values()) - 1) < 1e-9
        marked = obj["probabilities"][format(3, "05b")] + obj["probabilities"][format(17, "05b")]
        assert marked > 0.9

    def test_negative_seed_exit_two(self, capsys):
        assert main(["histogram", "--n", "4", "--m", "2", "--shots", "16", "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_width_exit_two(self, capsys):
        assert main(["histogram", "--n", "4", "--m", "-1", "--shots", "16"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_invalid_qubit_cap_exit_two(self, monkeypatch, capsys, value):
        monkeypatch.setenv("QVMP_SIM_MAX_QUBITS", value)
        assert main(["histogram", "--n", "4", "--m", "2", "--shots", "16"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "QVMP_SIM_MAX_QUBITS" in err


class TestMetricsCommand:
    def test_default_grid_csv(self, tmp_path):
        out = tmp_path / "metrics.csv"
        assert main(["metrics", "--out", str(out)]) == 0
        rows = metrics_from_csv(out.read_text())
        assert len(rows) == 10
        qubits = {(r["n"], r["m"]): r["qubits"] for r in rows}
        assert qubits[(4, 4)] == 11
        assert qubits[(64, 64)] == 135

    def test_custom_grid(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"n": 8, "m": 4, "mismatches": 1}]))
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--grid", str(grid), "--out", str(out), "--format", "json"]) == 0
        rows = json.loads(out.read_text())
        assert rows[0]["n"] == 8 and rows[0]["qubits"] == 12

    @pytest.mark.parametrize("text", ["not json", '{"n": 4, "m": 4, "mismatches": 1}',
                                      '[[4, 4, 1]]', '[{"n": 4}]',
                                      '[{"n": "4", "m": 4, "mismatches": 1}]',
                                      '[{"n": 4, "m": 4.0, "mismatches": 1}]',
                                      '[{"n": 4, "m": 4, "mismatches": ["1"]}]',
                                      '[{"n": 8, "m": true, "mismatches": 1}]',
                                      '[{"n": 8, "m": 4, "mismatches": true}]',
                                      '[{"n": 8, "m": 4, "mismatches": [true]}]',
                                      '[{"n": 8, "m": -2, "mismatches": 1}]'])
    def test_bad_grid_exit_two(self, tmp_path, capsys, text):
        p = tmp_path / "grid.json"
        p.write_text(text)
        assert main(["metrics", "--grid", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestScanCommand:
    def test_scan_prints_exact_masses(self, capsys):
        code = main(["scan", "--n", "8", "--m", "4", "--mismatches", "2,5,7", "--max-iters", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "iterations,probability"
        values = {int(k): float(p) for k, p in (ln.split(",") for ln in lines[1:])}
        assert abs(values[0] - 0.375) < 1e-9
        assert abs(values[1] - 27 / 32) < 1e-9

    def test_negative_width_exit_two(self, capsys):
        assert main(["scan", "--n", "4", "--m", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_wide_scan_simulates_the_compact_form(self, capsys):
        # 3 + 2·30 + 1 = 64 qubits unfolded; the compact form has 34
        code = main(["scan", "--n", "8", "--m", "30", "--mismatches", "2,5,7",
                     "--max-iters", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = {int(k): float(p) for k, p in (ln.split(",") for ln in lines[1:])}
        assert sorted(values) == [0, 1, 2, 3]
        assert abs(values[0] - 0.375) < 1e-9
        assert abs(values[1] - 27 / 32) < 1e-9

    def test_dual_scan(self, capsys):
        code = main([
            "scan", "--n", "8", "--m", "4", "--mismatches", "2,3,5,6,7",
            "--max-iters", "2", "--dual",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = {int(k): float(p) for k, p in (ln.split(",") for ln in lines[1:])}
        assert abs(values[1] - 27 / 32) < 1e-9
