"""The construction and metrics stack runs without the simulator.

Each check runs in a fresh interpreter, because this test session has
NumPy and ``qvmp.simulator`` loaded already.
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

LOADED = "print('numpy' in sys.modules, 'qvmp.simulator' in sys.modules)"


def run_python(code: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_metrics_path_loads_neither_numpy_nor_the_simulator():
    lines = run_python(f"""
        import contextlib, io, sys
        import qvmp
        from qvmp import build_grover_search, depth, lower, lowered_metrics
        from qvmp.circuit import dump, metrics
        from qvmp.cli import main
        from qvmp.runner import emit_metrics, generate_instance
        search = build_grover_search(generate_instance(8, 3, 1, 0), 1)
        assert depth(lower(search)) == lowered_metrics(search)["depth"]
        dump(search)
        metrics(search)
        emit_metrics()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["metrics"]) == 0
        assert out.getvalue().startswith("n,m,mismatches,")
        {LOADED}
    """)
    assert lines == ["False False"]


def test_package_run_loads_the_simulator():
    lines = run_python(f"""
        import sys
        import qvmp
        {LOADED}
        circuit = qvmp.Circuit((("q", 1),), classical_bits=1)
        circuit.h(0)
        circuit.measure(0, 0)
        assert qvmp.run(circuit, shots=10, seed=0).shots == 10
        {LOADED}
        from qvmp import simulator
        assert qvmp.run is simulator.run and qvmp.Histogram is simulator.Histogram
    """)
    assert lines == ["False False", "True True"]


def test_verify_loads_the_simulator():
    lines = run_python(f"""
        import random, sys
        from qvmp import BitMatrix, ExperimentConfig, matmul, qvmp_verify
        from qvmp.bitlinalg import random_matrix
        rng = random.Random(3)
        a, b = random_matrix(8, 8, rng), random_matrix(8, 8, rng)
        c = matmul(a, b)
        rows = list(c.row_words)
        rows[5] ^= 1
        flipped = BitMatrix(8, 8, tuple(rows))
        report = qvmp_verify(a, b, flipped, ExperimentConfig(seed=3, trials=8))
        assert report.decision == "inconsistent" and report.witness[1] == 5
        {LOADED}
    """)
    assert lines == ["True True"]


def test_star_import_binds_every_public_name():
    lines = run_python("""
        import qvmp
        namespace = {}
        exec("from qvmp import *", namespace)
        missing = [name for name in qvmp.__all__ if name not in namespace]
        assert not missing, missing
        assert set(qvmp.__all__) <= set(dir(qvmp))
        try:
            qvmp.no_such_name
        except AttributeError as e:
            print(e)
    """)
    assert lines == ["module 'qvmp' has no attribute 'no_such_name'"]
