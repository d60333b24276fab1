#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of qvmp.

    python3 perfbench/run.py --workload verify_flipped --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1

Imports qvmp from the ``src`` directory beside this one, runs one workload
in this single process for ``--seconds`` seconds, checks every output, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same inputs untraced and then traced and reports
the per-layer metrics and the tracing overhead. ``--workload all`` runs
each workload in its own child process, one after another.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("verify_flipped", "verify_true", "metrics_grid", "scan_wide")
SETUP_REPEATS = 3
FREIVALDS_REPETITIONS = 8
SPAN_FILE_OPS = 20  # operations whose spans are written out; metrics use all


def import_qvmp() -> None:
    """Import qvmp from ROOT/src and nowhere else; raises ImportError."""
    # NumPy's OpenBLAS would start an idle worker thread per core; the
    # program uses no BLAS call, so keep the process to one thread.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import qvmp

    origin = Path(qvmp.__file__).resolve()
    if (ROOT / "src") not in origin.parents:
        raise ImportError(f"qvmp imported from {origin}, not from {ROOT / 'src'}")


def environment() -> dict:
    import numpy
    import qvmp.simulator

    return {
        "backend": qvmp.simulator.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_ops(workload, inputs, *, seconds=None, count=None, tracer=None, keep=False):
    """Run operations on the inputs in order, for ``seconds`` of wall time
    or exactly ``count`` operations. Returns per-operation seconds, the
    failures (index, message, wrong-output flag) and, with ``keep``, the
    (input, output) pairs."""
    durations, failures, kept = [], [], []
    start = time.perf_counter()
    j = 0
    while (j < count) if count is not None else (time.perf_counter() - start < seconds):
        item = inputs[j % len(inputs)]
        if tracer:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            output = workload.operation(item)
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            output, error, wrong = None, f"{type(exc).__name__}: {exc}", False
        else:
            error, wrong = None, False
        durations.append(time.perf_counter() - t0)
        if tracer:
            tracer.end_op()
        if error is None:
            error = workload.check(item, output)
            wrong = error is not None
        if error is not None:
            failures.append((j, error, wrong))
        if keep:
            kept.append((item, output))
        j += 1
    return durations, failures, kept


def set_up(workload, seed):
    """Make the inputs and warm up, SETUP_REPEATS times; returns the
    inputs and the median seconds of one set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.make_inputs(seed)
        workload.warm_up(seed)
        times.append(time.perf_counter() - t0)
    return inputs, statistics.median(times)


def end_to_end(durations, import_s, prep_s) -> dict:
    return {
        "op_s": {"value": statistics.median(durations), "unit": "s"},
        "ops_per_s": {"value": len(durations) / sum(durations), "unit": "1/s"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "unit": "MiB"},
        "setup_s": {"value": import_s + prep_s, "unit": "s"},
    }


def peak_over_state(tracer) -> float:
    """tracemalloc peak of one re-run of the widest simulate call, over
    the 16 * 2^qubits bytes of its complex128 state."""
    if tracer.widest is None:
        return 0.0
    qubits, fn, args, kwargs = tracer.widest
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (16 << qubits)


def freivalds_seconds(pairs) -> float:
    """Median seconds of the classical baseline on each verified product."""
    import qvmp.bitlinalg as bitlinalg

    times = []
    for item, _ in pairs:
        t0 = time.perf_counter()
        bitlinalg.freivalds(item.a, item.b, item.c, FREIVALDS_REPETITIONS, item.config.seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) if times else 0.0


def traced_run(workload, inputs, seconds, stem):
    """Untraced for half the time, then the same operations traced."""
    from tracing import Tracer, layer_metrics

    plain, failures, _ = run_ops(workload, inputs, seconds=seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_failures, pairs = run_ops(workload, inputs, count=len(plain),
                                                 tracer=tracer, keep=True)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, len(traced), [out for _, out in pairs])
    for note in tracer.notes:
        print(f"note: {note}", file=sys.stderr)
    metrics["simulator.peak_over_state"] = {"value": peak_over_state(tracer), "unit": "ratio"}
    reports = [pair for pair in pairs if hasattr(pair[1], "decision")]
    metrics["baseline.freivalds_s"] = {"value": freivalds_seconds(reports), "unit": "s"}
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    metrics["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
    tracer.dump(OUT / f"{stem}.spans.jsonl", SPAN_FILE_OPS)
    return plain + traced, failures + traced_failures, metrics


def run_workload(args) -> int:
    t0 = time.perf_counter()
    try:
        import_qvmp()
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    import_s = time.perf_counter() - t0
    workload = WORKLOADS[args.workload]
    inputs, prep_s = set_up(workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        durations, failures, metrics = traced_run(workload, inputs, args.seconds, stem)
    else:
        durations, failures, _ = run_ops(workload, inputs, seconds=args.seconds)
        metrics = end_to_end(durations, import_s, prep_s)
    for j, error, _ in failures:
        print(f"operation {j} failed: {error}", file=sys.stderr)
    result = {
        "correct": not any(wrong for _, _, wrong in failures),
        "attempted": len(durations),
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "op_seconds": durations,
              "failures": failures, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, metric in metrics.items():
        print(f"{args.workload:>14} {name:<32} {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process; a table on stderr and the
    combined result, metrics keyed by workload, as the last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(f"{name:>14} attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}", file=sys.stderr)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
