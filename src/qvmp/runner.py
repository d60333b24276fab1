"""Experiment harness: instance generation, the full verification driver,
and metric/histogram emission.

The driver follows the recursive decomposition: partition B and C into
column blocks, derive per-trial (y, z) pairs from random nonzero x, and
hunt for a mismatching row of A·y vs z with Grover search. Every quantum
candidate is re-checked classically, so an inconsistent verdict always
carries a genuine witness and a true product can never be rejected.
"""
from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import dataclass, field

from . import circuit as circ_mod
from .bitlinalg import (
    BitMatrix,
    BitVector,
    default_block_width,
    matvec,
    partition_columns,
    random_matrix,
    random_vector,
)
from .errors import ContractError, DimensionError
from .grover import (
    QvmpInstance,
    build_grover_search,
    build_grover_search_compact,
    plan_iterations,
)
from .simulator import Histogram, _run, run

__all__ = [
    "ExperimentConfig",
    "VerdictReport",
    "generate_instance",
    "qvmp_verify",
    "emit_metrics",
    "emit_histogram",
    "DEFAULT_METRICS_GRID",
]

ITERATION_MODES = ("optimal", "qvmp", "explicit", "dual", "scan")

# (n, m, mismatches) rows reported by the metrics command by default.
DEFAULT_METRICS_GRID = (
    (4, 4, 1),
    (16, 4, 2),
    (16, 8, 2),
    (32, 4, 2),
    (32, 8, 1),
    (32, 32, 3),
    (64, 8, 3),
    (64, 8, 1),
    (64, 16, 2),
    (64, 64, 3),
)


@dataclass
class ExperimentConfig:
    n: int = 8
    m: int = 8
    mismatches: int | tuple[int, ...] = 1
    iteration_mode: str = "optimal"
    explicit_iterations: int | None = None
    shots: int = 4096
    seed: int = 0
    trials: int = 1
    output: str | None = None
    fmt: str = "csv"

    def __post_init__(self) -> None:
        if self.iteration_mode not in ITERATION_MODES:
            raise ContractError(f"unknown iteration mode {self.iteration_mode!r}")
        if self.shots < 1:
            raise ContractError("shots must be >= 1")
        if self.trials < 1:
            raise ContractError("trials must be >= 1")
        count = self.mismatches if isinstance(self.mismatches, int) else len(self.mismatches)
        if count > self.n:
            raise ContractError("more mismatches than rows")
        if self.fmt not in ("csv", "json"):
            raise ContractError(f"unknown output format {self.fmt!r}")


@dataclass
class VerdictReport:
    decision: str
    witness: tuple[int, int] | None
    histograms: dict[str, Histogram] = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.decision == "inconsistent") != (self.witness is not None):
            raise ContractError("witness present iff decision is inconsistent")

    def to_json(self) -> str:
        obj = {
            "decision": self.decision,
            "witness": list(self.witness) if self.witness else None,
            "histograms": {
                key: {"shots": h.shots, "counts": h.counts}
                for key, h in self.histograms.items()
            },
            "metrics": self.metrics,
            "timings": self.timings,
        }
        return json.dumps(obj, sort_keys=True)


def generate_instance(n: int, m: int, mismatch_spec, seed: int) -> QvmpInstance:
    """Random A and y with z = A·y flipped at exactly the requested rows.

    ``mismatch_spec`` is either a row count (rows drawn without
    replacement) or an explicit iterable of row indices.
    """
    rng = random.Random(seed)
    a = random_matrix(n, m, rng)
    y = random_vector(m, rng)
    if isinstance(mismatch_spec, int):
        if not 0 <= mismatch_spec <= n:
            raise DimensionError(f"cannot place {mismatch_spec} mismatches in {n} rows")
        rows = rng.sample(range(n), mismatch_spec)
    else:
        rows = sorted(set(int(r) for r in mismatch_spec))
        if rows and (rows[0] < 0 or rows[-1] >= n):
            raise DimensionError(f"mismatch index outside 0..{n - 1}")
    z_bits = matvec(a, y).bits
    for r in rows:
        z_bits ^= 1 << r
    return QvmpInstance(a, y, BitVector(z_bits, n))


def _plan_for_trial(n: int, solution_count: int, cfg: ExperimentConfig):
    mode = cfg.iteration_mode
    if mode == "scan":
        raise ContractError("scan mode does not drive verification")
    return plan_iterations(n, solution_count, mode, cfg.explicit_iterations)


def _candidate_address(hist: Histogram, n: int, dual: bool) -> int:
    """Row index to check classically: the modal measured address, or, in
    dual mode (matching rows amplified), the rarest address."""
    width = (n - 1).bit_length()
    totals = {j: hist.counts.get(format(j, f"0{width}b"), 0) for j in range(n)}
    if dual:
        return min(totals, key=lambda j: (totals[j], j))
    return min(totals, key=lambda j: (-totals[j], j))


def qvmp_verify(a: BitMatrix, b: BitMatrix, c: BitMatrix, cfg: ExperimentConfig) -> VerdictReport:
    """Decide whether A·B = C.

    Per block and trial: draw a random nonzero x, compute y = B_i·x and
    z = C_i·x classically, search for a row with (A·y)_j != z_j, and
    confirm the candidate classically. The solution count used for
    iteration planning comes from the classical ground truth; with zero
    solutions the trial plans zero iterations, since the address marginal
    stays uniform anyway. ``metrics`` describes the widest trial (most
    iterations), including its engine stats under ``engine``; its lowered
    metrics are computed once, when the verdict is reached, by
    ``circuit.lowered_metrics`` without building the lowered circuit, and
    ``timings["lower"]`` times that call.
    """
    n = a.rows
    for mat in (a, b, c):
        if mat.rows != n or mat.cols != n:
            raise DimensionError("qvmp_verify expects equal square matrices")
    if n < 4 or n & (n - 1):
        raise DimensionError(f"matrix size must be a power of two >= 4, got {n}")
    width = default_block_width(n)
    b_blocks = partition_columns(b, width)
    c_blocks = partition_columns(c, width)
    rng = random.Random(cfg.seed)
    dual = cfg.iteration_mode == "dual"
    timings = {"build": 0.0, "lower": 0.0, "simulate": 0.0}
    histograms: dict[str, Histogram] = {}
    # widest trial so far: (iterations, search circuit, engine stats)
    widest: tuple[int, circ_mod.Circuit, dict] | None = None

    def finish(decision: str, witness: tuple[int, int] | None) -> VerdictReport:
        metrics: dict = {}
        if widest is not None:
            iterations, search, stats = widest
            t0 = time.perf_counter()
            lowered = circ_mod.lowered_metrics(search)
            timings["lower"] += time.perf_counter() - t0
            metrics = {
                "iterations": iterations,
                "circuit": circ_mod.metrics(search),
                "lowered": lowered,
                "engine": stats,
            }
        return VerdictReport(decision, witness, histograms, metrics, timings)

    for bi, (b_i, c_i) in enumerate(zip(b_blocks, c_blocks)):
        for trial in range(cfg.trials):
            x = random_vector(width, rng, nonzero=True)
            shot_seed = rng.getrandbits(32)
            y = matvec(b_i, x)
            z = matvec(c_i, x)
            inst = QvmpInstance(a, y, z)
            solution_count = len(inst.solutions)
            plan = _plan_for_trial(n, solution_count, cfg)
            t0 = time.perf_counter()
            search = build_grover_search_compact(inst, plan.iterations, dual=dual)
            timings["build"] += time.perf_counter() - t0
            stats = None
            if widest is None or plan.iterations > widest[0]:
                stats = {}
                widest = (plan.iterations, search, stats)
            t0 = time.perf_counter()
            hist = run(search, cfg.shots, shot_seed, stats=stats)
            timings["simulate"] += time.perf_counter() - t0
            histograms[f"{bi}/{trial}"] = hist
            j = _candidate_address(hist, n, dual)
            if matvec(a, y)[j] != z[j]:
                return finish("inconsistent", (bi, j))
    return finish("consistent", None)


def emit_metrics(grid=None, seed: int = 0) -> list[dict]:
    """Circuit metrics for each (n, m, mismatches) grid row, before and
    after lowering to the {x, h, z, cx, ccx} basis. Construction only; no
    simulation, and the lowered columns are computed by
    ``circuit.lowered_metrics`` without building the lowered circuit."""
    rows = []
    for n, m, mismatches in (grid if grid is not None else DEFAULT_METRICS_GRID):
        inst = generate_instance(n, m, mismatches, seed)
        plan = plan_iterations(n, len(inst.solutions), "optimal")
        search = build_grover_search(inst, plan.iterations)
        pre = circ_mod.metrics(search)
        post = circ_mod.lowered_metrics(search)
        row = {
            "n": n,
            "m": m,
            "mismatches": mismatches,
            "iterations": plan.iterations,
            "qubits": pre["qubits"],
            "depth": pre["depth"],
            "total_gates": pre["total_gates"],
            "lowered_qubits": post["qubits"],
            "lowered_depth": post["depth"],
            "lowered_total_gates": post["total_gates"],
        }
        for kind in ("x", "h", "z", "cx", "ccx", "mcx", "measure"):
            row[kind] = pre["counts"].get(kind, 0)
        row["lowered_ccx"] = post["counts"].get("ccx", 0)
        rows.append(row)
    return rows


METRICS_FIELDS = [
    "n", "m", "mismatches", "iterations", "qubits", "depth", "total_gates",
    "x", "h", "z", "cx", "ccx", "mcx", "measure",
    "lowered_qubits", "lowered_depth", "lowered_total_gates", "lowered_ccx",
]


def metrics_to_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=METRICS_FIELDS)
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def metrics_from_csv(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    return [{k: int(v) for k, v in row.items()} for row in reader]


def emit_histogram(inst: QvmpInstance, plan, shots: int, seed: int) -> dict:
    """Sampled counts and exact probabilities for every address string,
    both from one evolution of the search circuit."""
    dual = plan.mode == "dual"
    search = build_grover_search(inst, plan.iterations, dual=dual)
    hist, exact = _run(search, shots, seed, with_exact=True)
    return {
        "n": inst.n,
        "m": inst.m,
        "iterations": plan.iterations,
        "mode": plan.mode,
        "shots": shots,
        "counts": hist.counts,
        "probabilities": exact,
    }


def histogram_to_csv(payload: dict) -> str:
    out = io.StringIO()
    out.write("bitstring,count,probability\n")
    for key in sorted(payload["probabilities"]):
        count = payload["counts"].get(key, 0)
        out.write(f"{key},{count},{payload['probabilities'][key]!r}\n")
    return out.getvalue()


def histogram_from_csv(text: str) -> dict:
    counts: dict[str, int] = {}
    probs: dict[str, float] = {}
    lines = [ln for ln in text.splitlines() if ln.strip()]
    for line in lines[1:]:
        key, count, prob = line.split(",")
        if int(count):
            counts[key] = int(count)
        probs[key] = float(prob)
    return {"counts": counts, "probabilities": probs}
