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
from typing import TYPE_CHECKING

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
from .errors import ContractError, DimensionError, FormatError
from .grover import _COUNTED_MODES, QvmpInstance, build_grover_search, plan_iterations

if TYPE_CHECKING:
    from .simulator import Histogram

__all__ = [
    "ExperimentConfig",
    "VerdictReport",
    "generate_instance",
    "qvmp_verify",
    "emit_metrics",
    "emit_histogram",
    "DEFAULT_METRICS_GRID",
]

ITERATION_MODES = ("optimal", "qvmp", "explicit", "dual")

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

    def __post_init__(self) -> None:
        if self.iteration_mode not in ITERATION_MODES:
            raise ContractError(f"unknown iteration mode {self.iteration_mode!r}")
        if self.shots < 1:
            raise ContractError("shots must be >= 1")
        if self.trials < 1:
            raise ContractError("trials must be >= 1")
        count = (self.mismatches if isinstance(self.mismatches, int)
                 else len(set(self.mismatches)))  # repeats name one row, as in generate_instance
        if count > self.n:
            raise ContractError("more mismatches than rows")


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


def _candidate_address(hist: Histogram, n: int, dual: bool) -> int:
    """Row index to check classically: the modal measured address, or, in
    dual mode (matching rows amplified), the rarest address, counting the
    addresses never drawn; the smallest address wins a tie."""
    totals = [0] * n
    for key, count in hist.counts.items():
        totals[int(key, 2)] = count
    pick = min if dual else max
    return pick(range(n), key=totals.__getitem__)


def qvmp_verify(a: BitMatrix, b: BitMatrix, c: BitMatrix, cfg: ExperimentConfig) -> VerdictReport:
    """Decide whether A·B = C.

    Per block and trial: draw a random nonzero x, compute y = B_i·x and
    z = C_i·x classically, search for a row with (A·y)_j != z_j, and
    confirm the candidate j by that one row. The optimal and dual modes
    plan from the solution count, which comes from the classical ground
    truth; qvmp and explicit plan without reading it. With zero solutions
    an optimal trial plans zero iterations, since the address marginal
    stays uniform anyway. A trial that plans none has a circuit that holds
    only the address register and does not depend on (y, z): it is built
    and evolved at the first such trial, and every later one samples that
    evolution with its own shot seed, so it adds no build time to
    ``timings["build"]`` and only its sampling to ``timings["simulate"]``.
    ``metrics`` describes the widest trial (most iterations), including
    under ``engine`` the simulator's stats for it: the engine, always
    "sparse", the peak support and the pruned mass. Its lowered metrics
    are computed once, when the verdict is reached, by
    ``circuit.lowered_metrics`` without building the lowered circuit, and
    ``timings["lower"]`` times that call.
    """
    from .simulator import _outcomes

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
    # the evolved zero-iteration search, shared by every trial that plans none
    blank = None

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
            count = len(inst.solutions) if cfg.iteration_mode in _COUNTED_MODES else None
            plan = plan_iterations(n, count, cfg.iteration_mode, cfg.explicit_iterations)
            if plan.iterations or blank is None:
                t0 = time.perf_counter()
                search = build_grover_search(inst, plan.iterations, dual=dual, fold_y=True)
                timings["build"] += time.perf_counter() - t0
                stats = None
                if widest is None or plan.iterations > widest[0]:
                    stats = {}
                    widest = (plan.iterations, search, stats)
                t0 = time.perf_counter()
                outcomes = _outcomes(search, stats=stats)
                if not plan.iterations:
                    blank = outcomes
            else:
                outcomes = blank
                t0 = time.perf_counter()
            hist = outcomes.sample(cfg.shots, shot_seed)
            timings["simulate"] += time.perf_counter() - t0
            histograms[f"{bi}/{trial}"] = hist
            j = _candidate_address(hist, n, dual)
            if inst.matrix.row(j).dot(inst.y) != inst.z[j]:
                return finish("inconsistent", (bi, j))
    return finish("consistent", None)


def emit_metrics(grid=None, seed: int = 0) -> list[dict]:
    """Circuit metrics for each (n, m, mismatches) grid row, before and
    after lowering to the {x, h, z, cx, ccx} basis. Construction only; no
    simulation, and the lowered columns are computed by
    ``circuit.lowered_metrics`` without building the lowered circuit.
    The ``mismatches`` column is the number of mismatched rows, also for a
    row that lists their indices."""
    rows = []
    for n, m, mismatches in (grid if grid is not None else DEFAULT_METRICS_GRID):
        inst = generate_instance(n, m, mismatches, seed)
        solutions = len(inst.solutions)
        plan = plan_iterations(n, solutions, "optimal")
        search = build_grover_search(inst, plan.iterations)
        pre = circ_mod.metrics(search)
        post = circ_mod.lowered_metrics(search)
        row = {
            "n": n,
            "m": m,
            "mismatches": solutions,
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
    """The rows ``metrics_to_csv`` wrote. Raises FormatError unless the
    header is ``METRICS_FIELDS`` and each row has one integer per field."""
    lines = csv.reader(io.StringIO(text))
    if next(lines, None) != METRICS_FIELDS:
        raise FormatError(f"metrics CSV must start with its {','.join(METRICS_FIELDS)} header")
    rows = []
    for line in filter(None, lines):
        try:
            values = [int(v) for v in line]
        except ValueError as e:
            raise FormatError(f"non-integer field in metrics row {line!r}") from e
        if len(values) != len(METRICS_FIELDS):
            raise FormatError(f"metrics row {line!r} does not have {len(METRICS_FIELDS)} fields")
        rows.append(dict(zip(METRICS_FIELDS, values)))
    return rows


def emit_histogram(inst: QvmpInstance, plan, shots: int, seed: int) -> dict:
    """Sampled counts and exact probabilities for every address string,
    both from one evolution of the compact search circuit (``fold_y``), as
    ``qvmp_verify`` simulates it."""
    from .simulator import _outcomes

    dual = plan.mode == "dual"
    search = build_grover_search(inst, plan.iterations, dual=dual, fold_y=True)
    outcomes = _outcomes(search)
    hist = outcomes.sample(shots, seed)
    return {
        "n": inst.n,
        "m": inst.m,
        "iterations": plan.iterations,
        "mode": plan.mode,
        "shots": shots,
        "counts": hist.counts,
        "probabilities": outcomes.exact(),
    }


def histogram_to_csv(payload: dict) -> str:
    out = io.StringIO()
    out.write("bitstring,count,probability\n")
    for key in sorted(payload["probabilities"]):
        count = payload["counts"].get(key, 0)
        out.write(f"{key},{count},{payload['probabilities'][key]!r}\n")
    return out.getvalue()


def histogram_from_csv(text: str) -> dict:
    from .simulator import _check_keys

    counts: dict[str, int] = {}
    probs: dict[str, float] = {}
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "bitstring,count,probability":
        raise FormatError("histogram CSV must start with its bitstring,count,probability header")
    for line in lines[1:]:
        try:
            key, count, prob = line.split(",")
            hits, p = int(count), float(prob)
        except ValueError as e:
            raise FormatError(f"bad histogram line {line!r}") from e
        if hits < 0:
            raise FormatError(f"negative count in histogram line {line!r}")
        # no upper bound: an exact probability may round a few ulps above 1
        if not 0.0 <= p < float("inf"):
            raise FormatError(f"probability not finite and nonnegative in histogram line {line!r}")
        if key in probs:
            raise FormatError(f"duplicate histogram key {key!r}")
        if hits:
            counts[key] = hits
        probs[key] = p
    _check_keys(probs)
    return {"counts": counts, "probabilities": probs}
