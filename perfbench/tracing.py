"""In-memory spans around the functions each qvmp layer exposes.

A layer function is wrapped by replacing the module attribute its callers
resolve at call time. The wrapper is installed on every loaded ``qvmp``
module that holds the function under any name, so ``qvmp.runner.run``
and ``qvmp.grover.probabilities`` are covered alongside
``qvmp.simulator.run`` and ``qvmp.simulator.probabilities``. A function
that no longer exists is skipped with a note; a span name loses its
metrics only when none of its functions exist.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# span name -> functions, as (defining module, attribute name)
LAYER_FUNCTIONS = {
    "bitlinalg.matvec": [("qvmp.bitlinalg", "matvec")],
    "bitlinalg.mismatch_rows": [("qvmp.bitlinalg", "mismatch_rows")],
    "runner.verify": [("qvmp.runner", "qvmp_verify")],
    "grover.plan": [("qvmp.grover", "plan_iterations")],
    "grover.build": [
        ("qvmp.grover", "build_grover_state"),
        ("qvmp.grover", "build_grover_search"),
        ("qvmp.grover", "build_grover_search_compact"),
    ],
    "circuit.compose": [("qvmp.circuit", "compose")],
    "circuit.lower": [("qvmp.circuit", "lower")],
    "circuit.depth": [("qvmp.circuit", "depth")],
    "simulator.run": [("qvmp.simulator", "run")],
    "simulator.probabilities": [("qvmp.simulator", "probabilities")],
}

SIMULATE = ("simulator.run", "simulator.probabilities")
GATE_KINDS = ("h", "x", "z", "cx", "ccx", "mcx", "mcz")


@dataclass
class Span:
    name: str
    op: int
    parent: int
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)


def _circuit_info(circuit) -> dict:
    kinds = Counter(g.kind for g in circuit.gates)
    kinds.pop("measure", None)
    return {"qubits": circuit.num_qubits, "gates": sum(kinds.values()), "kinds": dict(kinds)}


def _span_info(name: str, args, result) -> dict:
    """Work counts read from a layer call's arguments and result."""
    if name == "grover.build":
        return {"gates": len(result.gates)}
    if name == "circuit.lower":
        return {"gates_out": len(result.gates)}
    if name == "grover.plan":
        return {"iterations": result.iterations}
    if name in SIMULATE:
        return _circuit_info(args[0])
    return {}


class Tracer:
    """Records a span per wrapped call; ``install`` and ``uninstall``
    swap the module attributes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self.notes: list[str] = []
        self.missing: set[str] = set()
        # widest simulate call seen: (qubits, original function, args, kwargs)
        self.widest: tuple | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        """Open the root span of the next benchmark operation."""
        self.op += 1
        self._stack = [len(self.spans)]
        self.spans.append(Span("op", self.op, -1, time.perf_counter()))

    def end_op(self) -> None:
        self.spans[self._stack.pop(0)].end = time.perf_counter()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self.op, self._stack[-1] if self._stack else -1, 0.0)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.info = _span_info(name, args, result)
            if name in SIMULATE and (self.widest is None or span.info["qubits"] > self.widest[0]):
                self.widest = (span.info["qubits"], fn, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "qvmp" or key.startswith("qvmp."))]
        for name, targets in LAYER_FUNCTIONS.items():
            found = 0
            for module_name, attr in targets:
                original = getattr(importlib.import_module(module_name), attr, None)
                if original is None:
                    self.notes.append(f"{module_name}.{attr} not found; not traced")
                    continue
                found += 1
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, value))
                            setattr(mod, key, wrapper)
            if not found:
                self.missing.add(name)
                self.notes.append(f"no function left for span {name}; its metrics are dropped")

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0 and self.spans[parent].name != name:
            parent = self.spans[parent].parent
        return parent >= 0

    def outermost(self, name: str) -> list[int]:
        """Indices of ``name`` spans with no ancestor of the same name, so
        a builder that calls another builder counts once."""
        return [i for i, s in enumerate(self.spans)
                if s.name == name and not self._has_ancestor(i, name)]

    def under(self, name: str, ancestor: str) -> list[int]:
        """Indices of ``name`` spans that run inside an ``ancestor`` span."""
        return [i for i, s in enumerate(self.spans)
                if s.name == name and self._has_ancestor(i, ancestor)]

    def seconds(self, indices) -> float:
        return sum(self.spans[i].end - self.spans[i].start for i in indices)

    def total(self, indices, key: str) -> int:
        """Sum of one count over spans; a call that raised has no counts."""
        return sum(self.spans[i].info.get(key, 0) for i in indices)

    def self_seconds(self, name: str) -> float:
        """Duration of the outermost ``name`` spans minus the part their
        direct children cover (children of one span never overlap: the
        program is single-threaded)."""
        own = set(self.outermost(name))
        children = [i for i, s in enumerate(self.spans) if s.parent in own]
        return self.seconds(own) - self.seconds(children)

    def dump(self, path, max_ops: int) -> None:
        """Write the spans of the first ``max_ops`` operations, one JSON
        line each: id, name, op, parent id, start and end seconds, counts."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                if s.op >= max_ops:
                    break
                f.write(json.dumps({"id": i, "name": s.name, "op": s.op, "parent": s.parent,
                                    "start": s.start - t0, "end": s.end - t0, **s.info}) + "\n")


def layer_metrics(tracer: Tracer, ops: int, outputs: list) -> dict:
    """Per-layer metrics, each per operation unless its name says
    otherwise. ``outputs`` are the traced operations' results; verdict
    reports among them give the runner's trial counts and own timings."""
    out: dict = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    calls_and_seconds = ("bitlinalg.matvec", "bitlinalg.mismatch_rows", "circuit.compose",
                         "circuit.lower", "circuit.depth", "simulator.run",
                         "simulator.probabilities")
    for name in calls_and_seconds + ("runner.verify", "grover.build"):
        if name in tracer.missing:
            continue
        spans = tracer.outermost(name)
        put(f"{name}.calls", len(spans) / ops, "count")
        if name in calls_and_seconds:
            put(f"{name}.s", tracer.seconds(spans) / ops, "s")

    reports = [r for r in outputs if hasattr(r, "timings")]
    put("runner.trials", statistics.fmean(len(r.histograms) for r in reports) if reports else 0.0,
        "count")
    for key in ("build", "lower", "simulate"):
        if reports and not all(key in r.timings for r in reports):
            tracer.notes.append(f"VerdictReport.timings has no {key!r}; metric dropped")
            continue
        put(f"runner.report.{key}_s", sum(r.timings[key] for r in reports) / ops, "s")
    if "runner.verify" not in tracer.missing:
        put("runner.self_s", tracer.self_seconds("runner.verify") / ops, "s")
        if "grover.plan" not in tracer.missing:
            planned = tracer.under("grover.plan", "runner.verify")
            put("runner.oracle_calls",
                tracer.total(planned, "iterations") / ops, "count")

    if "grover.build" not in tracer.missing:
        builds = tracer.outermost("grover.build")
        gates = tracer.total(builds, "gates")
        put("grover.build.s", tracer.seconds(builds) / ops, "s")
        put("grover.build.gates", gates / ops, "count")
        put("grover.build.us_per_gate", 1e6 * tracer.seconds(builds) / gates if gates else 0.0,
            "us")
    if "circuit.lower" not in tracer.missing:
        lowered = tracer.outermost("circuit.lower")
        put("circuit.lower.gates_out", tracer.total(lowered, "gates_out") / ops, "count")

    if all(name in tracer.missing for name in SIMULATE):
        return out
    infos = [tracer.spans[i].info for name in SIMULATE if name not in tracer.missing
             for i in tracer.outermost(name) if tracer.spans[i].info]
    put("simulator.qubits.max", max((info["qubits"] for info in infos), default=0), "qubits")
    put("simulator.gates", sum(info["gates"] for info in infos) / ops, "count")
    for kind in GATE_KINDS:
        put(f"simulator.gates.{kind}", sum(info["kinds"].get(kind, 0) for info in infos) / ops,
            "count")
    sweeps = sum(info["gates"] << info["qubits"] for info in infos)
    put("simulator.amp_sweeps", sweeps / ops, "amps-computed")
    busy = sum(tracer.seconds(tracer.outermost(name)) for name in SIMULATE
               if name not in tracer.missing)
    put("simulator.amps_per_s", sweeps / busy if busy else 0.0, "amps/s")
    return out
