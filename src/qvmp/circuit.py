"""Gate-level circuit representation.

A circuit is an ordered list of gates over named qubit registers. Register
declaration order fixes the global qubit indices, and index 0 within a
register is its least-significant bit. The gate set is
{x, h, z, cx, ccx, mcx, mcz, measure}; control counts are canonical (one
control is cx, two is ccx, three or more is mcx). Every unitary kind here
is self-inverse, which keeps inversion a pure gate-order reversal.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import CompositionError, ContractError, InversionError

__all__ = [
    "X", "H", "Z", "CX", "CCX", "MCX", "MCZ", "MEASURE",
    "QubitRef", "Gate", "Circuit",
    "compose", "inverse", "depth", "gate_counts", "lower",
    "dump", "metrics", "metrics_json",
]

X = "x"
H = "h"
Z = "z"
CX = "cx"
CCX = "ccx"
MCX = "mcx"
MCZ = "mcz"
MEASURE = "measure"

KINDS = frozenset({X, H, Z, CX, CCX, MCX, MCZ, MEASURE})
BASIS_KINDS = frozenset({X, H, Z, CX, CCX, MEASURE})


class QubitRef(NamedTuple):
    register: str
    index: int
    global_index: int


@dataclass(frozen=True, slots=True)
class Gate:
    kind: str
    controls: tuple[int, ...]
    targets: tuple[int, ...]
    classical: int | None = None

    def qubits(self) -> tuple[int, ...]:
        return self.controls + self.targets


class Circuit:
    """Ordered gate list over named registers.

    Built single-threaded, then frozen; a frozen circuit is immutable and
    safe to share. Measurement is terminal per qubit.
    """

    def __init__(self, registers: Sequence[tuple[str, int]], classical_bits: int = 0):
        if len({name for name, _ in registers}) != len(registers):
            raise CompositionError("duplicate register name")
        if any(width < 1 for _, width in registers):
            raise CompositionError("register width must be positive")
        self.registers: tuple[tuple[str, int], ...] = tuple(registers)
        self.classical_bits = classical_bits
        self.gates: list[Gate] = []
        self._frozen = False
        self._measured: set[int] = set()
        self._widths: dict[str, int] = dict(self.registers)
        self._offsets: dict[str, int] = {}
        off = 0
        for name, width in self.registers:
            self._offsets[name] = off
            off += width
        self.num_qubits = off
        self._labels = [
            f"{name}[{i}]" for name, width in self.registers for i in range(width)
        ]

    # -- qubit lookup ------------------------------------------------------

    def qubit(self, register: str, index: int) -> QubitRef:
        off = self._offsets[register]
        if not 0 <= index < self._widths[register]:
            raise CompositionError(f"{register}[{index}] out of range")
        return QubitRef(register, index, off + index)

    def qubits(self, register: str) -> list[QubitRef]:
        return [self.qubit(register, i) for i in range(self._widths[register])]

    def _resolve(self, q) -> int:
        g = q.global_index if isinstance(q, QubitRef) else int(q)
        if not 0 <= g < self.num_qubits:
            raise ContractError(f"qubit {g} not declared")
        return g

    # -- construction ------------------------------------------------------

    def freeze(self) -> Circuit:
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def append(self, gate: Gate) -> None:
        if self._frozen:
            raise ContractError("circuit is frozen")
        if gate.kind not in KINDS:
            raise ContractError(f"unknown gate kind {gate.kind!r}")
        qubits = gate.qubits()
        if len(set(qubits)) != len(qubits):
            raise ContractError("controls and targets must be disjoint")
        for g in qubits:
            if not 0 <= g < self.num_qubits:
                raise ContractError(f"qubit {g} not declared")
            if g in self._measured:
                raise ContractError(f"gate after measurement on qubit {g}")
        if gate.kind == MEASURE:
            if gate.classical is None or not 0 <= gate.classical < self.classical_bits:
                raise ContractError("measure needs a declared classical bit")
            self._measured.add(gate.targets[0])
        self.gates.append(gate)

    def extend(self, other: Circuit, mapping: Sequence | None = None) -> None:
        """Append ``other``'s gates in place, mapped onto this circuit's qubits.

        ``mapping`` lists, for each of ``other``'s qubits in global order,
        the qubit here (QubitRef or global index); ``None`` maps identically
        and requires equal widths. ``other``'s gates passed ``append``'s
        checks already and a distinct mapping keeps them valid, so only the
        table and the contracts that depend on this circuit are checked:
        frozen, gates after measurement, declared classical bits. Nothing
        is appended when a check fails.
        """
        if self._frozen:
            raise ContractError("circuit is frozen")
        if mapping is None:
            if self.num_qubits != other.num_qubits:
                raise CompositionError(
                    f"width mismatch: {self.num_qubits} vs {other.num_qubits} qubits"
                )
            table = list(range(other.num_qubits))
        else:
            try:
                table = [self._resolve(q) for q in mapping]
            except ContractError as e:
                raise CompositionError(str(e)) from e
            if len(table) != other.num_qubits:
                raise CompositionError(
                    f"mapping covers {len(table)} of {other.num_qubits} qubits"
                )
            if len(set(table)) != len(table):
                raise CompositionError("mapping collision: target qubits must be distinct")
        # other's qubits that land on a qubit measured here
        blocked = {q for q, target in enumerate(table) if target in self._measured}
        if blocked:
            for g in other.gates:
                for q in g.qubits():
                    if q in blocked:
                        raise ContractError(f"gate after measurement on qubit {table[q]}")
        if other._measured:
            for g in other.gates:
                if g.kind == MEASURE and not g.classical < self.classical_bits:
                    raise ContractError("measure needs a declared classical bit")
        if all(q == i for i, q in enumerate(table)):
            self.gates.extend(other.gates)
        else:
            self.gates.extend([
                Gate(g.kind, tuple([table[q] for q in g.controls]),
                     tuple([table[q] for q in g.targets]), g.classical)
                for g in other.gates
            ])
        self._measured.update([table[q] for q in other._measured])

    def x(self, q) -> None:
        self.append(Gate(X, (), (self._resolve(q),)))

    def h(self, q) -> None:
        self.append(Gate(H, (), (self._resolve(q),)))

    def z(self, q) -> None:
        self.append(Gate(Z, (), (self._resolve(q),)))

    def cx(self, c, t) -> None:
        self.append(Gate(CX, (self._resolve(c),), (self._resolve(t),)))

    def ccx(self, c1, c2, t) -> None:
        self.append(Gate(CCX, (self._resolve(c1), self._resolve(c2)), (self._resolve(t),)))

    def mcx(self, controls: Iterable, t) -> None:
        ctrls = tuple(self._resolve(c) for c in controls)
        target = self._resolve(t)
        if len(ctrls) == 0:
            self.append(Gate(X, (), (target,)))
        elif len(ctrls) == 1:
            self.append(Gate(CX, ctrls, (target,)))
        elif len(ctrls) == 2:
            self.append(Gate(CCX, ctrls, (target,)))
        else:
            self.append(Gate(MCX, ctrls, (target,)))

    def mcz(self, controls: Iterable, t) -> None:
        ctrls = tuple(self._resolve(c) for c in controls)
        target = self._resolve(t)
        if len(ctrls) == 0:
            self.append(Gate(Z, (), (target,)))
        else:
            self.append(Gate(MCZ, ctrls, (target,)))

    def measure(self, q, classical_bit: int) -> None:
        self.append(Gate(MEASURE, (), (self._resolve(q),), classical=classical_bit))

    # -- introspection -----------------------------------------------------

    def label(self, global_index: int) -> str:
        return self._labels[global_index]

    def measured_qubits(self) -> list[tuple[int, int]]:
        """(qubit, classical bit) pairs in gate order."""
        return [(g.targets[0], g.classical) for g in self.gates if g.kind == MEASURE]

    def has_measurement(self) -> bool:
        return bool(self._measured)

    def __len__(self) -> int:
        return len(self.gates)


def compose(a: Circuit, b: Circuit, mapping: Sequence | None = None) -> Circuit:
    """Concatenate: a copy of ``a`` extended by ``b``'s gates mapped onto
    ``a``'s qubits, as ``Circuit.extend`` describes. The copy declares the
    larger of the two classical bit counts."""
    out = Circuit(a.registers, max(a.classical_bits, b.classical_bits))
    out.gates = list(a.gates)
    out._measured = set(a._measured)
    out.extend(b, mapping)
    return out


def inverse(c: Circuit) -> Circuit:
    """Reverse the gate order; every supported unitary is self-inverse."""
    if c.has_measurement():
        raise InversionError("cannot invert a circuit containing measurement")
    out = Circuit(c.registers, c.classical_bits)
    out.gates = c.gates[::-1]
    return out


def depth(c: Circuit) -> int:
    """Greedy layering: each gate sits one layer after the deepest earlier
    gate sharing any of its qubits. Measurement counts as a gate."""
    level = [0] * c.num_qubits
    best = 0
    for g in c.gates:
        qubits = g.controls + g.targets
        layer = 0
        for q in qubits:
            if level[q] > layer:
                layer = level[q]
        layer += 1
        for q in qubits:
            level[q] = layer
        if layer > best:
            best = layer
    return best


def gate_counts(c: Circuit) -> dict[str, int]:
    return dict(Counter(g.kind for g in c.gates))


def _widest_decomposed(c: Circuit) -> int:
    widest = 0
    for g in c.gates:
        if g.kind in (MCX, MCZ) and len(g.controls) >= 3:
            widest = max(widest, len(g.controls) - 2)
    return widest


def lower(c: Circuit) -> Circuit:
    """Rewrite onto the {x, h, z, cx, ccx, measure} basis.

    mcx with k >= 3 controls becomes a clean-ancilla v-chain of 2k-3 ccx
    gates; mcz becomes h(target), the mcx form, h(target). Ancillas live in
    an appended "anc" register sized for the widest gate and are reused;
    each v-chain uncomputes them back to |0>. The output is built without
    ``append``: basis gates of ``c`` are valid already, and the v-chains
    touch only ``c``'s gate qubits and the declared ancillas.
    """
    n_anc = _widest_decomposed(c)
    regs = c.registers + ((("anc", n_anc),) if n_anc else ())
    out = Circuit(regs, c.classical_bits)
    anc0 = c.num_qubits
    gates = out.gates
    emit = gates.append
    # control set -> (compute chain, uncompute chain); gates are immutable,
    # so every mcx on the same controls shares its chain's gates
    chains: dict[tuple[int, ...], tuple[list[Gate], list[Gate]]] = {}

    def emit_mcx(controls: tuple[int, ...], target: int) -> None:
        k = len(controls)
        if k <= 2:
            emit(Gate({1: CX, 2: CCX}[k], controls, (target,)))
            return
        if controls not in chains:
            chain = [Gate(CCX, (controls[0], controls[1]), (anc0,))]
            for i in range(k - 3):
                chain.append(Gate(CCX, (controls[i + 2], anc0 + i), (anc0 + i + 1,)))
            chains[controls] = (chain, chain[::-1])
        compute, uncompute = chains[controls]
        gates.extend(compute)
        emit(Gate(CCX, (controls[-1], anc0 + k - 3), (target,)))
        gates.extend(uncompute)

    for g in c.gates:
        if g.kind in BASIS_KINDS:
            emit(g)
        elif g.kind == MCX:
            emit_mcx(g.controls, g.targets[0])
        elif g.kind == MCZ:
            t = g.targets[0]
            emit(Gate(H, (), (t,)))
            emit_mcx(g.controls, t)
            emit(Gate(H, (), (t,)))
        else:  # pragma: no cover - KINDS is closed
            raise ContractError(f"cannot lower {g.kind}")
    out._measured = set(c._measured)
    return out


def dump(c: Circuit) -> str:
    """One gate per line: "KIND controls -> targets"."""
    lines = []
    for g in c.gates:
        ctrl = ",".join(c.label(q) for q in g.controls)
        tgt = ",".join(c.label(q) for q in g.targets)
        if g.kind == MEASURE:
            lines.append(f"MEASURE {tgt} -> c[{g.classical}]")
        else:
            lines.append(f"{g.kind.upper()} {ctrl} -> {tgt}".replace("  ", " "))
    return "\n".join(lines) + ("\n" if lines else "")


def metrics(c: Circuit) -> dict:
    return {
        "depth": depth(c),
        "qubits": c.num_qubits,
        "counts": gate_counts(c),
        "total_gates": len(c.gates),
    }


def metrics_json(c: Circuit) -> str:
    return json.dumps(metrics(c), sort_keys=True)
