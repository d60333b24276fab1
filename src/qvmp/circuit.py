"""Gate-level circuit representation.

A circuit is an ordered list of gates over named qubit registers. Register
declaration order fixes the global qubit indices, and index 0 within a
register is its least-significant bit. The gate set is
{x, h, z, cx, ccx, mcx, mcz, lookup, diffuse, measure}; control counts are
canonical (one control is cx, two is ccx, three or more is mcx).

A lookup is a read-only table lookup as one gate: its controls are the
address qubits, its targets the data qubits, and ``table`` holds one word
per address, so |r>|d> -> |r>|d xor table[r]>. A diffuse is Grover's
inversion about the mean, I - 2|s><s|, as one gate whose targets are the
register. Each stands for an expansion: a per-row select-write-unselect
for a lookup (``_expansion``), and H and X layers around an X on the last
register qubit controlled by the others for a diffuse
(``_diffuse_expansion``). ``lower`` emits the expansions, and
``gate_counts``, ``depth``, ``metrics`` and ``lowered_metrics`` count
them; the simulator applies both gates directly. The counts read one
census of (kind, control count) (``_census``), and the depths before and
after lowering come from one layering walker (``_depth``). It lays a
diffuse in closed form, and each lookup row from the previous row's last
write (``_lay_lookup``), its writes at fixed steps from the row's start
except where a data qubit's first write lifts them: O(n + m) steps per
lookup of n rows and m data qubits, not one step per set table bit.

``Circuit.repeat(body, t)`` appends a body's gates t times and records
them as one block (start, len(body), t) in ``blocks``; ``gates`` stays the
flat list. The census counts a block as t times its body, and the walker
stops laying a block's passes once they shift its levels uniformly, so a
search counts one (oracle, diffuser) iteration and lays three lookups,
whatever the iteration count.

Every unitary kind here is self-inverse, so inversion reverses the gate
order; a lookup keeps its table and reverses the order its expansion is
written in (``reverse``), and a diffuse stays as it is.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from operator import sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CompositionError, ContractError, InversionError

__all__ = [
    "X", "H", "Z", "CX", "CCX", "MCX", "MCZ", "LOOKUP", "DIFFUSE", "MEASURE",
    "QubitRef", "Gate", "Circuit",
    "compose", "inverse", "depth", "gate_counts", "lower", "lowered_metrics",
    "dump", "metrics",
]

X = "x"
H = "h"
Z = "z"
CX = "cx"
CCX = "ccx"
MCX = "mcx"
MCZ = "mcz"
LOOKUP = "lookup"
DIFFUSE = "diffuse"
MEASURE = "measure"

KINDS = frozenset({X, H, Z, CX, CCX, MCX, MCZ, LOOKUP, DIFFUSE, MEASURE})
BASIS_KINDS = frozenset({X, H, Z, CX, CCX, MEASURE})
# kind -> (fewest, most) controls of a one-target gate; a lookup and a
# diffuse have their own checks
_CONTROL_COUNTS = {X: (0, 0), H: (0, 0), Z: (0, 0), MEASURE: (0, 0), CX: (1, 1),
                   CCX: (2, 2), MCX: (3, float("inf")), MCZ: (1, float("inf"))}


def _x_kind(k: int) -> str:
    """Canonical kind of an X gate with k controls."""
    return (X, CX, CCX)[k] if k < 3 else MCX


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
    table: tuple[int, ...] | None = None  # lookup words, one per address
    reverse: bool = False  # a lookup whose expansion is written backwards

    def qubits(self) -> tuple[int, ...]:
        return self.controls + self.targets


class Circuit:
    """Ordered gate list over named registers.

    Built single-threaded, then frozen; a frozen circuit is immutable and
    safe to share. Measurement is terminal per qubit. ``blocks`` lists
    (start, body length, t) for each run of ``gates`` that ``repeat``
    wrote as t copies of one body, in gate order.
    """

    def __init__(self, registers: Sequence[tuple[str, int]], classical_bits: int = 0):
        if len({name for name, _ in registers}) != len(registers):
            raise CompositionError("duplicate register name")
        if any(width < 1 for _, width in registers):
            raise CompositionError("register width must be positive")
        self.registers: tuple[tuple[str, int], ...] = tuple(registers)
        self.classical_bits = classical_bits
        self.gates: list[Gate] = []
        self.blocks: list[tuple[int, int, int]] = []
        self._frozen = False
        self._measured: set[int] = set()
        self._widths: dict[str, int] = dict(self.registers)
        self._offsets: dict[str, int] = {}
        off = 0
        for name, width in self.registers:
            self._offsets[name] = off
            off += width
        self.num_qubits = off

    # -- qubit lookup ------------------------------------------------------

    def qubit(self, register: str, index: int) -> QubitRef:
        off = self._offsets[register]
        if not 0 <= index < self._widths[register]:
            raise CompositionError(f"{register}[{index}] out of range")
        return QubitRef(register, index, off + index)

    def qubits(self, register: str) -> list[QubitRef]:
        return [self.qubit(register, i) for i in range(self._widths[register])]

    def _range(self, register: str) -> range:
        """The global indices of ``register``'s qubits, in register order."""
        start = self._offsets[register]
        return range(start, start + self._widths[register])

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
        counts = _CONTROL_COUNTS.get(gate.kind)
        if counts is None:
            if gate.kind not in KINDS:
                raise ContractError(f"unknown gate kind {gate.kind!r}")
        elif len(gate.targets) != 1 or not counts[0] <= len(gate.controls) <= counts[1]:
            low, high = counts
            raise ContractError(f"{gate.kind} needs one target and "
                                f"{'' if low == high else 'at least '}{low} controls")
        qubits = gate.qubits()
        if len(set(qubits)) != len(qubits):
            raise ContractError("controls and targets must be disjoint")
        for g in qubits:
            if not 0 <= g < self.num_qubits:
                raise ContractError(f"qubit {g} not declared")
            if g in self._measured:
                raise ContractError(f"gate after measurement on qubit {g}")
        if gate.kind == LOOKUP:
            table = gate.table
            if not gate.controls:
                raise ContractError("lookup needs at least one address qubit")
            if not isinstance(table, tuple) or len(table) != 1 << len(gate.controls):
                raise ContractError("lookup needs a tuple of one word per address")
            if (not all(issubclass(t, int) for t in set(map(type, table)))
                    or min(table) < 0 or max(table) >= 1 << len(gate.targets)):
                raise ContractError("lookup words must fit the data qubits")
        elif gate.table is not None or gate.reverse:
            raise ContractError("only a lookup carries a table")
        if gate.kind == DIFFUSE and (gate.controls or not gate.targets):
            raise ContractError("diffuse needs its register as targets and no controls")
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
        is appended when a check fails. ``other``'s blocks come along,
        shifted to where its gates land.
        """
        table = self._qubit_map(other, mapping)
        start = len(self.gates)
        if all(q == i for i, q in enumerate(table)):
            self.gates.extend(other.gates)
        else:
            self.gates.extend([
                Gate(g.kind, tuple([table[q] for q in g.controls]),
                     tuple([table[q] for q in g.targets]), g.classical, g.table, g.reverse)
                for g in other.gates
            ])
        self.blocks += [(s + start, p, t) for s, p, t in other.blocks]
        self._measured.update([table[q] for q in other._measured])

    def repeat(self, body: Circuit, t: int) -> None:
        """Append ``t`` copies of ``body``'s gates under ``extend``'s checks
        and record them as one block (start, len(body), t); ``body``'s own
        blocks are not kept. A measured body repeats at most once. Nothing
        is appended when a check fails, nor for t = 0 or an empty body.
        """
        if t < 0:
            raise ContractError("repeat count must be >= 0")
        self._qubit_map(body, None)
        if t > 1 and body._measured:
            raise ContractError(f"gate after measurement on qubit {min(body._measured)}")
        if t and body.gates:
            self.blocks.append((len(self.gates), len(body.gates), t))
            self.gates += body.gates * t
            self._measured.update(body._measured)

    def _qubit_map(self, other: Circuit, mapping: Sequence | None) -> list[int]:
        """The qubit here of each of ``other``'s qubits, once the checks
        ``extend`` describes pass."""
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
        return table

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
        self.append(Gate(_x_kind(len(ctrls)), ctrls, (self._resolve(t),)))

    def mcz(self, controls: Iterable, t) -> None:
        ctrls = tuple(self._resolve(c) for c in controls)
        target = self._resolve(t)
        if len(ctrls) == 0:
            self.append(Gate(Z, (), (target,)))
        else:
            self.append(Gate(MCZ, ctrls, (target,)))

    def lookup(self, address: Iterable, data: Iterable, table: Iterable[int]) -> None:
        """|r>|d> -> |r>|d xor table[r]>; ``table`` has one word per address
        value, bit i of a word landing on the i-th data qubit."""
        self.append(Gate(LOOKUP, tuple(self._resolve(q) for q in address),
                         tuple(self._resolve(q) for q in data), table=tuple(table)))

    def diffuse(self, qubits: Iterable) -> None:
        """Inversion about the mean of the register ``qubits``, I - 2|s><s|
        with |s> their uniform superposition."""
        self.append(Gate(DIFFUSE, (), tuple(self._resolve(q) for q in qubits)))

    def measure(self, q, classical_bit: int) -> None:
        self.append(Gate(MEASURE, (), (self._resolve(q),), classical=classical_bit))

    # -- introspection -----------------------------------------------------

    def label(self, global_index: int) -> str:
        """"name[i]" of a global qubit index, from ``registers``."""
        if 0 <= global_index < self.num_qubits:
            for name, width in self.registers:
                if global_index < width:
                    return f"{name}[{global_index}]"
                global_index -= width
        raise IndexError(f"qubit {global_index} not declared")

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
    out.blocks = list(a.blocks)
    out._measured = set(a._measured)
    out.extend(b, mapping)
    return out


def inverse(c: Circuit) -> Circuit:
    """Reverse the gate order; every supported unitary is self-inverse. A
    lookup keeps its table and has its expansion written backwards, so
    ``lower(inverse(c))`` is ``inverse(lower(c))``; a diffuse stays as it
    is, so there the two differ only in the order of the commuting gates
    within each of its H and X layers. The result has no blocks, so its
    walk lays every pass; the depth stays exact."""
    if c.has_measurement():
        raise InversionError("cannot invert a circuit containing measurement")
    out = Circuit(c.registers, c.classical_bits)
    out.gates = [replace(g, reverse=not g.reverse) if g.kind == LOOKUP else g
                 for g in reversed(c.gates)]
    return out


def _expansion(g: Gate) -> list[Gate]:
    """The gates a lookup stands for. Row r = 0..n-1 is an X on each
    address qubit where r has a 0 bit (the select), one X controlled by the
    whole address onto each data qubit where the row's word has a 1 bit,
    and the select again. A ``reverse`` lookup is that list read backwards.
    The select and write gates are made once and shared by every row."""
    if g.reverse:
        return _expansion(replace(g, reverse=False))[::-1]
    select = [Gate(X, (), (q,)) for q in g.controls]
    write = [Gate(_x_kind(len(g.controls)), g.controls, (q,)) for q in g.targets]
    gates: list[Gate] = []
    for r, word in enumerate(g.table):
        xs = [x for i, x in enumerate(select) if not r >> i & 1]
        gates += xs
        # one pass over the word's bits, low first: no shift of a wide word per bit
        gates += [w for w, bit in zip(write, bin(word)[:1:-1]) if bit == "1"]
        gates += xs
    return gates


def _diffuse_expansion(g: Gate) -> list[Gate]:
    """The gates a diffuse stands for: H and X layers on the register, an X
    on its last qubit controlled by the others between two H there (a
    multi-controlled Z), then the X and H layers again."""
    *controls, last = g.targets
    hs = [Gate(H, (), (q,)) for q in g.targets]
    xs = [Gate(X, (), (q,)) for q in g.targets]
    core = [hs[-1], Gate(_x_kind(len(controls)), tuple(controls), (last,)), hs[-1]]
    return hs + xs + core + xs + hs


def _expanded(gates: list[Gate]) -> list[Gate]:
    """``gates`` with each lookup and diffuse replaced by its expansion."""
    out: list[Gate] = []
    for g in gates:
        if g.kind == LOOKUP:
            out += _expansion(g)
        elif g.kind == DIFFUSE:
            out += _diffuse_expansion(g)
        else:
            out.append(g)
    return out


def _lookup_census(g: Gate) -> list[tuple[tuple[str, int], int]]:
    """((kind, control count), gates) of a lookup's expansion in
    first-appearance order: n·k select X and one k-control X per set bit
    of the table (none when the table is all zero)."""
    k = len(g.controls)
    census = [((X, 0), len(g.table) * k),
              ((_x_kind(k), k), sum(map(int.bit_count, g.table)))]
    if g.reverse and g.table[-1]:  # backwards, row n-1 writes first (it selects with no X)
        census.reverse()
    return [entry for entry in census if entry[1]]


def _runs(c: Circuit) -> Iterator[tuple[list[Gate], int]]:
    """``c``'s gates in order as (gates, t): each block's body with its t,
    and the gates between blocks with t = 1."""
    gates, pos = c.gates, 0
    for start, p, t in c.blocks:
        yield gates[pos:start], 1
        yield gates[start:start + p], t
        pos = start + p * t
    yield gates[pos:], 1


def _census(c: Circuit) -> dict[tuple[str, int], int]:
    """Gates per (kind, control count) in first-appearance order, a lookup
    or diffuse counted as its expansion and a block as t times its body.
    A k-qubit diffuse is 2k + 2 h, 2k x and one (k-1)-control X, which
    for k = 1 is one more x."""
    census: dict[tuple[str, int], int] = {}
    for gates, t in _runs(c):
        for g in gates:
            if g.kind == LOOKUP:
                entries = _lookup_census(g)
            elif g.kind == DIFFUSE:
                k = len(g.targets)
                entries = (((H, 0), 2 * k + 2), ((X, 0), 2 * k),
                           ((_x_kind(k - 1), k - 1), 1))
            else:
                key = (g.kind, len(g.controls))
                census[key] = census.get(key, 0) + t
                continue
            for key, num in entries:
                census[key] = census.get(key, 0) + t * num
    return census


def _close_row(level: list[int], controls: tuple[int, ...], layer: int,
               anc0: int | None) -> None:
    """Set ``controls``, and the ancillas from ``anc0`` when the writes are
    v-chains (``anc0`` not None), to where a row whose last write sits at
    ``layer`` leaves them, before its closing X gates.

    The uncompute half mirrors the compute half one layer per step after
    the last middle ccx: ccx i (on c_{i+1}, a_{i-1} -> a_i) lands at
    layer + k - 2 - i, so a_i and c_{i+1} end there, c_0 with c_1 and a_0
    at layer + k - 2, and c_{k-1}, used only by the middle ccx, at layer.
    Unchained, every control ends with the last write.
    """
    if anc0 is None:
        for q in controls:
            level[q] = layer
        return
    top = layer + len(controls) - 2
    level[controls[0]] = top
    for i in range(len(controls) - 2):
        level[controls[i + 1]] = level[anc0 + i] = top - i
    level[controls[-1]] = layer


def _earliest(level: list[int], controls: tuple[int, ...], anc0: int | None) -> int:
    """The earliest layer of a write on ``controls``, from the levels they
    and the ancillas from ``anc0`` stand at: the middle ccx of a v-chain
    whose compute half is laid gate by gate (``anc0`` not None), else one
    after the deepest control (1 with no control)."""
    if anc0 is None:
        return max([level[q] for q in controls], default=0) + 1
    lv = max(level[controls[0]], level[controls[1]], level[anc0]) + 1
    for i in range(1, len(controls) - 2):
        lv = max(level[controls[i + 1]], lv, level[anc0 + i]) + 1
    return max(level[controls[-1]], lv) + 1


def _lay_lookup(level: list[int], g: Gate, anc0: int | None) -> None:
    """Lay a lookup's expansion onto a ``_depth`` level table, each row from
    the previous row's last write.

    A row's writes share the address qubits and, as v-chains (``anc0``,
    k >= 3 of them), the ancillas, so each sits stride = 2k - 3 (1
    unchained) after the one before, or one after its target's level if
    that is later. After a row with writes, ``_close_row`` leaves the
    address qubits and ancillas at fixed offsets from its last write L, so
    the next row's first write waits until start = L + stride + d, d the
    most X gates (1 or 2: the previous row's closing ones and this row's
    opening ones) on one address qubit that write waits on: every address
    qubit unchained, c_0 and c_1 chained. The first row and a row after a
    zero-word row start from the level table instead (``_earliest``).

    A data qubit written before in this lookup sits at or below L, even
    where its level entry is stale, so a row's writes land at
    start + rank·stride, rank counting the row's writes before it, except
    where a data qubit's first write finds its level at or above its slot:
    that write lands one after the level and lifts the rest of the row.
    Each row keeps its start and its lifts as (rank, layer) points, and
    only its fresh bits are read, each one's rank the popcount of the word
    below it (above it when ``reverse``). The address and ancilla levels
    are written from L only before a zero-word row and after the last row,
    and each data qubit from its last write, in any row, by one backward
    scan that reads a row's bits in written order and passes each of its
    lifts once. That is O(n + m) steps for n rows and m data qubits, not
    one per set table bit.
    """
    controls, targets, table, reverse = g.controls, g.targets, g.table, g.reverse
    n, k = len(table), len(controls)
    if k < 3:
        anc0 = None
    stride = 1 if anc0 is None else 2 * k - 3
    mask = n - 1 if anc0 is None else 3  # the address bits the first write waits on
    written = 0  # data bits written so far
    last = None  # L, while the level table lags behind it
    starts = [0] * n  # each row's first write slot
    lifts: dict[int, list[tuple[int, int]]] = {}  # row -> its (rank, layer) points
    prev = 0  # the previous row with writes

    def flip(r: int, x: int) -> None:
        # x X gates on each address qubit that row r selects on
        for i, q in enumerate(controls):
            if not r >> i & 1:
                level[q] += x

    order = range(n - 1, -1, -1) if reverse else range(n)
    for r in order:
        word = table[r]
        if not word:
            if last is not None:  # the close and closing X gates of row prev
                _close_row(level, controls, last, anc0)
                flip(prev, 1)
                last = None
            flip(r, 2)
            continue
        if last is None:
            flip(r, 1)
            start = _earliest(level, controls, anc0)
        else:  # rows prev and r differ in bit 0, so one of them flips c_0
            start = last + stride + (2 if ~prev & ~r & mask else 1)
        starts[r] = start
        at, base = 0, start  # the write of rank ``at`` lands at ``base``
        fresh = word & ~written
        written |= word
        while fresh:  # in written order: low bit first, high first backwards
            i = fresh.bit_length() - 1 if reverse else (fresh & -fresh).bit_length() - 1
            fresh ^= 1 << i
            w = (word >> i + 1).bit_count() if reverse else (word & (1 << i) - 1).bit_count()
            lv = level[targets[i]]
            if lv >= base + (w - at) * stride:
                at, base = w, lv + 1
                lifts.setdefault(r, []).append((w, base))
        last = base + (word.bit_count() - 1 - at) * stride
        prev = r
    if last is not None:
        _close_row(level, controls, last, anc0)
        flip(prev, 1)
    done = 0
    for r in reversed(order):
        if done == written:
            break
        word = table[r]
        fresh = word & ~done
        if not fresh:
            continue
        done |= word
        points = lifts.get(r, ())
        p, at, base = 0, 0, starts[r]  # points[p] is the next lift to pass
        while fresh:  # in written order, so the ranks rise
            i = fresh.bit_length() - 1 if reverse else (fresh & -fresh).bit_length() - 1
            fresh ^= 1 << i
            w = (word >> i + 1).bit_count() if reverse else (word & (1 << i) - 1).bit_count()
            while p < len(points) and points[p][0] <= w:
                at, base = points[p]
                p += 1
            level[targets[i]] = base + (w - at) * stride


def _depth(c: Circuit, anc0: int | None) -> int:
    """Greedy layering of ``c`` (``anc0`` None) or of ``lower(c)`` (``anc0``
    the first ancilla, ``c.num_qubits``), on one level table per qubit.

    A lookup is laid by ``_lay_lookup``, each row from the previous row's
    last write, and a diffuse as its expansion in closed form. Lowered, an
    mcx or mcz is one write laid from ``_earliest`` to ``_close_row``, a
    v-chain from three controls, and an mcz adds one layer (an h) on its
    target before and after it. Every other gate is one layer after the
    deepest earlier gate sharing any of its qubits; measurement counts as
    a gate. Levels never fall, so the depth is the deepest level at the
    end.

    A block of t passes of a body is laid pass by pass (``_lay_block``)
    until, at the body's start or one of its lookups, every level that
    moved since the same point one pass earlier moved by the same c.
    Laying commutes with a uniform shift (every level update is a max of
    levels plus a constant), and the gates between the two points are a
    rotation of the body, so they move exactly the levels the body
    touches. Each later pass moves them by c again, so the block ends at
    the previous pass's end plus (t - j)·c on them, j the current pass. A
    search's step settles at its second reverse lookup, so its walk lays
    three lookups whatever the iteration count, from two iterations on.
    """
    n = c.num_qubits
    level = [0] * (n if anc0 is None else n + max(n - 3, 0))  # k <= n - 1 controls
    for gates, t in _runs(c):
        level = _lay_block(level, gates, t, anc0)
    return max(level, default=0)


def _lay_block(level: list[int], body: list[Gate], t: int, anc0: int | None) -> list[int]:
    """The levels after ``t`` passes of ``body``, as ``_depth`` lays a
    block; ``level`` is laid in place until the passes settle."""
    cuts = sorted({0}.union(i for i, g in enumerate(body) if g.kind == LOOKUP))
    spans = [body[i:j] for i, j in zip(cuts, cuts[1:] + [len(body)])]
    seen: list = [None] * len(spans)  # the levels at each span's start, one pass earlier
    end = level
    for j in range(t):
        for s, span in enumerate(spans):
            before = seen[s]
            if before is not None:
                shift = set(map(sub, level, before))
                shift.discard(0)
                if len(shift) == 1:
                    lift = (t - j) * shift.pop()
                    return [e + lift if v != b else e for e, v, b in zip(end, level, before)]
            seen[s] = level.copy()
            _lay(level, span, anc0)
        end = level.copy()
    return level


def _lay_write(level: list[int], controls: tuple[int, ...], t: int, anc0: int | None) -> None:
    """Lay an X on ``t`` controlled by ``controls``: one layer after the
    deepest of its qubits, or, lowered (``anc0`` not None) from three
    controls, a v-chain from ``_earliest`` to ``_close_row``."""
    chain = anc0 if len(controls) >= 3 else None
    level[t] = layer = max(level[t] + 1, _earliest(level, controls, chain))
    _close_row(level, controls, layer, chain)


def _lay(level: list[int], gates: list[Gate], anc0: int | None) -> None:
    """Lay ``gates`` in order onto a ``_depth`` level table."""
    for g in gates:
        kind = g.kind
        if kind == LOOKUP:
            _lay_lookup(level, g, anc0)
        elif kind == DIFFUSE:
            # an H and an X on each qubit, the core (H, X controlled by the
            # others, H) on the last, then the X and H layers again
            *controls, t = g.targets
            for q in g.targets:
                level[q] += 2
            level[t] += 1
            _lay_write(level, tuple(controls), t, anc0)
            level[t] += 1
            for q in g.targets:
                level[q] += 2
        elif anc0 is not None and (kind == MCX or kind == MCZ):
            t = g.targets[0]
            if kind == MCZ:
                level[t] += 1
            _lay_write(level, g.controls, t, anc0)
            if kind == MCZ:
                level[t] += 1
        else:
            qubits = g.controls + g.targets
            layer = 0
            for q in qubits:
                if level[q] > layer:
                    layer = level[q]
            layer += 1
            for q in qubits:
                level[q] = layer


def depth(c: Circuit) -> int:
    """Greedy layering: each gate sits one layer after the deepest earlier
    gate sharing any of its qubits. Measurement counts as a gate, and a
    lookup or diffuse as its expansion, each lookup row laid from the
    previous row's last write (``_lay_lookup``)."""
    return _depth(c, None)


def gate_counts(c: Circuit) -> dict[str, int]:
    """Gates per kind in first-appearance order, a lookup or diffuse
    counted as its expansion."""
    counts: dict[str, int] = {}
    for (kind, _), num in _census(c).items():
        counts[kind] = counts.get(kind, 0) + num
    return counts


def _ancilla_width(census: Iterable[tuple[str, int]]) -> int:
    """Clean ancillas the v-chains need, from (kind, control count) pairs:
    k - 2 for the widest mcx or mcz with k >= 3 controls."""
    return max((k - 2 for kind, k in census if k >= 3 and kind in (MCX, MCZ)), default=0)


def _ancilla_register(c: Circuit) -> str:
    """"anc", or the first of "anc1", "anc2", ... that ``c`` leaves free."""
    name, i = "anc", 0
    while name in c._widths:
        i += 1
        name = f"anc{i}"
    return name


def lower(c: Circuit) -> Circuit:
    """Rewrite onto the {x, h, z, cx, ccx, measure} basis.

    mcx with k >= 3 controls becomes a clean-ancilla v-chain of 2k-3 ccx
    gates; mcz becomes h(target), the mcx form, h(target); a lookup or
    diffuse becomes its expansion, whose multi-controlled X gates lower
    like an mcx. Ancillas live in an appended register sized for the
    widest gate and are reused; each v-chain uncomputes them back to |0>.
    The register is named "anc", or "anc1", "anc2", ... when ``c``
    declares "anc" already. The output is built without ``append``: basis
    gates of ``c`` are valid already, and the v-chains touch only ``c``'s
    gate qubits and the declared ancillas. ``lowered_metrics`` gives
    ``metrics`` of the result without building it. The result has no
    blocks, so its walk lays every pass.
    """
    flat = _expanded(c.gates)
    n_anc = _ancilla_width(_census(c))
    regs = c.registers + (((_ancilla_register(c), n_anc),) if n_anc else ())
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
            emit(Gate(_x_kind(k), controls, (target,)))
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

    for g in flat:
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


def lowered_metrics(c: Circuit) -> dict:
    """``metrics(lower(c))``, from ``c``'s census and one ``_depth`` walk
    over its gates, without building the lowered circuit.

    Gate counts follow from the census of (kind, control count): a k >= 3
    control mcx lowers to 2k-3 ccx, an mcz adds two h, and a lookup or
    diffuse counts as its expansion. Depth lays each mcx, mcz, lookup write
    and diffuse core as the v-chain ``lower`` writes on the ancillas after
    ``c``'s qubits.
    """
    census = _census(c)
    counts: dict[str, int] = {}
    for (kind, k), num in census.items():
        if kind in BASIS_KINDS:
            counts[kind] = counts.get(kind, 0) + num
            continue
        if kind == MCZ:
            counts[H] = counts.get(H, 0) + 2 * num
        if k >= 3:
            counts[CCX] = counts.get(CCX, 0) + (2 * k - 3) * num
        else:
            counts[_x_kind(k)] = counts.get(_x_kind(k), 0) + num
    return {
        "depth": _depth(c, c.num_qubits),
        "qubits": c.num_qubits + _ancilla_width(census),
        "counts": counts,
        "total_gates": sum(counts.values()),
    }


def dump(c: Circuit) -> str:
    """One gate per line: "KIND controls -> targets"; a lookup adds
    "table=" and its words in address order, then "reverse" if it has it."""
    lines = []
    for g in c.gates:
        ctrl = ",".join(c.label(q) for q in g.controls)
        tgt = ",".join(c.label(q) for q in g.targets)
        if g.kind == MEASURE:
            lines.append(f"MEASURE {tgt} -> c[{g.classical}]")
        elif g.kind == LOOKUP:
            words = ",".join(map(str, g.table))
            lines.append(f"LOOKUP {ctrl} -> {tgt} table={words}" + (" reverse" if g.reverse else ""))
        else:
            lines.append(f"{g.kind.upper()} {ctrl} -> {tgt}".replace("  ", " "))
    return "\n".join(lines) + ("\n" if lines else "")


def metrics(c: Circuit) -> dict:
    counts = gate_counts(c)
    return {
        "depth": depth(c),
        "qubits": c.num_qubits,
        "counts": counts,
        "total_gates": sum(counts.values()),
    }
