"""Statevector execution engine on a sparse state.

Amplitude index convention: bit q of the index is the value of global
qubit q, so |q2 q1 q0> = |110> sits at index 6. Histogram keys follow the
same rule on classical bits: bit 0 is the rightmost character.

Every evolution runs on a sparse state: an int64 array of the basis
indices with nonzero amplitude and a float64 array of their amplitudes
(the gate set is real). The stored indices are the true ones. One loop,
``_passes``, runs every evolution: it compiles each run of the circuit (a
repeat block's body, or the gates between blocks) into engine ops once
(``_compile``, the one home of each gate rule), applies a block's ops t
times (``_apply``) and yields the state after each pass; ``_evolve`` keeps
the last. A run of X gates is one index XOR, a run of cx onto one target
one parity op (the target flips by the parity of the index bits under the
XOR of the control bits, so a repeated control cancels), any other
controlled-X gate one masked index XOR, and Z and MCZ a sign flip of the
matching entries; the masks are made once per run. A table lookup gathers
each index's address bits and XORs in that row's word, spread onto the
data qubits (the whole table spread in one NumPy pass, once per table and
data qubits in a run). So a pass over a search's iteration body costs the
same number of NumPy passes whatever the register width. H and a diffuse
share one kernel: a stable sort puts the entries into groups that agree
outside the op's qubits (one for H, the register for a diffuse), each
group fills its 2^k slots of a block, the op rewrites the block (p·r ± a·r
for H, one reflection about the mean for a diffuse, not the H and X layers
it lowers to) and the block becomes the new state, with amplitudes that
cancelled pruned. Every index bit is placed by ``_spread`` and read by
``_gather`` (gate masks, group keys and slot offsets, table words, outcome
keys), with one shift and mask when the qubits are a contiguous ascending
run. At each diffuser every ancilla of a search circuit is back at its
loaded value, so the state is one group, and between diffusers every
ancilla is a function of the address, so the support never exceeds the n
addresses whatever the register width. A run accepts up to
``SPARSE_MAX_QUBITS`` (62) qubits, the width of an int64 index.

The qubit cap (``QVMP_SIM_MAX_QUBITS``, a nonnegative integer, default 26,
or ``statevector``'s ``max_qubits``) bounds the amplitudes held, 16 bytes
each, as a dense complex128 amplitude is. An H that leaves more than
2^cap entries after pruning, a diffuse whose G groups make more than 2^cap
slots (checked before they are made), a ``statevector`` result or an
outcome marginal wider than the cap raises ResourceError. At full support
an H or a diffuse holds about two and a half times the state's bytes at
its peak.

Measurement is two steps. ``_outcomes`` evolves a circuit that ends in
measurement and marginalizes onto its measured qubits, once; the
``_Outcomes`` it returns holds that distribution's inverse-CDF table, and
its ``sample`` draws a histogram for a shot count and seed from the table
without evolving again, counting the sorted draws by one search between
them and the table. ``run`` is one ``_outcomes`` and one ``sample``;
the verification driver samples one ``_Outcomes`` for every trial that
plans no iterations.
"""
from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .circuit import CCX, CX, DIFFUSE, H, LOOKUP, MCX, MCZ, MEASURE, X, Z, Circuit, Gate, _runs
from .errors import ContractError, FormatError, ResourceError

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "SPARSE_MAX_QUBITS",
    "Statevector",
    "Histogram",
    "statevector",
    "probabilities",
    "run",
    "backend_name",
    "qubit_cap",
]

DEFAULT_MAX_QUBITS = 26
# Indices are int64; 62 qubits keep every index and index | bit positive.
SPARSE_MAX_QUBITS = 62
# Merged amplitudes at or below this magnitude are rounding residue of a
# cancellation and are dropped; their squared sum is the pruned mass.
_PRUNE_AMPLITUDE = 1e-13
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def backend_name() -> str:
    """Name of the simulator implementation, recorded with benchmark runs:
    the sparse engine, in NumPy."""
    return "python"


def qubit_cap() -> int:
    env = os.environ.get("QVMP_SIM_MAX_QUBITS")
    if not env:
        return DEFAULT_MAX_QUBITS
    if not env.strip().isdecimal():
        raise ContractError(f"QVMP_SIM_MAX_QUBITS must be a nonnegative integer, got {env!r}")
    return int(env)


@dataclass(frozen=True)
class Statevector:
    num_qubits: int
    amplitudes: np.ndarray

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def probability(self, index: int) -> float:
        if not 0 <= index < self.amplitudes.size:
            raise ContractError(f"basis index {index} outside 0..{self.amplitudes.size - 1}")
        return float(np.abs(self.amplitudes[index]) ** 2)

    def __len__(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class Histogram:
    counts: dict[str, int]
    shots: int

    def __post_init__(self) -> None:
        if any(type(v) is not int or v < 0 for v in self.counts.values()):
            raise FormatError("histogram counts must be nonnegative integers")
        if sum(self.counts.values()) != self.shots:
            raise FormatError("histogram counts do not sum to shots")

    def to_csv(self) -> str:
        out = io.StringIO()
        for key in sorted(self.counts):
            out.write(f"{key},{self.counts[key]}\n")
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> Histogram:
        counts: dict[str, int] = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                key, val = line.split(",")
                count = int(val)
            except ValueError as e:
                raise FormatError(f"bad histogram line {line!r}") from e
            if key in counts:
                raise FormatError(f"duplicate histogram key {key!r}")
            counts[key] = count
        _check_keys(counts)
        return cls(counts, sum(counts.values()))

    def to_json(self) -> str:
        return json.dumps({"shots": self.shots, "counts": self.counts}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> Histogram:
        try:
            obj = json.loads(text)
            counts, shots = obj["counts"], obj["shots"]
        except (ValueError, KeyError, TypeError) as e:
            raise FormatError(f"bad histogram JSON: {e!r}") from e
        if not isinstance(counts, dict) or type(shots) is not int:
            raise FormatError("histogram JSON needs a counts object and an integer shots")
        _check_keys(counts)
        return cls(counts, shots)


def _check_keys(keys) -> None:
    """Reject histogram keys read from a file unless they are bitstrings
    of one width."""
    if len({len(k) for k in keys}) > 1 or any(not k or k.strip("01") for k in keys):
        raise FormatError("histogram keys must be bitstrings of one width")


def _scatter(n: int, index: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Dense complex128 array of 2^n amplitudes holding a sparse state."""
    dense = np.zeros(1 << n, dtype=np.complex128)
    dense[index] = amp
    return dense


def _run_start(qubits) -> int | None:
    """The first of ``qubits`` when they are a contiguous ascending run,
    else None."""
    if qubits and tuple(qubits) == tuple(range(qubits[0], qubits[0] + len(qubits))):
        return qubits[0]
    return None


def _spread(value, qubits):
    """Index bits holding ``value``: bit i of it lands on ``qubits[i]``.
    ``value`` is a Python int or an int64 array (each element spread); -1
    gives the mask of ``qubits``. A qubit listed twice gets the OR of its
    bits."""
    start = _run_start(qubits)
    if start is not None:
        return (value & ((1 << len(qubits)) - 1)) << start
    out = 0
    for i, q in enumerate(qubits):
        out |= ((value >> i) & 1) << q
    return out


def _gather(index, qubits):
    """Inverse of ``_spread`` on distinct qubits: bit i of the result is
    bit ``qubits[i]`` of the int64 array ``index``."""
    start = _run_start(qubits)
    if start is not None:
        return (index >> start) & ((1 << len(qubits)) - 1)
    out = 0
    for i, q in enumerate(qubits):
        out |= ((index >> q) & 1) << i
    return out


@dataclass
class _State:
    """A true-indexed sparse state: distinct basis indices (int64) and
    their real amplitudes. ``h`` and ``diffuse`` rebind both arrays."""

    index: np.ndarray
    amp: np.ndarray

    def _group(self, qubits) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sort the entries into groups that agree outside ``qubits``, by a
        stable sort, so each group keeps its entries in state order.
        Returns the groups' keys (index bits outside ``qubits``), where
        each group starts in sorted order, the amplitudes in that order and
        each one's slot in a G·2^k block: its group times 2^k plus its
        register value. Releases the state's arrays."""
        value = _gather(self.index, qubits)
        rest = self.index & ~_spread(-1, qubits)
        self.index = None
        order = rest.argsort(kind="stable")
        rest = rest[order]
        value = value[order]
        amp, self.amp = self.amp, None
        amp = amp[order]
        del order
        first = np.empty(rest.size, dtype=bool)  # where each group starts
        first[0] = True
        np.not_equal(rest[1:], rest[:-1], out=first[1:])
        starts = first.nonzero()[0]
        keys = rest[starts]
        del rest
        slot = first.cumsum()  # each entry's group, from 1
        del first
        slot -= 1
        slot <<= len(qubits)
        slot |= value
        return keys, starts, amp, slot

    def _ungroup(self, keys: np.ndarray, qubits, block: np.ndarray) -> np.ndarray:
        """Make the state from a G·2^k ``block`` over the groups ``keys``:
        slot g·2^k + j is key g ORed with value j spread onto ``qubits``.
        Prunes amplitudes at or below ``_PRUNE_AMPLITUDE`` and returns
        them."""
        offsets = _spread(np.arange(1 << len(qubits), dtype=np.int64), qubits)
        index = (keys[:, None] | offsets).ravel()
        keep = np.abs(block) > _PRUNE_AMPLITUDE
        dropped = block[~keep]
        if dropped.size:
            index, block = index[keep], block[keep]
        self.index, self.amp = index, block
        return dropped

    def h(self, qubit: int) -> np.ndarray:
        """Hadamard on one qubit: the one-qubit case of ``diffuse``'s
        grouping, each group a pair. Returns the pruned amplitudes.

        The amplitudes are scaled by r = 1/sqrt(2) first, then a pair of
        bit-0 amplitude p and bit-1 amplitude a (0 where absent) becomes
        p·r + a·r and p·r − a·r."""
        keys, _, amp, slot = self._group((qubit,))
        amp *= _INV_SQRT2
        block = np.zeros(keys.size << 1)
        block[slot] = amp
        del amp, slot
        p, a = block[0::2], block[1::2]
        out = np.empty(block.size)
        np.add(p, a, out=out[0::2])
        np.subtract(p, a, out=out[1::2])
        del block, p, a
        return self._ungroup(keys, (qubit,), out)

    def diffuse(self, qubits: tuple[int, ...], cap: int) -> np.ndarray:
        """Inversion about the mean on the register ``qubits``, I - 2|s><s|.
        Returns the pruned amplitudes.

        In a group whose amplitudes sum to S (``np.add.reduceat``, in
        group order), register value j gets a_j - (2/2^k)·S, with a_j = 0
        where j is absent, so G groups make G·2^k entries; that count is
        checked against 2^cap before they are made (ResourceError)."""
        k = len(qubits)
        keys, starts, amp, slot = self._group(qubits)
        size = keys.size << k
        if size > 1 << cap:
            raise ResourceError(f"support of {size} amplitudes exceeds the cap of {cap} qubits")
        block = (np.add.reduceat(amp, starts) * (-2.0 / (1 << k))).repeat(1 << k)
        del starts
        block[slot] += amp
        del amp, slot
        return self._ungroup(keys, qubits, block)

    def marginal(self, ordered: list[int]) -> np.ndarray:
        """Born probabilities over the ascending qubit list ``ordered``;
        index bit r is qubit ``ordered[r]``."""
        k = len(ordered)
        cap = qubit_cap()
        if k > cap:
            raise ResourceError(f"marginal over {k} qubits exceeds the cap of {cap}")
        outcome = _gather(self.index, ordered)
        return np.bincount(outcome, weights=self.amp * self.amp, minlength=1 << k)


# Engine op codes beyond the gate kinds: a parity op flips its target by
# the parity of the index bits under its mask.
_PARITY = "parity"


def _compile(gates: list[Gate]) -> list[tuple]:
    """Engine ops for ``gates``, applied in order by ``_apply``; the one
    place each gate rule is written. Each op is (code, a, b):

    - (X, bits, None): a run of X gates, one index XOR by the XOR of their
      bits, so a repeated qubit cancels;
    - (_PARITY, cmask, t): a run of two or more single-control cx onto
      target t, ``index ^= parity(index & cmask) << t`` with ``cmask`` the
      XOR of the control bits; one cx, or a run whose controls reduce to
      one bit, is a controlled X, and a run whose controls all cancel
      makes no op;
    - (CX, cmask, bit): a controlled X (cx, ccx or mcx), a masked index XOR;
    - (Z, mask, None): Z or MCZ, a sign flip of the entries with every bit
      of ``mask`` set;
    - (LOOKUP, masks, address): XOR in the mask of each index's address, the
      table spread onto the data qubits in one pass, once per (table, data
      qubits) in ``gates``, so a lookup and its reverse uncompute share it;
    - (H, qubit, None) and (DIFFUSE, qubits, None): ``_State.h`` and
      ``_State.diffuse``, whose groups and slots are made as they run.

    A measurement makes no op; sampling happens on the final state."""
    ops: list[tuple] = []
    lookups: dict[tuple, np.ndarray] = {}  # (id of a table, data qubits) -> masks
    i, end = 0, len(gates)
    while i < end:
        g = gates[i]
        kind = g.kind
        i += 1
        if kind == X:  # a run of X: one XOR
            bits = 1 << g.targets[0]
            while i < end and gates[i].kind == X:
                bits ^= 1 << gates[i].targets[0]
                i += 1
            if bits:
                ops.append((X, bits, None))
        elif kind == CX:  # a run of cx onto one target: one parity op
            cmask = 1 << g.controls[0]
            while i < end and gates[i].kind == CX and gates[i].targets == g.targets:
                cmask ^= 1 << gates[i].controls[0]
                i += 1
            if cmask & (cmask - 1):
                ops.append((_PARITY, cmask, g.targets[0]))
            elif cmask:
                ops.append((CX, cmask, 1 << g.targets[0]))
        elif kind == CCX or kind == MCX:
            ops.append((CX, _spread(-1, g.controls), 1 << g.targets[0]))
        elif kind == Z or kind == MCZ:
            ops.append((Z, _spread(-1, g.qubits()), None))
        elif kind == LOOKUP:
            key = (id(g.table), g.targets)
            masks = lookups.get(key)
            if masks is None:
                masks = lookups[key] = _spread(np.array(g.table, dtype=np.int64), g.targets)
            ops.append((LOOKUP, masks, g.controls))
        elif kind == H:
            ops.append((H, g.targets[0], None))
        elif kind == DIFFUSE:
            ops.append((DIFFUSE, g.targets, None))
        elif kind != MEASURE:  # pragma: no cover - KINDS is closed
            raise ContractError(f"cannot simulate {kind}")
    return ops


def _apply(state: _State, ops: list[tuple], limit: int, tally: list | None) -> None:
    """Run ``_compile``'s ops on ``state``. After each H and diffuse the
    support is checked against 2^``limit``, and ``tally``, when given, is
    [peak support, pruned mass], updated in place. No local name holds
    state.index or state.amp across an H or a diffuse, so the arrays they
    replace are freed."""
    for code, a, b in ops:
        if code == _PARITY:
            state.index ^= np.left_shift(np.bitwise_count(state.index & a) & 1, b,
                                         dtype=np.int64)
        elif code == CX:
            state.index[(state.index & a) == a] ^= b
        elif code == X:
            state.index ^= a
        elif code == Z:
            state.amp[(state.index & a) == a] *= -1.0
        elif code == LOOKUP:
            state.index ^= a[_gather(state.index, b)]
        else:
            dropped = state.h(a) if code == H else state.diffuse(a, limit)
            size = state.index.size
            if size > 1 << limit:
                raise ResourceError(
                    f"support of {size} amplitudes exceeds the cap of {limit} qubits"
                )
            if tally is not None:
                tally[0] = max(tally[0], size)
                tally[1] += float(dropped @ dropped)


def _passes(circuit: Circuit, initial: int = 0, *, cap: int | None = None,
            stats: dict | None = None):
    """Run the unitary gates of ``circuit`` on the basis state ``initial``,
    yielding the state after each application of a run of ``_runs``: the
    gates before the first block, then each pass of the block, and so on.
    Each run is compiled once (``_compile``) and its ops applied t times
    (``_apply``). The state yielded is one object, updated in place by the
    next pass.

    ``cap`` bounds the support (default ``qubit_cap()``): an H that leaves
    more than 2^cap entries after pruning, or a diffuse whose groups make
    more than 2^cap slots, raises ResourceError. ``stats``, when given,
    receives ``engine`` ("sparse"), ``peak_support`` (most entries held)
    and ``pruned_mass`` (squared amplitudes dropped by pruning) once the
    generator is exhausted.
    """
    n = circuit.num_qubits
    if n > SPARSE_MAX_QUBITS:
        raise ResourceError(
            f"{n} qubits exceeds the sparse index limit of {SPARSE_MAX_QUBITS} qubits"
        )
    if not 0 <= initial < (1 << n):
        raise ContractError(f"initial basis index {initial} out of range")
    limit = cap if cap is not None else qubit_cap()
    state = _State(np.array([initial], dtype=np.int64), np.ones(1))
    tally = None if stats is None else [1, 0.0]
    for gates, t in _runs(circuit):
        ops = _compile(gates)
        for _ in range(t):
            _apply(state, ops, limit, tally)
            yield state
    if stats is not None:
        stats.update(engine="sparse", peak_support=int(tally[0]), pruned_mass=tally[1])


def _evolve(circuit: Circuit, initial: int = 0, *, cap: int | None = None,
            stats: dict | None = None) -> _State:
    """The last state that ``_passes`` yields: every unitary gate of
    ``circuit`` run on the basis state ``initial``, ``cap`` and ``stats`` as there."""
    for state in _passes(circuit, initial, cap=cap, stats=stats):
        pass
    return state


def statevector(circuit: Circuit, initial: int = 0, *, max_qubits: int | None = None) -> Statevector:
    """Exact amplitudes of the circuit applied to a basis state, as a dense
    complex128 array; ``max_qubits`` (default ``qubit_cap()``) bounds it."""
    if circuit.has_measurement():
        raise ContractError("statevector of a circuit with measurement")
    n = circuit.num_qubits
    limit = max_qubits if max_qubits is not None else qubit_cap()
    if n > limit:
        raise ResourceError(f"{n} qubits exceeds the cap of {limit}")
    state = _evolve(circuit, initial, cap=limit)
    return Statevector(n, _scatter(n, state.index, state.amp))


def _outcome_keys(values, pairs: list[tuple[int, int]], width: int) -> list[str]:
    """Key of each outcome index of a marginal over the sorted qubits of
    ``pairs``; ``pairs`` maps each qubit to its bit in the key, so bit r of
    an outcome lands on the key bit of the r-th sorted qubit."""
    kbits = [kbit for _, kbit in sorted(pairs)]
    fmt = f"0{width}b"
    return [format(v, fmt) for v in _spread(np.asarray(values, dtype=np.int64), kbits).tolist()]


def probabilities(circuit: Circuit, qubits=None, *, stats: dict | None = None) -> dict[str, float]:
    """Exact Born probabilities, marginalized onto the named qubits.

    Key convention: the i-th listed qubit is bit i of the key, i.e. the
    rightmost character belongs to the first qubit in the list. ``stats``
    is filled as ``_evolve`` describes.
    """
    if circuit.has_measurement():
        raise ContractError("probabilities of a circuit with measurement")
    if qubits is None:
        chosen = list(range(circuit.num_qubits))
    else:
        chosen = [circuit._resolve(q) for q in qubits]
    if not chosen:
        raise ContractError("empty qubit list for a marginal")
    if len(set(chosen)) != len(chosen):
        raise ContractError("duplicate qubit in marginal")
    marg = _evolve(circuit, stats=stats).marginal(sorted(chosen))
    pairs = [(q, i) for i, q in enumerate(chosen)]
    return dict(zip(_outcome_keys(range(marg.size), pairs, len(chosen)), marg.tolist()))


def run(circuit: Circuit, shots: int, seed: int, *, stats: dict | None = None) -> Histogram:
    """Evolve once, then draw shots from the Born distribution on the
    measured qubits via a single inverse-CDF pass: ``_outcomes(circuit)``
    sampled once. Deterministic per seed. ``stats`` is filled as
    ``_evolve`` describes."""
    return _outcomes(circuit, stats=stats).sample(shots, seed)


class _Outcomes:
    """The Born distribution of a circuit's measured qubits, from one
    evolution, sampled as often as needed: the marginal, its inverse-CDF
    table (the running sum of the marginal, scaled so its last entry is
    exactly 1.0), and the histogram key of each outcome index drawn so
    far. Each classical bit is written by one measurement, so distinct
    outcomes have distinct keys."""

    def __init__(self, marg: np.ndarray, measured: list[tuple[int, int]], width: int) -> None:
        self.marg = marg
        self._measured = measured
        self._width = width
        cdf = np.cumsum(np.maximum(marg, 0.0))
        cdf /= cdf[-1]
        self._cdf = cdf
        self._keys: dict[int, str] = {}  # outcome index -> histogram key

    def sample(self, shots: int, seed: int) -> Histogram:
        """Draw shots by one inverse-CDF pass over the cached table.
        Deterministic per seed.

        The uniforms u are sorted and searched once for every CDF entry:
        the number of draws below ``cdf[i]`` less the number below
        ``cdf[i - 1]`` is the count of outcome i, the draws that
        ``searchsorted(cdf, u, side="right")`` sends there. ``cdf[-1]`` is
        exactly 1.0 and every u is below 1, so the counts sum to ``shots``.
        The counts come in ascending outcome order."""
        if shots < 1:
            raise ContractError("shots must be >= 1")
        if seed < 0:
            raise ContractError("seed must be >= 0")
        u = np.random.default_rng(seed).random(shots)
        u.sort()
        below = u.searchsorted(self._cdf)
        freq = below.copy()  # np.diff(below, prepend=0), without its concatenate
        freq[1:] -= below[:-1]
        values = freq.nonzero()[0]
        freq = freq[values].tolist()
        values = values.tolist()
        keys = self._keys
        missing = [v for v in values if v not in keys]
        if missing:
            keys.update(zip(missing, _outcome_keys(missing, self._measured, self._width)))
        return Histogram({keys[v]: c for v, c in zip(values, freq)}, shots)

    def exact(self) -> dict[str, float]:
        """Exact probability of every outcome, keyed like the histogram."""
        keys = _outcome_keys(range(self.marg.size), self._measured, self._width)
        return dict(zip(keys, self.marg.tolist()))


def _outcomes(circuit: Circuit, *, stats: dict | None = None) -> _Outcomes:
    """Evolve a circuit that ends in measurement and marginalize onto its
    measured qubits. ``stats`` is filled as ``_evolve`` describes."""
    measured = circuit.measured_qubits()
    if not measured:
        raise ContractError("run() needs a circuit that ends in measurement")
    marg = _evolve(circuit, stats=stats).marginal(sorted(q for q, _ in measured))
    return _Outcomes(marg, measured, circuit.classical_bits)
