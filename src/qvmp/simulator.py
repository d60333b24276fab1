"""Statevector execution engine on a sparse state.

Amplitude index convention: bit q of the index is the value of global
qubit q, so |q2 q1 q0> = |110> sits at index 6. Histogram keys follow the
same rule on classical bits: bit 0 is the rightmost character.

Every evolution runs on a sparse state: an int64 array of the basis
indices with nonzero amplitude and a float64 array of their amplitudes
(the gate set is real). The stored indices are the true ones, and each
gate is applied as it comes: an X is one index XOR, a controlled-X gate is
one masked index XOR, a table lookup gathers each index's address bits and
XORs in that row's word, spread onto the data qubits (the whole table
spread in one NumPy pass, once per table, data qubits and evolution), and
Z and MCZ flip the sign of the matching entries. H and a diffuse share one
kernel: a stable sort puts the entries into groups that agree outside the
op's qubits (one for H, the register for a diffuse), each group fills its
2^k slots of a block, the op rewrites the block (p·r ± a·r for H, one
reflection about the mean for a diffuse, not the H and X layers it lowers
to) and the block becomes the new state, with amplitudes that cancelled
pruned. Every index bit is placed by ``_spread`` and read by ``_gather``
(gate masks, group keys and slot offsets, table words, outcome keys), with
one shift and mask when the qubits are a contiguous ascending run. At each
diffuser every ancilla of a search circuit is back at its loaded value, so
the state is one group, and between diffusers every ancilla is a function
of the address, so the support never exceeds the n addresses whatever the
register width. A run accepts up to ``SPARSE_MAX_QUBITS`` (62) qubits, the
width of an int64 index.

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
without evolving again. ``run`` is one ``_outcomes`` and one ``sample``;
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

from .circuit import CCX, CX, DIFFUSE, H, LOOKUP, MCX, MCZ, MEASURE, X, Z, Circuit
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

    num_qubits: int
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
        order = np.argsort(rest, kind="stable")
        rest = rest[order]
        value = value[order]
        amp, self.amp = self.amp, None
        amp = amp[order]
        del order
        first = np.empty(rest.size, dtype=bool)  # where each group starts
        first[0] = True
        np.not_equal(rest[1:], rest[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        keys = rest[starts]
        del rest
        slot = np.cumsum(first)  # each entry's group, from 1
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
        block = np.stack((p + a, p - a), axis=1).ravel()
        del p, a
        return self._ungroup(keys, (qubit,), block)

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
        block = np.repeat(np.add.reduceat(amp, starts) * (-2.0 / (1 << k)), 1 << k)
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


def _evolve(circuit: Circuit, start: int | _State = 0, *, cap: int | None = None,
            stats: dict | None = None) -> _State:
    """Run all unitary gates on a basis state, or on ``start`` when it is
    an evolved state of the same width (which is then consumed).

    ``cap`` bounds the support (default ``qubit_cap()``): an H that leaves
    more than 2^cap entries after pruning, or a diffuse whose groups make
    more than 2^cap slots, raises ResourceError. ``stats``, when given,
    receives ``engine`` ("sparse"), ``peak_support`` (most entries held)
    and ``pruned_mass`` (squared amplitudes dropped by pruning).
    """
    n = circuit.num_qubits
    if n > SPARSE_MAX_QUBITS:
        raise ResourceError(
            f"{n} qubits exceeds the sparse index limit of {SPARSE_MAX_QUBITS} qubits"
        )
    limit = cap if cap is not None else qubit_cap()
    if isinstance(start, _State):
        if start.num_qubits != n:
            raise ContractError(f"start state has {start.num_qubits} qubits, circuit {n}")
        state = start
    else:
        if not 0 <= start < (1 << n):
            raise ContractError(f"initial basis index {start} out of range")
        state = _State(n, np.array([start], dtype=np.int64), np.ones(1))
    # No local name holds state.index or state.amp across an H or a
    # diffuse, so the arrays they replace are freed.
    peak = state.index.size
    pruned = 0.0
    # (id of a lookup table, data qubits) -> data masks; a lookup and its
    # reverse=True uncompute share one table, so they share one entry
    lookups: dict[tuple, np.ndarray] = {}
    for g in circuit.gates:
        kind = g.kind
        if kind == X:
            state.index ^= 1 << g.targets[0]
        elif kind == H or kind == DIFFUSE:
            if kind == H:
                dropped = state.h(g.targets[0])
            else:
                dropped = state.diffuse(g.targets, limit)
            size = state.index.size
            if size > 1 << limit:
                raise ResourceError(
                    f"support of {size} amplitudes exceeds the cap of {limit} qubits"
                )
            if stats is not None:
                pruned += float(dropped @ dropped)
                peak = max(peak, size)
        elif kind in (Z, MCZ):
            mask = _spread(-1, g.qubits())
            state.amp[(state.index & mask) == mask] *= -1.0
        elif kind in (CX, CCX, MCX):
            cmask = _spread(-1, g.controls)
            state.index[(state.index & cmask) == cmask] ^= 1 << g.targets[0]
        elif kind == LOOKUP:
            key = (id(g.table), g.targets)
            masks = lookups.get(key)
            if masks is None:
                masks = lookups[key] = _spread(np.array(g.table, dtype=np.int64), g.targets)
            state.index ^= masks[_gather(state.index, g.controls)]
        elif kind == MEASURE:
            pass  # terminal; sampling happens on the final state
        else:  # pragma: no cover - KINDS is closed
            raise ContractError(f"cannot simulate {kind}")
    if stats is not None:
        stats.update(engine="sparse", peak_support=int(peak), pruned_mass=pruned)
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
    return [format(_spread(v, kbits), f"0{width}b") for v in values]


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
    table, and the histogram key of each outcome index drawn so far."""

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
        Deterministic per seed."""
        if shots < 1:
            raise ContractError("shots must be >= 1")
        if seed < 0:
            raise ContractError("seed must be >= 0")
        size = self.marg.size
        u = np.random.default_rng(seed).random(shots)
        u.sort()
        draws = np.searchsorted(self._cdf, u, side="right")
        freq = np.bincount(np.minimum(draws, size - 1), minlength=size)
        values = np.flatnonzero(freq).tolist()
        keys = self._keys
        missing = [v for v in values if v not in keys]
        if missing:
            keys.update(zip(missing, _outcome_keys(missing, self._measured, self._width)))
        counts: dict[str, int] = {}
        for v, c in zip(values, freq[values].tolist()):
            key = keys[v]
            counts[key] = counts.get(key, 0) + c
        return Histogram(counts, shots)

    def exact(self) -> dict[str, float]:
        """Exact probability of every outcome, keyed like the histogram."""
        exact: dict[str, float] = {}
        keys = _outcome_keys(range(self.marg.size), self._measured, self._width)
        for key, p in zip(keys, self.marg.tolist()):
            exact[key] = exact.get(key, 0.0) + p
        return exact


def _outcomes(circuit: Circuit, *, stats: dict | None = None) -> _Outcomes:
    """Evolve a circuit that ends in measurement and marginalize onto its
    measured qubits. ``stats`` is filled as ``_evolve`` describes."""
    measured = circuit.measured_qubits()
    if not measured:
        raise ContractError("run() needs a circuit that ends in measurement")
    marg = _evolve(circuit, stats=stats).marginal(sorted(q for q, _ in measured))
    return _Outcomes(marg, measured, circuit.classical_bits)
