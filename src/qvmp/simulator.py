"""Statevector execution engine: a sparse state that hands off to dense.

Amplitude index convention: bit q of the index is the value of global
qubit q, so |q2 q1 q0> = |110> sits at index 6. Histogram keys follow the
same rule on classical bits: bit 0 is the rightmost character.

Every evolution starts on a sparse state: an int64 array of basis indices
and a float64 array of their amplitudes (the gate set is real). On it a
controlled-X gate is one masked index XOR, a table lookup gathers each
index's address bits and XORs in that row's word, spread onto the data
qubits (one array of those masks per lookup gate and evolution), Z and MCZ
flip the sign of the matching entries, and H builds both branches, merges
equal indices by summing them and prunes amplitudes that cancelled.
Between diffusers every ancilla of a search circuit is a function of the
address, so its support never exceeds the n addresses whatever the
register width. A run that stays sparse accepts up to
``SPARSE_MAX_QUBITS`` (62) qubits, the width of an int64 index.

Once an H leaves more than 2^n / ``_DENSE_FRACTION`` amplitudes, the
sparse state is scattered into a dense complex128 array of 2^n amplitudes
and the remaining gates run on it, from that gate on. Dense gates are NumPy
slices of its (2,)*n view: a gate touches only the stratum its controls
select, so work scales with the amplitudes it changes; a lookup is one
such multi-target X per row with a nonzero word. The qubit cap
(``QVMP_SIM_MAX_QUBITS``, a nonnegative integer, default 26, or
``statevector``'s ``max_qubits``) bounds the amplitudes held in either
shape: a dense handoff, a ``statevector`` result or an outcome marginal
wider than the cap raises ResourceError, and so does a sparse state of
more than 2^cap entries, since a circuit wider than the cap cannot hand
off.

Bare X gates are tracked in both shapes as an index-relabelling frame (an
XOR mask over amplitude indices) instead of moving amplitudes; the other
gates take the frame into account through control polarities, a
conjugated Hadamard and, for a lookup, an address read XOR the frame's
address bits. The frame is resolved once, when the evolution ends.

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

from .circuit import CCX, CX, H, LOOKUP, MCX, MCZ, MEASURE, X, Z, Circuit
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
# Hand off to the dense state once support exceeds 2^n / _DENSE_FRACTION.
# benchmarks/bench_handoff.py puts the per-gate crossover against the dense
# gates at 2^n/8 for H (which sorts and bincounts its entries) and 2^n/4
# for controlled-X and phase gates on 14-20 qubits; handing off at 2^n/8
# evolves its growing-support circuits fastest or within noise of it.
_DENSE_FRACTION = 8
# Merged amplitudes at or below this magnitude are rounding residue of a
# cancellation and are dropped; their squared sum is the pruned mass.
_PRUNE_AMPLITUDE = 1e-13
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def backend_name() -> str:
    """Name of the dense gate implementation; there is one, in NumPy."""
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
        return float(np.abs(self.amplitudes[index]) ** 2)

    def __len__(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class Histogram:
    counts: dict[str, int]
    shots: int

    def __post_init__(self) -> None:
        if any(not isinstance(v, int) or v < 0 for v in self.counts.values()):
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
                counts[key] = int(val)
            except ValueError as e:
                raise FormatError(f"bad histogram line {line!r}") from e
        return cls(counts, sum(counts.values()))

    def to_json(self) -> str:
        return json.dumps({"shots": self.shots, "counts": self.counts}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> Histogram:
        try:
            obj = json.loads(text)
            counts, shots = dict(obj["counts"]), int(obj["shots"])
        except (ValueError, KeyError, TypeError) as e:
            raise FormatError(f"bad histogram JSON: {e!r}") from e
        return cls(counts, shots)


def _scatter(n: int, index: np.ndarray, amp: np.ndarray, cap: int) -> np.ndarray:
    """Dense complex128 array holding a sparse state; bounded by the cap."""
    if n > cap:
        raise ResourceError(f"dense state of {n} qubits exceeds the cap of {cap}")
    dense = np.zeros(1 << n, dtype=np.complex128)
    dense[index] = amp
    return dense


def _bit_positions(mask: int) -> list[int]:
    return [q for q in range(mask.bit_length()) if (mask >> q) & 1]


def _spread(value: int, qubits) -> int:
    """Index bits holding ``value``: bit i of it lands on ``qubits[i]``."""
    out = 0
    for i, q in enumerate(qubits):
        out |= ((value >> i) & 1) << q
    return out


def _gather(index, qubits):
    """Inverse of ``_spread``: bit i of the result is bit ``qubits[i]`` of
    ``index`` (an int or an int64 array)."""
    out = 0
    for i, q in enumerate(qubits):
        out |= ((index >> q) & 1) << i
    return out


def _stratum(n: int, mask: int, val: int) -> list:
    """Index into the (2,)*n view of a dense state selecting the amplitudes
    whose masked index bits equal ``val``; qubit q lives on axis n-1-q."""
    idx = [slice(None)] * n
    for q in _bit_positions(mask):
        idx[n - 1 - q] = (val >> q) & 1
    return idx


def _apply_h(state: np.ndarray, qubit: int, swapped: bool) -> None:
    """Hadamard on one qubit of a dense state; ``swapped`` exchanges the
    basis roles (the X-conjugated form used under a flipped frame bit)."""
    n = state.size.bit_length() - 1
    view = state.reshape((2,) * n)
    i0 = tuple(_stratum(n, 1 << qubit, 0))
    i1 = tuple(_stratum(n, 1 << qubit, 1 << qubit))
    a = view[i0]
    b = view[i1]
    s = (a + b) * _INV_SQRT2
    d = (a - b) * _INV_SQRT2
    if swapped:
        view[i0] = -d
        view[i1] = s
    else:
        view[i0] = s
        view[i1] = d


def _apply_mcx(state: np.ndarray, target_mask: int, ctrl_mask: int, ctrl_val: int) -> None:
    """NOT on every bit of the nonzero ``target_mask`` of a dense state,
    within the stratum where the masked index bits equal ``ctrl_val``.

    The joint action pairs index s with s ^ target_mask; the lowest target
    bit anchors the pairing and the remaining target axes are reversed.
    """
    n = state.size.bit_length() - 1
    view = state.reshape((2,) * n)
    anchor, *rest = _bit_positions(target_mask)
    idx0 = _stratum(n, ctrl_mask, ctrl_val)
    idx1 = list(idx0)
    a_ax = n - 1 - anchor
    idx0[a_ax], idx1[a_ax] = 0, 1
    i0, i1 = tuple(idx0), tuple(idx1)
    tmp = view[i0].copy()
    if rest:
        kept = [ax for ax in range(n) if isinstance(idx0[ax], slice)]
        flip = tuple(kept.index(n - 1 - q) for q in rest)
        view[i0] = np.flip(view[i1], axis=flip)
        view[i1] = np.flip(tmp, axis=flip)
    else:
        view[i0] = view[i1]
        view[i1] = tmp


def _apply_phase(state: np.ndarray, mask: int, val: int) -> None:
    """Negate the amplitudes of a dense state whose masked index bits
    equal ``val``."""
    n = state.size.bit_length() - 1
    state.reshape((2,) * n)[tuple(_stratum(n, mask, val))] *= -1.0


def _marginal(probs: np.ndarray, n: int, qubits: list[int]) -> np.ndarray:
    """Marginal of a dense distribution over the given qubits; result
    index bit r is the qubit at ascending rank r of the sorted list."""
    drop = tuple(n - 1 - q for q in range(n) if q not in set(qubits))
    reduced = probs.reshape((2,) * n).sum(axis=drop) if drop else probs.reshape((2,) * n)
    return reduced.reshape(-1)


@dataclass
class _State:
    """A true-indexed state in one of two shapes: sparse (``index`` and
    real ``amp`` arrays) or dense (``dense``, complex128 over 2^n)."""

    num_qubits: int
    index: np.ndarray | None = None
    amp: np.ndarray | None = None
    dense: np.ndarray | None = None

    def to_dense(self, cap: int) -> np.ndarray:
        if self.dense is not None:
            return self.dense
        return _scatter(self.num_qubits, self.index, self.amp, cap)

    def marginal(self, ordered: list[int]) -> np.ndarray:
        """Born probabilities over the ascending qubit list ``ordered``;
        index bit r is qubit ``ordered[r]``."""
        k = len(ordered)
        cap = qubit_cap()
        if k > cap:
            raise ResourceError(f"marginal over {k} qubits exceeds the cap of {cap}")
        if self.dense is not None:
            return _marginal(np.abs(self.dense) ** 2, self.num_qubits, ordered)
        outcome = np.zeros(self.index.size, dtype=np.int64)
        for r, q in enumerate(ordered):
            outcome |= ((self.index >> q) & 1) << r
        return np.bincount(outcome, weights=self.amp * self.amp, minlength=1 << k)


def _sparse_h(index: np.ndarray, amp: np.ndarray, qubit: int, swapped: bool):
    """Hadamard on a sparse state: both branches of every entry, merged by
    index and pruned. ``swapped`` is the X-conjugated form used under a
    flipped frame bit, as in the dense kernel. Returns the new arrays and
    the dropped entries' amplitudes."""
    bit = 1 << qubit
    scaled = amp * _INV_SQRT2
    signed = np.where((index & bit) == (0 if swapped else bit), -scaled, scaled)
    lo, hi = (signed, scaled) if swapped else (scaled, signed)
    keys, pair = np.unique(index & ~bit, return_inverse=True)
    merged_index = np.concatenate((keys, keys | bit))
    merged_amp = np.concatenate((np.bincount(pair, weights=lo, minlength=keys.size),
                                 np.bincount(pair, weights=hi, minlength=keys.size)))
    keep = np.abs(merged_amp) > _PRUNE_AMPLITUDE
    return merged_index[keep], merged_amp[keep], merged_amp[~keep]


def _evolve(circuit: Circuit, start: int | _State = 0, *, cap: int | None = None,
            stats: dict | None = None) -> _State:
    """Run all unitary gates on a basis state, or on ``start`` when it is
    an evolved state of the same width (which is then consumed).

    ``cap`` bounds a dense handoff (default ``qubit_cap()``). ``stats``,
    when given, receives ``engine`` ("sparse", or "dense" once handed
    off), ``peak_support`` (most amplitudes held; 2^n when dense) and
    ``pruned_mass`` (squared amplitudes dropped by pruning).
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
        index, amp, dense = start.index, start.amp, start.dense
    else:
        if not 0 <= start < (1 << n):
            raise ContractError(f"initial basis index {start} out of range")
        index = np.array([start], dtype=np.int64)
        amp = np.ones(1)
        dense = None
    # A sparse entry (index + amplitude) is 16 bytes, as is a dense one, so
    # the cap bounds the support too: past 2^limit a state wider than the
    # cap needs a handoff that _scatter refuses.
    dense_at = min((1 << n) // _DENSE_FRACTION, 1 << limit)
    peak = (1 << n) if dense is not None else index.size
    pruned = 0.0
    frame = 0
    lookups: dict[int, np.ndarray] = {}  # id of a lookup gate -> its data masks
    for g in circuit.gates:
        kind = g.kind
        if kind == X:
            frame ^= 1 << g.targets[0]
        elif kind == H:
            q = g.targets[0]
            swapped = bool((frame >> q) & 1)
            if dense is not None:
                _apply_h(dense, q, swapped)
            else:
                index, amp, dropped = _sparse_h(index, amp, q, swapped)
                if stats is not None:
                    pruned += float(dropped @ dropped)
                    peak = max(peak, index.size)
                if index.size > dense_at:
                    dense = _scatter(n, index, amp, limit)
                    index = amp = None
                    peak = 1 << n
        elif kind in (Z, MCZ):
            mask = 1 << g.targets[0]
            for c in g.controls:
                mask |= 1 << c
            if dense is not None:
                _apply_phase(dense, mask, mask & ~frame)
            else:
                amp[(index & mask) == (mask & ~frame)] *= -1.0
        elif kind in (CX, CCX, MCX):
            tmask = 1 << g.targets[0]
            cmask = 0
            for c in g.controls:
                cmask |= 1 << c
            if dense is not None:
                _apply_mcx(dense, tmask, cmask, cmask & ~frame)
            else:
                index[(index & cmask) == (cmask & ~frame)] ^= tmask
        elif kind == LOOKUP:
            masks = lookups.get(id(g))
            if masks is None:
                masks = lookups[id(g)] = np.array([_spread(w, g.targets) for w in g.table],
                                                  dtype=np.int64)
            address = g.controls
            # A stored index reads the address XOR the frame's address bits.
            shift = _gather(frame, address)
            if dense is not None:
                amask = sum(1 << q for q in address)
                for r, mask in enumerate(masks.tolist()):
                    if mask:
                        _apply_mcx(dense, mask, amask, _spread(r ^ shift, address))
            else:
                index ^= masks[_gather(index, address) ^ shift]
        elif kind == MEASURE:
            pass  # terminal; sampling happens on the final state
        else:  # pragma: no cover - KINDS is closed
            raise ContractError(f"cannot simulate {kind}")
    if stats is not None:
        stats.update(engine="sparse" if dense is None else "dense",
                     peak_support=int(peak), pruned_mass=pruned)
    if dense is not None:
        if frame:
            # Relabel index s as s ^ frame: reverse the axis of every
            # flipped qubit, then copy once into a contiguous array.
            axes = tuple(n - 1 - q for q in _bit_positions(frame))
            dense = np.flip(dense.reshape((2,) * n), axis=axes).copy().reshape(-1)
        return _State(n, dense=dense)
    if frame:
        index ^= frame
    return _State(n, index=index, amp=amp)


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
    return Statevector(n, state.to_dense(limit))


def _outcome_keys(values, pairs: list[tuple[int, int]], width: int) -> list[str]:
    """Key of each outcome index of a marginal over the sorted qubits of
    ``pairs``; ``pairs`` maps each qubit to its bit in the key."""
    rank = {q: r for r, q in enumerate(sorted(q for q, _ in pairs))}
    keys = []
    for v in values:
        bits = 0
        for q, kbit in pairs:
            bits |= ((v >> rank[q]) & 1) << kbit
        keys.append(format(bits, f"0{width}b"))
    return keys


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
        draws = np.searchsorted(self._cdf, np.random.default_rng(seed).random(shots),
                                side="right")
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
