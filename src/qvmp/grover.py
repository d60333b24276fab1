"""Circuit builders for verifying A·y = z by Grover search over row indices.

The search circuit uses registers address (log2 n), a (m), y (m) and z (1),
in that global order. One search oracle loads row j of the table [A | z]
into a and z with a read-only-memory lookup, adds the inner product a·y
into the z qubit, applies Z there, and uncomputes. A diffuser on the
address register, one diffuse gate, completes one Grover iteration;
measuring the address register yields candidate row indices. That is
log2(n) + 2m + 1 qubits.

The compact form (``fold_y``) is the same circuit partially evaluated on
the classical y: each inner-product gate on a set y bit becomes a cx and
the rest drop out, so the y register goes and log2(n) + m + 1 qubits
remain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

from .bitlinalg import BitMatrix, BitVector, append_column, mismatch_rows
from .circuit import CCX, CX, DIFFUSE, H, LOOKUP, X, Z, Circuit, Gate
from .errors import ContractError, DimensionError

__all__ = [
    "QvmpInstance",
    "GroverPlan",
    "plan_iterations",
    "optimal_iterations",
    "qvmp_iterations",
    "build_qrom",
    "build_inner_product",
    "build_diffuser",
    "build_oracle",
    "build_grover_search",
    "scan_success_probability",
    "search_qubit_count",
]


@dataclass(frozen=True)
class QvmpInstance:
    """One verification instance: does row j of A satisfy (A·y)_j = z_j?"""

    matrix: BitMatrix
    y: BitVector
    z: BitVector

    def __post_init__(self) -> None:
        n = self.matrix.rows
        if n < 2 or n & (n - 1):
            raise DimensionError(f"row count must be a power of two >= 2, got {n}")
        if self.y.length != self.matrix.cols:
            raise DimensionError("y length must match the column count")
        if self.z.length != n:
            raise DimensionError("z length must match the row count")

    @property
    def n(self) -> int:
        return self.matrix.rows

    @property
    def m(self) -> int:
        return self.matrix.cols

    @property
    def address_bits(self) -> int:
        return self.n.bit_length() - 1

    @cached_property
    def solutions(self) -> frozenset[int]:
        """Mismatching row indices, recomputed from the inputs."""
        return frozenset(mismatch_rows(self.matrix, self.y, self.z))


# the iteration modes that plan from the solution count, the ground truth
_COUNTED_MODES = ("optimal", "dual")


@dataclass(frozen=True)
class GroverPlan:
    """Iteration schedule for a search space of size n with M solutions;
    M is None for a plan made without it."""

    n: int
    solution_count: int | None
    n_optimal: int | None
    n_qvmp: int
    iterations: int
    mode: str
    dual_recommended: bool


def optimal_iterations(n: int, solution_count: int) -> int | None:
    """floor((pi/4)·sqrt(n/M)); undefined when there are no solutions."""
    if solution_count == 0:
        return None
    return math.floor((math.pi / 4.0) * math.sqrt(n / solution_count))


def qvmp_iterations(n: int) -> int:
    """ceil(n**(1/4)), computed exactly on integers."""
    k = max(1, round(n ** 0.25))
    while k ** 4 < n:
        k += 1
    while k > 1 and (k - 1) ** 4 >= n:
        k -= 1
    return k


def plan_iterations(n: int, solution_count: int | None, mode: str = "optimal",
                    explicit: int | None = None) -> GroverPlan:
    """Fill in the iteration schedule for the requested mode.

    optimal uses the known solution count (zero solutions plan zero
    iterations: the address marginal is uniform regardless). qvmp uses the
    count-independent quartic-root schedule. dual plans against the
    complement (searching for matching rows instead). explicit passes a
    user count through. qvmp and explicit also plan without the count
    (``solution_count`` None), which leaves ``n_optimal`` None and
    ``dual_recommended`` False; optimal and dual need it.
    """
    if n < 1 or n & (n - 1):
        raise DimensionError(f"search space must be a power of two, got {n}")
    if solution_count is None:
        if mode in _COUNTED_MODES:
            raise ContractError(f"{mode} mode needs the solution count")
        n_opt = None
    elif not 0 <= solution_count <= n:
        raise ContractError(f"solution count {solution_count} outside [0, {n}]")
    else:
        n_opt = optimal_iterations(n, solution_count)
    n_qvmp = qvmp_iterations(n)
    dual_recommended = n_opt == 0
    if mode == "optimal":
        iterations = n_opt if n_opt is not None else 0
    elif mode == "qvmp":
        iterations = n_qvmp
    elif mode == "explicit":
        if explicit is None or explicit < 0:
            raise ContractError("explicit mode needs a nonnegative iteration count")
        iterations = explicit
    elif mode == "dual":
        dual_opt = optimal_iterations(n, n - solution_count)
        iterations = dual_opt if dual_opt is not None else 0
    else:
        raise ContractError(f"unknown iteration mode {mode!r}")
    return GroverPlan(n, solution_count, n_opt, n_qvmp, iterations, mode, dual_recommended)


def _appended(c: Circuit, gates: list[Gate]) -> Circuit:
    """``c`` with ``gates`` appended in order, frozen."""
    append = c.append
    for g in gates:
        append(g)
    return c.freeze()


def _inner_product_gates(a: Sequence[int], b: Sequence[int], out: int) -> list[Gate]:
    """out ^= a·b mod 2: one ccx per column."""
    return [Gate(CCX, (ai, bi), (out,)) for ai, bi in zip(a, b)]


def build_qrom(table: BitMatrix) -> Circuit:
    """Read-only table lookup on registers address (log2 n) and data (m):
    |r>|0..0> -> |r>|row_r>, as one lookup gate."""
    n = table.rows
    if n < 2 or n & (n - 1):
        raise DimensionError(f"table rows must be a power of two >= 2, got {n}")
    c = Circuit((("address", n.bit_length() - 1), ("data", table.cols)))
    c.lookup(c._range("address"), c._range("data"), table.row_words)
    return c.freeze()


def build_inner_product(m: int) -> Circuit:
    """Out-of-place mod-2 inner product: |a>|b>|t> -> |a>|b>|t xor a·b>."""
    if m < 1:
        raise DimensionError("vector length must be >= 1")
    c = Circuit((("a", m), ("b", m), ("out", 1)))
    out = c._range("out")[0]
    return _appended(c, _inner_product_gates(c._range("a"), c._range("b"), out))


def build_diffuser(k: int) -> Circuit:
    """Reflection about the uniform superposition on a k-qubit register q,
    as one diffuse gate; ``lower`` writes it as H and X layers around a
    multi-controlled Z."""
    if k < 1:
        raise DimensionError("diffuser needs at least one qubit")
    c = Circuit((("q", k),))
    c.diffuse(c._range("q"))
    return c.freeze()


def _search_registers(inst: QvmpInstance, fold_y: bool, classical_bits: int = 0) -> Circuit:
    k, m = inst.address_bits, inst.m
    y = () if fold_y else (("y", m),)
    return Circuit((("address", k), ("a", m)) + y + (("z", 1),), classical_bits)


def _oracle_gates(c: Circuit, inst: QvmpInstance, dual: bool, fold_y: bool) -> list[Gate]:
    """The oracle's gates on the search registers of ``c``."""
    a = c._range("a")
    z = c._range("z")[0]
    table = append_column(inst.matrix, inst.z).row_words
    lookup = Gate(LOOKUP, tuple(c._range("address")), (*a, z), table=table)
    if fold_y:
        dot = [Gate(CX, (a[i],), (z,)) for i in range(inst.m) if inst.y[i]]
    else:
        dot = _inner_product_gates(a, c._range("y"), z)
    flip = [Gate(X, (), (z,))] if dual else []
    phase = flip + [Gate(Z, (), (z,))] + flip
    return [lookup] + dot + phase + dot[::-1] + [replace(lookup, reverse=True)]


def build_oracle(inst: QvmpInstance, dual: bool = False, fold_y: bool = False) -> Circuit:
    """Phase oracle for the row-mismatch predicate.

    With y loaded and the a/z ancillas at |0>, maps each address basis
    state |j> to -|j> exactly when (A·y)_j differs from z_j, restoring the
    ancillas. The lookup loads [A | z] so the z qubit doubles as the
    inner-product target; a lone Z there converts marking into phase, and
    the inner product and the lookup are undone in reverse gate order.
    ``dual`` conjugates that Z with X to flip matching rows instead.
    ``fold_y`` drops the y register: y never leaves its loaded basis
    state, so the inner product is one cx per set bit of y.
    """
    c = _search_registers(inst, fold_y)
    return _appended(c, _oracle_gates(c, inst, dual, fold_y))


def _grover_iteration(inst: QvmpInstance, dual: bool, fold_y: bool) -> Circuit:
    """One (oracle, diffuser) pair on the search registers."""
    c = _search_registers(inst, fold_y)
    diffuser = Gate(DIFFUSE, (), tuple(c._range("address")))
    return _appended(c, _oracle_gates(c, inst, dual, fold_y) + [diffuser])


def build_grover_search(inst: QvmpInstance, iterations: int, dual: bool = False, *,
                        fold_y: bool = False, measure: bool = True) -> Circuit:
    """Search circuit: uniform address superposition, y loaded by X gates,
    (oracle, diffuser) as one block of ``iterations`` passes, then, with
    ``measure``, address qubit i measured into classical bit i. Each
    diffuser is one diffuse gate on the address register.

    ``fold_y`` builds the compact form that the verification driver
    simulates: the classical y register is folded into the oracle (see
    ``build_oracle``), which leaves the state map on address, a and z
    unchanged and drops the qubit count to log2(n)+m+1. With no iterations
    nothing touches the lookup registers, so only the address is declared.
    """
    if iterations < 0:
        raise ContractError("iterations must be >= 0")
    k = inst.address_bits
    bits = k if measure else 0
    if fold_y and not iterations:
        c = Circuit((("address", k),), bits)
    else:
        c = _search_registers(inst, fold_y, bits)
    addr = c._range("address")
    for q in addr:
        c.h(q)
    if not fold_y:
        y = c._range("y")
        for i in range(inst.m):
            if inst.y[i]:
                c.x(y[i])
    if iterations:
        c.repeat(_grover_iteration(inst, dual, fold_y), iterations)
    if measure:
        for i, q in enumerate(addr):
            c.measure(q, i)
    return c.freeze()


def scan_success_probability(inst: QvmpInstance, max_iters: int,
                             dual: bool = False) -> list[tuple[int, float]]:
    """Exact probability mass on the solution addresses after k iterations,
    for k = 0..max_iters. In dual mode the tracked set is the matching rows.
    The state is carried across k, so the scan evolves max_iters
    iterations in all, on the compact registers (``fold_y``) that
    ``qvmp_verify`` simulates. This is the one function of this module
    that simulates, so the engine (and NumPy) loads at its first call."""
    from .simulator import _evolve

    if max_iters < 1:
        raise ContractError("max_iters must be >= 1")
    tracked = set(inst.solutions)
    if dual:
        tracked = set(range(inst.n)) - tracked
    # Address qubit i is global qubit i, so marginal index j is address j.
    address = list(range(inst.address_bits))
    step = _grover_iteration(inst, dual, True)
    state = _evolve(_appended(_search_registers(inst, True),
                              [Gate(H, (), (q,)) for q in address]))
    out = []
    for k in range(max_iters + 1):
        if k:
            state = _evolve(step, state)
        marginal = state.marginal(address)
        out.append((k, float(sum(marginal[j] for j in tracked))))
    return out


def search_qubit_count(n: int, m: int) -> int:
    """log2(n) + 2m + 1: address plus two vector registers plus the target."""
    return (n.bit_length() - 1) + 2 * m + 1
