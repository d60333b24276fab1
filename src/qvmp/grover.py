"""Circuit builders for verifying A·y = z by Grover search over row indices.

The search circuit uses registers address (log2 n), a (m), y (m) and z (1),
in that global order. One search oracle loads row j of the table [A | z]
into a and z with a read-only-memory lookup, adds the inner product a·y
into the z qubit, applies Z there, and uncomputes. A diffuser on the
address register completes one Grover iteration; measuring the address
register yields candidate row indices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .bitlinalg import BitMatrix, BitVector, append_column, mismatch_rows
from .circuit import Circuit, inverse
from .errors import ContractError, DimensionError
from .simulator import _evolve

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
    "build_grover_state",
    "build_grover_search",
    "build_grover_search_compact",
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


@dataclass(frozen=True)
class GroverPlan:
    """Iteration schedule for a search space of size n with M solutions."""

    n: int
    solution_count: int
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


def plan_iterations(n: int, solution_count: int, mode: str = "optimal",
                    explicit: int | None = None) -> GroverPlan:
    """Fill in the iteration schedule for the requested mode.

    optimal uses the known solution count (zero solutions plan zero
    iterations: the address marginal is uniform regardless). qvmp uses the
    count-independent quartic-root schedule. dual plans against the
    complement (searching for matching rows instead). explicit passes a
    user count through.
    """
    if n < 1 or n & (n - 1):
        raise DimensionError(f"search space must be a power of two, got {n}")
    if not 0 <= solution_count <= n:
        raise ContractError(f"solution count {solution_count} outside [0, {n}]")
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


def build_qrom(table: BitMatrix, address: str = "address", data: str = "data") -> Circuit:
    """Read-only table lookup: |r>|0..0> -> |r>|row_r>.

    One chunk per row: X gates select the address (flipping qubits where
    the row index has a 0 bit), a multi-controlled NOT per set bit of the
    row writes the data qubits, and the X gates are undone.
    """
    n, m = table.rows, table.cols
    if n < 2 or n & (n - 1):
        raise DimensionError(f"table rows must be a power of two >= 2, got {n}")
    k = n.bit_length() - 1
    c = Circuit(((address, k), (data, m)))
    addr = [c.qubit(address, i) for i in range(k)]
    dat = [c.qubit(data, i) for i in range(m)]
    for r in range(n):
        zero_bits = [i for i in range(k) if not (r >> i) & 1]
        for i in zero_bits:
            c.x(addr[i])
        word = table.row_words[r]
        col = 0
        while word:
            if word & 1:
                c.mcx(addr, dat[col])
            word >>= 1
            col += 1
        for i in zero_bits:
            c.x(addr[i])
    return c.freeze()


def build_inner_product(m: int) -> Circuit:
    """Out-of-place mod-2 inner product: |a>|b>|t> -> |a>|b>|t xor a·b>."""
    if m < 1:
        raise DimensionError("vector length must be >= 1")
    c = Circuit((("a", m), ("b", m), ("out", 1)))
    out = c.qubit("out", 0)
    for i in range(m):
        c.ccx(c.qubit("a", i), c.qubit("b", i), out)
    return c.freeze()


def build_diffuser(k: int) -> Circuit:
    """Reflection about the uniform superposition on k qubits, as H and X
    layers around a multi-controlled Z realized with H on the last qubit."""
    if k < 1:
        raise DimensionError("diffuser needs at least one qubit")
    c = Circuit((("q", k),))
    qs = [c.qubit("q", i) for i in range(k)]
    for q in qs:
        c.h(q)
    for q in qs:
        c.x(q)
    c.h(qs[-1])
    c.mcx(qs[:-1], qs[-1])
    c.h(qs[-1])
    for q in qs:
        c.x(q)
    for q in qs:
        c.h(q)
    return c.freeze()


def _oracle_registers(inst: QvmpInstance, classical_bits: int = 0) -> Circuit:
    k, m = inst.address_bits, inst.m
    return Circuit((("address", k), ("a", m), ("y", m), ("z", 1)), classical_bits)


def build_oracle(inst: QvmpInstance, dual: bool = False) -> Circuit:
    """Phase oracle for the row-mismatch predicate.

    With y loaded and the a/z ancillas at |0>, maps each address basis
    state |j> to -|j> exactly when (A·y)_j differs from z_j, restoring the
    ancillas. The lookup loads [A | z] so the z qubit doubles as the
    inner-product target; a lone Z there converts marking into phase.
    ``dual`` conjugates that Z with X to flip matching rows instead.
    """
    c = _oracle_registers(inst)
    k, m = inst.address_bits, inst.m
    addr = c.qubits("address")
    areg = c.qubits("a")
    yreg = c.qubits("y")
    z = c.qubit("z", 0)

    db = build_qrom(append_column(inst.matrix, inst.z))
    dot = build_inner_product(m)
    db_map = addr + areg + [z]
    dot_map = areg + yreg + [z]

    c.extend(db, db_map)
    c.extend(dot, dot_map)
    if dual:
        c.x(z)
        c.z(z)
        c.x(z)
    else:
        c.z(z)
    c.extend(inverse(dot), dot_map)
    c.extend(inverse(db), db_map)
    return c.freeze()


def build_grover_state(inst: QvmpInstance, iterations: int, dual: bool = False) -> Circuit:
    """Search circuit without the terminal measurement: uniform address
    superposition, y loaded by X gates, then (oracle, diffuser) repeated."""
    return _prepare_search(_oracle_registers(inst), inst, iterations, dual).freeze()


def _prepare_search(c: Circuit, inst: QvmpInstance, iterations: int, dual: bool) -> Circuit:
    """Write ``build_grover_state``'s gates into ``c`` in place."""
    if iterations < 0:
        raise ContractError("iterations must be >= 0")
    for q in c.qubits("address"):
        c.h(q)
    for i in range(inst.m):
        if inst.y[i]:
            c.x(c.qubit("y", i))
    if iterations:
        step = _grover_iteration(inst, dual)
        for _ in range(iterations):
            c.extend(step)
    return c


def _grover_iteration(inst: QvmpInstance, dual: bool) -> Circuit:
    """One (oracle, diffuser) pair on the search registers."""
    c = _oracle_registers(inst)
    c.extend(build_oracle(inst, dual=dual))
    c.extend(build_diffuser(inst.address_bits), c.qubits("address"))
    return c.freeze()


def build_grover_search(inst: QvmpInstance, iterations: int, dual: bool = False) -> Circuit:
    """Full search circuit: state preparation, iterations, then measurement
    of address qubit i into classical bit i."""
    c = _prepare_search(_oracle_registers(inst, inst.address_bits), inst, iterations, dual)
    for i, q in enumerate(c.qubits("address")):
        c.measure(q, i)
    return c.freeze()


def build_grover_search_compact(inst: QvmpInstance, iterations: int,
                                dual: bool = False, measure: bool = True) -> Circuit:
    """Search circuit with the classical y register folded away.

    y never leaves its loaded basis state, so each inner-product gate
    controlled on a set y bit reduces to cx and the rest drop out. The
    state map on address, a and z is identical to the full circuit's;
    the qubit count drops from log2(n)+2m+1 to log2(n)+m+1, which is what
    lets the verification driver simulate m = n instances.
    """
    if iterations < 0:
        raise ContractError("iterations must be >= 0")
    k, m = inst.address_bits, inst.m
    if iterations == 0:
        # Nothing touches the lookup registers; keep only the address.
        c = Circuit((("address", k),), k if measure else 0)
        for q in c.qubits("address"):
            c.h(q)
        if measure:
            for i, q in enumerate(c.qubits("address")):
                c.measure(q, i)
        return c.freeze()
    c = Circuit((("address", k), ("a", m), ("z", 1)), k if measure else 0)
    addr = c.qubits("address")
    areg = c.qubits("a")
    z = c.qubit("z", 0)
    for q in addr:
        c.h(q)

    db = build_qrom(append_column(inst.matrix, inst.z))
    db_map = addr + areg + [z]
    set_bits = [i for i in range(m) if inst.y[i]]

    def dot_folded() -> None:
        for i in set_bits:
            c.cx(areg[i], z)

    undo_db = inverse(db)
    diffuser = build_diffuser(k)
    for _ in range(iterations):
        c.extend(db, db_map)
        dot_folded()
        if dual:
            c.x(z)
            c.z(z)
            c.x(z)
        else:
            c.z(z)
        for i in reversed(set_bits):
            c.cx(areg[i], z)
        c.extend(undo_db, db_map)
        c.extend(diffuser, addr)
    if measure:
        for i, q in enumerate(addr):
            c.measure(q, i)
    return c.freeze()


def scan_success_probability(inst: QvmpInstance, max_iters: int,
                             dual: bool = False) -> list[tuple[int, float]]:
    """Exact probability mass on the solution addresses after k iterations,
    for k = 0..max_iters. In dual mode the tracked set is the matching rows.
    The state is carried across k, so the scan evolves max_iters
    iterations in all."""
    if max_iters < 1:
        raise ContractError("max_iters must be >= 1")
    tracked = set(inst.solutions)
    if dual:
        tracked = set(range(inst.n)) - tracked
    # Address qubit i is global qubit i, so marginal index j is address j.
    address = list(range(inst.address_bits))
    step = _grover_iteration(inst, dual)
    state = _evolve(build_grover_state(inst, 0, dual=dual))
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
