"""Exact linear algebra over F2 with bit-packed storage.

Vectors and matrix rows are packed into Python integers (bit ``i`` holds
element ``i``), so XOR is vector addition and ``(a & b).bit_count() & 1``
is an inner product. All types are immutable after construction.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DimensionError, FormatError, PartitionError

__all__ = [
    "BitVector",
    "BitMatrix",
    "matvec",
    "matmul",
    "partition_columns",
    "concat_columns",
    "append_column",
    "mismatch_rows",
    "freivalds",
    "default_block_width",
    "random_vector",
    "random_matrix",
    "parse_matrix",
    "format_matrix",
    "load_matrix",
]


@dataclass(frozen=True)
class BitVector:
    """Vector over F2; bit ``i`` of ``bits`` is element ``i``."""

    bits: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise DimensionError(f"vector length must be positive, got {self.length}")
        if self.bits < 0 or self.bits >> self.length:
            raise DimensionError("bits outside the declared length")

    @classmethod
    def from_bits(cls, elements: Iterable[int]) -> BitVector:
        elems = list(elements)
        if any(not isinstance(e, int) or isinstance(e, bool) or e not in (0, 1) for e in elems):
            raise DimensionError("vector elements must be the integers 0 or 1")
        bits = 0
        for i, e in enumerate(elems):
            bits |= e << i
        return cls(bits, len(elems))

    @classmethod
    def zeros(cls, length: int) -> BitVector:
        return cls(0, length)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __iter__(self) -> Iterator[int]:
        return (self[i] for i in range(self.length))

    def __xor__(self, other: BitVector) -> BitVector:
        if self.length != other.length:
            raise DimensionError(f"length mismatch: {self.length} vs {other.length}")
        return BitVector(self.bits ^ other.bits, self.length)

    def dot(self, other: BitVector) -> int:
        """Inner product mod 2."""
        if self.length != other.length:
            raise DimensionError(f"length mismatch: {self.length} vs {other.length}")
        return (self.bits & other.bits).bit_count() & 1

    def to_bits(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.length)]

    def __repr__(self) -> str:
        return f"BitVector({self.to_bits()})"


@dataclass(frozen=True)
class BitMatrix:
    """Row-major matrix over F2; each row is one packed integer."""

    rows: int
    cols: int
    row_words: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise DimensionError(f"matrix shape must be positive, got {self.rows}x{self.cols}")
        if len(self.row_words) != self.rows:
            raise DimensionError("row count does not match stored rows")
        if any(w < 0 or w >> self.cols for w in self.row_words):
            raise DimensionError("row bits outside the declared width")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> BitMatrix:
        if not rows:
            raise DimensionError("matrix needs at least one row")
        cols = len(rows[0])
        vecs = [BitVector.from_bits(r) for r in rows]
        if any(v.length != cols for v in vecs):
            raise DimensionError("ragged rows")
        return cls(len(rows), cols, tuple(v.bits for v in vecs))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> BitMatrix:
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(n, n, tuple(1 << i for i in range(n)))

    def row(self, j: int) -> BitVector:
        if not 0 <= j < self.rows:
            raise IndexError(j)
        return BitVector(self.row_words[j], self.cols)

    def entry(self, i: int, j: int) -> int:
        if not 0 <= i < self.rows:
            raise IndexError(i)
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return (self.row_words[i] >> j) & 1

    def to_rows(self) -> list[list[int]]:
        return [self.row(j).to_bits() for j in range(self.rows)]

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def matvec(a: BitMatrix, x: BitVector) -> BitVector:
    """Matrix-vector product mod 2."""
    if x.length != a.cols:
        raise DimensionError(f"matvec: {a.rows}x{a.cols} with length-{x.length} vector")
    bits = 0
    for j, word in enumerate(a.row_words):
        bits |= ((word & x.bits).bit_count() & 1) << j
    return BitVector(bits, a.rows)


def matmul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product mod 2 via row XOR accumulation."""
    if a.cols != b.rows:
        raise DimensionError(f"matmul: {a.rows}x{a.cols} with {b.rows}x{b.cols}")
    out = []
    for word in a.row_words:
        acc = 0
        k = 0
        while word:
            if word & 1:
                acc ^= b.row_words[k]
            word >>= 1
            k += 1
        out.append(acc)
    return BitMatrix(a.rows, b.cols, tuple(out))


def partition_columns(m: BitMatrix, width: int) -> list[BitMatrix]:
    """Split into column blocks of the given width, in column order."""
    if width < 1 or m.cols % width != 0:
        raise PartitionError(f"width {width} does not divide {m.cols} columns")
    mask = (1 << width) - 1
    blocks = []
    for i in range(m.cols // width):
        shift = i * width
        blocks.append(BitMatrix(m.rows, width, tuple((w >> shift) & mask for w in m.row_words)))
    return blocks


def concat_columns(blocks: Sequence[BitMatrix]) -> BitMatrix:
    """Inverse of partition_columns."""
    if not blocks:
        raise DimensionError("nothing to concatenate")
    rows = blocks[0].rows
    if any(b.rows != rows for b in blocks):
        raise DimensionError("row count mismatch across blocks")
    words = [0] * rows
    shift = 0
    for b in blocks:
        for j in range(rows):
            words[j] |= b.row_words[j] << shift
        shift += b.cols
    return BitMatrix(rows, shift, tuple(words))


def append_column(m: BitMatrix, v: BitVector) -> BitMatrix:
    """Augment with one extra column on the high side."""
    if v.length != m.rows:
        raise DimensionError(f"column of length {v.length} for {m.rows} rows")
    words = tuple(w | (((v.bits >> j) & 1) << m.cols) for j, w in enumerate(m.row_words))
    return BitMatrix(m.rows, m.cols + 1, words)


def mismatch_rows(a: BitMatrix, y: BitVector, z: BitVector) -> set[int]:
    """Rows where (A·y) and z disagree; the classical search oracle."""
    if y.length != a.cols or z.length != a.rows:
        raise DimensionError("mismatch_rows: shape mismatch")
    ay = matvec(a, y)
    diff = ay.bits ^ z.bits
    return {j for j in range(a.rows) if (diff >> j) & 1}


def freivalds(a: BitMatrix, b: BitMatrix, c: BitMatrix, repetitions: int, seed: int) -> bool:
    """Randomized check of A·B = C over F2.

    One-sided: always True on a real product; a wrong product survives all
    repetitions with probability at most 2**-repetitions.
    """
    n = a.rows
    for m in (a, b, c):
        if m.rows != n or m.cols != n:
            raise DimensionError("freivalds expects square matrices of equal size")
    if repetitions < 1:
        raise DimensionError("repetitions must be >= 1")
    rng = random.Random(seed)
    for _ in range(repetitions):
        x = BitVector(rng.getrandbits(n), n)
        if matvec(a, matvec(b, x)) != matvec(c, x):
            return False
    return True


def default_block_width(n: int) -> int:
    """Column-block width for the verification driver.

    sqrt(n) when n is an even power of two, otherwise the largest power of
    two not exceeding sqrt(n); always divides n.
    """
    if n < 1 or n & (n - 1):
        raise DimensionError(f"n must be a power of two, got {n}")
    return 1 << (n.bit_length() - 1) // 2


def random_vector(length: int, rng: random.Random, nonzero: bool = False) -> BitVector:
    if length < 1:
        raise DimensionError(f"vector length must be positive, got {length}")
    bits = rng.getrandbits(length)
    while nonzero and bits == 0:
        bits = rng.getrandbits(length)
    return BitVector(bits, length)


def random_matrix(rows: int, cols: int, rng: random.Random) -> BitMatrix:
    if rows < 1 or cols < 1:
        raise DimensionError(f"matrix shape must be positive, got {rows}x{cols}")
    return BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))


def parse_matrix(text: str) -> BitMatrix:
    """Parse either the plain text format or the JSON object form.

    Text format: first line "rows cols", then one line of space-separated
    0/1 digits per row. JSON: {"rows": n, "cols": m, "data": [[...], ...]}.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise FormatError(f"bad JSON matrix: {e}") from e
        return matrix_from_json(obj)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty matrix text")
    try:
        rows, cols = map(int, lines[0].split())
    except ValueError as e:
        raise FormatError(f"bad header line {lines[0]!r}") from e
    if len(lines) != rows + 1:
        raise FormatError(f"expected {rows} rows, found {len(lines) - 1}")
    data = []
    for ln in lines[1:]:
        entries = ln.split()
        if len(entries) != cols or any(e not in ("0", "1") for e in entries):
            raise FormatError(f"bad row {ln!r}")
        data.append([int(e) for e in entries])
    return BitMatrix.from_rows(data)


def matrix_from_json(obj: dict) -> BitMatrix:
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (TypeError, KeyError) as e:
        raise FormatError("JSON matrix needs rows, cols and data") from e
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise FormatError("JSON matrix data must be a list of rows, each a list")
    if len(data) != rows or any(len(r) != cols for r in data):
        raise FormatError("JSON matrix shape does not match data")
    return BitMatrix.from_rows(data)


def format_matrix(m: BitMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    lines.extend(" ".join(str(e) for e in row) for row in m.to_rows())
    return "\n".join(lines) + "\n"


def matrix_to_json(m: BitMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "data": m.to_rows()}


def load_matrix(path: str) -> BitMatrix:
    with open(path, "r", encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise FormatError(f"matrix file {path} is not UTF-8 text: {e}") from e
    return parse_matrix(text)
