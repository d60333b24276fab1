import json
import random

import pytest

from qvmp.bitlinalg import (
    BitMatrix,
    BitVector,
    append_column,
    concat_columns,
    default_block_width,
    format_matrix,
    freivalds,
    matmul,
    matrix_to_json,
    matrix_from_json,
    matvec,
    mismatch_rows,
    parse_matrix,
    partition_columns,
    random_matrix,
    random_vector,
)
from qvmp.errors import DimensionError, FormatError, PartitionError

# 4x4 example matrix used throughout the builder tests as well.
EXAMPLE_ROWS = [
    [0, 1, 0, 1],
    [1, 1, 1, 0],
    [1, 0, 0, 1],
    [1, 0, 1, 0],
]


def brute_matvec(rows, x):
    return [sum(r[k] * x[k] for k in range(len(x))) % 2 for r in rows]


def brute_matmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(m)) % 2 for j in range(p)] for i in range(n)]


class TestBitVector:
    def test_round_trip_and_indexing(self):
        v = BitVector.from_bits([1, 0, 1, 1])
        assert v.to_bits() == [1, 0, 1, 1]
        assert v[0] == 1 and v[1] == 0
        assert len(v) == 4
        assert list(v) == [1, 0, 1, 1]

    def test_xor_and_dot(self):
        a = BitVector.from_bits([1, 1, 0])
        b = BitVector.from_bits([1, 0, 1])
        assert (a ^ b).to_bits() == [0, 1, 1]
        assert a.dot(b) == 1
        assert a.dot(a) == 0  # weight 2

    def test_validation(self):
        with pytest.raises(DimensionError):
            BitVector(0, 0)
        with pytest.raises(DimensionError):
            BitVector(8, 3)
        with pytest.raises(DimensionError):
            BitVector.from_bits([0, 2])
        with pytest.raises(DimensionError):
            BitVector.from_bits([1, 1]) ^ BitVector.from_bits([1])

    @pytest.mark.parametrize("elements", [[1.0], [0, 0.0], [1, 1.0, 0], [True], [0, False, 1]])
    def test_rejects_non_integer_elements(self, elements):
        with pytest.raises(DimensionError):
            BitVector.from_bits(elements)
        with pytest.raises(DimensionError):
            parse_matrix(json.dumps({"rows": 1, "cols": len(elements), "data": [elements]}))


class TestBitMatrix:
    def test_row_extraction(self):
        m = BitMatrix.from_rows(EXAMPLE_ROWS)
        assert m.rows == 4 and m.cols == 4
        assert m.row(2).to_bits() == [1, 0, 0, 1]
        assert m.entry(1, 2) == 1
        assert m.to_rows() == EXAMPLE_ROWS

    @pytest.mark.parametrize("i,j", [(-1, 3), (4, 0), (0, -1), (0, 4)])
    def test_entry_out_of_range(self, i, j):
        with pytest.raises(IndexError):
            BitMatrix.identity(4).entry(i, j)

    def test_validation(self):
        with pytest.raises(DimensionError):
            BitMatrix.from_rows([[0, 1], [1]])
        with pytest.raises(DimensionError):
            BitMatrix.from_rows([])
        with pytest.raises(DimensionError):
            BitMatrix(2, 2, (0, 4))

    @pytest.mark.parametrize("draw", [lambda rng: random_vector(0, rng),
                                      lambda rng: random_vector(-1, rng, nonzero=True),
                                      lambda rng: random_matrix(4, -1, rng),
                                      lambda rng: random_matrix(0, 4, rng),
                                      lambda rng: random_matrix(4, 0, rng)])
    def test_random_sizes_below_one_raise_before_drawing(self, draw):
        rng = random.Random(0)
        before = rng.getstate()
        with pytest.raises(DimensionError):
            draw(rng)
        assert rng.getstate() == before


class TestMatvec:
    def test_example_matrix(self):
        a = BitMatrix.from_rows(EXAMPLE_ROWS)
        x = BitVector.from_bits([1, 1, 0, 0])
        expected = brute_matvec(EXAMPLE_ROWS, [1, 1, 0, 0])
        assert expected == [1, 0, 1, 1]
        assert matvec(a, x).to_bits() == expected

    def test_identity(self):
        rng = random.Random(0)
        for _ in range(10):
            x = random_vector(6, rng)
            assert matvec(BitMatrix.identity(6), x) == x

    def test_zero_matrix(self):
        a = BitMatrix.zeros(4, 4)
        x = BitVector.from_bits([1, 1, 1, 1])
        assert matvec(a, x).to_bits() == [0, 0, 0, 0]

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            matvec(BitMatrix.identity(4), BitVector.from_bits([1, 0]))

    def test_linearity(self):
        rng = random.Random(1)
        for _ in range(50):
            a = random_matrix(5, 7, rng)
            x1 = random_vector(7, rng)
            x2 = random_vector(7, rng)
            assert matvec(a, x1 ^ x2) == matvec(a, x1) ^ matvec(a, x2)


class TestMatmul:
    def test_identity(self):
        rng = random.Random(2)
        b = random_matrix(5, 5, rng)
        assert matmul(BitMatrix.identity(5), b) == b

    def test_zeros(self):
        rng = random.Random(3)
        a = random_matrix(4, 4, rng)
        assert matmul(a, BitMatrix.zeros(4, 4)) == BitMatrix.zeros(4, 4)

    def test_example_matrix_squared(self):
        a = BitMatrix.from_rows(EXAMPLE_ROWS)
        expected = brute_matmul(EXAMPLE_ROWS, EXAMPLE_ROWS)
        assert matmul(a, a).to_rows() == expected

    def test_random_against_brute_force(self):
        rng = random.Random(4)
        for _ in range(20):
            a = random_matrix(4, 6, rng)
            b = random_matrix(6, 3, rng)
            assert matmul(a, b).to_rows() == brute_matmul(a.to_rows(), b.to_rows())

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            matmul(BitMatrix.identity(3), BitMatrix.identity(4))


class TestPartition:
    def test_round_trip_4x4(self):
        rng = random.Random(5)
        m = random_matrix(4, 4, rng)
        blocks = partition_columns(m, 2)
        assert len(blocks) == 2
        assert all(b.rows == 4 and b.cols == 2 for b in blocks)
        assert concat_columns(blocks) == m

    def test_full_width(self):
        rng = random.Random(6)
        m = random_matrix(4, 4, rng)
        assert partition_columns(m, 4) == [m]

    def test_16x16_gives_four_blocks(self):
        rng = random.Random(7)
        m = random_matrix(16, 16, rng)
        blocks = partition_columns(m, 4)
        assert len(blocks) == 4
        assert all(b.rows == 16 and b.cols == 4 for b in blocks)
        assert concat_columns(blocks) == m

    def test_bad_width(self):
        with pytest.raises(PartitionError):
            partition_columns(BitMatrix.identity(4), 3)

    def test_block_columns_in_order(self):
        m = BitMatrix.from_rows([[0, 1, 0, 1], [1, 0, 1, 0]])
        blocks = partition_columns(m, 2)
        assert blocks[0].to_rows() == [[0, 1], [1, 0]]
        assert blocks[1].to_rows() == [[0, 1], [1, 0]]

    def test_block_decomposition_iff(self):
        # A·B = C exactly when every column block verifies.
        rng = random.Random(8)
        for _ in range(10):
            a = random_matrix(8, 8, rng)
            b = random_matrix(8, 8, rng)
            c = matmul(a, b)
            b_blocks = partition_columns(b, 2)
            c_blocks = partition_columns(c, 2)
            assert all(
                matmul(a, bi) == ci for bi, ci in zip(b_blocks, c_blocks)
            )
            # flip one entry: exactly one block stops verifying
            r, col = rng.randrange(8), rng.randrange(8)
            words = list(c.row_words)
            words[r] ^= 1 << col
            bad = BitMatrix(8, 8, tuple(words))
            bad_blocks = partition_columns(bad, 2)
            ok = [matmul(a, bi) == ci for bi, ci in zip(b_blocks, bad_blocks)]
            assert ok.count(False) == 1
            assert not ok[col // 2]

    def test_append_column(self):
        m = BitMatrix.from_rows([[1, 0], [0, 1]])
        v = BitVector.from_bits([1, 1])
        assert append_column(m, v).to_rows() == [[1, 0, 1], [0, 1, 1]]


class TestMismatchRows:
    def test_consistent_is_empty(self):
        rng = random.Random(9)
        for _ in range(20):
            a = random_matrix(8, 5, rng)
            y = random_vector(5, rng)
            assert mismatch_rows(a, y, matvec(a, y)) == set()

    def test_single_flip(self):
        rng = random.Random(10)
        a = random_matrix(8, 5, rng)
        y = random_vector(5, rng)
        z = matvec(a, y)
        for j in range(8):
            flipped = BitVector(z.bits ^ (1 << j), 8)
            assert mismatch_rows(a, y, flipped) == {j}

    def test_constructed_2_5_7(self):
        rng = random.Random(11)
        a = random_matrix(8, 8, rng)
        y = random_vector(8, rng)
        z = matvec(a, y)
        bits = z.bits
        for j in (2, 5, 7):
            bits ^= 1 << j
        assert mismatch_rows(a, y, BitVector(bits, 8)) == {2, 5, 7}

    def test_dimension_error(self):
        a = BitMatrix.identity(4)
        with pytest.raises(DimensionError):
            mismatch_rows(a, BitVector.from_bits([1]), BitVector.from_bits([1, 0, 0, 0]))


class TestFreivalds:
    def test_true_product(self):
        rng = random.Random(12)
        a = random_matrix(8, 8, rng)
        b = random_matrix(8, 8, rng)
        c = matmul(a, b)
        assert all(freivalds(a, b, c, 10, seed) for seed in range(50))

    def test_zeros(self):
        z = BitMatrix.zeros(4, 4)
        assert freivalds(z, z, z, 5, 0)

    def test_flipped_entry_detected(self):
        rng = random.Random(13)
        a = random_matrix(8, 8, rng)
        b = random_matrix(8, 8, rng)
        c = matmul(a, b)
        words = list(c.row_words)
        words[3] ^= 1 << 6
        bad = BitMatrix(8, 8, tuple(words))
        misses = sum(freivalds(a, b, bad, 20, seed) for seed in range(100))
        # each run misses with probability 2**-20
        assert misses == 0

    def test_one_sided(self):
        # never rejects a true product, regardless of repetitions or seed
        rng = random.Random(14)
        for trial in range(20):
            n = rng.choice([2, 4, 8])
            a = random_matrix(n, n, rng)
            b = random_matrix(n, n, rng)
            assert freivalds(a, b, matmul(a, b), 1 + trial % 5, trial)

    def test_errors(self):
        sq = BitMatrix.identity(4)
        with pytest.raises(DimensionError):
            freivalds(sq, sq, BitMatrix.identity(3), 5, 0)
        with pytest.raises(DimensionError):
            freivalds(sq, sq, sq, 0, 0)


class TestBlockWidth:
    @pytest.mark.parametrize("n,width", [(4, 2), (8, 2), (16, 4), (32, 4), (64, 8)])
    def test_values(self, n, width):
        assert default_block_width(n) == width
        assert n % width == 0

    def test_rejects_non_power(self):
        with pytest.raises(DimensionError):
            default_block_width(12)


class TestFormats:
    def test_text_round_trip(self):
        m = BitMatrix.from_rows(EXAMPLE_ROWS)
        assert parse_matrix(format_matrix(m)) == m

    def test_text_format_exact(self):
        m = BitMatrix.from_rows([[1, 0], [0, 1]])
        assert format_matrix(m) == "2 2\n1 0\n0 1\n"

    def test_json_round_trip(self):
        m = BitMatrix.from_rows(EXAMPLE_ROWS)
        assert matrix_from_json(matrix_to_json(m)) == m

    def test_json_sniffing(self):
        m = BitMatrix.from_rows([[1, 0], [1, 1]])
        import json

        assert parse_matrix(json.dumps(matrix_to_json(m))) == m

    @pytest.mark.parametrize(
        "text",
        ["", "2 2\n1 0\n", "2 2\n1 0\n0 x\n", "nope\n1\n", '{"rows": 2}',
         '{"rows": 4, "cols": 4, "data": 5}', '{"rows": 2, "cols": 2, "data": [[0, 1], 5]}'],
    )
    def test_bad_inputs(self, text):
        with pytest.raises(FormatError):
            parse_matrix(text)
