from itertools import product

import numpy as np
import pytest

from steenrips import gf2
from steenrips.gf2 import from_bools, rank, rows, to_bools

from oracles import insert, nullspace, quotient_rank, reduce_bits


def dense(array) -> tuple[int, ...]:
    """Bit-packed columns of a dense 0/1 array (row i = bit i)."""
    a = np.asarray(array, dtype=np.uint8) & 1
    return tuple(sum(1 << int(i) for i in np.flatnonzero(a[:, j]))
                 for j in range(a.shape[1]))


def identity(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))


def in_span(columns, v: int) -> bool:
    table = {}
    for bits in columns:
        insert(table, bits)
    return reduce_bits(table, v)[0] == 0


@pytest.mark.parametrize("n", [0, 1, 7, 8, 13, 64, 100])
def test_bool_arrays_round_trip(n):
    random = sum(1 << int(i) for i in np.flatnonzero(np.random.default_rng(n).integers(0, 2, n)))
    for bits in (0, (1 << n) - 1, random):
        flags = to_bools(bits, n)
        assert flags.dtype == bool and flags.shape == (n,)
        assert flags.tolist() == [bool(bits >> i & 1) for i in range(n)]
        assert from_bools(flags) == bits


def test_rank_zero_matrix():
    assert rank((0, 0, 0)) == 0


def test_rank_identity():
    assert rank(identity(4)) == 4


def test_rank_triangle_boundary():
    # boundary of the full triangle: 3 vertices x 3 edges, two 1s per column
    m = dense([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert rank(m) == 2


def test_rank_transpose_property():
    rng = np.random.default_rng(7)
    for _ in range(60):
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 65))
        a = rng.integers(0, 2, size=(rows, cols))
        assert rank(dense(a)) == rank(dense(a.T))


def test_quotient_rank_examples():
    e = identity(2)
    assert quotient_rank(e, e) == 0
    assert quotient_rank(e, ()) == 2
    assert quotient_rank((0b011,), (0b010,)) == 1  # e1 + e2 modulo e2


def test_quotient_rank_additivity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rows = int(rng.integers(1, 30))
        s = dense(rng.integers(0, 2, size=(rows, int(rng.integers(0, 8)))))
        b = dense(rng.integers(0, 2, size=(rows, int(rng.integers(0, 8)))))
        assert quotient_rank(s, b) + rank(b) == rank(s + b)


def test_member_examples():
    assert in_span(identity(3), 0b101)
    assert in_span((), 0)
    assert not in_span((0b11,), 0b01)


def test_member_against_span_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(25):
        rows = int(rng.integers(1, 10))
        ncols = int(rng.integers(0, min(rows + 2, 12)))
        m = dense(rng.integers(0, 2, size=(rows, ncols)))
        span = set()
        for coeffs in product((0, 1), repeat=ncols):
            acc = 0
            for c, col in zip(coeffs, m):
                if c:
                    acc ^= col
            span.add(acc)
        for _ in range(10):
            v = int(rng.integers(0, 1 << rows))
            assert in_span(m, v) == (v in span)


def test_nullspace_is_kernel():
    rng = np.random.default_rng(9)
    for _ in range(40):
        rows = int(rng.integers(1, 20))
        cols = int(rng.integers(0, 20))
        m = dense(rng.integers(0, 2, size=(rows, cols)))
        null = nullspace(m)
        assert len(null) == cols - rank(m)
        for x in null:
            acc = 0
            for i in range(cols):
                if x >> i & 1:
                    acc ^= m[i]
            assert acc == 0
        # nullspace vectors are linearly independent
        assert rank(null) == len(null)


def test_operations_are_pure():
    m = dense([[1, 0], [1, 1]])
    assert rank(m) == rank(m)
    assert in_span(m, 0b10) == in_span(m, 0b10)
    assert m == (0b11, 0b10)


def test_reduce_column_companion_records_the_sum():
    """Columns inserted one after another, each with its unit companion:
    a stored column is [pivot, *rows left] with the companion, the rows
    left, sorted and without pairs, are the XOR of the columns the
    companion selects, the pivot is their least, and a column reduces to
    zero exactly where the oracle's does."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = dense(rng.integers(0, 2, size=(int(rng.integers(1, 40)), int(rng.integers(1, 30)))))
        table, oracle = {}, {}
        for j, bits in enumerate(m):
            tau, z = gf2.insert(table, rows(bits), 1 << j, table.get)
            assert insert(oracle, bits)[0] == tau
            want = 0
            for i in range(len(m)):
                if z >> i & 1:
                    want ^= m[i]
            if tau is None:
                assert want == 0
            else:
                (pivot, *heap), y = table[tau]
                assert (pivot, y) == (tau, z)
                assert heap == sorted(set(heap)) and all(row > tau for row in heap)
                assert want == sum(1 << row for row in [tau, *heap])
