from itertools import product

import numpy as np
import pytest

from steenrips.errors import DimensionMismatchError
from steenrips.gf2 import F2Matrix, F2Vector, member, nullspace, quotient_rank, rank


def dense(array) -> F2Matrix:
    """Bit-packed columns of a dense 0/1 array (row i = bit i)."""
    a = np.asarray(array, dtype=np.uint8) & 1
    return F2Matrix(a.shape[0], tuple(
        sum(1 << int(i) for i in np.flatnonzero(a[:, j])) for j in range(a.shape[1])))


def identity(n: int) -> F2Matrix:
    return F2Matrix(n, tuple(1 << i for i in range(n)))


def test_rank_zero_matrix():
    assert rank(F2Matrix(3, (0, 0, 0))) == 0


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
    assert quotient_rank(e, F2Matrix(2)) == 2
    s = F2Matrix.from_columns(3, [0b011])  # e1 + e2
    b = F2Matrix.from_columns(3, [0b010])  # e2
    assert quotient_rank(s, b) == 1


def test_quotient_rank_additivity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rows = int(rng.integers(1, 30))
        s = dense(rng.integers(0, 2, size=(rows, int(rng.integers(0, 8)))))
        b = dense(rng.integers(0, 2, size=(rows, int(rng.integers(0, 8)))))
        assert quotient_rank(s, b) + rank(b) == rank(F2Matrix(rows, s.columns + b.columns))


def test_quotient_rank_row_mismatch():
    with pytest.raises(DimensionMismatchError):
        quotient_rank(identity(2), identity(3))


def test_member_examples():
    basis = identity(3)
    assert member(basis, F2Vector(3, 0b101))
    assert member(F2Matrix(4), F2Vector(4, 0))
    basis = F2Matrix.from_columns(2, [0b11])
    assert not member(basis, F2Vector(2, 0b01))


def test_member_against_span_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(25):
        rows = int(rng.integers(1, 10))
        ncols = int(rng.integers(0, min(rows + 2, 12)))
        m = dense(rng.integers(0, 2, size=(rows, ncols)))
        span = set()
        for coeffs in product((0, 1), repeat=ncols):
            acc = 0
            for c, col in zip(coeffs, m.columns):
                if c:
                    acc ^= col
            span.add(acc)
        for _ in range(10):
            v = int(rng.integers(0, 1 << rows))
            assert member(m, F2Vector(rows, v)) == (v in span)


def test_member_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        member(identity(3), F2Vector(2, 0b01))


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
            for i in x.support():
                acc ^= m.columns[i]
            assert acc == 0
        # nullspace vectors are linearly independent
        assert rank(F2Matrix.from_columns(cols, null)) == len(null)


def test_operations_are_pure():
    m = dense([[1, 0], [1, 1]])
    v = F2Vector(2, 0b10)
    assert rank(m) == rank(m)
    assert member(m, v) == member(m, v)
    assert m.columns == (0b11, 0b10)


def test_vector_xor_and_support():
    v = F2Vector.from_support(5, [0, 3]) ^ F2Vector.from_support(5, [3, 4])
    assert v.support() == (0, 4)
    assert v[0] == 1 and v[1] == 0
    assert len(v) == 5
