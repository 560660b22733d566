"""Dense bit-packed linear algebra over the two-element field.

Vectors are Python ints used as bit-vectors: bit i is the coefficient of
row i, and a matrix is a sequence of its columns.  Addition is XOR, which
CPython performs word-parallel in C, so elimination runs at machine-word
speed without any per-entry Python loop.

Elimination is by columns, pivot = lowest set bit of the (partially
reduced) column.  Pivoting is deterministic, so reduced forms and ranks
are reproducible bit-for-bit.  A table may hold pivots whose columns are
not built: the cohomology reduction finds its pivots sparsely, and an
int as wide as its last row is built only for a pivot that an insertion
reaches.
"""

from __future__ import annotations

from typing import Callable, Iterable


def _low(bits: int) -> int:
    """Index of the lowest set bit (bits must be nonzero)."""
    return (bits & -bits).bit_length() - 1


def _unbuilt(pivot: int) -> None:
    return None


def pack(rows: Iterable[int]) -> int:
    """The bit-vector with exactly the given (distinct) rows set."""
    bits = 0
    # last row first: bits takes its final size at its first row
    for row in sorted(rows, reverse=True):
        bits |= 1 << row
    return bits


class PivotTable:
    """Incremental column elimination with lowest-set-bit pivots.

    Inserted columns are reduced against the stored ones; a nonzero
    residual is stored under its pivot.  ``columns`` maps each pivot to
    its stored column: the stored columns always have pairwise distinct
    lowest set bits and span the same space as everything inserted so
    far.  ``build(p)`` gives the column of a pivot p that is not in
    ``columns`` yet, or None when p is no such pivot; a reduction that
    reaches p stores it.  So a table whose pivots were found sparsely
    (the cohomology reduction's, which reduces every degree in one
    sparse loop) builds a dense column only where an insertion reaches
    its pivot.  A table may start from a copy of another's ``columns``
    and its ``build``.  ``len`` counts the stored columns.
    """

    __slots__ = ("columns", "build")

    def __init__(self, columns: dict[int, int] | None = None,
                 build: Callable[[int], int | None] = _unbuilt):
        self.columns: dict[int, int] = dict(columns or {})
        self.build = build

    def __len__(self) -> int:
        return len(self.columns)

    def reduce(self, bits: int) -> int:
        cols = self.columns
        while bits:
            low = (bits & -bits).bit_length() - 1
            col = cols.get(low)
            if col is None:
                col = self.build(low)
                if col is None:
                    break
                cols[low] = col
            bits ^= col
        return bits

    def insert(self, bits: int) -> int | None:
        """Reduce and store; return the new pivot, or None if dependent."""
        bits = self.reduce(bits)
        if bits == 0:
            return None
        p = _low(bits)
        self.columns[p] = bits
        return p

    def insert_augmented(self, bits: int, rows: int) -> tuple[int | None, int]:
        """Reduce a column that carries a companion at bit ``rows`` and up,
        and store it only if its row part stays nonzero.

        Returns the new pivot (None if the row part reduced to zero) and
        the reduced companion ``bits >> rows``.  Stored pivots must lie
        below ``rows``, so the companion never picks a pivot.
        """
        bits = self.reduce(bits)
        if bits & ((1 << rows) - 1):
            p = _low(bits)
            self.columns[p] = bits
            return p, bits >> rows
        return None, bits >> rows


def rank(columns: Iterable[int]) -> int:
    """Dimension of the span of the columns over F2."""
    table = PivotTable()
    for bits in columns:
        table.insert(bits)
    return len(table)
