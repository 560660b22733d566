"""Dense bit-packed linear algebra over the two-element field.

Vectors are Python ints used as bit-vectors: bit i is the coefficient of
row i, and a matrix is a sequence of its columns.  Addition is XOR, which
CPython performs word-parallel in C, so elimination runs at machine-word
speed without any per-entry Python loop.

Elimination is by columns, pivot = lowest set bit of the (partially
reduced) column.  Pivoting is deterministic, so reduced forms and ranks
are reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import Iterable


def _low(bits: int) -> int:
    """Index of the lowest set bit (bits must be nonzero)."""
    return (bits & -bits).bit_length() - 1


class PivotTable:
    """Incremental column elimination with lowest-set-bit pivots.

    ``reduce`` eliminates for every explicit complex; only the top degree
    of a metric path has a loop of its own
    (``cohomology._reduce_top_degree``).
    Inserted columns are reduced against the stored ones; a nonzero
    residual is stored under its pivot.  ``columns`` maps each pivot to
    its stored column: the stored columns always have pairwise distinct
    lowest set bits and span the same space as everything inserted so
    far.  A table may start from a copy of such a mapping, e.g. another
    table's ``columns``.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: dict[int, int] | None = None):
        self.columns: dict[int, int] = dict(columns or {})

    def __len__(self) -> int:
        return len(self.columns)

    def reduce(self, bits: int) -> int:
        cols = self.columns
        while bits:
            col = cols.get((bits & -bits).bit_length() - 1)
            if col is None:
                break
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
