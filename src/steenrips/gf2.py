"""Dense bit-packed linear algebra over the two-element field.

Vectors and matrix columns are Python ints used as bit-vectors: bit i of
``bits`` is the coefficient of basis row i.  Addition is XOR, which CPython
performs word-parallel in C, so elimination runs at machine-word speed
without any per-entry Python loop.

Elimination is by columns, pivot = lowest set bit of the (partially
reduced) column.  Pivoting is deterministic, so reduced forms and ranks
are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DimensionMismatchError


def _low(bits: int) -> int:
    """Index of the lowest set bit (bits must be nonzero)."""
    return (bits & -bits).bit_length() - 1


@dataclass(frozen=True)
class F2Vector:
    """Immutable F2 vector of fixed length ``n``."""

    n: int
    bits: int = 0

    def __post_init__(self):
        if self.n < 0 or self.bits < 0 or self.bits >> self.n:
            raise DimensionMismatchError(
                f"bit pattern does not fit in {self.n} coordinates"
            )

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> "F2Vector":
        bits = 0
        for i in support:
            bits ^= 1 << i
        return cls(n, bits)

    def __xor__(self, other: "F2Vector") -> "F2Vector":
        if self.n != other.n:
            raise DimensionMismatchError("vector lengths differ")
        return F2Vector(self.n, self.bits ^ other.bits)

    __add__ = __xor__

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __len__(self) -> int:
        return self.n

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def support(self) -> tuple[int, ...]:
        out, bits = [], self.bits
        while bits:
            i = _low(bits)
            out.append(i)
            bits &= bits - 1
        return tuple(out)


@dataclass(frozen=True)
class F2Matrix:
    """Matrix stored as a tuple of bit-packed columns."""

    rows: int
    columns: tuple[int, ...] = ()

    def __post_init__(self):
        for c in self.columns:
            if c < 0 or c >> self.rows:
                raise DimensionMismatchError(
                    f"column does not fit in {self.rows} rows"
                )

    @classmethod
    def from_columns(cls, rows: int, cols: Iterable[F2Vector | int]) -> "F2Matrix":
        packed = []
        for c in cols:
            if isinstance(c, F2Vector):
                if c.n != rows:
                    raise DimensionMismatchError("column length != row count")
                packed.append(c.bits)
            else:
                packed.append(int(c))
        return cls(rows, tuple(packed))

    @property
    def ncols(self) -> int:
        return len(self.columns)


class PivotTable:
    """Incremental column elimination with lowest-set-bit pivots.

    ``reduce`` is the one elimination loop of the package.  Inserted
    columns are reduced against the stored ones; a nonzero residual is
    stored under its pivot.  ``columns`` maps each pivot to its stored
    column: the stored columns always have pairwise distinct lowest set
    bits and span the same space as everything inserted so far.  A table
    may start from a copy of such a mapping, e.g. another table's
    ``columns``.
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

    def dependencies(self, columns: Iterable[int], rows: int) -> list[int]:
        """Insert columns supported below ``rows`` in turn; for each one
        that depends on the table and the columns before it, return the
        coefficients of that dependency over ``columns``.

        Column j is augmented with a unit companion bit above its rows,
        ``col | 1 << (rows + j)``, so one whose row part reduces to zero
        holds its dependency in ``bits >> rows``.
        """
        out = []
        for j, col in enumerate(columns):
            pivot, companion = self.insert_augmented(col | 1 << (rows + j), rows)
            if pivot is None:
                out.append(companion)
        return out


def rank(matrix: F2Matrix) -> int:
    """Dimension of the column span over F2."""
    table = PivotTable()
    for bits in matrix.columns:
        table.insert(bits)
    return len(table)


def quotient_rank(span: F2Matrix, base: F2Matrix) -> int:
    """dim((span + base) / base), i.e. rank([span | base]) - rank(base)."""
    if span.rows != base.rows:
        raise DimensionMismatchError(
            f"row counts differ: {span.rows} != {base.rows}"
        )
    table = PivotTable()
    for bits in base.columns:
        table.insert(bits)
    extra = 0
    for bits in span.columns:
        if table.insert(bits) is not None:
            extra += 1
    return extra


def member(basis: F2Matrix, v: F2Vector) -> bool:
    """True iff v lies in the column span of basis."""
    if basis.rows != v.n:
        raise DimensionMismatchError(
            f"vector length {v.n} != row count {basis.rows}"
        )
    table = PivotTable()
    for bits in basis.columns:
        table.insert(bits)
    return table.reduce(v.bits) == 0


def nullspace(matrix: F2Matrix) -> list[F2Vector]:
    """Basis of {x : matrix @ x = 0}, as coefficient vectors over columns."""
    return [F2Vector(matrix.ncols, comp)
            for comp in PivotTable().dependencies(matrix.columns, matrix.rows)]
