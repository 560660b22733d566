"""Ordinary persistent barcodes over F2 and static cohomology bases.

The barcode comes from standard column reduction of the boundary matrix
in the canonical filtration order, processed one dimension at a time
from the top down so the clearing optimization can skip columns already
known to be positive.  Static bases carry explicit cocycle
representatives, which the Steenrod stage consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import ValidationError
from .gf2 import F2Matrix, PivotTable, rank
from .simplicial import (
    Cochain,
    FilteredComplex,
    coboundary_columns,
    coboundary_matrix,
)

INF = math.inf


@dataclass(frozen=True, order=True)
class Bar:
    degree: int
    birth: float
    death: float  # math.inf for essential classes
    multiplicity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "birth", float(self.birth))
        object.__setattr__(self, "death", float(self.death))
        if not self.birth < self.death:
            raise ValidationError(f"bar with birth {self.birth} >= death {self.death}")
        if math.isinf(self.birth):
            raise ValidationError("bar birth must be finite")
        if self.multiplicity < 1:
            raise ValidationError("bar multiplicity must be positive")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.death)

    @property
    def length(self) -> float:
        return self.death - self.birth


class Barcode:
    """Multiset of bars, canonically sorted by (degree, birth, death)."""

    __slots__ = ("bars",)

    def __init__(self, bars: Iterable[Bar] = ()):
        merged: dict[tuple[int, float, float], int] = {}
        for b in bars:
            key = (b.degree, b.birth, b.death)
            merged[key] = merged.get(key, 0) + b.multiplicity
        self.bars = tuple(
            Bar(d, b, e, m) for (d, b, e), m in sorted(merged.items())
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Barcode) and self.bars == other.bars

    def __hash__(self):
        return hash(self.bars)

    def __len__(self) -> int:
        return sum(b.multiplicity for b in self.bars)

    def __iter__(self):
        return iter(self.bars)

    def in_degree(self, degree: int) -> "Barcode":
        return Barcode(b for b in self.bars if b.degree == degree)

    def expanded(self, degree: int | None = None) -> list[tuple[float, float]]:
        """(birth, death) pairs with multiplicities unrolled."""
        out = []
        for b in self.bars:
            if degree is None or b.degree == degree:
                out.extend([(b.birth, b.death)] * b.multiplicity)
        return out

    def alive(self, degree: int, t: float) -> int:
        """Number of classes with birth <= t < death."""
        return sum(b.multiplicity for b in self.bars
                   if b.degree == degree and b.birth <= t < b.death)

    def union(self, other: "Barcode") -> "Barcode":
        return Barcode(self.bars + other.bars)

    def without_one(self, bar: Bar) -> "Barcode":
        """Drop one copy of the given (degree, birth, death)."""
        out = []
        dropped = False
        for b in self.bars:
            if (not dropped and b.degree == bar.degree
                    and b.birth == bar.birth and b.death == bar.death):
                dropped = True
                if b.multiplicity > 1:
                    out.append(Bar(b.degree, b.birth, b.death, b.multiplicity - 1))
            else:
                out.append(b)
        if not dropped:
            raise ValidationError(f"bar {bar} not present")
        return Barcode(out)

    def to_json_dict(self, operation: str = "id", u_scale: bool = False) -> dict:
        bars = []
        for b in self.bars:
            entry = {
                "degree": b.degree,
                "birth": b.birth,
                "death": None if b.is_infinite else b.death,
                "mult": b.multiplicity,
            }
            if u_scale:
                entry["death_u_scale"] = None if b.is_infinite else b.death / 2.0
            bars.append(entry)
        return {"field": "F2", "operation": operation, "bars": bars}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Barcode":
        try:
            bars = [
                Bar(int(e["degree"]), float(e["birth"]),
                    INF if e["death"] is None else float(e["death"]),
                    int(e.get("mult", 1)))
                for e in data["bars"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed barcode JSON: {exc}") from None
        return cls(bars)


@dataclass(frozen=True)
class CohomologyBasis:
    """Cocycle representatives of a basis of H^p, plus the coboundary space."""

    degree: int
    cocycles: tuple[Cochain, ...]
    coboundary_basis: F2Matrix

    def __len__(self) -> int:
        return len(self.cocycles)


def _boundary_bits(K: FilteredComplex, p: int) -> list[int]:
    """Columns of the boundary map on p-simplices, rows (p-1)-simplices."""
    idx = K.dim_index[p - 1]
    cols = []
    for s in K.dim_simplices[p]:
        bits = 0
        for facet in combinations(s, p):
            bits |= 1 << idx[facet]
        cols.append(bits)
    return cols


def persistent_barcode(K: FilteredComplex, max_degree: int,
                       reduced: bool = False) -> Barcode:
    """Barcode of the filtration in degrees 0..max_degree.

    Over a field the cohomology barcode coincides, so one reduction
    serves both readings.  Zero-length pairs (birth value == death
    value) are dropped.  With ``reduced`` one infinite degree-0 bar is
    removed.
    """
    if max_degree < 0:
        raise ValidationError("max_degree must be nonnegative")
    top = min(K.dimension, max_degree + 1)
    bars: list[Bar] = []
    # 'cleared' holds the p-simplices that were lows in the round above:
    # they are positive, and their finite bars are already recorded.
    cleared: set[int] = set()
    for p in range(top, 0, -1):
        cols = _boundary_bits(K, p)
        values_p = K.dim_values[p]
        values_f = K.dim_values[p - 1]
        pivot_col: dict[int, int] = {}
        next_cleared: set[int] = set()
        for j in range(len(cols)):
            if j in cleared:
                continue
            bits = cols[j]
            # highest-bit pivots, not PivotTable's lowest: bit_length()
            # needs no negated copy of the column, and this loop is faster
            while bits:
                low = bits.bit_length() - 1
                other = pivot_col.get(low)
                if other is None:
                    break
                bits ^= other
            if bits:
                low = bits.bit_length() - 1
                pivot_col[low] = bits
                next_cleared.add(low)
                if values_p[j] > values_f[low]:
                    bars.append(Bar(p - 1, values_f[low], values_p[j]))
            elif p <= max_degree:
                # positive and never a low above: essential class
                bars.append(Bar(p, values_p[j], INF))
        cleared = next_cleared
    if len(K):
        for j, v in enumerate(K.dim_values[0]):
            if j not in cleared:
                bars.append(Bar(0, v, INF))
    barcode = Barcode(bars)
    if reduced:
        deg0 = [b for b in barcode.bars if b.degree == 0 and b.is_infinite]
        if deg0:
            first = min(deg0, key=lambda b: b.birth)
            barcode = barcode.without_one(Bar(0, first.birth, INF))
    return barcode


def cohomology_basis(K: FilteredComplex, p: int) -> CohomologyBasis:
    """Cocycle representatives spanning ker(delta_p) mod im(delta_{p-1})."""
    if p < 0:
        raise ValidationError("degree must be nonnegative")
    coboundaries = PivotTable()
    if p >= 1:
        for col in coboundary_columns(K, p - 1):
            coboundaries.insert(col)
    boundary_basis = F2Matrix(K.n_simplices(p),
                              tuple(sorted(coboundaries.columns.values())))
    # each nullspace vector of delta_p, reduced against the coboundaries
    # and the representatives before it, leaves a residual cocycle whose
    # class is independent of theirs
    reps = []
    for z in PivotTable().dependencies(coboundary_columns(K, p),
                                       K.n_simplices(p + 1)):
        pivot = coboundaries.insert(z)
        if pivot is not None:
            reps.append(coboundaries.columns[pivot])
    return CohomologyBasis(p, tuple(Cochain(K, p, r) for r in reps),
                           boundary_basis)


def betti_number(K: FilteredComplex, p: int) -> int:
    """dim H^p(K; F2) from coboundary ranks (independent of the reduction)."""
    if p < 0 or p > K.dimension:
        return 0
    rank_pm1 = rank(coboundary_matrix(K, p - 1)) if p >= 1 else 0
    return K.n_simplices(p) - rank(coboundary_matrix(K, p)) - rank_pm1
