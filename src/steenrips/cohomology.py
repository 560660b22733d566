"""Ordinary persistent barcodes over F2 and static cohomology bases.

Over F2 the persistent cohomology barcode equals the homology barcode
(de Silva, Morozov & Vejdemo-Johansson 2011).  It is read from one
lazily built cohomology reduction per complex, which the image/kernel
barcodes of :mod:`steenrips.operations` read too.  Static bases are
read from it as well: they carry explicit cocycle representatives, which
the Steenrod stage consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import ValidationError
from .gf2 import PivotTable
from .simplicial import Cochain, FilteredComplex, coboundary_columns

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

    def reduced(self) -> "Barcode":
        """Without one infinite degree-0 bar, the earliest born, if any."""
        essential = [b.birth for b in self.in_degree(0) if b.is_infinite]
        return self.without_one(Bar(0, min(essential), INF)) if essential else self

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
    """Cocycle representatives of a basis of H^p."""

    degree: int
    cocycles: tuple[Cochain, ...]

    def __len__(self) -> int:
        return len(self.cocycles)


class CohomologyReduction:
    """The coboundaries delta_0, delta_1, ... of one complex, reduced
    lazily, one degree at a time.

    delta_p is reduced in reverse canonical order, each column augmented
    with its unit bit above the rows, after clearing the p-simplices that
    are pivots of delta_{p-1}: their columns would reduce to zero, so the
    top simplices are never columns (Bauer, "Ripser", 2021).  A column of
    sigma that keeps a lowest row tau gives the bar [value sigma, value
    tau) of H^p, one that reduces to zero gives [value sigma, inf).  The
    companion z left above the rows is supported on sigma and later
    simplices, so it restricts to 0 below the birth and to a cocycle below
    the death; the representatives of the bars alive at a value form a
    basis of H^p there.  Only the bars keep their companions: once delta_p
    is reduced its table is masked to the rows, and in the top degree,
    where delta_p is zero, z is the unit cochain of sigma and is stored as
    None.  The top degree of a complex from the metric paths instead
    holds the bars of the VR coboundary into the (top+1)-simplices that
    were never built, with an empty table (:func:`_reduce_top_degree`).
    ``operations`` memoises the (image, kernel) barcodes of each
    operation.  The object holds no reference to its complex, so the two
    are freed together by reference counting.
    """

    __slots__ = ("tables", "bars", "operations")

    def __init__(self):
        self.tables: list[PivotTable] = []
        self.bars: list[list[tuple[int, float, int | None]]] = []
        self.operations: dict = {}

    def degree(self, K: FilteredComplex,
               p: int) -> tuple[PivotTable, list[tuple[int, float, int | None]]]:
        """Reduced delta_p and the positive-length bars of H^p as (birth
        index, death, z) in reverse order of birth index (z None for the
        unit cochain of the birth simplex); 0 <= p <= dim(K)."""
        for q in range(len(self.tables), p + 1):
            cleared = self.tables[q - 1].columns if q else {}
            rows = K.n_simplices(q + 1)
            values = K.dim_values[q]
            values_up = K.dim_values[q + 1] if rows else ()
            table, bars = PivotTable(), []
            cols = coboundary_columns(K, q)
            for s in cleared:  # would reduce to zero: free them now
                cols[s] = 0
            while cols:
                # popping consumes delta_q as it is reduced, so the
                # matrix and its reduction are never held at once
                col = cols.pop()
                s = len(cols)
                if s in cleared:
                    continue
                tau, z = table.insert_augmented(col | 1 << (rows + s), rows)
                death = INF if tau is None else values_up[tau]
                if values[s] < death:
                    bars.append((s, death, z if rows else None))
            mask = (1 << rows) - 1
            for tau in table.columns:
                table.columns[tau] &= mask
            self.tables.append(table)
            self.bars.append(bars)
        return self.tables[p], self.bars[p]

    def pivots(self, K: FilteredComplex, p: int) -> PivotTable:
        """A copy of reduced delta_p (empty outside degrees 0..dim)."""
        if not 0 <= p <= K.dimension:
            return PivotTable()
        return PivotTable(self.degree(K, p)[0].columns)


def _reduce_top_degree(K: FilteredComplex, d: np.ndarray, scale: float) -> None:
    """Reduce delta_p of K's top degree p as if K held the (p+1)-simplices
    of VR of the distance matrix d at this scale, and store its bars in
    the cohomology reduction.

    The cofacet sigma + {v} of a p-simplex sigma enters at the IEEE max
    of value(sigma) and d[u, v], u in sigma, if that is <= scale.  After
    the delta_{p-1} pivots are cleared, the column of sigma is apparent
    (Bauer, "Ripser", 2021) when its earliest cofacet tau, the least by
    (value, v), has sigma as its latest facet: every other facet
    tau - {x} has a smaller value, or an equal one and x > v.  It keeps
    the pivot tau unreduced, and its companion is the unit cochain.  The
    few columns left are reduced in reverse order as sets of (value,
    vertices) keys; a pivot tau is owned by its apparent facet, which is
    later than the column, or by a column reduced before.  So the bars
    and companions are those of the explicit reduction.  K has no rows
    for delta_p, so its table stays empty.
    """
    p = K.dimension
    red = reduction(K)
    cleared = list(red.degree(K, p - 1)[0].columns) if p else []
    simplices, index, values = K.dim_simplices[p], K.dim_index[p], K.dim_values[p]
    S = np.array(simplices).reshape(len(simplices), p + 1)
    vals = np.array(values)
    rows = np.arange(len(S))
    cof = np.repeat(vals[:, None], d.shape[0], axis=1)
    for i in range(p + 1):
        np.maximum(cof, d[S[:, i]], out=cof)
    cof[rows[:, None], S] = INF
    cof[cof > scale] = INF
    v = cof.argmin(axis=1)
    death = cof[rows, v]
    T = np.column_stack([S, v])
    apparent = death < INF
    for x in range(p + 1):
        facet = np.zeros(len(S))
        for a, b in combinations([i for i in range(p + 2) if i != x], 2):
            np.maximum(facet, d[T[:, a], T[:, b]], out=facet)
        apparent &= (facet < vals) | ((facet == vals) & (S[:, x] > v))
    apparent[cleared] = False
    long = np.flatnonzero(apparent & (vals < death))
    bars = list(zip(long.tolist(), death[long].tolist(), [None] * len(long)))
    left = ~apparent
    left[cleared] = False
    v = v.tolist()

    def cofacets(j: int) -> set:
        ws = np.flatnonzero(cof[j] < INF)
        return {(c, tuple(sorted(simplices[j] + (w,))))
                for w, c in zip(ws.tolist(), cof[j, ws].tolist())}

    pivots: dict = {}
    for s in np.flatnonzero(left)[::-1].tolist():
        col, z = cofacets(s), 1 << s
        while col:
            tau = min(col)
            if tau in pivots:
                add, y = pivots[tau]
            else:
                j = max(index[f] for f in combinations(tau[1], p + 1))
                if not (apparent[j] and sum(tau[1]) - sum(simplices[j]) == v[j]):
                    pivots[tau] = col, z
                    break
                add, y = cofacets(j), 1 << j
            col ^= add
            z ^= y
        end = tau[0] if col else INF
        if values[s] < end:
            bars.append((s, end, z))
    bars.sort(key=lambda bar: -bar[0])
    red.tables.append(PivotTable())
    red.bars.append(bars)


def reduction(K: FilteredComplex) -> CohomologyReduction:
    """The cohomology reduction of K, created on first use."""
    if K._reduction is None:
        K._reduction = CohomologyReduction()
    return K._reduction


def persistent_barcode(K: FilteredComplex, max_degree: int) -> Barcode:
    """Barcode of the filtration in degrees 0..max_degree.

    Read from the cohomology reduction of K; over a field the homology
    barcode coincides.  Zero-length pairs (birth value == death value)
    are dropped.  :meth:`Barcode.reduced` removes one infinite degree-0
    bar.
    """
    if max_degree < 0:
        raise ValidationError("max_degree must be nonnegative")
    red = reduction(K)
    return Barcode(Bar(p, K.dim_values[p][s], death)
                   for p in range(min(max_degree, K.dimension) + 1)
                   for s, death, _ in red.degree(K, p)[1])


def cohomology_basis(K: FilteredComplex, p: int) -> CohomologyBasis:
    """Cocycle representatives of a basis of H^p(K), in order of birth:
    the companions of the essential bars of the cohomology reduction (the
    unit cochain of the birth simplex in the top degree)."""
    if p < 0:
        raise ValidationError("degree must be nonnegative")
    if p > K.dimension:
        return CohomologyBasis(p, ())
    bars = reduction(K).degree(K, p)[1]
    return CohomologyBasis(p, tuple(
        Cochain(K, p, 1 << s if z is None else z)
        for s, death, z in reversed(bars) if death == INF))


def is_coboundary(c: Cochain) -> bool:
    """True iff the cochain c is a coboundary on its host, i.e. c is a
    cocycle whose class is zero; read from the cohomology reduction."""
    K, p = c.host, c.degree
    if p == 0 or p > K.dimension:
        return c.is_zero
    return reduction(K).degree(K, p - 1)[0].reduce(c.bits) == 0
