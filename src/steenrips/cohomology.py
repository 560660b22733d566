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
from itertools import chain, combinations
from operator import itemgetter
from typing import Iterable

import numpy as np

from .errors import ValidationError
from .gf2 import PivotTable, pack
from .metric import _BLOCK
from .simplicial import Cochain, FilteredComplex

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
    lazily, one degree at a time, without building their columns.

    delta_p is reduced as a dense elimination would reduce it: in reverse
    canonical order, each column augmented with its unit bit above the
    rows, after clearing the p-simplices that are pivots of
    delta_{p-1}, whose columns would reduce to zero (Bauer, "Ripser",
    2021).  A column of sigma that keeps a lowest row tau gives the bar
    [value sigma, value tau) of H^p, one that reduces to zero gives
    [value sigma, inf).  Most columns are settled without a reduction.
    The column of sigma is apparent when its earliest cofacet tau has
    sigma as its latest facet: no later column reaches row tau, so it
    keeps the pivot tau unreduced.  A column without cofacets is zero.
    The few columns left are reduced as sparse columns by the one sparse
    loop, :func:`_reduce_columns`, which the top degree of the metric
    paths shares.  The companion z of a bar is supported on sigma and
    later simplices, so it restricts to 0 below the birth and to a
    cocycle below the death; the representatives of the bars alive at a
    value form a basis of H^p there.  z is None where it is the unit
    cochain of sigma: for apparent bars and columns without cofacets, so
    for every bar of the top degree.  ``tables[p]`` is reduced delta_p
    and ``pivot_rows[p]`` its pivots, increasing; a dense column of it is
    built only when an insertion reaches its pivot.  The top degree of a
    complex from the metric paths instead holds the bars of the VR
    coboundary into the (top+1)-simplices that were never built, with an
    empty table (:func:`_reduce_top_degree`).  ``operations`` memoises
    the (image, kernel) barcodes of each operation.  The object holds no
    reference to its complex, so the two are freed together by reference
    counting.
    """

    __slots__ = ("tables", "pivot_rows", "bars", "operations")

    def __init__(self):
        self.tables: list[PivotTable] = []
        self.pivot_rows: list[np.ndarray] = []
        self.bars: list[list[tuple[int, float, int | None]]] = []
        self.operations: dict = {}

    def degree(self, K: FilteredComplex,
               p: int) -> tuple[PivotTable, list[tuple[int, float, int | None]]]:
        """Reduced delta_p and the positive-length bars of H^p as (birth
        index, death, z) in reverse order of birth index (z None for the
        unit cochain of the birth simplex); 0 <= p <= dim(K)."""
        for q in range(len(self.tables), p + 1):
            table, pivot_rows, bars = _reduce_degree(
                K, q, self.pivot_rows[q - 1] if q else [])
            self.tables.append(table)
            self.pivot_rows.append(pivot_rows)
            self.bars.append(bars)
        return self.tables[p], self.bars[p]

    def pivots(self, K: FilteredComplex, p: int) -> PivotTable:
        """A copy of reduced delta_p (empty outside degrees 0..dim)."""
        if not 0 <= p <= K.dimension:
            return PivotTable()
        table = self.degree(K, p)[0]
        return PivotTable(table.columns, table.build)


def _reduce_degree(K: FilteredComplex, q: int, cleared: np.ndarray | list[int]
                   ) -> tuple[PivotTable, np.ndarray, list]:
    """Reduce delta_q of K with the columns ``cleared`` skipped: its table,
    its pivots in increasing order and its bars (see
    :class:`CohomologyReduction`)."""
    n, rows = K.n_simplices(q), K.n_simplices(q + 1)
    values_up = K.dim_values[q + 1] if rows else ()
    facets = _facets(K, q) if rows else np.empty((0, q + 2), dtype=np.intp)
    # the cofacets of column s, increasing: cof[ptr[s]:ptr[s + 1]], sorted
    # as the keys column * rows + row
    cof = np.sort(facets.ravel() * rows + np.arange(facets.size) // (q + 2)) % rows
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(facets.ravel(), minlength=n), out=ptr[1:])
    # earliest cofacets; row `rows`, with no latest facet, where there is none
    first = np.append(cof, rows)[ptr[:-1]]
    first[ptr[1:] == ptr[:-1]] = rows
    left = np.ones(n, dtype=bool)
    left[cleared] = False
    apparent = left & (np.append(facets.max(axis=1), -1)[first] == np.arange(n))
    settled = left & (apparent | (first == rows))
    left &= ~settled
    owner = dict(zip(first[apparent].tolist(), np.flatnonzero(apparent).tolist()))

    def cofacets(j: int) -> set:
        return set(cof[ptr[j]:ptr[j + 1]].tolist())

    bars, pivots = _reduce_columns(np.flatnonzero(left)[::-1].tolist(), K.dim_values[q],
                                   cofacets, owner.get, values_up.__getitem__)
    death = np.append(values_up, INF)[first]
    unit = np.flatnonzero(settled & (np.array(K.dim_values[q]) < death))[::-1]
    bars += zip(unit.tolist(), death[unit].tolist(), [None] * len(unit))
    bars.sort(key=lambda bar: -bar[0])
    reduced = {tau: col for tau, (col, _) in pivots.items()}

    def build(tau: int) -> int | None:
        """Dense column of pivot tau: the reduced sparse column that kept
        it, or the coboundary of its apparent owner; None if tau is no
        pivot."""
        col = reduced.get(tau)
        if col is None:
            j = owner.get(tau)
            if j is None:
                return None
            col = cofacets(j)
        return pack(col)

    return (PivotTable(build=build),
            np.union1d(first[apparent], np.fromiter(reduced, dtype=np.intp)), bars)


def _facets(K: FilteredComplex, q: int) -> np.ndarray:
    """Row tau, column x: the index among the q-simplices of the
    (q+1)-simplex tau without its vertex number x.

    Exact for every vertex id: ids are replaced by their positions among
    the vertices, and rows are matched one vertex at a time, each prefix
    coded by its rank among the q-simplices' prefixes, so no code
    reaches (number of q-simplices) x (number of vertices)."""
    position = {v: i for i, (v,) in enumerate(K.dim_simplices[0])}

    def positions(p: int) -> np.ndarray:
        ss = K.dim_simplices[p]
        return np.fromiter(map(position.__getitem__, chain.from_iterable(ss)),
                           dtype=np.intp, count=len(ss) * (p + 1)).reshape(len(ss), p + 1)

    S, T = positions(q), positions(q + 1)

    def vertex(c: int) -> np.ndarray:
        """Vertex c of each facet: the facet without vertex x skips it."""
        return T[:, [c + (c >= x) for x in range(q + 2)]]

    code, facet_code = S[:, 0], vertex(0)
    for c in range(1, q + 1):
        keys = np.concatenate([code * len(position) + S[:, c],
                               (facet_code * len(position) + vertex(c)).ravel()])
        rank = np.unique(keys, return_inverse=True)[1]
        code, facet_code = rank[:len(S)], rank[len(S):].reshape(len(T), q + 2)
    index = np.empty(len(S), dtype=np.intp)
    index[code] = np.arange(len(S))
    return index[facet_code]


def _reduce_columns(columns: list[int], values, cofacets, apparent_owner,
                    value_up) -> tuple[list, dict]:
    """The sparse loop: reduce the columns, given in reverse order, of a
    coboundary whose apparent columns are left unreduced.

    ``cofacets(j)`` is the set of rows of column j, rows compared as they
    are ordered, ``value_up(tau)`` the value of row tau, and
    ``apparent_owner(tau)`` the apparent column whose pivot is tau, or
    None.  A pivot tau is owned by its apparent column, which is later
    than any column reaching it, or by a column reduced before, so each
    column is reduced as in the dense reduction.  Returns the bars (s,
    death, z) of the columns, z their companion, and the pivots reached,
    tau -> (reduced column, z)."""
    bars, pivots = [], {}
    for s in columns:
        col, z = cofacets(s), 1 << s
        while col:
            tau = min(col)
            if tau in pivots:
                add, y = pivots[tau]
            else:
                j = apparent_owner(tau)
                if j is None:
                    pivots[tau] = col, z
                    break
                add, y = cofacets(j), 1 << j
            col ^= add
            z ^= y
        end = value_up(tau) if col else INF
        if values[s] < end:
            bars.append((s, end, z))
    return bars, pivots


def _reduce_top_degree(K: FilteredComplex, d: np.ndarray, scale: float) -> None:
    """Reduce delta_p of K's top degree p as if K held the (p+1)-simplices
    of VR of the distance matrix d at this scale, and store its bars in
    the cohomology reduction.

    The cofacet sigma + {v} of a p-simplex sigma enters at the IEEE max
    of value(sigma) and d[u, v], u in sigma, if that is <= scale.  These
    values are computed for blocks of at most ``_BLOCK`` (sigma, v)
    pairs, and again for one sigma outside the last block whenever the
    sparse loop needs its cofacets.  After the delta_{p-1} pivots are
    cleared, the column of sigma is apparent when its earliest cofacet
    tau, the least by (value, v), has sigma as its latest facet: every
    other facet tau - {x} has a smaller value, or an equal one and x > v.
    It keeps the pivot tau unreduced, and its companion is the unit
    cochain.  The few columns left go through the sparse loop
    :func:`_reduce_columns` with rows keyed (value, vertices), the order
    of the (p+1)-simplices, so the bars and companions are those of the
    explicit reduction.  K has no rows for delta_p, so its table stays
    empty.
    """
    p = K.dimension
    red = reduction(K)
    if p:
        red.degree(K, p - 1)
    cleared = red.pivot_rows[p - 1] if p else []
    simplices, index, values = K.dim_simplices[p], K.dim_index[p], K.dim_values[p]
    S = np.array(simplices).reshape(len(simplices), p + 1)
    vals = np.array(values)

    def cofacet_values(block: slice) -> np.ndarray:
        """value(sigma + {v}) for the sigma of the block and every vertex
        v, inf where that is no cofacet within the scale."""
        cof = np.repeat(vals[block, None], d.shape[0], axis=1)
        for i in range(p + 1):
            np.maximum(cof, d[S[block, i]], out=cof)
        cof[np.arange(len(cof))[:, None], S[block]] = INF
        cof[cof > scale] = INF
        return cof

    v = np.empty(len(S), dtype=np.intp)
    death = np.empty(len(S))
    step = max(1, _BLOCK // d.shape[0])
    for last in range(0, len(S), step):
        block = None  # freed before the next one is made
        block = cofacet_values(slice(last, last + step))
        v[last:last + step] = block.argmin(axis=1)
        death[last:last + step] = block[np.arange(len(block)), v[last:last + step]]
    T = np.column_stack([S, v])
    apparent = death < INF
    for x in range(p + 1):
        facet = np.zeros(len(S))
        for a, b in combinations([i for i in range(p + 2) if i != x], 2):
            np.maximum(facet, d[T[:, a], T[:, b]], out=facet)
        apparent &= (facet < vals) | ((facet == vals) & (S[:, x] > v))
    apparent[cleared] = False
    long = np.flatnonzero(apparent & (vals < death))
    left = ~apparent
    left[cleared] = False
    v = v.tolist()

    def cofacets(j: int) -> set:
        # the last block is kept, other rows are computed again
        cof = block[j - last] if j >= last else cofacet_values(slice(j, j + 1))[0]
        ws = np.flatnonzero(cof < INF)
        return {(c, tuple(sorted(simplices[j] + (w,))))
                for w, c in zip(ws.tolist(), cof[ws].tolist())}

    def apparent_owner(tau: tuple) -> int | None:
        j = max(index[f] for f in combinations(tau[1], p + 1))
        if apparent[j] and sum(tau[1]) - sum(simplices[j]) == v[j]:
            return j
        return None

    bars, _ = _reduce_columns(np.flatnonzero(left)[::-1].tolist(), values,
                              cofacets, apparent_owner, itemgetter(0))
    bars += zip(long.tolist(), death[long].tolist(), [None] * len(long))
    bars.sort(key=lambda bar: -bar[0])
    red.tables.append(PivotTable())
    red.pivot_rows.append(np.empty(0, dtype=np.intp))
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
