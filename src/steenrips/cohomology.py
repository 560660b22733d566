"""Ordinary persistent barcodes over F2 and static cohomology bases.

Over F2 the persistent cohomology barcode equals the homology barcode
(de Silva, Morozov & Vejdemo-Johansson 2011).  It is read from one
lazily built cohomology reduction per complex, which the image/kernel
barcodes of :mod:`steenrips.operations` read too.  Its degree 0 is
settled by union-find: Kruskal's algorithm with the elder rule, whose
companions are component indicators 1_B and whose pivot columns are
their coboundaries delta(1_B).  Static bases are
read from it as well: they carry explicit cocycle representatives, which
the Steenrod stage consumes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import ValidationError
from .gf2 import reduce_column, rows, to_bools
from .metric import _BLOCK
from .simplicial import Cochain, FilteredComplex, _facets

INF = math.inf
_JSON_KINDS = (int, (int, float), (int, float), int)  # degree, birth, death, mult


@dataclass(frozen=True, order=True)
class Bar:
    degree: int
    birth: float
    death: float  # math.inf for essential classes
    multiplicity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "birth", float(self.birth))
        object.__setattr__(self, "death", float(self.death))
        if self.degree < 0:
            raise ValidationError(f"bar degree must be nonnegative, got {self.degree}")
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
        # a key seen once keeps the caller's bar: none is built twice
        merged: dict[tuple[int, float, float], list[Bar]] = {}
        for b in bars:
            merged.setdefault((b.degree, b.birth, b.death), []).append(b)
        self.bars = tuple(
            same[0] if len(same) == 1 else Bar(*key, sum(b.multiplicity for b in same))
            for key, same in sorted(merged.items()))

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
        """A degree and a multiplicity must be JSON integers, a birth a
        finite number and a death a finite number or null: none is
        truncated or parsed, and only null marks an essential bar."""
        try:
            bars = []
            for e in data["bars"]:
                death = e["death"]
                fields = (e["degree"], e["birth"], INF if death is None else death,
                          e.get("mult", 1))
                if any(isinstance(v, bool) or not isinstance(v, kind)
                       for v, kind in zip(fields, _JSON_KINDS)):
                    raise ValueError(f"{e}: a degree and a mult must be integers, "
                                     "a birth a number and a death a number or null")
                if death is not None and not math.isfinite(death):
                    raise ValueError(f"{e}: a death must be finite or null, "
                                     "which marks an essential bar")
                bars.append(Bar(*fields))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed barcode JSON: {exc}") from None
        return cls(bars)


@dataclass(frozen=True)
class CohomologyBasis:
    """Cocycle representatives of a basis of H^p."""

    degree: int
    cocycles: tuple[Cochain, ...]

    def __len__(self) -> int:
        return len(self.cocycles)


class _Degree(NamedTuple):
    """Degree p of a reduction: ``column(tau)``, the reduced column of
    delta_p with pivot tau as its sorted rows (tau first) or None if tau
    is no pivot, its pivots in increasing order and the positive-length
    bars of H^p as (birth index, death, z) in reverse order of birth
    index (see :class:`CohomologyReduction`)."""

    column: Callable[[int], list[int] | None]
    pivots: np.ndarray
    bars: list[tuple[int, float, int | None]]


class _Columns(dict):
    """The columns a pass stores, pivot -> (rows, pivot first; companion),
    over the reduced columns of delta_p of K (none outside degrees
    0..dim): a pivot of the reduction is read on its first miss, with
    companion 0, as adding a coboundary changes no class.  Its
    ``__getitem__`` is a lookup for :func:`reduce_column`."""

    def __init__(self, K: FilteredComplex, p: int):
        super().__init__()
        self.column = reduction(K).degree(K, p).column if 0 <= p <= K.dimension else _no_column

    def __missing__(self, tau: int) -> tuple[list, int] | None:
        col = self.column(tau)
        found = self[tau] = None if col is None else (col, 0)
        return found


def _no_column(tau: int) -> None:
    return None


class CohomologyReduction:
    """The coboundaries delta_0, delta_1, ... of one complex, reduced
    lazily, one degree at a time, without building their columns.

    delta_p is reduced as a dense elimination would reduce it: in reverse
    canonical order, each column augmented with its unit bit above the
    rows, after clearing the p-simplices that are pivots of delta_{p-1},
    whose columns would reduce to zero (Bauer, "Ripser", 2021).  A column
    of sigma that keeps a lowest row tau gives the bar [value sigma, value
    tau) of H^p, one that reduces to zero gives [value sigma, inf).  Most
    columns are settled without a reduction: the column of sigma is
    apparent when its earliest cofacet tau has sigma as its latest facet,
    so no later column reaches row tau and it keeps the pivot tau
    unreduced, and a column without cofacets is zero.
    :func:`_reduce_columns` settles the columns of every degree above 0
    and reduces the few left as sparse columns, each a binary heap of row
    keys whose equal pairs cancel (Ripser's working column), by
    :func:`steenrips.gf2.reduce_column`.  Degree 0
    needs no reduction (:func:`_components`): Kruskal's algorithm over the
    edges in canonical order, each component rooted at its least vertex,
    is Ripser's dimension-0 pass.  The edge tau joining roots a < b kills
    the component B of b by the elder rule, and the dense reduction's
    companion of b is its indicator 1_B and the reduced column of tau is
    delta(1_B), the edges with exactly one end in B.  The companion z of a
    bar is supported on sigma and later simplices, so it restricts to 0
    below the birth and to a cocycle below the death; the representatives
    of the bars alive at a value form a basis of H^p there.  z is None
    where it is the unit cochain of sigma: for apparent bars and columns
    without cofacets, so for every bar of the top degree and for a
    component of one vertex.  Each degree is a :class:`_Degree` record,
    and the reduction picks its source.  The rows of delta_p are the
    (p+1)-simplices of the complex, and the record gives the reduced
    column of a pivot as sorted rows when it is read: the stored list, an
    apparent owner's cofacets, or in degree 0 delta(1_B) as edge rows.  A
    reduction made with the metric (d, scale) of a VR complex reduces its
    top degree, if above 0, from the metric, with the (top+1)-simplices
    that were never built as rows, each keyed by one integer from the rank
    of its value and its vertex rows, and gives no column of it
    (:func:`_reduce_top_degree`).  ``operations``
    memoises the (image, kernel) barcodes of each operation.  The object
    holds no reference to its complex, so the two are freed together by
    reference counting.
    """

    __slots__ = ("_degrees", "_metric", "operations")

    def __init__(self, _metric: tuple[np.ndarray, float] | None = None):
        self._degrees: list[_Degree] = []
        self._metric = _metric
        self.operations: dict = {}

    def degree(self, K: FilteredComplex, p: int) -> _Degree:
        """The record of delta_p, reduced on first read after the degrees
        below it, whose pivots it clears; 0 <= p <= dim(K)."""
        for q in range(len(self._degrees), p + 1):
            self._degrees.append(
                _components(K) if q == 0
                else _reduce_top_degree(K, *self._metric, self._degrees[q - 1].pivots)
                if self._metric is not None and q == K.dimension
                else _reduce_degree(K, q, self._degrees[q - 1].pivots))
        return self._degrees[p]


def _components(K: FilteredComplex) -> _Degree:
    """Settle delta_0 of K by Kruskal's algorithm over its edges in
    canonical order, as the dense reduction would (see
    :class:`CohomologyReduction`).  Each component is rooted at its least
    vertex; the edge tau that joins roots a < b kills the component B of
    b (the elder rule): tau is a pivot, and its reduced column is
    delta(1_B), the edges with exactly one end in B.  B gives the bar (b,
    value tau, 1_B) if value b < value tau, and a root left at the end
    the essential bar (r, inf, 1 of its component).  An indicator is
    None, the unit cochain, for a single vertex, which is exactly an
    apparent column, so an int is made only for two or more vertices."""
    n = K.n_simplices(0)
    values = K.dim_values[0]
    edges = K.dim_rows[1] if K.dimension else np.empty((0, 2), dtype=np.intp)
    values_up = K.dim_values[1] if K.dimension else ()
    parent = list(range(n))
    mask: dict[int, int] = {}  # root -> indicator of its 2+ vertices
    killed: dict[int, tuple[int, int | None]] = {}  # pivot tau -> (b, 1_B)
    bars = []
    merges = n - 1
    # in blocks of edges, as the loop mostly stops well before the last
    rows = chain.from_iterable(edges[i:i + 1024].tolist() for i in range(0, len(edges), 1024))
    for tau, (a, b) in enumerate(rows):
        while parent[a] != a:  # path halving
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a == b:
            continue
        if a > b:
            a, b = b, a
        parent[b] = a
        z = mask.pop(b, None)
        killed[tau] = b, z
        mask[a] = mask.get(a, 1 << a) | (1 << b if z is None else z)
        if values[b] < values_up[tau]:
            bars.append((b, values_up[tau], z))
        merges -= 1
        if not merges:
            break
    bars += ((r, INF, mask.get(r)) for r in range(n) if parent[r] == r)
    bars.sort(key=lambda bar: -bar[0])

    def column(tau: int) -> list[int] | None:
        """delta(1_B) for the pivot tau that kills B, as edge rows; None
        if tau is no pivot."""
        if tau not in killed:
            return None
        b, z = killed[tau]
        ends = to_bools(1 << b if z is None else z, n)[edges]
        return np.flatnonzero(ends[:, 0] != ends[:, 1]).tolist()

    return _Degree(column, np.fromiter(killed, dtype=np.intp, count=len(killed)), bars)


def _reduce_degree(K: FilteredComplex, q: int, cleared: np.ndarray | list[int]) -> _Degree:
    """Reduce delta_q of K with the columns ``cleared`` skipped.  Its rows
    are the (q+1)-simplices of K, keyed by their index."""
    n, rows = K.n_simplices(q), K.n_simplices(q + 1)
    values_up = K.dim_values[q + 1] if rows else ()
    facets = _facets(K, q)
    # the cofacets of column s, increasing: cof[ptr[s]:ptr[s + 1]], sorted
    # as the keys column * rows + row
    cof = np.sort(facets.ravel() * rows + np.arange(facets.size) // (q + 2)) % rows
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(facets.ravel(), minlength=n), out=ptr[1:])
    # earliest cofacets; row `rows`, with no latest facet, where there is none
    first = np.append(cof, rows)[ptr[:-1]]
    first[ptr[1:] == ptr[:-1]] = rows
    apparent = np.append(facets.max(axis=1), -1)[first] == np.arange(n)

    def cofacets(j: int) -> list:
        return cof[ptr[j]:ptr[j + 1]].tolist()

    bars, pivots, owner = _reduce_columns(
        K.dim_values[q], np.append(values_up, INF)[first], apparent,
        lambda cols: first[cols].tolist(), cofacets, values_up.__getitem__, cleared)
    reduced = {tau: col for tau, (col, _) in pivots.items()}

    def column(tau: int) -> list[int] | None:
        """The reduced column that kept pivot tau, or the coboundary of
        its apparent owner; None if tau is no pivot."""
        col = reduced.get(tau)
        if col is None:
            j = owner.get(tau)
            return None if j is None else cofacets(j)
        return col

    return _Degree(column, np.sort(np.fromiter(chain(owner, reduced), dtype=np.intp)), bars)


def _reduce_columns(values: Sequence[float], death: np.ndarray, apparent: np.ndarray,
                    pivot, cofacets, value_up, cleared) -> tuple[list, dict, dict]:
    """Settle the columns of delta_p, one per p-simplex s, as the dense
    reduction would (see :class:`CohomologyReduction`): the bars (s,
    death, z) in reverse order of s, the pivots that the sparse loop
    reached, tau -> (reduced column, z), and the apparent owners, pivot
    -> column.  The columns ``cleared`` are skipped.

    ``values[s]`` is the value of s, ``death[s]`` that of its earliest
    cofacet (inf if none) and ``apparent[s]`` whether s is that
    cofacet's latest facet.  Rows are keyed by the caller, keys compared
    as the rows are ordered: ``pivot(cols)`` lists the keys of the
    earliest cofacets of the columns ``cols``, ``cofacets(j)`` is the
    sorted list of keys of column j and ``value_up(tau)`` the value of
    row tau.  A pivot is owned by its apparent column, which is later
    than any column reaching it, or by a column reduced before, so each
    column left is reduced as in the dense reduction, by
    :func:`steenrips.gf2.reduce_column`; a reduced column is stored as
    its entries of odd count, sorted, its pivot first, as is the sorted
    list of an owner's cofacets."""
    left = np.ones(len(death), dtype=bool)
    left[cleared] = False
    apparent = apparent & left
    settled = apparent | (left & (death == INF))
    left &= ~settled
    cols = np.flatnonzero(apparent)
    owner = dict(zip(pivot(cols), cols.tolist()))
    bars, pivots = [], {}

    def lookup(tau) -> tuple[list, int] | None:
        found = pivots.get(tau)
        if found is None and (j := owner.get(tau)) is not None:
            return cofacets(j), 1 << j
        return found

    for s in np.flatnonzero(left)[::-1].tolist():
        col = cofacets(s)  # a sorted list is a heap
        tau, z = reduce_column(col, 1 << s, lookup)
        end = INF
        if tau is not None:
            pivots[tau] = [tau, *col], z
            end = value_up(tau)
        if values[s] < end:
            bars.append((s, end, z))
    unit = np.flatnonzero(settled & (np.asarray(values) < death))
    bars += zip(unit.tolist(), death[unit].tolist(), repeat(None))
    bars.sort(key=lambda bar: -bar[0])
    return bars, pivots, owner


def _reduce_top_degree(K: FilteredComplex, d: np.ndarray, scale: float,
                       cleared: np.ndarray | list[int]) -> _Degree:
    """Reduce delta_p of K's top degree p, with the columns ``cleared``
    skipped, as if K held the (p+1)-simplices of VR of the distance
    matrix d at this scale; it gives no column and has no pivots.

    The cofacet sigma + {v} of a p-simplex sigma enters at the IEEE max
    of value(sigma) and d[u, v], u in sigma, if that is <= scale.  Rows of
    d are indexed by K's vertex rows, which is valid because the
    0-simplices of a VR complex are the points 0..n-1 in order.  These
    values are computed for blocks of at most ``_BLOCK`` (sigma, v)
    pairs, and again for one sigma outside the last block whenever the
    sparse loop needs its cofacets.  The earliest cofacet tau of sigma is
    the least by (value, v), and sigma is its latest facet when every
    other facet tau - {x} has a smaller value, or an equal one and x > v.
    :func:`_reduce_columns` settles the columns with each (p+1)-simplex
    keyed by one integer, rank(value) * n^(p+2) + the base-n code of its
    sorted vertex rows, where rank is the value's position among the
    distinct entries of d up to the scale (every value is one).  These
    keys order as the (p+1)-simplices do, as Ripser's do, so the bars and
    companions are those of the explicit reduction.  They are int64 where
    every key fits, and Python ints otherwise, so exact for any n.  They
    hold vertex positions, so no vertex tuple of the complex is derived.
    """
    p = K.dimension
    S, values = K.dim_rows[p], K.dim_values[p]
    vals, n = np.array(values), d.shape[0]
    levels = np.unique(d[d <= scale])
    codes = n ** (p + 2)  # base-n codes of p + 2 vertex rows
    dtype = np.int64 if len(levels) * codes < 2 ** 63 else object

    def cofacet_values(block: slice) -> np.ndarray:
        """value(sigma + {v}) for the sigma of the block and every vertex
        v, inf where that is no cofacet within the scale."""
        cof = np.repeat(vals[block, None], n, axis=1)
        for i in range(p + 1):
            np.maximum(cof, d[S[block, i]], out=cof)
        cof[np.arange(len(cof))[:, None], S[block]] = INF
        cof[cof > scale] = INF
        return cof

    v = np.empty(len(S), dtype=np.intp)
    death = np.empty(len(S))
    step = max(1, _BLOCK // n)
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

    # the code of sigma + {w} is gapped[sigma, k] + w * power[k], k the
    # number of rows of sigma below w: row i of sigma is digit i + (i >= k)
    power = np.array([n ** (p + 1 - k) for k in range(p + 2)], dtype=dtype)
    row = np.arange(p + 1)[:, None]
    gapped = S.astype(dtype) @ power[row + (row >= np.arange(p + 2))]

    def keys(cols, ws: np.ndarray, k: np.ndarray, at: np.ndarray) -> np.ndarray:
        """The keys of the cofacets sigma + {w} of the columns cols that
        enter at the values ``at``; k counts the rows of sigma below w."""
        return (levels.searchsorted(at).astype(dtype, copy=False) * codes
                + gapped[cols, k] + ws.astype(dtype, copy=False) * power[k])

    def pivot(cols: np.ndarray) -> list:
        below = (S[cols] < v[cols, None]).sum(axis=1)
        return keys(cols, v[cols], below, death[cols]).tolist()

    def cofacets(j: int) -> list:
        # the last block is kept, other rows are computed again
        cof = block[j - last] if j >= last else cofacet_values(slice(j, j + 1))[0]
        ws = (cof < INF).nonzero()[0]
        key = keys(j, ws, S[j].searchsorted(ws), cof[ws])
        key.sort()
        return key.tolist()

    level = levels.tolist()
    bars = _reduce_columns(values, death, apparent, pivot, cofacets,
                           lambda tau: level[tau // codes], cleared)[0]
    return _Degree(_no_column, np.empty(0, dtype=np.intp), bars)


def reduction(K: FilteredComplex,
              _metric: tuple[np.ndarray, float] | None = None) -> CohomologyReduction:
    """The cohomology reduction of K, created on first use; only
    :func:`steenrips.distances.rips_barcodes` passes ``_metric``, the
    (distance matrix, scale) of its VR complex, when it creates it."""
    if K._reduction is None:
        K._reduction = CohomologyReduction(_metric)
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
                   for s, death, _ in red.degree(K, p).bars)


def cohomology_basis(K: FilteredComplex, p: int) -> CohomologyBasis:
    """Cocycle representatives of a basis of H^p(K), in order of birth:
    the companions of the essential bars of the cohomology reduction (the
    unit cochain of the birth simplex in the top degree)."""
    if p < 0:
        raise ValidationError("degree must be nonnegative")
    if p > K.dimension:
        return CohomologyBasis(p, ())
    bars = reduction(K).degree(K, p).bars
    return CohomologyBasis(p, tuple(
        Cochain(K, p, 1 << s if z is None else z)
        for s, death, z in reversed(bars) if death == INF))


def is_coboundary(c: Cochain) -> bool:
    """True iff the cochain c is a coboundary on its host, i.e. c is a
    cocycle whose class is zero; read from the cohomology reduction."""
    K, p = c.host, c.degree
    if p == 0 or p > K.dimension:
        return c.is_zero
    return reduce_column(rows(c.bits), 0, _Columns(K, p - 1).__getitem__)[0] is None
