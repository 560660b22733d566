"""Ordinary persistent barcodes over F2 and static cohomology bases.

Over F2 the persistent cohomology barcode equals the homology barcode
(de Silva, Morozov & Vejdemo-Johansson 2011).  It is read from one
lazily built cohomology reduction per complex, which the image/kernel
barcodes of :mod:`steenrips.operations` read too.  Its degree 0 is
settled by union-find: Kruskal's algorithm with the elder rule, whose
companions are component indicators 1_B and whose pivot columns are
their coboundaries delta(1_B).  Higher degrees store their reduced
columns with :func:`steenrips.gf2.insert` and read them with
:func:`steenrips.gf2.read`, and each degree's ``column(tau)`` gives its
pivot columns as (rows, companion).  Static bases are read from it as
well: they carry explicit cocycle representatives, which the Steenrod
stage consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, compress, repeat
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import ValidationError
from .gf2 import insert, read, reduce_column, rows, to_bools
from .metric import _BLOCK, _ranks
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


def _bar(degree: int, birth: float, death: float, multiplicity: int) -> Bar:
    """A :class:`Bar` of fields already validated, built without
    validating them again."""
    bar = object.__new__(Bar)
    bar.__dict__.update(degree=degree, birth=birth, death=death, multiplicity=multiplicity)
    return bar


def _merge(degree, birth, death, multiplicity) -> tuple[np.ndarray, ...]:
    """The four columns of bars sorted by (degree, birth, death), with
    the multiplicities of equal keys added: one lexsort and a run-length
    merge.  A merged key keeps its first endpoint in the input order."""
    columns = (np.asarray(degree, dtype=np.int64), np.asarray(birth, dtype=np.float64),
               np.asarray(death, dtype=np.float64), np.asarray(multiplicity, dtype=np.int64))
    order = np.lexsort(columns[2::-1])
    degree, birth, death, multiplicity = (c[order] for c in columns)
    new = np.ones(len(order), dtype=bool)
    new[1:] = (degree[1:] != degree[:-1]) | (birth[1:] != birth[:-1]) | (death[1:] != death[:-1])
    if not new.all():
        starts = np.flatnonzero(new)
        degree, birth, death = degree[starts], birth[starts], death[starts]
        multiplicity = np.add.reduceat(multiplicity, starts)
    return degree, birth, death, multiplicity


class Barcode:
    """Multiset of bars, canonically sorted by (degree, birth, death).

    It is held as four read-only arrays with one entry per distinct
    (degree, birth, death), in that order: ``degree`` and
    ``multiplicity`` (int64), ``birth`` and ``death`` (float64, inf for
    an essential bar).  :meth:`from_arrays` validates whole columns and
    ``Barcode(bars)`` takes bars that validated themselves; both go
    through one lexsort and a run-length merge that adds the
    multiplicities of equal keys.  ``bars``, the tuple of :class:`Bar`,
    is built on first read, without validating each bar again.
    """

    __slots__ = ("degree", "birth", "death", "multiplicity", "_bars")

    def __init__(self, bars: Iterable[Bar] = ()):
        fields = [(b.degree, b.birth, b.death, b.multiplicity) for b in bars]
        self._set(*_merge(*(zip(*fields) if fields else ((),) * 4)))

    def _set(self, *columns: np.ndarray) -> None:
        for c in columns:
            c.flags.writeable = False
        self.degree, self.birth, self.death, self.multiplicity = columns
        self._bars = None

    @classmethod
    def _of(cls, *columns: np.ndarray) -> "Barcode":
        """The barcode of columns that are already canonical."""
        barcode = object.__new__(cls)
        barcode._set(*columns)
        return barcode

    @classmethod
    def from_arrays(cls, degree, birth, death, multiplicity) -> "Barcode":
        """The barcode of bars given as columns in any order; a degree or
        a multiplicity may be one number for every bar.  Each column is
        validated whole, and the first bar that fails is refused with
        the message its :class:`Bar` would give."""
        birth = np.asarray(birth, dtype=np.float64)
        death = np.asarray(death, dtype=np.float64)
        degree, multiplicity = (np.broadcast_to(np.asarray(c, dtype=np.int64), birth.shape)
                                for c in (degree, multiplicity))
        refused = (degree < 0, ~(birth < death), np.isinf(birth), multiplicity < 1)
        bad = refused[0] | refused[1] | refused[2] | refused[3]
        if bad.any():
            i = int(bad.argmax())
            messages = (f"bar degree must be nonnegative, got {degree[i]}",
                        f"bar with birth {float(birth[i])} >= death {float(death[i])}",
                        "bar birth must be finite", "bar multiplicity must be positive")
            raise ValidationError(next(m for m, r in zip(messages, refused) if r[i]))
        return cls._of(*_merge(degree, birth, death, multiplicity))

    @property
    def bars(self) -> tuple[Bar, ...]:
        if self._bars is None:
            self._bars = tuple(map(_bar, self.degree.tolist(), self.birth.tolist(),
                                   self.death.tolist(), self.multiplicity.tolist()))
        return self._bars

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.degree, self.birth, self.death, self.multiplicity

    def __eq__(self, other) -> bool:
        return isinstance(other, Barcode) and all(
            map(np.array_equal, self._columns(), other._columns()))

    def __hash__(self):
        return hash(self.bars)

    def __len__(self) -> int:
        return int(self.multiplicity.sum())

    def __iter__(self):
        return iter(self.bars)

    def in_degree(self, degree: int) -> "Barcode":
        part = slice(*self.degree.searchsorted((degree, degree + 1)))
        return Barcode._of(*(c[part] for c in self._columns()))

    def expanded(self, degree: int | None = None) -> list[tuple[float, float]]:
        """(birth, death) pairs with multiplicities unrolled."""
        part = self if degree is None else self.in_degree(degree)
        return list(zip(np.repeat(part.birth, part.multiplicity).tolist(),
                        np.repeat(part.death, part.multiplicity).tolist()))

    def alive(self, degree: int, t: float) -> int:
        """Number of classes with birth <= t < death."""
        part = self.in_degree(degree)
        return int(part.multiplicity[(part.birth <= t) & (t < part.death)].sum())

    def union(self, other: "Barcode") -> "Barcode":
        return Barcode._of(*_merge(*map(np.concatenate, zip(self._columns(), other._columns()))))

    def without_one(self, bar: Bar) -> "Barcode":
        """Drop one copy of the given (degree, birth, death)."""
        at = np.flatnonzero((self.degree == bar.degree) & (self.birth == bar.birth)
                            & (self.death == bar.death))
        if not len(at):
            raise ValidationError(f"bar {bar} not present")
        multiplicity = self.multiplicity.copy()
        multiplicity[at[0]] -= 1
        kept = multiplicity > 0
        return Barcode._of(self.degree[kept], self.birth[kept], self.death[kept],
                           multiplicity[kept])

    def reduced(self) -> "Barcode":
        """Without one infinite degree-0 bar, the earliest born, if any."""
        part = self.in_degree(0)
        essential = part.birth[part.death == INF]
        return self.without_one(Bar(0, essential[0], INF)) if len(essential) else self

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
    """Degree p of a reduction: ``column(tau)``, the lookup its reduction
    reduced with, which gives the reduced column of delta_p with pivot
    tau as (its sorted rows, tau first; its companion) or None if tau is
    no pivot, its pivots in increasing order and the positive-length
    bars of H^p as (birth index, death, z) in reverse order of birth
    index (see :class:`CohomologyReduction`)."""

    column: Callable[[int], tuple[list[int], int] | None]
    pivots: np.ndarray
    bars: list[tuple[int, float, int | None]]


class _Columns(dict):
    """The columns a pass stores, pivot -> (rows; companion), over the
    reduced columns of delta_p of K (none outside degrees 0..dim): a
    pivot of the reduction is read on its first miss and stored with
    companion 0, as adding a coboundary changes no class.  A column the
    pass stores is the raw rest of its heap until
    :func:`steenrips.gf2.read` first reads it; one from the reduction is
    finished (pivot first) when it is read.  ``get`` misses into the
    reduction, so ``read`` over this dict is a pass's lookup."""

    def __init__(self, K: FilteredComplex, p: int):
        super().__init__()
        self.column = reduction(K).degree(K, p).column if 0 <= p <= K.dimension else _no_column

    def __missing__(self, tau: int) -> tuple[list, int] | None:
        found = self.column(tau)
        found = self[tau] = None if found is None else (found[0], 0)
        return found

    get = dict.__getitem__  # for gf2.read: a miss reads the reduction


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
    :func:`_reduce_columns` settles the columns of every degree above 0.
    Of the columns left, one whose earliest cofacet is no pivot yet when
    its turn comes keeps it unreduced too (an emergent pair), and the
    others are reduced as sparse columns, each a binary heap of row keys
    whose equal pairs cancel (Ripser's working column), by
    :func:`steenrips.gf2.insert`, which stores the rest of the heap raw:
    :func:`steenrips.gf2.read` sorts it and drops its pairs when a later
    column first reaches it, and most are never reached.  Degree 0
    needs no reduction (:func:`_components`): Kruskal's algorithm over the
    edges in canonical order, each component rooted at its least vertex,
    is Ripser's dimension-0 pass.  The edge tau joining roots a < b kills
    the component B of b by the elder rule, and the dense reduction's
    companion of b is its indicator 1_B and the reduced column of tau is
    delta(1_B), the edges with exactly one end in B.  The companion z of a
    bar is supported on sigma and later simplices, so it restricts to 0
    below the birth and to a cocycle below the death; the representatives
    of the bars alive at a value form a basis of H^p there.  z is None
    where it is the unit cochain of sigma: for apparent and emergent bars
    and columns without cofacets, so for every bar of the top degree and
    for a component of one vertex.  Each degree is a :class:`_Degree`
    record, and the reduction picks its source.  The rows of delta_p are
    the (p+1)-simplices of the complex, and the record's ``column(tau)``
    is the lookup its reduction reduced with: the reduced column of a pivot
    as (sorted rows, companion), the stored column, an apparent or
    emergent owner's cofacets with its unit cochain, or in degree 0
    delta(1_B) with 1_B, computed when it is read.  A reduction made with
    the metric (d, scale) of a VR complex reduces its top degree, if above
    0, from the metric, with the (top+1)-simplices that were never built
    as rows, each keyed by one integer from the rank of its value and its
    vertex rows, computing cofacets only for the columns not cleared, and
    gives no column of it (:func:`_reduce_top_degree`).  ``operations``
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
    apparent column, so an int is made only for two or more vertices.
    The record's column of tau is (delta(1_B) as edge rows, 1_B)."""
    n = K.n_simplices(0)
    edges = K.dim_rows[1] if K.dimension else np.empty((0, 2), dtype=np.intp)
    parent = list(range(n))
    mask: dict[int, int] = {}  # root -> indicator of its 2+ vertices
    killed: dict[int, tuple[int, int | None]] = {}  # pivot tau -> (b, 1_B)
    merges = n - 1
    # in blocks of edges, as the loop mostly stops well before the last
    ends = chain.from_iterable(edges[i:i + 1024].tolist() for i in range(0, len(edges), 1024))
    for tau, (a, b) in enumerate(ends):
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
        merges -= 1
        if not merges:
            break
    # the kills whose edge enters after the vertex they kill give bars
    pivots = np.fromiter(killed, dtype=np.intp, count=len(killed))
    death = K.dim_value_arrays[1][pivots] if K.dimension else np.empty(0)
    dead = [b for b, _ in killed.values()]
    positive = K.dim_value_arrays[0][dead] < death
    bars = [(b, end, z) for (b, z), end in compress(zip(killed.values(), death.tolist()),
                                                  positive.tolist())]
    bars += ((r, INF, mask.get(r)) for r in range(n) if parent[r] == r)
    bars.sort(key=lambda bar: -bar[0])

    # the edges, not K: a column holding K would be a reference cycle
    # through K's reduction
    def column(tau: int) -> tuple[list[int], int] | None:
        if tau not in killed:
            return None
        b, z = killed[tau]
        z = 1 << b if z is None else z
        ends = to_bools(z, n)[edges]  # which ends of each edge are in B
        return np.flatnonzero(ends[:, 0] != ends[:, 1]).tolist(), z

    return _Degree(column, pivots, bars)


def _reduce_degree(K: FilteredComplex, q: int, cleared: np.ndarray | list[int]) -> _Degree:
    """Reduce delta_q of K with the columns ``cleared`` skipped.  Its rows
    are the (q+1)-simplices of K, keyed by their index."""
    n, rows = K.n_simplices(q), K.n_simplices(q + 1)
    values_up = K.dim_value_arrays[q + 1] if rows else np.empty(0)
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

    bars, column, pivots = _reduce_columns(
        K.dim_value_arrays[q], np.append(values_up, INF)[first], apparent,
        lambda cols: first[cols].tolist(), cofacets, values_up.item, cleared)
    return _Degree(column, np.sort(np.fromiter(pivots, dtype=np.intp)), bars)


def _reduce_columns(values: np.ndarray, death: np.ndarray, apparent: np.ndarray,
                    pivot, cofacets, value_up, cleared) -> tuple[list, Callable, Iterable]:
    """Settle the columns of delta_p, one per p-simplex s, as the dense
    reduction would (see :class:`CohomologyReduction`): the bars (s,
    death, z) in reverse order of s, the lookup the sparse loop reduced
    with, pivot -> (rows, companion) or None, and the pivots, unordered.
    The columns ``cleared`` are skipped.

    ``values[s]`` is the value of s, ``death[s]`` that of its earliest
    cofacet (inf if none) and ``apparent[s]`` whether s is that
    cofacet's latest facet.  Rows are keyed by the caller, keys compared
    as the rows are ordered: ``pivot(cols)`` lists the keys of the
    earliest cofacets of the columns ``cols``, ``cofacets(j)`` is the
    sorted list of keys of column j and ``value_up(tau)`` the value of
    row tau.  A pivot is owned by its apparent column, which is later
    than any column reaching it, or by a column settled before.  A column
    left whose earliest cofacet has no owner yet keeps it as its pivot
    unreduced (an emergent pair, found without reading its cofacets) and
    becomes its owner; every other column left is reduced and stored as
    in the dense reduction, by :func:`steenrips.gf2.insert`.  The lookup
    gives a stored column, read with :func:`steenrips.gf2.read`, which
    finishes it on its first read, or an apparent or emergent owner's
    sorted cofacets with its unit cochain, computed on each read: an
    owner's unit cochain is an int as long as its index."""
    left = np.ones(len(death), dtype=bool)
    left[cleared] = False
    apparent = apparent & left
    settled = apparent | (left & (death == INF))
    left &= ~settled
    cols = np.flatnonzero(apparent)
    owner = dict(zip(pivot(cols), cols.tolist()))
    bars, columns = [], {}

    def lookup(tau) -> tuple[list, int] | None:
        found = read(columns, tau)
        if found is None and (j := owner.get(tau)) is not None:
            return cofacets(j), 1 << j
        return found

    cols = np.flatnonzero(left)[::-1]
    for s, tau in zip(cols.tolist(), pivot(cols)):
        if tau in columns or tau in owner:
            tau, z = insert(columns, cofacets(s), 1 << s, lookup)  # a sorted list is a heap
        else:  # emergent: its earliest cofacet is the pivot, unreduced
            owner[tau], z = s, None
        end = INF if tau is None else value_up(tau)
        if values[s] < end:
            bars.append((s, end, z))
    unit = np.flatnonzero(settled & (values < death))
    bars += zip(unit.tolist(), death[unit].tolist(), repeat(None))
    bars.sort(key=lambda bar: -bar[0])
    return bars, lookup, chain(owner, columns)


def _reduce_top_degree(K: FilteredComplex, d: np.ndarray, scale: float,
                       cleared: np.ndarray | list[int]) -> _Degree:
    """Reduce delta_p of K's top degree p, with the columns ``cleared``
    skipped, as if K held the (p+1)-simplices of VR of the distance
    matrix d at this scale; it gives no column and has no pivots.

    The cofacet sigma + {v} of a p-simplex sigma enters at the IEEE max
    of value(sigma) and d[u, v], u in sigma, if that is <= scale.  Values
    are handled as their ranks, their positions among the distinct
    entries of d up to the scale (every value is one): the rank matrix
    comes from :func:`steenrips.metric._ranks`, as in ``vr_filtration``,
    an entry past the scale taking the rank one past the last, and the
    rank of a max is the max of the ranks.  Rows of d are indexed by K's
    vertex rows, which is valid because the 0-simplices of a VR complex
    are the points 0..n-1 in order.  The cofacet ranks are computed for
    the columns not cleared in each slice of at most ``_BLOCK`` (sigma,
    v) pairs, and again for one sigma outside the last slice whenever the
    sparse loop needs its cofacets.  The earliest cofacet tau of sigma is
    the least by (value, v), and sigma is its latest facet when every
    other facet tau - {x} has a smaller value, or an equal one and x > v;
    the facet values are compared as ranks, which is exact, since ranks
    order the values within the scale exactly, ties included.
    :func:`_reduce_columns` settles the columns with each (p+1)-simplex
    keyed by one integer, rank(value) * n^(p+2) + the base-n code of its
    sorted vertex rows.  These keys order as the (p+1)-simplices do, as
    Ripser's do, so the bars and companions are those of the explicit
    reduction.  They are int64 where every key fits, and Python ints
    otherwise, so exact for any n.  They hold vertex positions, so no
    vertex tuple of the complex is derived.
    """
    p = K.dimension
    S, vals, n = K.dim_rows[p], K.dim_value_arrays[p], d.shape[0]
    levels, rank, _ = _ranks(d, scale)
    past = len(levels)  # the rank of every entry past the scale
    ranks = levels.searchsorted(vals).astype(rank.dtype)
    codes = n ** (p + 2)  # base-n codes of p + 2 vertex rows
    dtype = np.int64 if past * codes < 2 ** 63 else object

    def cofacet_ranks(sigma) -> np.ndarray:
        """rank(value(sigma + {v})) for the rows sigma and every vertex v,
        ``past`` where that is no cofacet within the scale."""
        cof = np.repeat(ranks[sigma, None], n, axis=1)
        for i in range(p + 1):
            np.maximum(cof, rank[S[sigma, i]], out=cof)
        cof[np.arange(len(cof))[:, None], S[sigma]] = past
        return cof

    kept = np.ones(len(S), dtype=bool)
    kept[cleared] = False
    v = np.zeros(len(S), dtype=np.intp)
    first = np.full(len(S), past, dtype=rank.dtype)  # earliest cofacet ranks; past if cleared
    step = max(1, _BLOCK // n)
    for last in range(0, len(S), step):
        block = None  # freed before the next one is made
        sigma = last + np.flatnonzero(kept[last:last + step])
        block = cofacet_ranks(sigma)
        v[sigma] = block.argmin(axis=1)
        first[sigma] = block[np.arange(len(block)), v[sigma]]
    death = np.append(levels, INF)[first]
    T = np.column_stack([S, v])
    apparent = death < INF
    for x in range(p + 1):
        facet = np.zeros(len(S), dtype=rank.dtype)
        for a, b in combinations([i for i in range(p + 2) if i != x], 2):
            np.maximum(facet, rank[T[:, a], T[:, b]], out=facet)
        apparent &= (facet < ranks) | ((facet == ranks) & (S[:, x] > v))

    # the code of sigma + {w} is gapped[sigma, k] + w * power[k], k the
    # number of rows of sigma below w: row i of sigma is digit i + (i >= k)
    power = np.array([n ** (p + 1 - k) for k in range(p + 2)], dtype=dtype)
    row = np.arange(p + 1)[:, None]
    gapped = S.astype(dtype) @ power[row + (row >= np.arange(p + 2))]

    def keys(cols, ws: np.ndarray, k: np.ndarray, at: np.ndarray) -> np.ndarray:
        """The keys of the cofacets sigma + {w} of the columns cols that
        enter at the ranks ``at``; k counts the rows of sigma below w."""
        return (at.astype(dtype) * codes
                + gapped[cols, k] + ws.astype(dtype, copy=False) * power[k])

    def pivot(cols: np.ndarray) -> list:
        below = (S[cols] < v[cols, None]).sum(axis=1)
        return keys(cols, v[cols], below, first[cols]).tolist()

    def cofacets(j: int) -> list:
        # the last slice's block is kept, other rows are computed again
        cof = block[sigma.searchsorted(j)] if j >= last else cofacet_ranks(slice(j, j + 1))[0]
        ws = (cof < past).nonzero()[0]
        key = keys(j, ws, S[j].searchsorted(ws), cof[ws])
        key.sort()
        return key.tolist()

    level = levels.tolist()
    bars = _reduce_columns(vals, death, apparent, pivot, cofacets,
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
    are dropped.  Each bar's (degree, birth, death) is gathered from its
    record, the births of a degree by one index into its value array,
    and the barcode is built once from those columns
    (:meth:`Barcode.from_arrays`), with no :class:`Bar` built.
    :meth:`Barcode.reduced` removes one infinite degree-0 bar.
    """
    if max_degree < 0:
        raise ValidationError("max_degree must be nonnegative")
    red = reduction(K)
    degree, birth, death = [], [np.empty(0)], []  # an empty complex has no degree
    for p in range(min(max_degree, K.dimension) + 1):
        bars = red.degree(K, p).bars
        degree += [p] * len(bars)
        birth.append(K.dim_value_arrays[p][[s for s, _, _ in bars]])
        death += [end for _, end, _ in bars]
    return Barcode.from_arrays(degree, np.concatenate(birth), death, 1)


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
    return reduce_column(rows(c.bits), 0, partial(read, _Columns(K, p - 1)))[0] is None
