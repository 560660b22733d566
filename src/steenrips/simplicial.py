"""Simplicial complexes, filtrations, coboundaries and cochains.

A filtered complex is stored one dimension at a time: the p-simplices
sorted by (filtration value, lexicographic vertices), as one integer
array of vertex rows and one float64 array of their values.  A row
holds the positions of its vertices among the 0-simplices, so any
vertex ids fit it.  Within every dimension the simplices appear in
nondecreasing value order, so each sublevel set is a prefix of every
dimension.  A complex keeps only these parts: its vertex tuples and
value tuples are derived from the arrays on each read, and its distinct
values on first read, then kept.  The canonical order of the whole
complex, by (filtration value, dimension, lexicographic vertices), in
which faces always precede cofaces, is derived from those parts by a
merge.  Cochains ride on the stored order: the support of a degree-p
cochain is a bit-vector indexed by the p-simplices of its host complex.
Coboundaries, the reduction and cup-i products find faces from the
rows, with :func:`_faces` alone.  It keys
the first c + 1 vertices of a face by the index of the first c among the
(c-1)-simplices and the last vertex, and maps the keys to indices with a
direct-address table, or with a sort where the table would hold more
slots than the sort makes comparisons, so its memory stays within keys *
log2(keys) slots (or a small fixed table).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, repeat
from typing import Iterable, TextIO

import numpy as np

from .errors import (
    ClosureError,
    DimensionMismatchError,
    DuplicateSimplexError,
    InternalInvariantError,
    MonotonicityError,
    ValidationError,
)
from .gf2 import from_bools, rank, to_bools

Simplex = tuple[int, ...]


def normalize_simplex(vertices: Iterable[int]) -> Simplex:
    vs = tuple(sorted(int(v) for v in vertices))
    if not vs:
        raise ValidationError("empty vertex list")
    if any(v < 0 for v in vs):
        raise ValidationError(f"negative vertex id in {vs}")
    if len(set(vs)) != len(vs):
        raise ValidationError(f"repeated vertex in {vs}")
    return vs


def _vertex_tuples(vertices: Sequence[int], rows: np.ndarray) -> tuple[Simplex, ...]:
    """The simplices of the vertex rows, as tuples of vertex ids."""
    return tuple(zip(*(map(vertices.__getitem__, col) for col in rows.T.tolist())))


class FilteredComplex:
    """Finite filtered simplicial complex, stored one dimension at a time.

    ``dim_rows[p]`` is a read-only integer array with one row per
    p-simplex, in order of (value, lexicographic vertices): the
    positions of its vertices among the 0-simplices, increasing.
    ``dim_value_arrays[p]`` is a read-only float64 array of their
    values.  With the vertex ids of the 0-simplices these are the whole
    complex; no dimension is empty.  The rest is derived from them:
    ``distinct_values`` on its first read, then kept, and on each read
    ``dim_values``, every dimension's values as a tuple, ``dim_simplices``,
    every dimension's simplices as tuples of vertex ids, and ``simplices``
    and ``values``, the canonical order by (value, dimension,
    lexicographic vertices), merged from the parts.  They hold Python
    ints and floats.

    ``FilteredComplex(vertices, dim_rows, dim_values)`` takes these
    parts, ``vertices`` the ids of the 0-simplices in order and the
    values of each dimension as a float64 array, kept as it is, or any
    sequence of floats, and trusts them to be sorted, duplicate-free,
    closed under faces and monotone.  :func:`build`, the one place where
    vertex tuples become rows, validates and sorts arbitrary input into
    them; :func:`steenrips.metric.vr_filtration` makes them sorted by
    construction.  Instances are immutable but for two caches: the
    distinct values and ``_reduction``, the cohomology reduction that
    :mod:`steenrips.cohomology` builds on first use.
    """

    __slots__ = ("dim_rows", "dim_value_arrays", "_vertices", "_distinct_values", "_reduction")

    def __init__(self, vertices: Sequence[int], dim_rows: Sequence[np.ndarray],
                 dim_values: Sequence[Sequence[float] | np.ndarray]):
        self._vertices = tuple(vertices)
        self.dim_rows = tuple(dim_rows)
        self.dim_value_arrays = tuple(np.asarray(v, dtype=np.float64) for v in dim_values)
        for array in chain(self.dim_rows, self.dim_value_arrays):
            array.flags.writeable = False
        self._distinct_values = None
        self._reduction = None

    @property
    def distinct_values(self) -> tuple[float, ...]:
        if self._distinct_values is None:
            # of equal values, as -0.0 and 0.0 are, the first one is kept
            values = np.concatenate((np.empty(0), *self.dim_value_arrays))
            self._distinct_values = tuple(values[np.unique(values, return_index=True)[1]].tolist())
        return self._distinct_values

    @property
    def dim_values(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(v.tolist()) for v in self.dim_value_arrays)

    @property
    def dim_simplices(self) -> tuple[tuple[Simplex, ...], ...]:
        return tuple(_vertex_tuples(self._vertices, rows) for rows in self.dim_rows)

    def _canonical(self) -> list[tuple[float, int, Simplex]]:
        """(value, dimension, simplex) in canonical order.  Each dimension
        is already sorted by (value, vertices), so the sort merges runs."""
        return sorted(chain.from_iterable(
            zip(vv.tolist(), repeat(p), ss)
            for p, (ss, vv) in enumerate(zip(self.dim_simplices, self.dim_value_arrays))))

    @property
    def simplices(self) -> tuple[Simplex, ...]:
        return tuple(s for _, _, s in self._canonical())

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _, _ in self._canonical())

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return sum(map(len, self.dim_rows))

    def __eq__(self, other) -> bool:
        # the rows are positions among the 0-simplices, whose ids are
        # compared first, so equal parts are equal simplices
        return (isinstance(other, FilteredComplex)
                and self._vertices == other._vertices
                and len(self.dim_rows) == len(other.dim_rows)
                and all(map(np.array_equal, self.dim_value_arrays, other.dim_value_arrays))
                and all(map(np.array_equal, self.dim_rows, other.dim_rows)))

    def __hash__(self):
        # adding 0.0 turns -0.0 into 0.0, so values that compare equal
        # hash the same bytes
        return hash((self._vertices, *((v + 0.0).tobytes() for v in self.dim_value_arrays)))

    @property
    def dimension(self) -> int:
        return len(self.dim_rows) - 1

    @property
    def num_values(self) -> int:
        return len(self.distinct_values)

    def n_simplices(self, p: int) -> int:
        if 0 <= p < len(self.dim_rows):
            return len(self.dim_rows[p])
        return 0

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * self.n_simplices(p)
                   for p in range(len(self.dim_rows)))


def build(filtered_simplices: Iterable[tuple[Iterable[int], float]]) -> FilteredComplex:
    """Validate and canonically sort a list of (vertex list, value) pairs
    into a complex: the one place where vertex tuples become rows.

    Raises ClosureError, MonotonicityError or DuplicateSimplexError on a
    bad filtration.  Rebuilding from any permutation of the same pairs
    yields an identical complex.
    """
    entries: dict[Simplex, float] = {}
    for vertices, value in filtered_simplices:
        s = normalize_simplex(vertices)
        if s in entries:
            raise DuplicateSimplexError(f"simplex {s} listed twice")
        value = float(value)
        if value != value or value in (float("inf"), float("-inf")):
            raise ValidationError(f"filtration value of {s} must be finite")
        entries[s] = value
    order = sorted(entries, key=lambda s: (entries[s], len(s), s))
    for s in order:
        if len(s) == 1:
            continue
        for facet in combinations(s, len(s) - 1):
            if facet not in entries:
                raise ClosureError(f"{s} present without its face {facet}")
            if entries[facet] > entries[s]:
                raise MonotonicityError(
                    f"face {facet} (value {entries[facet]}) enters after "
                    f"{s} (value {entries[s]})"
                )
    dims: list[list[Simplex]] = [[] for _ in range(max(map(len, order), default=0))]
    for s in order:
        dims[len(s) - 1].append(s)
    vertices = [v for (v,) in dims[0]] if dims else []
    position = dict(zip(vertices, range(len(vertices))))
    return FilteredComplex(vertices, [
        np.fromiter(map(position.__getitem__, chain.from_iterable(ss)),
                    dtype=np.intp, count=len(ss) * (p + 1)).reshape(len(ss), p + 1)
        for p, ss in enumerate(dims)],
        [np.fromiter(map(entries.__getitem__, ss), dtype=np.float64, count=len(ss))
         for ss in dims])


@dataclass(frozen=True)
class Cochain:
    """F2 cochain: bit i of ``bits`` is the value on the i-th p-simplex."""

    host: FilteredComplex
    degree: int
    bits: int = 0

    def __post_init__(self):
        if self.degree < 0:
            raise DimensionMismatchError(
                f"cochain degree must be nonnegative, got {self.degree}")
        n = self.host.n_simplices(self.degree)
        if self.bits < 0 or self.bits >> n:
            raise DimensionMismatchError(
                f"support does not fit the {n} simplices of degree {self.degree}"
            )

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def __xor__(self, other: "Cochain") -> "Cochain":
        if self.host is not other.host or self.degree != other.degree:
            raise DimensionMismatchError("cochains on different hosts/degrees")
        return Cochain(self.host, self.degree, self.bits ^ other.bits)

    __add__ = __xor__

    def simplices(self) -> tuple[Simplex, ...]:
        """The support, as tuples of vertex ids in the stored order."""
        if self.is_zero:
            return ()
        K = self.host
        support = np.flatnonzero(to_bools(self.bits, K.n_simplices(self.degree)))
        return _vertex_tuples(K._vertices, K.dim_rows[self.degree][support])


def zero_cochain(K: FilteredComplex, p: int) -> Cochain:
    return Cochain(K, p, 0)


# Table slots that cost less than a sort's fixed overhead whatever the
# key count: 32 KB, eight pages, against some 20 us for np.unique
_SMALL_TABLE = 1 << 12


def _use_table(entries: int, keys: int) -> bool:
    """Whether a level of :func:`_faces` maps its keys by a table of
    ``entries`` slots: only while the table is no larger than
    ``_SMALL_TABLE`` or than the comparisons a sort of the keys would
    make, keys * log2(keys)."""
    return entries <= max(keys * math.log2(max(keys, 1)), _SMALL_TABLE)


def _faces(K: FilteredComplex, n: int, subsets: Sequence[Sequence[int]]) -> np.ndarray:
    """Row sigma, column k: the index among the p-simplices of the face
    of the n-simplex sigma on its vertex numbers ``subsets[k]``, each an
    increasing tuple of p + 1 numbers in 0..n (at least one subset); no
    rows when n > dim(K).

    Faces are matched one level c = 1..p at a time; level 0 is the vertex
    position itself.  A c-simplex is keyed by i * m + v: i the index of
    its first c vertices among K's (c-1)-simplices, v its last vertex and
    m the number of vertices.  Keys are below n_{c-1} * m, so they are
    exact for every vertex id.  The keys of K's c-simplices
    (``K.dim_rows[c]``) give each key its index, and a level maps through
    them the first c + 1 vertices of every face, and of every simplex of
    K above c that a later level keys.  The map is a direct-address table
    of n_{c-1} * m slots, filled by one scatter and read by one gather,
    with nothing sorted, where :func:`_use_table` finds it no larger than
    a sort of the level's keys; a sparser level ranks its keys with
    ``np.unique``.  So no table holds more than keys * log2(keys) slots,
    or 4,096 on small complexes, and the tables live for one call."""
    if n >= len(K.dim_rows):
        return np.empty((0, len(subsets)), dtype=np.intp)
    p, m = len(subsets[0]) - 1, K.n_simplices(0)
    T, columns = K.dim_rows[n], np.asarray(subsets).T
    # level c reads the index among the (c-1)-simplices of the first c
    # vertices of each d-simplex of K, d = c..p (prefix), and of each face
    prefix, face = [rows[:, 0] for rows in K.dim_rows[1:p + 1]], T[:, columns[0]]
    for c in range(1, p + 1):
        own, *keys = (code * m + rows[:, c] for code, rows in zip(prefix, K.dim_rows[c:]))
        face *= m
        face += T[:, columns[c]]
        entries = len(K.dim_rows[c - 1]) * m
        if _use_table(entries, len(own) + sum(map(len, keys)) + face.size):
            index = np.empty(entries, dtype=np.intp)
            index[own] = np.arange(len(own))
            prefix, face = [index[k] for k in keys], index[face]
        else:
            rank = np.unique(np.concatenate([own, *keys, face.ravel()]),
                             return_inverse=True)[1]
            index = np.empty(len(own), dtype=np.intp)
            index[rank[:len(own)]] = np.arange(len(own))
            found = index[rank[len(own):]]
            ends = [*accumulate(map(len, keys), initial=0)]
            prefix = [found[a:b] for a, b in zip(ends, ends[1:])]
            face = found[ends[-1]:].reshape(face.shape)
    return face


def _facets(K: FilteredComplex, q: int) -> np.ndarray:
    """Row tau, column x: the index among the q-simplices of the
    (q+1)-simplex tau without its vertex number x."""
    return _faces(K, q + 1, [[c for c in range(q + 2) if c != x] for x in range(q + 2)])


def coboundary_matrix(K: FilteredComplex, p: int) -> tuple[int, ...]:
    """Columns of delta_p, one per p-simplex, bits over the (p+1)-simplices."""
    if p < 0:
        raise ValidationError("degree must be nonnegative")
    cols = [0] * K.n_simplices(p)
    # last row first: each column takes its final size at its first bit,
    # so the ints it passes through are all of one size
    for row, facets in reversed(list(enumerate(_facets(K, p).tolist()))):
        bit = 1 << row
        for s in facets:
            cols[s] |= bit
    return tuple(cols)


def coboundary(c: Cochain) -> Cochain:
    """Apply delta to a cochain: its value on a (p+1)-simplex is the
    parity of c's support among that simplex's facets.  No columns of
    delta_p are built."""
    K, p = c.host, c.degree
    support = to_bools(c.bits, K.n_simplices(p))
    parity = np.bitwise_xor.reduce(support[_facets(K, p)], axis=1)
    return Cochain(K, p + 1, from_bools(parity))


# -- reference spaces ------------------------------------------------------


# The antipodal quotient of the icosahedron: six vertices, ten triangles.
_RP2_TRIANGLES = (
    (0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 4, 5),
)


def rp2_complex() -> FilteredComplex:
    """Minimal 6-vertex triangulation of the projective plane, all values 0.

    Built from its ten triangles and self-validated: every edge has
    exactly two cofacing triangles, Euler characteristic 1, F2 Betti
    numbers (1, 1, 1).
    """
    cofaces: dict[Simplex, int] = {}
    for f in _RP2_TRIANGLES:
        for e in combinations(f, 2):
            cofaces[e] = cofaces.get(e, 0) + 1
    if any(c != 2 for c in cofaces.values()):
        raise InternalInvariantError("triangles do not form a closed surface")
    simplices = [((v,), 0.0) for v in range(6)]
    simplices += [(s, 0.0) for s in (*cofaces, *_RP2_TRIANGLES)]
    K = build(simplices)

    if K.euler_characteristic() != 1:
        raise InternalInvariantError("not RP2: wrong Euler characteristic")
    # F2 Betti numbers via coboundary ranks
    ranks = [rank(coboundary_matrix(K, p)) for p in range(3)]
    betti = [K.n_simplices(p) - ranks[p] - (ranks[p - 1] if p else 0)
             for p in range(3)]
    if betti != [1, 1, 1]:
        raise InternalInvariantError(f"not RP2: Betti {betti}, expected (1,1,1)")
    return K


# -- text format -----------------------------------------------------------


def load_complex(source: TextIO | str) -> FilteredComplex:
    """Read the one-simplex-per-line text format: ``value v0 v1 ... vk``.

    ``#`` starts a comment; blank lines are ignored.  The simplices are
    sorted and validated by :func:`build`.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source.read().splitlines()
    entries = []
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValidationError(f"line {ln}: need a value and at least one vertex")
        try:
            value = float(parts[0])
            vertices = [int(t) for t in parts[1:]]
        except ValueError as exc:
            raise ValidationError(f"line {ln}: {exc}") from None
        entries.append((vertices, value))
    return build(entries)


def dump_complex(K: FilteredComplex, stream: TextIO) -> None:
    """Write the canonical form of the text format (round-trips exactly)."""
    for v, _, s in K._canonical():
        stream.write(f"{v!r} " + " ".join(str(x) for x in s) + "\n")
