"""Simplicial complexes, filtrations, coboundaries and cochains.

A filtered complex is stored in a single canonical order: simplices
sorted by (filtration value, dimension, lexicographic vertices).  Faces
always precede cofaces, and within every dimension the simplices appear
in nondecreasing value order, so each sublevel set is a prefix of the
canonical order in every dimension.  Cochains ride on that order: the
support of a degree-p cochain is a bit-vector indexed by the p-simplices
of its host complex.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence, TextIO

from .errors import (
    ClosureError,
    DimensionMismatchError,
    DuplicateSimplexError,
    InternalInvariantError,
    MonotonicityError,
    ValidationError,
)
from .gf2 import rank

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


class FilteredComplex:
    """Finite filtered simplicial complex in canonical order.

    Built by :func:`build`, which validates and sorts arbitrary input,
    or directly by :func:`steenrips.metric.vr_filtration` and
    :func:`sublevel`, whose output is canonical by construction.  The
    constructor trusts its arguments to be sorted, duplicate-free, closed
    under faces and monotone, and partitions them by dimension;
    ``_from_dims`` takes that partition ready-made.  Instances are
    immutable but for ``_reduction``, a cache of the cohomology reduction
    that :mod:`steenrips.cohomology` builds on first use.
    """

    __slots__ = (
        "simplices",
        "values",
        "dim_simplices",
        "dim_values",
        "dim_index",
        "distinct_values",
        "_reduction",
    )

    def __init__(self, simplices: Sequence[Simplex], values: Sequence[float]):
        simplices = tuple(simplices)
        values = tuple(map(float, values))
        top = max(map(len, simplices), default=0)
        by_dim: list[list[Simplex]] = [[] for _ in range(top)]
        val_by_dim: list[list[float]] = [[] for _ in range(top)]
        for s, v in zip(simplices, values):
            p = len(s) - 1
            by_dim[p].append(s)
            val_by_dim[p].append(v)
        self._assign(simplices, values, tuple(map(tuple, by_dim)),
                     tuple(map(tuple, val_by_dim)))

    @classmethod
    def _from_dims(cls, simplices: tuple[Simplex, ...], values: tuple[float, ...],
                   dim_simplices: tuple[tuple[Simplex, ...], ...],
                   dim_values: tuple[tuple[float, ...], ...]) -> FilteredComplex:
        """The complex with this canonical order and its partition by
        dimension (tuples, float values, no empty dimension)."""
        K = cls.__new__(cls)
        K._assign(simplices, values, dim_simplices, dim_values)
        return K

    def _assign(self, simplices, values, dim_simplices, dim_values) -> None:
        self.simplices = simplices
        self.values = values
        self.dim_simplices = dim_simplices
        self.dim_values = dim_values
        self.dim_index = tuple(
            dict(zip(ss, range(len(ss)))) for ss in dim_simplices
        )
        # values are sorted, so first occurrences come in increasing order
        self.distinct_values = tuple(dict.fromkeys(values))
        self._reduction = None

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self.simplices)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FilteredComplex)
                and self.simplices == other.simplices
                and self.values == other.values)

    def __hash__(self):
        return hash((self.simplices, self.values))

    @property
    def dimension(self) -> int:
        return len(self.dim_simplices) - 1

    @property
    def num_values(self) -> int:
        return len(self.distinct_values)

    def n_simplices(self, p: int) -> int:
        if 0 <= p < len(self.dim_simplices):
            return len(self.dim_simplices[p])
        return 0

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * self.n_simplices(p)
                   for p in range(len(self.dim_simplices)))

    def value_of(self, simplex: Iterable[int]) -> float:
        s = normalize_simplex(simplex)
        p = len(s) - 1
        if p >= len(self.dim_index):
            raise KeyError(s)
        return self.dim_values[p][self.dim_index[p][s]]


def build(filtered_simplices: Iterable[tuple[Iterable[int], float]]) -> FilteredComplex:
    """Validate and canonically sort a list of (vertex list, value) pairs.

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
    return FilteredComplex(order, [entries[s] for s in order])


def sublevel(K: FilteredComplex, i: int) -> FilteredComplex:
    """Prefix complex of everything with value <= the i-th distinct value."""
    if not 0 <= i < K.num_values:
        raise ValidationError(
            f"filtration index {i} out of range [0, {K.num_values})"
        )
    t = K.distinct_values[i]
    n = bisect_right(K.values, t)
    # a dimension with nothing at or below t has no cofaces there either
    ends = [m for m in (bisect_right(vv, t) for vv in K.dim_values) if m]
    return FilteredComplex._from_dims(
        K.simplices[:n], K.values[:n],
        tuple(ss[:m] for ss, m in zip(K.dim_simplices, ends)),
        tuple(vv[:m] for vv, m in zip(K.dim_values, ends)),
    )


@dataclass(frozen=True)
class Cochain:
    """F2 cochain: bit i of ``bits`` is the value on the i-th p-simplex."""

    host: FilteredComplex
    degree: int
    bits: int = 0

    def __post_init__(self):
        n = self.host.n_simplices(self.degree)
        if self.bits < 0 or self.bits >> n:
            raise DimensionMismatchError(
                f"support does not fit the {n} simplices of degree {self.degree}"
            )

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def value_on(self, simplex: Iterable[int]) -> int:
        pos = self.host.dim_index[self.degree][normalize_simplex(simplex)]
        return (self.bits >> pos) & 1

    def __xor__(self, other: "Cochain") -> "Cochain":
        if self.host is not other.host or self.degree != other.degree:
            raise DimensionMismatchError("cochains on different hosts/degrees")
        return Cochain(self.host, self.degree, self.bits ^ other.bits)

    __add__ = __xor__

    def simplices(self) -> tuple[Simplex, ...]:
        sims = self.host.dim_simplices[self.degree]
        return tuple(s for i, s in enumerate(sims) if self.bits >> i & 1)


def zero_cochain(K: FilteredComplex, p: int) -> Cochain:
    return Cochain(K, p, 0)


def cochain_from_simplices(K: FilteredComplex, p: int,
                           simplices: Iterable[Iterable[int]]) -> Cochain:
    bits = 0
    for s in simplices:
        bits ^= 1 << K.dim_index[p][normalize_simplex(s)]
    return Cochain(K, p, bits)


def coboundary_columns(K: FilteredComplex, p: int) -> list[int]:
    """Bit-packed columns of delta_p, one per p-simplex, rows (p+1)-simplices."""
    n_src = K.n_simplices(p)
    cols = [0] * n_src
    if p + 1 > K.dimension:
        return cols
    src_index = K.dim_index[p]
    rows = K.dim_simplices[p + 1]
    # last row first: each column takes its final size at its first bit,
    # so the ints it passes through are all of one size
    for row in range(len(rows) - 1, -1, -1):
        bit = 1 << row
        for facet in combinations(rows[row], p + 1):
            cols[src_index[facet]] |= bit
    return cols


def coboundary_matrix(K: FilteredComplex, p: int) -> tuple[int, ...]:
    """Columns of delta: C^p -> C^{p+1} in the canonical simplex order."""
    if p < 0:
        raise ValidationError("degree must be nonnegative")
    return tuple(coboundary_columns(K, p))


def coboundary(c: Cochain) -> Cochain:
    """Apply delta to a cochain, row by row: its value on a (p+1)-simplex
    is the parity of c's support among that simplex's facets.  No
    columns of delta_p are built."""
    K, p = c.host, c.degree
    out = 0
    if c.bits and p < K.dimension:
        support = set(c.simplices())
        rows = K.dim_simplices[p + 1]
        # last row first, so out takes its final size at its first bit
        for row in range(len(rows) - 1, -1, -1):
            if len(support.intersection(combinations(rows[row], p + 1))) & 1:
                out |= 1 << row
    return Cochain(K, p + 1, out)


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
    for s, v in zip(K.simplices, K.values):
        stream.write(f"{v!r} " + " ".join(str(x) for x in s) + "\n")
