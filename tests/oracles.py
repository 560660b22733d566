"""Independent brute-force oracles the production code is tested against.

Everything here goes through homology-side cycle/boundary spaces, or
through explicit sublevel complexes (:func:`sublevel`) and restriction,
and plain rank computations; nothing reads the cohomology reduction
that the production barcodes and bases come from, and the elimination
here is its own: bit-vector columns in a dict of pivots
(:func:`insert`), not the library's heap column.  Slow but
first-principles.  The one column-reduction pairing here,
:func:`dense_reduction`, is the dense elimination that the sparse
reduction replaced; it pins that reduction's bars, companions and
pivot columns.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain, combinations
from typing import Iterable, Sequence

import numpy as np

from steenrips.cohomology import Bar, Barcode
from steenrips.distances import _first_fit, _saturates
from steenrips.errors import DimensionMismatchError, ValidationError
from steenrips.operations import Operation
from steenrips.simplicial import (
    Cochain,
    FilteredComplex,
    Simplex,
    coboundary_matrix,
    normalize_simplex,
    zero_cochain,
)
from steenrips.steenrod import sq


def distinct(dim_values: Iterable[Iterable[float]]) -> tuple[float, ...]:
    """The distinct values of the given dimensions' values, increasing; of
    equal values, as -0.0 and 0.0 are, the first one is kept."""
    return tuple(sorted(set(chain.from_iterable(dim_values))))


def sublevel(K: FilteredComplex, i: int) -> FilteredComplex:
    """Prefix complex of everything with value <= the i-th distinct value.

    Its rows, values and vertex ids are prefixes of K's: the 0-simplices
    it keeps are K's first ones, so its rows need no renumbering.  The
    i-th value is found from K's values, so K's distinct values are not
    derived."""
    values = distinct(K.dim_values)
    if not 0 <= i < len(values):
        raise ValidationError(
            f"filtration index {i} out of range [0, {len(values)})"
        )
    t = values[i]
    # a dimension with nothing at or below t has no cofaces there either
    ends = [m for m in (bisect_right(vv, t) for vv in K.dim_values) if m]
    return FilteredComplex(K._vertices[:ends[0]],
                           [rows[:m] for rows, m in zip(K.dim_rows, ends)],
                           [vv[:m] for vv, m in zip(K.dim_values, ends)])


def simplex_index(K: FilteredComplex, p: int) -> dict[Simplex, int]:
    """simplex -> its position among the p-simplices of K."""
    return {s: i for i, s in enumerate(K.dim_simplices[p])} if p <= K.dimension else {}


def value_of(K: FilteredComplex, simplex: Iterable[int]) -> float:
    """The filtration value of a simplex of K; KeyError if K lacks it."""
    s = normalize_simplex(simplex)
    i = simplex_index(K, len(s) - 1)[s]
    return K.dim_values[len(s) - 1][i]


def value_on(c: Cochain, simplex: Iterable[int]) -> int:
    """The value of the cochain c on a simplex of its degree."""
    return c.bits >> simplex_index(c.host, c.degree)[normalize_simplex(simplex)] & 1


def cochain_from_simplices(K: FilteredComplex, p: int,
                           simplices: Iterable[Iterable[int]]) -> Cochain:
    """The degree-p cochain of K supported on the given simplices, each
    listed an odd number of times."""
    idx = simplex_index(K, p)
    bits = 0
    for s in simplices:
        bits ^= 1 << idx[normalize_simplex(s)]
    return Cochain(K, p, bits)


def _chain_boundary_columns(K: FilteredComplex, p: int) -> list[int]:
    """Boundary of each p-simplex as bits over (p-1)-simplices of K."""
    if p == 0 or p > K.dimension:
        return [0] * K.n_simplices(p)
    idx = simplex_index(K, p - 1)
    cols = []
    for s in K.dim_simplices[p]:
        bits = 0
        for facet in combinations(s, p):
            bits |= 1 << idx[facet]
        cols.append(bits)
    return cols


def reduce_bits(table: dict[int, tuple[int, int]], bits: int, comp: int = 0) -> tuple[int, int]:
    """The bit-vector ``bits`` reduced by the columns of a table, pivot ->
    (column, companion), each pivot its column's lowest set bit, and
    ``comp`` with the companions of the columns added."""
    while bits:
        entry = table.get((bits & -bits).bit_length() - 1)
        if entry is None:
            break
        bits ^= entry[0]
        comp ^= entry[1]
    return bits, comp


def insert(table: dict[int, tuple[int, int]], bits: int,
           comp: int = 0) -> tuple[int | None, int]:
    """Reduce bits, carrying comp, and store a nonzero residual under its
    lowest set bit; return that pivot (None if bits reduced to zero) and
    the companion."""
    bits, comp = reduce_bits(table, bits, comp)
    if not bits:
        return None, comp
    piv = (bits & -bits).bit_length() - 1
    table[piv] = bits, comp
    return piv, comp


def rank(columns: Iterable[int]) -> int:
    """Dimension of the span of the columns over F2."""
    table: dict[int, tuple[int, int]] = {}
    for bits in columns:
        insert(table, bits)
    return len(table)


def quotient_rank(span: Iterable[int], base: Iterable[int]) -> int:
    """dim((span + base) / base), i.e. rank(span + base) - rank(base)."""
    table: dict[int, tuple[int, int]] = {}
    for bits in base:
        insert(table, bits)
    return sum(insert(table, bits)[0] is not None for bits in span)


def nullspace(columns: Sequence[int]) -> list[int]:
    """Basis of {x : sum of the columns x selects = 0}; bit j of each x
    is the coefficient of column j.

    Companion elimination: column j carries the unit vector 1 << j, and a
    column that reduces to zero leaves a dependency in its companion.
    """
    table: dict[int, tuple[int, int]] = {}
    out = []
    for j, bits in enumerate(columns):
        piv, comp = insert(table, bits, 1 << j)
        if piv is None:
            out.append(comp)
    return out


def _cycle_space(K: FilteredComplex, p: int) -> list[int]:
    """Basis of the p-cycles of K (bits over K's p-simplices)."""
    if p == 0:
        return [1 << i for i in range(K.n_simplices(0))]
    return nullspace(_chain_boundary_columns(K, p))


def brute_rank(K: FilteredComplex, p: int, i: int, j: int) -> int:
    """Rank of H_p(K_i) -> H_p(K_j) for i <= j, via cycle/boundary spaces.

    Chains of K_i include into chains of K_j as a bit-prefix, so the rank
    is dim((Z_p(K_i) + B_p(K_j)) / B_p(K_j)).
    """
    Ki, Kj = sublevel(K, i), sublevel(K, j)
    return quotient_rank(_cycle_space(Ki, p), _chain_boundary_columns(Kj, p + 1))


def brute_betti(K: FilteredComplex, p: int) -> int:
    if p < 0 or p > K.dimension:
        return 0
    return (K.n_simplices(p) - rank(_chain_boundary_columns(K, p))
            - rank(_chain_boundary_columns(K, p + 1)))


def mobius_barcode(rank, values, degree: int) -> Barcode:
    """Barcode of a module from its ranks by Mobius inversion.

    ``rank(i, j)``, for grid indices i <= j, counts the bars alive at
    both values[i] and values[j]; this reads the same for covariant and
    contravariant modules.  The bar alive on indices b..d-1 (d = N is an
    infinite death) has multiplicity
    r(b, d-1) - r(b, d) - r(b-1, d-1) + r(b-1, d), with r = 0 off the grid.
    """
    N = len(values)
    r = [[0] * (N + 1) for _ in range(N + 1)]
    for i in range(N):
        for j in range(i, N):
            r[i][j] = rank(i, j)

    def rk(i, j):
        if i < 0 or j >= N:
            return 0
        return r[i][j]

    bars = []
    for b in range(N):
        for d in range(b + 1, N + 1):
            mu = (rk(b, d - 1) - rk(b, d)) - (rk(b - 1, d - 1) - rk(b - 1, d))
            assert mu >= 0
            if mu:
                death = math.inf if d == N else values[d]
                bars.append(Bar(degree, values[b], death, mu))
    return Barcode(bars)


def brute_barcode(K: FilteredComplex, max_degree: int) -> Barcode:
    """Barcode via Mobius inversion of the brute-force homology ranks."""
    bars = []
    for p in range(max_degree + 1):
        bars.extend(mobius_barcode(lambda i, j: brute_rank(K, p, i, j),
                                   K.distinct_values, p))
    return Barcode(bars)


def is_prefix_of(K: FilteredComplex, other: FilteredComplex) -> bool:
    """K's canonical order is a prefix of other's, read from the
    per-dimension parts: each dimension of K is a prefix of other's, and
    the first simplex other adds in any dimension comes after K's last by
    (value, dimension, vertices)."""
    mine, my_values = K.dim_simplices, K.dim_values
    theirs = other.dim_simplices
    if not mine:
        return True
    if len(mine) > len(theirs):
        return False
    last = max((vv[-1], p, ss[-1]) for p, (ss, vv) in enumerate(zip(mine, my_values)))
    for p, (ss, vv) in enumerate(zip(theirs, other.dim_values)):
        n = 0
        if p < len(mine):
            n = len(mine[p])
            if ss[:n] != mine[p] or vv[:n] != my_values[p]:
                return False
        if n < len(ss) and (vv[n], p, ss[n]) < last:
            return False
    return True


def restrict_cochain(c: Cochain, K_i: FilteredComplex) -> Cochain:
    """Pull a cochain back along the inclusion of a sublevel complex."""
    if not is_prefix_of(K_i, c.host):
        raise DimensionMismatchError(
            "target complex is not a sublevel of the cochain's host"
        )
    n = K_i.n_simplices(c.degree)
    return Cochain(K_i, c.degree, c.bits & ((1 << n) - 1))


def _coboundary_span(K: FilteredComplex, p: int) -> list[int]:
    """Coboundaries in degree p, as columns over K's p-simplices."""
    return list(coboundary_matrix(K, p - 1)) if p >= 1 else []


def oracle_cohomology_basis(K: FilteredComplex, p: int) -> list[Cochain]:
    """Cocycles whose classes form a basis of H^p(K): the nullspace
    vectors of delta_p that are independent modulo the coboundaries and
    the cocycles kept before them."""
    kept: dict[int, tuple[int, int]] = {}
    for col in _coboundary_span(K, p):
        insert(kept, col)
    return [Cochain(K, p, z) for z in nullspace(coboundary_matrix(K, p))
            if insert(kept, z)[0] is not None]


def apply_operation(op: Operation, c: Cochain) -> Cochain:
    """The chain-level action of op on a cocycle of its source degree."""
    if op.kind == "identity":
        return c
    if op.kind == "zero":
        return zero_cochain(c.host, op.target_degree)
    return sq(op.k, c)


def theta_rank(K: FilteredComplex, op: Operation, i: int, j: int) -> int:
    """Rank of img(theta at K_j) -> H^m(K_i): apply the operation to a
    basis of H^ell(K_j), restrict, and quotient by K_i's coboundaries."""
    if i > j:
        raise ValidationError(f"need i <= j, got ({i}, {j})")
    Kj, Ki = sublevel(K, j), sublevel(K, i)
    images = [apply_operation(op, c) for c in oracle_cohomology_basis(Kj, op.source_degree)]
    span = [restrict_cochain(w, Ki).bits for w in images]
    return quotient_rank(span, _coboundary_span(Ki, op.target_degree))


def kernel_rank(K: FilteredComplex, op: Operation, i: int, j: int) -> int:
    """Rank of ker(theta at K_j) -> H^ell(K_i)."""
    if i > j:
        raise ValidationError(f"need i <= j, got ({i}, {j})")
    ell, m = op.source_degree, op.target_degree
    Kj, Ki = sublevel(K, j), sublevel(K, i)
    basis = oracle_cohomology_basis(Kj, ell)
    images = [apply_operation(op, c).bits for c in basis]
    # coefficient vectors a with sum a_t theta(c_t) a coboundary of K_j:
    # the first len(basis) coordinates of the nullspace of [images | delta]
    relations = nullspace(images + _coboundary_span(Kj, m))
    kappas = []
    for rel in relations:
        bits = 0
        for t, c in enumerate(basis):
            if rel >> t & 1:
                bits ^= c.bits
        kappas.append(restrict_cochain(Cochain(Kj, ell, bits), Ki).bits)
    return quotient_rank(kappas, _coboundary_span(Ki, ell))


def cup_i_oracle(alpha: Cochain, beta: Cochain, i: int) -> Cochain:
    """alpha cup_i beta, summed term by term from the formula.

    On sigma = [v_0..v_n], n = p + q - i, the value is the sum over cut
    tuples 0 <= a_0 < ... < a_i <= n of alpha(even blocks) * beta(odd
    blocks), where block j runs from v_{a_{j-1}} to v_{a_j} (a_{-1} = 0,
    a_{i+1} = n); a term whose blocks do not make a p-face and a q-face
    is dropped.
    """
    K, p, q = alpha.host, alpha.degree, beta.degree
    n = p + q - i
    supported, front_index, back_index = [], simplex_index(K, p), simplex_index(K, q)
    for sigma in K.dim_simplices[n] if n <= K.dimension else ():
        total = 0
        for cuts in combinations(range(n + 1), i + 1):
            a = (0, *cuts, n)
            blocks = [sigma[a[j]:a[j + 1] + 1] for j in range(i + 2)]
            front = sum(blocks[0::2], ())
            back = sum(blocks[1::2], ())
            if len(front) == p + 1 and len(back) == q + 1:
                total += (alpha.bits >> front_index[front]) & (beta.bits >> back_index[back]) & 1
        if total % 2:
            supported.append(sigma)
    return cochain_from_simplices(K, n, supported)


def dense_reduction(K: FilteredComplex, p: int) -> tuple[list, list]:
    """delta_0..delta_p reduced with every column built: each degree's
    pivot columns (pivot -> (column, companion)) and its bars (birth
    index, death, companion z) in reverse order of birth index.

    Columns are reduced in reverse order, each carrying its unit bit as
    companion, after clearing the pivots of the degree below, and z is
    None in the top degree (no rows)."""
    tables, all_bars = [], []
    for q in range(p + 1):
        cleared = tables[q - 1] if q else {}
        rows = K.n_simplices(q + 1)
        values = K.dim_values[q]
        values_up = K.dim_values[q + 1] if rows else ()
        table, bars = {}, []
        cols = list(coboundary_matrix(K, q))
        while cols:
            col = cols.pop()
            s = len(cols)
            if s in cleared:
                continue
            tau, z = insert(table, col, 1 << s)
            death = math.inf if tau is None else values_up[tau]
            if values[s] < death:
                bars.append((s, death, z if rows else None))
        tables.append(table)
        all_bars.append(bars)
    return tables, all_bars


def pair_costs(fa: list[tuple[float, float]], fb: list[tuple[float, float]]):
    """L-infinity pair costs (n x m) and half-persistences of two lists of
    finite (birth, death) pairs, as the float expressions the library's
    bottleneck distance compares."""
    a = np.array(fa, dtype=np.float64).reshape(-1, 2)
    b = np.array(fb, dtype=np.float64).reshape(-1, 2)
    pair = np.maximum(np.abs(a[:, None, 0] - b[None, :, 0]),
                      np.abs(a[:, None, 1] - b[None, :, 1]))
    return pair, (a[:, 1] - a[:, 0]) / 2.0, (b[:, 1] - b[:, 0]) / 2.0


def all_candidates_bottleneck(A: Barcode, B: Barcode, degree: int) -> float:
    """The bottleneck distance by one binary search over every candidate:
    np.unique over 0, the half-persistences and every pair cost, each
    probe selecting the bars that must be matched by boolean masks.  It
    covers by first-fit where each side's finite bars share one birth and
    by Kuhn's search otherwise, as the library does; essential bars match
    by sorted births."""
    pa, pb = A.expanded(degree), B.expanded(degree)
    inf_a = sorted(b for b, d in pa if math.isinf(d))
    inf_b = sorted(b for b, d in pb if math.isinf(d))
    if len(inf_a) != len(inf_b):
        return math.inf
    inf_cost = max((abs(x - y) for x, y in zip(inf_a, inf_b)), default=0.0)
    fa = [p for p in pa if not math.isinf(p[1])]
    fb = [p for p in pb if not math.isinf(p[1])]
    if not fa and not fb:
        return inf_cost
    pair, ua, ub = pair_costs(fa, fb)
    one_birth = len({p[0] for p in fa}) <= 1 and len({p[0] for p in fb}) <= 1
    covers = _first_fit if one_birth else _saturates

    def feasible(c: float) -> bool:
        return covers(pair[ua > c] <= c) and covers((pair[:, ub > c] <= c).T)

    ordered = np.unique(np.concatenate(([0.0], ua, ub, pair.ravel())))
    lo, hi = 0, len(ordered) - 1
    assert feasible(ordered[hi])
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return max(inf_cost, float(ordered[lo]))
