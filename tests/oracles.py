"""Independent brute-force oracles the production code is tested against.

Everything here goes through homology-side cycle/boundary spaces, or
through explicit sublevel complexes and restriction, and plain rank
computations; nothing reads the cohomology reduction that the
production barcodes and bases come from.  Slow but first-principles.
The one column-reduction pairing here, :func:`dense_reduction`, is the
dense elimination that the sparse reduction replaced; it pins that
reduction's bars, companions and pivot columns.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Sequence

from steenrips.cohomology import Bar, Barcode
from steenrips.errors import DimensionMismatchError, ValidationError
from steenrips.gf2 import PivotTable, rank
from steenrips.operations import Operation
from steenrips.simplicial import (
    Cochain,
    FilteredComplex,
    coboundary_columns,
    cochain_from_simplices,
    sublevel,
)


def _chain_boundary_columns(K: FilteredComplex, p: int) -> list[int]:
    """Boundary of each p-simplex as bits over (p-1)-simplices of K."""
    if p == 0 or p > K.dimension:
        return [0] * K.n_simplices(p)
    idx = K.dim_index[p - 1]
    cols = []
    for s in K.dim_simplices[p]:
        bits = 0
        for facet in combinations(s, p):
            bits |= 1 << idx[facet]
        cols.append(bits)
    return cols


def quotient_rank(span: Iterable[int], base: Iterable[int]) -> int:
    """dim((span + base) / base), i.e. rank(span + base) - rank(base)."""
    table = PivotTable()
    for bits in base:
        table.insert(bits)
    return sum(table.insert(bits) is not None for bits in span)


def nullspace(columns: Sequence[int]) -> list[int]:
    """Basis of {x : sum of the columns x selects = 0}; bit j of each x
    is the coefficient of column j.

    Companion elimination: column j carries the unit vector 1 << j, and a
    column that reduces to zero leaves a dependency in its companion.
    """
    table: dict[int, tuple[int, int]] = {}
    out = []
    for j, bits in enumerate(columns):
        comp = 1 << j
        while bits:
            piv = (bits & -bits).bit_length() - 1
            entry = table.get(piv)
            if entry is None:
                table[piv] = (bits, comp)
                break
            bits ^= entry[0]
            comp ^= entry[1]
        else:
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
    if not mine:
        return True
    if len(mine) > len(other.dim_simplices):
        return False
    last = max((vv[-1], p, ss[-1]) for p, (ss, vv) in enumerate(zip(mine, my_values)))
    for p, (ss, vv) in enumerate(zip(other.dim_simplices, other.dim_values)):
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
    return coboundary_columns(K, p - 1) if p >= 1 else []


def oracle_cohomology_basis(K: FilteredComplex, p: int) -> list[Cochain]:
    """Cocycles whose classes form a basis of H^p(K): the nullspace
    vectors of delta_p that are independent modulo the coboundaries and
    the cocycles kept before them."""
    kept = PivotTable()
    for col in _coboundary_span(K, p):
        kept.insert(col)
    return [Cochain(K, p, z) for z in nullspace(coboundary_columns(K, p))
            if kept.insert(z) is not None]


def theta_rank(K: FilteredComplex, op: Operation, i: int, j: int) -> int:
    """Rank of img(theta at K_j) -> H^m(K_i): apply the operation to a
    basis of H^ell(K_j), restrict, and quotient by K_i's coboundaries."""
    if i > j:
        raise ValidationError(f"need i <= j, got ({i}, {j})")
    Kj, Ki = sublevel(K, j), sublevel(K, i)
    images = [op.apply(c) for c in oracle_cohomology_basis(Kj, op.source_degree)]
    span = [restrict_cochain(w, Ki).bits for w in images]
    return quotient_rank(span, _coboundary_span(Ki, op.target_degree))


def kernel_rank(K: FilteredComplex, op: Operation, i: int, j: int) -> int:
    """Rank of ker(theta at K_j) -> H^ell(K_i)."""
    if i > j:
        raise ValidationError(f"need i <= j, got ({i}, {j})")
    ell, m = op.source_degree, op.target_degree
    Kj, Ki = sublevel(K, j), sublevel(K, i)
    basis = oracle_cohomology_basis(Kj, ell)
    images = [op.apply(c).bits for c in basis]
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
    supported = []
    for sigma in K.dim_simplices[n] if n <= K.dimension else ():
        total = 0
        for cuts in combinations(range(n + 1), i + 1):
            a = (0, *cuts, n)
            blocks = [sigma[a[j]:a[j + 1] + 1] for j in range(i + 2)]
            front = sum(blocks[0::2], ())
            back = sum(blocks[1::2], ())
            if len(front) == p + 1 and len(back) == q + 1:
                total += alpha.value_on(front) * beta.value_on(back)
        if total % 2:
            supported.append(sigma)
    return cochain_from_simplices(K, n, supported)


def dense_reduction(K: FilteredComplex, p: int) -> tuple[list, list]:
    """delta_0..delta_p reduced with every column built: each degree's
    pivot columns (pivot -> column masked to the rows) and its bars (birth
    index, death, companion z) in reverse order of birth index.

    Columns are reduced in reverse order, each augmented with its unit bit
    above the rows, after clearing the pivots of the degree below, and z
    is None in the top degree (no rows)."""
    tables, all_bars = [], []
    for q in range(p + 1):
        cleared = tables[q - 1] if q else {}
        rows = K.n_simplices(q + 1)
        values = K.dim_values[q]
        values_up = K.dim_values[q + 1] if rows else ()
        table, bars = PivotTable(), []
        cols = coboundary_columns(K, q)
        while cols:
            col = cols.pop()
            s = len(cols)
            if s in cleared:
                continue
            tau, z = table.insert_augmented(col | 1 << (rows + s), rows)
            death = math.inf if tau is None else values_up[tau]
            if values[s] < death:
                bars.append((s, death, z if rows else None))
        mask = (1 << rows) - 1
        tables.append({tau: col & mask for tau, col in table.columns.items()})
        all_bars.append(bars)
    return tables, all_bars
