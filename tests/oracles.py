"""Independent brute-force oracles the production code is tested against.

Everything here goes through homology-side cycle/boundary spaces, or
through explicit sublevel complexes and restriction, and plain rank
computations; no column-reduction pairing.
Slow but first-principles.
"""

from __future__ import annotations

import math
from itertools import combinations

from steenrips.cohomology import Bar, Barcode, cohomology_basis
from steenrips.errors import DimensionMismatchError, ValidationError
from steenrips.gf2 import F2Matrix, nullspace, quotient_rank, rank
from steenrips.operations import Operation
from steenrips.simplicial import (
    Cochain,
    FilteredComplex,
    coboundary_columns,
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


def _cycle_space(K: FilteredComplex, p: int) -> list[int]:
    """Basis of the p-cycles of K (bits over K's p-simplices)."""
    n_p = K.n_simplices(p)
    if p == 0:
        return [1 << i for i in range(n_p)]
    cols = _chain_boundary_columns(K, p)
    rows = K.n_simplices(p - 1)
    # nullspace by companion elimination
    table: dict[int, tuple[int, int]] = {}
    out = []
    for j in range(n_p):
        bits, comp = cols[j], 1 << j
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


def brute_rank(K: FilteredComplex, p: int, i: int, j: int) -> int:
    """Rank of H_p(K_i) -> H_p(K_j) for i <= j, via cycle/boundary spaces.

    Chains of K_i include into chains of K_j as a bit-prefix, so the rank
    is dim((Z_p(K_i) + B_p(K_j)) / B_p(K_j)).
    """
    Ki, Kj = sublevel(K, i), sublevel(K, j)
    n_p = Kj.n_simplices(p)
    cycles_i = _cycle_space(Ki, p)
    boundaries_j = _chain_boundary_columns(Kj, p + 1)
    Z = F2Matrix(n_p, tuple(cycles_i))
    B = F2Matrix(n_p, tuple(boundaries_j))
    return quotient_rank(Z, B)


def brute_betti(K: FilteredComplex, p: int) -> int:
    if p < 0 or p > K.dimension:
        return 0
    n_p = K.n_simplices(p)
    rank_dp = rank(F2Matrix(K.n_simplices(p - 1) if p else 0,
                             tuple(_chain_boundary_columns(K, p))))
    rank_dp1 = rank(F2Matrix(n_p, tuple(_chain_boundary_columns(K, p + 1))))
    return n_p - rank_dp - rank_dp1


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
    n = len(K.simplices)
    return (n <= len(other.simplices)
            and other.simplices[:n] == K.simplices
            and other.values[:n] == K.values)


def restrict_cochain(c: Cochain, K_i: FilteredComplex) -> Cochain:
    """Pull a cochain back along the inclusion of a sublevel complex."""
    if not is_prefix_of(K_i, c.host):
        raise DimensionMismatchError(
            "target complex is not a sublevel of the cochain's host"
        )
    n = K_i.n_simplices(c.degree)
    return Cochain(K_i, c.degree, c.bits & ((1 << n) - 1))


def _coboundary_span(K: FilteredComplex, p: int) -> F2Matrix:
    """Coboundaries in degree p, as columns over K's p-simplices."""
    return F2Matrix(K.n_simplices(p),
                    tuple(coboundary_columns(K, p - 1)) if p >= 1 else ())


def theta_rank(K: FilteredComplex, op: Operation, i: int, j: int) -> int:
    """Rank of img(theta at K_j) -> H^m(K_i): apply the operation to a
    basis of H^ell(K_j), restrict, and quotient by K_i's coboundaries."""
    if i > j:
        raise ValidationError(f"need i <= j, got ({i}, {j})")
    Kj, Ki = sublevel(K, j), sublevel(K, i)
    images = [op.apply(c) for c in cohomology_basis(Kj, op.source_degree).cocycles]
    bound = _coboundary_span(Ki, op.target_degree)
    span = F2Matrix(bound.rows, tuple(restrict_cochain(w, Ki).bits for w in images))
    return quotient_rank(span, bound)


def kernel_rank(K: FilteredComplex, op: Operation, i: int, j: int) -> int:
    """Rank of ker(theta at K_j) -> H^ell(K_i)."""
    if i > j:
        raise ValidationError(f"need i <= j, got ({i}, {j})")
    ell, m = op.source_degree, op.target_degree
    Kj, Ki = sublevel(K, j), sublevel(K, i)
    basis = cohomology_basis(Kj, ell).cocycles
    images = [op.apply(c).bits for c in basis]
    # coefficient vectors a with sum a_t theta(c_t) a coboundary of K_j:
    # the first len(basis) coordinates of the nullspace of [images | delta]
    bound_j = _coboundary_span(Kj, m)
    relations = nullspace(F2Matrix(bound_j.rows, tuple(images) + bound_j.columns))
    kappas = []
    for rel in relations:
        bits = 0
        for t, c in enumerate(basis):
            if rel[t]:
                bits ^= c.bits
        kappas.append(restrict_cochain(Cochain(Kj, ell, bits), Ki).bits)
    bound_i = _coboundary_span(Ki, ell)
    return quotient_rank(F2Matrix(bound_i.rows, tuple(kappas)), bound_i)
