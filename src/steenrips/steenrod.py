"""Chain-level cup-i products and Steenrod squares on cocycles.

The cup-i product uses the overlapping-block simplicial formula: for
alpha of degree p, beta of degree q and sigma = [v_0..v_n] with
n = p + q - i, sum over cut tuples 0 <= a_0 < ... < a_i <= n the
product alpha(even blocks) * beta(odd blocks), where block j spans
v_{a_{j-1}}..v_{a_j} (a_{-1} = 0, a_{i+1} = n) and terms whose blocks
have the wrong total size are dropped.  Everything here is gated by the
mod-2 coboundary identity

    delta(a cup_i b) = a cup_{i-1} b + b cup_{i-1} a
                       + delta(a) cup_i b + a cup_i delta(b)

(cup_{-1} = 0), which the test suite checks exhaustively on random
complexes, and by the axioms on the projective plane.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations

from .errors import DimensionMismatchError, NotACocycleError, ValidationError
from .simplicial import Cochain, FilteredComplex, coboundary, zero_cochain


@lru_cache(maxsize=None)
def _blocks(p: int, q: int, i: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Vertex positions of the even and odd blocks of every cut tuple of
    cup_i on degrees (p, q) whose even blocks hold p + 1 vertices."""
    n = p + q - i
    table = []
    for cuts in combinations(range(n + 1), i + 1):
        ends = (0, *cuts, n)
        blocks = [range(ends[j], ends[j + 1] + 1) for j in range(i + 2)]
        even, odd = (tuple(chain.from_iterable(blocks[k::2])) for k in (0, 1))
        if len(even) == p + 1:
            table.append((even, odd))
    return tuple(table)


def _cup_bits(K: FilteredComplex, p: int, q: int, i: int,
              abits: int, bbits: int, count: int | None = None) -> int:
    """Support bits of (alpha cup_i beta) on the first ``count`` simplices
    of dimension p + q - i (all of them when count is None)."""
    n = p + q - i
    if n > K.dimension:
        return 0
    target = K.dim_simplices[n]
    index_a = K.dim_index[p]
    index_b = K.dim_index[q]
    blocks = _blocks(p, q, i)
    out = 0
    for pos in range(len(target) if count is None else count):
        sigma = target[pos]
        val = 0
        for even, odd in blocks:
            face_a = index_a[tuple([sigma[v] for v in even])]
            face_b = index_b[tuple([sigma[v] for v in odd])]
            val ^= (abits >> face_a) & (bbits >> face_b) & 1
        if val:
            out |= 1 << pos
    return out


def cup_i(alpha: Cochain, beta: Cochain, i: int) -> Cochain:
    """Cup-i product; i = 0 is the front-face/back-face cup product."""
    if alpha.host is not beta.host:
        raise DimensionMismatchError("cochains live on different complexes")
    p, q = alpha.degree, beta.degree
    if not 0 <= i <= min(p, q):
        raise ValidationError(f"cup-{i} undefined for degrees ({p}, {q})")
    K = alpha.host
    bits = _cup_bits(K, p, q, i, alpha.bits, beta.bits)
    return Cochain(K, p + q - i, bits)


def sq(k: int, c: Cochain) -> Cochain:
    """Chain-level representative of Sq^k on the class of the cocycle c.

    Sq^k(c) = c cup_{n-k} c for 0 <= k <= n = deg(c), the zero cochain
    for k > n.  The represented class does not depend on the chosen
    representative.
    """
    if k < 0:
        raise ValidationError("k must be nonnegative")
    if not coboundary(c).is_zero:
        raise NotACocycleError("sq requires a cocycle input")
    n = c.degree
    if k > n:
        return zero_cochain(c.host, n + k)
    return cup_i(c, c, n - k)
