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
complexes, and by the axioms on the projective plane.  A product is
array arithmetic: the faces of every n-simplex on each term's blocks
come from the vertex rows (:func:`_cup_faces`), and the value on it is
the XOR over the terms of alpha(even face) AND beta(odd face).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .errors import DimensionMismatchError, NotACocycleError, ValidationError
from .gf2 import from_bools, to_bools
from .simplicial import Cochain, FilteredComplex, _faces, coboundary, zero_cochain


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


def _cup_faces(K: FilteredComplex, p: int, q: int,
               i: int) -> tuple[np.ndarray, np.ndarray]:
    """Row sigma, column t: the index of the even block of term t of
    ``_blocks(p, q, i)`` among the p-simplices, and of its odd block among
    the q-simplices, for each (p + q - i)-simplex sigma of K."""
    even, odd = zip(*_blocks(p, q, i))
    return _faces(K, p + q - i, even), _faces(K, p + q - i, odd)


def _cup_bits(fa: np.ndarray, fb: np.ndarray, a: np.ndarray, b: np.ndarray,
              count: int | None = None) -> int:
    """Support bits of (alpha cup_i beta) on the first ``count`` target
    simplices (all of them when count is None), from the face arrays of
    :func:`_cup_faces` and the values a of alpha and b of beta."""
    return from_bools(np.bitwise_xor.reduce(a[fa[:count]] & b[fb[:count]], axis=1))


def cup_i(alpha: Cochain, beta: Cochain, i: int) -> Cochain:
    """Cup-i product; i = 0 is the front-face/back-face cup product."""
    if alpha.host is not beta.host:
        raise DimensionMismatchError("cochains live on different complexes")
    p, q = alpha.degree, beta.degree
    if not 0 <= i <= min(p, q):
        raise ValidationError(f"cup-{i} undefined for degrees ({p}, {q})")
    K = alpha.host
    bits = _cup_bits(*_cup_faces(K, p, q, i), to_bools(alpha.bits, K.n_simplices(p)),
                     to_bools(beta.bits, K.n_simplices(q)))
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
