"""Property tests: bottleneck against the exhaustive oracle on tied inputs,
its first-fit path against Kuhn's search, and both covering searches
against brute force.

Small integer endpoints make pair costs and half-persistences coincide,
so thresholds land exactly on the boundary between bars that must be
matched (half-persistence > c) and bars that may stay unmatched.
Deaths b + k/10 put pair costs where a window computed from the deaths
(d - c <= d' <= d + c) and one read from the pair costs disagree.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrips.cohomology import Bar, Barcode
from steenrips.distances import (
    _costs, _feasible, _first_fit, _saturates, bottleneck, bottleneck_oracle,
)

# (birth, length); length None is an essential bar
bars = st.lists(
    st.tuples(st.integers(0, 4),
              st.one_of(st.integers(1, 4), st.none())),
    max_size=7,
)


def barcode(pairs):
    return Barcode(Bar(0, float(b), math.inf if n is None else float(b + n))
                   for b, n in pairs)


@settings(max_examples=400, deadline=None)
@given(bars, bars)
def test_bottleneck_equals_oracle_on_integer_endpoints(a, b):
    A, B = barcode(a), barcode(b)
    d = bottleneck(A, B, 0)
    assert d == bottleneck_oracle(A, B, 0)
    assert d == bottleneck(B, A, 0)


BIRTHS = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.5])


@st.composite
def one_birth_pair(draw):
    """Two barcodes whose finite bars share one birth per side (each side
    its own), deaths b + k/10 with multiplicities, some side possibly
    empty, and essential bars at any birth: mostly equal counts, at
    times one more on B."""
    essential = draw(st.integers(0, 2))

    def side(count):
        b = draw(BIRTHS)
        finite = draw(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 3)),
                               max_size=8))
        return Barcode([Bar(0, b, b + k / 10, mult) for k, mult in finite]
                       + [Bar(0, e, math.inf) for e in
                          draw(st.lists(BIRTHS, min_size=count, max_size=count))])

    return side(essential), side(essential + draw(st.sampled_from([0, 0, 0, 1])))


def kuhn_bottleneck(A, B):
    """The least candidate at which Kuhn's ``_feasible`` holds, the
    essential bars matched by sorted births."""
    pa, pb = A.expanded(0), B.expanded(0)
    inf_a = sorted(b for b, d in pa if math.isinf(d))
    inf_b = sorted(b for b, d in pb if math.isinf(d))
    if len(inf_a) != len(inf_b):
        return math.inf
    pair, ua, ub = _costs([p for p in pa if not math.isinf(p[1])],
                          [p for p in pb if not math.isinf(p[1])])
    candidates = np.unique(np.concatenate(([0.0], ua, ub, pair.ravel())))
    least = next(c for c in candidates if _feasible(pair, ua, ub, c, _saturates))
    return max(max((abs(x - y) for x, y in zip(inf_a, inf_b)), default=0.0),
               float(least))


@settings(max_examples=300, deadline=None)
@given(one_birth_pair())
def test_first_fit_equals_kuhn_on_one_birth_bars(pair):
    A, B = pair
    d = bottleneck(A, B, 0)
    assert d == kuhn_bottleneck(A, B)
    assert d == bottleneck(B, A, 0)
    if len(A) <= 7 and len(B) <= 7:
        assert d == bottleneck_oracle(A, B, 0)


def assignment_exists(edges):
    """Brute force: does some injective row -> True-column assignment
    exist?"""
    def assign(i, used):
        return i == len(edges) or any(
            edges[i, j] and not used >> j & 1 and assign(i + 1, used | 1 << j)
            for j in range(edges.shape[1]))
    return assign(0, 0)


@st.composite
def boolean_matrix(draw):
    k, m = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    cells = draw(st.lists(st.booleans(), min_size=k * m, max_size=k * m))
    return np.array(cells, dtype=bool).reshape(k, m)


@st.composite
def convex_matrix(draw):
    """Rows of one window each, both window ends nondecreasing down the
    rows; some rows may be empty."""
    k, m = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    ends = [sorted(draw(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))))
            for _ in range(k)]
    lefts, rights = sorted(e[0] for e in ends), sorted(e[1] for e in ends)
    empty = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    edges = np.zeros((k, m), dtype=bool)
    for i, (lo, hi, skip) in enumerate(zip(lefts, rights, empty)):
        edges[i, lo:hi + 1] = not skip
    return edges


@settings(max_examples=400, deadline=None)
@given(boolean_matrix())
def test_kuhn_search_equals_brute_force(edges):
    exists = assignment_exists(edges)
    assert _saturates(edges) == exists
    assert not _first_fit(edges) or exists  # first-fit never overclaims


@settings(max_examples=400, deadline=None)
@given(convex_matrix())
def test_first_fit_equals_brute_force_on_convex_rows(edges):
    assert _first_fit(edges) == assignment_exists(edges) == _saturates(edges)


def test_kuhn_search_augments_through_every_row():
    """Kuhn's search gives row i column i; the last row's one neighbour is
    column 0, so covering it takes an augmenting path through every row,
    each earlier row moving one column right."""
    for k in (3, 4, 6):
        edges = np.zeros((k, k), dtype=bool)
        for i in range(k - 1):
            edges[i, i:i + 2] = True
        edges[k - 1, 0] = True
        assert _saturates(edges) and assignment_exists(edges)
        edges[k - 2, k - 1] = False
        assert not _saturates(edges) and not assignment_exists(edges)
