"""Property tests: bottleneck against the exhaustive oracle on tied inputs,
and its first-fit path against Kuhn's search.

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
from steenrips.distances import _costs, _feasible, bottleneck, bottleneck_oracle

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
    least = next(c for c in candidates if _feasible(pair, ua, ub, c))
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
