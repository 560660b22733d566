"""Property tests: bottleneck against the exhaustive oracle on tied inputs.

Small integer endpoints make pair costs and half-persistences coincide,
so thresholds land exactly on the boundary between bars that must be
matched (half-persistence > c) and bars that may stay unmatched.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from steenrips.cohomology import Bar, Barcode
from steenrips.distances import bottleneck, bottleneck_oracle

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
