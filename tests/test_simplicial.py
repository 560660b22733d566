import io

import numpy as np
import pytest

from steenrips.errors import (
    ClosureError,
    DimensionMismatchError,
    DuplicateSimplexError,
    MonotonicityError,
    ValidationError,
)
from steenrips.gf2 import rank
from steenrips.metric import metric_from_points, vr_filtration
from steenrips.simplicial import (
    Cochain,
    FilteredComplex,
    build,
    coboundary,
    coboundary_matrix,
    dump_complex,
    load_complex,
    rp2_complex,
    zero_cochain,
)
from steenrips.synthetic import random_filtered_complex

from oracles import (
    _chain_boundary_columns,
    cochain_from_simplices,
    restrict_cochain,
    sublevel,
    value_of,
)

TRIANGLE_BOUNDARY = [
    ([0], 0.0), ([1], 0.0), ([2], 0.0),
    ([0, 1], 0.0), ([0, 2], 0.0), ([1, 2], 0.0),
]
FULL_TRIANGLE = TRIANGLE_BOUNDARY + [([0, 1, 2], 0.0)]


def test_build_simple_path():
    K = build([([0], 0.0), ([1], 0.0), ([0, 1], 1.0)])
    assert len(K) == 3
    assert K.dimension == 1
    assert K.distinct_values == (0.0, 1.0)


def test_build_closure_error():
    with pytest.raises(ClosureError):
        build([([0, 1], 1.0)])


def test_build_monotonicity_error():
    with pytest.raises(MonotonicityError):
        build([([0], 0.0), ([1], 2.0), ([0, 1], 1.0)])


def test_build_duplicate_error():
    with pytest.raises(DuplicateSimplexError):
        build([([0], 0.0), ([0], 1.0)])


def test_build_rejects_non_finite_values():
    with pytest.raises(ValidationError):
        build([([0], float("nan"))])
    with pytest.raises(ValidationError):
        build([([0], float("inf"))])


def test_full_triangle_euler():
    K = build(FULL_TRIANGLE)
    assert K.euler_characteristic() == 1


def test_canonical_order_total():
    rng = np.random.default_rng(2)
    for _ in range(20):
        K = random_filtered_complex(rng)
        entries = list(zip(K.simplices, K.values))
        perm = rng.permutation(len(entries))
        K2 = build([(list(entries[i][0]), entries[i][1]) for i in perm])
        assert K == K2


def test_one_constructor_rebuilds_from_per_dimension_parts():
    """A complex is its per-dimension parts: rebuilt from them it is equal
    in every view, and its canonical order is derived from them."""
    rng = np.random.default_rng(7)
    # an integer grid ties many VR values across dimensions
    grid = metric_from_points(np.array([(i, j) for i in range(3) for j in range(3)]))
    G = vr_filtration(grid, 3, 2.0)
    pairs = [([0], 0.0), ([2], 0.0), ([1], 1.0), ([0, 2], 1.0), ([1, 2], 1.0),
             ([0, 1], 2.0), ([0, 1, 2], 2.0), ([3], 2.0)]
    rng.shuffle(pairs)
    for K in (build(pairs), random_filtered_complex(rng, target_size=30), build([]),
              G, sublevel(G, G.num_values // 2), sublevel(G, 0)):
        R = FilteredComplex(K._vertices, K.dim_rows, K.dim_values)
        assert R == K and hash(R) == hash(K) and len(R) == len(K)
        assert R.simplices == K.simplices and R.values == K.values
        assert R.distinct_values == K.distinct_values
        a, b = io.StringIO(), io.StringIO()
        dump_complex(K, a)
        dump_complex(R, b)
        assert a.getvalue() == b.getvalue()
        canonical = sorted((v, len(s) - 1, s) for ss, vv in zip(K.dim_simplices, K.dim_values)
                           for s, v in zip(ss, vv))
        assert K.simplices == tuple(s for _, _, s in canonical)
        assert K.values == tuple(v for v, _, _ in canonical)
        assert len(K) == len(canonical)
        assert K.distinct_values == tuple(sorted(set(K.values)))


def test_faces_precede_cofaces():
    rng = np.random.default_rng(4)
    for _ in range(20):
        K = random_filtered_complex(rng)
        position = {s: i for i, s in enumerate(K.simplices)}
        for pos, s in enumerate(K.simplices):
            if len(s) == 1:
                continue
            for facet in [s[:i] + s[i + 1:] for i in range(len(s))]:
                assert position[facet] < pos


def test_coboundary_triangle_boundary():
    K = build(TRIANGLE_BOUNDARY)
    m = coboundary_matrix(K, 0)
    assert len(m) == 3 and max(c.bit_length() for c in m) <= 3
    assert rank(m) == 2


def test_coboundary_above_top_dimension():
    K = build(TRIANGLE_BOUNDARY)
    assert coboundary_matrix(K, 1) == (0, 0, 0)


def test_cochain_refuses_a_negative_degree():
    """A degree below 0 is refused when the cochain is made, not by an
    IndexError in coboundary, sq or is_coboundary later."""
    K = build(FULL_TRIANGLE)
    for p in (-1, -2):
        with pytest.raises(DimensionMismatchError):
            Cochain(K, p, 0)
        with pytest.raises(DimensionMismatchError):
            zero_cochain(K, p)


def test_cochain_simplices_are_its_support():
    """A cochain's simplices are the vertex tuples its bits select, in
    the stored order; a zero cochain has none, above the top degree too."""
    K = build(FULL_TRIANGLE)
    assert Cochain(K, 1, 0b101).simplices() == (K.dim_simplices[1][0], K.dim_simplices[1][2])
    assert Cochain(K, 2, 1).simplices() == ((0, 1, 2),)
    assert zero_cochain(K, 1).simplices() == zero_cochain(K, 3).simplices() == ()


def test_coboundary_full_triangle_degree1():
    K = build(FULL_TRIANGLE)
    assert coboundary_matrix(K, 1) == (1, 1, 1)


def test_delta_squared_is_zero():
    rng = np.random.default_rng(8)
    for _ in range(20):
        K = random_filtered_complex(rng)
        for p in range(K.dimension):
            outer = coboundary_matrix(K, p + 1)
            for col in coboundary_matrix(K, p):
                acc = 0
                for i in range(col.bit_length()):
                    if col >> i & 1:
                        acc ^= outer[i]
                assert acc == 0


def test_coboundary_is_the_sum_of_delta_columns():
    rng = np.random.default_rng(25)
    for _ in range(30):
        K = random_filtered_complex(rng, target_size=20)
        for p in range(K.dimension + 1):
            columns = coboundary_matrix(K, p)
            bits = int(rng.integers(0, 1 << len(columns)))
            want = 0
            for i, col in enumerate(columns):
                if bits >> i & 1:
                    want ^= col
            delta = coboundary(Cochain(K, p, bits))
            assert delta.degree == p + 1 and delta.bits == want
            # the transpose of the boundary that the oracle finds by tuples
            boundary = _chain_boundary_columns(K, p + 1)
            assert columns == tuple(sum(1 << t for t, col in enumerate(boundary) if col >> s & 1)
                                    for s in range(K.n_simplices(p)))


def test_sublevel_whole_and_empty():
    K = build([([0], 0.0), ([1], 0.0), ([2], 1.0), ([0, 1], 2.0)])
    assert sublevel(K, K.num_values - 1) == K
    K0 = sublevel(K, 0)
    assert len(K0) == 2 and K0.dimension == 0
    with pytest.raises(ValidationError):
        sublevel(K, K.num_values)


def test_sublevel_triangle_vertices_only():
    K = build([([v], 0.0) for v in range(3)]
              + [([0, 1], 1.0), ([0, 2], 1.0), ([1, 2], 1.0)])
    K0 = sublevel(K, 0)
    assert len(K0) == 3 and K0.dimension == 0


def test_sublevel_nested():
    """Sublevels grow with i, and each is the complex build makes of its
    pairs, down to the per-dimension parts."""
    rng = np.random.default_rng(14)
    for _ in range(10):
        K = random_filtered_complex(rng)
        prev = set()
        for i in range(K.num_values):
            Ki = sublevel(K, i)
            B = build(zip(Ki.simplices, Ki.values))
            assert Ki == B
            assert Ki.dim_simplices == B.dim_simplices
            assert Ki.dim_values == B.dim_values
            assert Ki.distinct_values == B.distinct_values
            cur = set(Ki.simplices)
            assert prev <= cur
            prev = cur


def test_restrict_cochain_identity_and_zero():
    K = build([([v], 0.0) for v in range(3)]
              + [([0, 1], 1.0), ([0, 2], 1.0), ([1, 2], 2.0)])
    c = cochain_from_simplices(K, 1, [[1, 2]])
    assert restrict_cochain(c, sublevel(K, K.num_values - 1)).bits == c.bits
    r = restrict_cochain(c, sublevel(K, 1))
    assert r.is_zero


def test_restrict_cochain_host_mismatch():
    K = build(FULL_TRIANGLE)
    other = build([([0], 0.0), ([5], 0.0)])
    c = zero_cochain(K, 1)
    with pytest.raises(DimensionMismatchError):
        restrict_cochain(c, other)


def test_restriction_commutes_with_coboundary():
    rng = np.random.default_rng(21)
    for _ in range(25):
        K = random_filtered_complex(rng, target_size=20)
        for p in range(K.dimension):
            bits = int(rng.integers(0, 1 << K.n_simplices(p)))
            c = Cochain(K, p, bits)
            for i in range(K.num_values):
                Ki = sublevel(K, i)
                a = coboundary(restrict_cochain(c, Ki))
                b = restrict_cochain(coboundary(c), Ki)
                assert a.bits == b.bits


def test_rp2_complex_counts():
    K = rp2_complex()
    assert K.n_simplices(0) == 6
    assert K.n_simplices(1) == 15
    assert K.n_simplices(2) == 10
    assert K.euler_characteristic() == 1


def test_text_roundtrip():
    rng = np.random.default_rng(31)
    for _ in range(10):
        K = random_filtered_complex(rng)
        buf = io.StringIO()
        dump_complex(K, buf)
        K2 = load_complex(buf.getvalue())
        assert K == K2


def test_text_parsing():
    K = load_complex("# comment\n0 0\n0 1\n1.5 0 1  # edge\n")
    assert len(K) == 3
    assert value_of(K, [0, 1]) == 1.5
    for missing in ([0, 2], [0, 1, 2]):
        with pytest.raises(KeyError):
            value_of(K, missing)
    with pytest.raises(ValidationError):
        load_complex("0\n")
    with pytest.raises(ValidationError):
        load_complex("x 0 1\n")
