import io
import tracemalloc
from itertools import chain, combinations

import numpy as np
import pytest

import steenrips.simplicial as simplicial
from steenrips.cohomology import persistent_barcode
from steenrips.errors import (
    ClosureError,
    DimensionMismatchError,
    DuplicateSimplexError,
    MonotonicityError,
    ValidationError,
)
from steenrips.gf2 import rank
from steenrips.operations import Operation, image_barcode, kernel_barcode
from steenrips.metric import (
    circle_grid,
    gluing_wedge,
    metric_from_points,
    projective_sample,
    sphere_sample,
    vr_filtration,
)
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
from steenrips.steenrod import _blocks, _cup_faces
from steenrips.synthetic import random_filtered_complex

from oracles import (
    _chain_boundary_columns,
    cochain_from_simplices,
    distinct,
    restrict_cochain,
    simplex_index,
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


def test_distinct_values_match_the_set_oracle():
    """distinct_values, one np.unique over the value arrays, is the sorted
    set of the values read in order: of equal values, as -0.0 and 0.0
    are, the first one read is kept, in either order of the two.  The
    dimensions hold more than 16 values, which np.unique sorts with a
    non-insertion sort that leaves ties in any order."""
    rng = np.random.default_rng(34)
    pool = np.array([-0.0, 0.0, -0.25, 0.25, 0.5, 1.0])
    for first in (-0.0, 0.0):
        for _ in range(30):
            sizes = rng.integers(17, 80, size=int(rng.integers(1, 4))).tolist()
            values = [rng.choice(pool, size) for size in sizes]
            values[0][0] = first
            # distinct_values reads only the values, so the rows may repeat
            rows = [np.zeros((size, p + 1), dtype=np.intp) for p, size in enumerate(sizes)]
            K = FilteredComplex(range(sizes[0]), rows, values)
            assert repr(K.distinct_values) == repr(distinct(K.dim_values))
            assert repr(K.distinct_values) == repr(distinct(v.tolist() for v in values))
        # 20 vertices at alternating signed zeros and 37 edges, some at zero
        pairs = [([v], first if v % 2 == 0 else -first) for v in range(20)]
        pairs += [([v, w], float(rng.choice(pool[[0, 1, 4, 5]])))
                  for v in range(20) for w in (v + 1, v + 2) if w < 20]
        K = build(pairs)
        assert repr(K.distinct_values) == repr(distinct(K.dim_values))
        assert repr(K.distinct_values[0]) == repr(first)


def test_values_are_float64_arrays_handed_out_as_floats():
    """A complex stores one read-only float64 array of values per
    dimension, kept as given, and its constructor also takes tuples.
    Equal complexes hash alike, whether built or made by VR, and with
    -0.0 where the other has 0.0.  Every value it or its barcodes hand
    out is a Python float, and dump_complex writes a VR complex as the
    text of its simplices enumerated one by one."""
    rng = np.random.default_rng(34)
    X = metric_from_points(rng.uniform(size=(9, 2)))
    scale = float(np.median(X.d))
    K = vr_filtration(X, 2, scale)
    B = build(zip(K.simplices, K.values))
    R = FilteredComplex(K._vertices, K.dim_rows, K.dim_value_arrays)
    T = FilteredComplex(K._vertices, K.dim_rows, K.dim_values)
    assert K == B == R == T
    assert hash(K) == hash(B) == hash(R) == hash(T)
    assert all(a is b for a, b in zip(R.dim_value_arrays, K.dim_value_arrays))
    for L in (K, B, T):
        for values in L.dim_value_arrays:
            assert values.dtype == np.float64 and not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 1.0

    positive = build([([0], 0.0), ([1], 0.0), ([0, 1], 1.0)])
    negative = build([([0], -0.0), ([1], 0.0), ([0, 1], 1.0)])
    for A, Z in ((positive, negative), (negative, positive)):
        assert A == Z and hash(A) == hash(Z)
        rebuilt = FilteredComplex(Z._vertices, Z.dim_rows, Z.dim_values)
        assert A == rebuilt and hash(A) == hash(rebuilt)

    op = Operation.sq(1, 1)
    G, P = vr_filtration(projective_sample(2, 20, seed=1), 3, 2.3), rp2_complex()
    assert len(kernel_barcode(G, op)) and len(image_barcode(P, op))
    for L in (K, B, T, negative, G, P):
        assert all(type(v) is float for v in chain(L.values, L.distinct_values, *L.dim_values))
        for barcode in (persistent_barcode(L, 2), image_barcode(L, op), kernel_barcode(L, op)):
            assert all(type(b.birth) is float and type(b.death) is float for b in barcode.bars)

    d = X.d.tolist()
    cliques = (s for k in range(1, 4) for s in combinations(range(X.n), k)
               if all(d[a][b] <= scale for a, b in combinations(s, 2)))
    expected = sorted((max((d[a][b] for a, b in combinations(s, 2)), default=0.0), len(s), s)
                      for s in cliques)
    buf = io.StringIO()
    dump_complex(K, buf)
    assert buf.getvalue() == "".join(
        f"{v!r} " + " ".join(map(str, s)) + "\n" for v, _, s in expected)


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


def _face_complexes() -> list:
    """Small random complexes, complexes with large non-contiguous vertex
    ids, and VR complexes of the benchmark workloads' shapes: a 30-orbit
    RP^2 sample to dimension 3, a circle-sphere wedge to dimension 3 and
    a 200-point noisy circle to dimension 2."""
    rng = np.random.default_rng(41)
    complexes = [random_filtered_complex(rng) for _ in range(12)]
    for count in (9, 14):
        # distinct ids past 2**64, far apart, in random order
        ids = [(1 << 70) + 7919 * k * k for k in rng.permutation(count).tolist()]
        weight = rng.uniform(size=count)
        tops = {tuple(sorted(rng.choice(count, size=size, replace=False).tolist()))
                for size in rng.integers(2, 5, size=3 * count)}
        faces = {f for top in tops for r in range(1, len(top) + 1)
                 for f in combinations(top, r)} | {(v,) for v in range(count)}
        complexes.append(build(
            [([ids[v] for v in f], max(weight[v] for v in f) + len(f)) for f in faces]))
    theta = rng.uniform(0.0, 2.0 * np.pi, 200)
    radius = 1.0 + 0.05 * rng.standard_normal(200)
    wedge = gluing_wedge(circle_grid(9, 1.0), 0, sphere_sample(2, 1.0, 21, seed=2), 0)
    return complexes + [
        vr_filtration(projective_sample(2, 30, seed=3), 3, 2.3),
        vr_filtration(wedge, 3, 1.8),
        vr_filtration(metric_from_points(
            np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])), 2, 0.25)]


def _oracle_faces(K: FilteredComplex, n: int, subsets) -> list[list[int]]:
    """The face indices that _faces returns, looked up by vertex tuple."""
    if n > K.dimension:
        return []
    index = simplex_index(K, len(subsets[0]) - 1)
    return [[index[tuple(s[j] for j in subset)] for subset in subsets]
            for s in K.dim_simplices[n]]


@pytest.mark.parametrize("levels", ["by density", "sorted", "by table"])
def test_faces_match_the_tuple_oracle(monkeypatch, levels):
    """Every facet array and both cup-i face arrays equal the indices
    found by vertex tuple, whichever map each level of _faces takes."""
    if levels != "by density":
        monkeypatch.setattr(simplicial, "_use_table",
                            lambda entries, keys: levels == "by table")
    for K in _face_complexes():
        for q in range(K.dimension):
            facets = simplicial._facets(K, q)
            subsets = [[c for c in range(q + 2) if c != x] for x in range(q + 2)]
            assert facets.dtype == np.intp and facets.shape == (K.n_simplices(q + 1), q + 2)
            assert facets.tolist() == _oracle_faces(K, q + 1, subsets)
        for p in range(K.dimension + 1):
            for q in range(K.dimension + 1):
                for i in range(min(p, q) + 1):
                    even, odd = zip(*_blocks(p, q, i))
                    fa, fb = _cup_faces(K, p, q, i)
                    assert fa.shape == fb.shape == (K.n_simplices(p + q - i), len(even))
                    assert fa.tolist() == _oracle_faces(K, p + q - i, even)
                    assert fb.tolist() == _oracle_faces(K, p + q - i, odd)


def test_faces_memory_is_linear_in_the_keys():
    """5,000 vertices, nearly all isolated, and 300 triangles: a table
    over every (vertex, vertex) pair would take 200 MB, so the level must
    be sorted, and the peak stays within a bound linear in the keys."""
    rng = np.random.default_rng(43)
    ids = rng.permutation(5000)[:900].reshape(300, 3)
    pairs = [([v], 0.0) for v in range(5000)]
    pairs += [(list(f), 1.0) for t in ids.tolist() for f in combinations(sorted(t), 2)]
    pairs += [(t, 2.0) for t in ids.tolist()]
    K = build(pairs)
    assert K.n_simplices(0) == 5000 and K.n_simplices(2) == 300
    # keys: the 900 edges' own, then the faces' (three or one per triangle)
    for call, keys in ((lambda: simplicial._facets(K, 1), 900 + 3 * 300),
                       (lambda: _cup_faces(K, 1, 1, 0), 900 + 300)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 * keys + (64 << 10), f"peak {peak} bytes for {keys} keys"
