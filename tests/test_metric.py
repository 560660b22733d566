import ast
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrips.cli import main
from steenrips.distances import gh_lower_bound, rips_barcodes, stability_check
from steenrips.errors import MetricError, ValidationError
from steenrips.cohomology import Barcode, persistent_barcode
from steenrips.metric import (
    FiniteMetricSpace,
    GroupAction,
    antipodal_action,
    circle_grid,
    gluing_wedge,
    linf_product,
    load_distance_matrix,
    load_points_csv,
    metric_from_points,
    projective_sample,
    quotient_metric,
    save_distance_matrix,
    sphere_sample,
    vr_filtration,
)
from steenrips import cohomology, distances, metric, simplicial
from steenrips.operations import Operation, image_barcode, kernel_barcode
from steenrips.simplicial import build
from steenrips.synthetic import random_bounded_metric, random_metric_space

import io
import json
from itertools import combinations


def three_point_space(dist=1.0):
    d = np.full((3, 3), dist)
    np.fill_diagonal(d, 0.0)
    return FiniteMetricSpace(d)


def test_metric_validation():
    with pytest.raises(MetricError):
        FiniteMetricSpace([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(MetricError):
        FiniteMetricSpace([[0.0, 0.0], [0.0, 0.0]])  # coincident points
    with pytest.raises(MetricError):
        FiniteMetricSpace([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(MetricError):
        FiniteMetricSpace([[0.0, float("nan")], [float("nan"), 0.0]])
    with pytest.raises(MetricError):
        FiniteMetricSpace([[0.0, float("inf")], [float("inf"), 0.0]])


def test_triangle_violation_reports_worst_pair():
    msg = "triangle inequality fails at points ({}, {})"
    d = np.ones((4, 4)) - np.eye(4)
    d[1, 3] = d[3, 1] = 2.5
    with pytest.raises(MetricError, match=re.escape(msg.format(1, 3))):
        FiniteMetricSpace(d)
    rng = np.random.default_rng(18)
    for _ in range(30):
        n = int(rng.integers(3, 12))
        d = random_metric_space(rng, n).d.copy()
        for _ in range(int(rng.integers(1, 3))):
            i, j = rng.choice(n, 2, replace=False)
            d[i, j] = d[j, i] = d[i, j] * float(rng.uniform(2.0, 4.0))
        # the pair the one-shot n x n x n minimum reports
        slack = (d[:, None, :] + d[None, :, :]).min(axis=2)
        if not (d > slack + 1e-9).any():
            continue
        i, j = np.unravel_index(np.argmax(d - slack), d.shape)
        with pytest.raises(MetricError, match=re.escape(msg.format(i, j))):
            FiniteMetricSpace(d)


def test_triangle_check_memory_is_quadratic():
    # at 300 points the n x n x n sum array would take 216 MB
    rng = np.random.default_rng(19)
    pts = rng.uniform(size=(300, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    tracemalloc.start()
    try:
        FiniteMetricSpace(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_euclidean_metric_memory_is_three_matrices():
    # the one-shot formula holds the n x n x 2 differences and their
    # squares at once: 5 matrices at the peak.  Row blocks leave the
    # output beside one block of differences and their sums, or beside
    # the stored mirror
    pts = np.random.default_rng(0).uniform(size=(2000, 2))
    tracemalloc.start()
    try:
        X = metric_from_points(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * X.d.nbytes


def test_load_holds_the_output_and_a_mask():
    # checking symmetry with abs(d - d.T) and mirroring with triu(d, 1)
    # plus its transpose each held two n x n temporaries: +2.00 times the
    # output.  Row blocks of the output hold the asymmetry, then the
    # mirror, beside a block's boolean mask
    d = np.array(metric_from_points(np.random.default_rng(0).uniform(size=(2000, 2))).d)
    tracemalloc.start()
    try:
        X = FiniteMetricSpace._trusted(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.d.tobytes() == d.tobytes()
    assert peak <= 1.25 * X.d.nbytes


def test_vr_memory_follows_neighbour_lists():
    # 15,685 edges: a dense edges x points mask would take 63 MB, where
    # the n x n adjacency is 16 MB
    X = metric_from_points(np.random.default_rng(0).uniform(size=(4000, 2)))
    tracemalloc.start()
    try:
        K = vr_filtration(X, 2, 0.025)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K.n_simplices(1) == 15685
    assert peak < 40e6


def test_vr_three_points():
    K = vr_filtration(three_point_space(), 2, 2.0)
    assert len(K) == 7
    assert K.value_of([0, 1, 2]) == 1.0


def test_vr_below_minimum_distance():
    K = vr_filtration(three_point_space(), 2, 0.5)
    assert len(K) == 3 and K.dimension == 0


# block sizes for vr_filtration's coface candidates: 1 and 3 put block
# boundaries inside one simplex's candidates, the default holds them all
BLOCKS = pytest.mark.parametrize(
    "block", [1, 3, metric._BLOCK], ids=["1", "3", "default"])


@BLOCKS
def test_vr_matches_subset_enumeration(monkeypatch, block):
    monkeypatch.setattr(metric, "_BLOCK", block)
    rng = np.random.default_rng(6)
    for _ in range(10):
        X = random_metric_space(rng, int(rng.integers(3, 8)))
        max_dim = 2
        scale = float(rng.uniform(0.2, 1.2))
        K = vr_filtration(X, max_dim, scale)
        expected = {}
        for k in range(1, max_dim + 2):
            for subset in combinations(range(X.n), k):
                diam = max((X.d[a, b] for a, b in combinations(subset, 2)),
                           default=0.0)
                if diam <= scale:
                    expected[subset] = diam
        got = dict(zip(K.simplices, K.values))
        assert got == expected


def test_vr_monotone_in_caps():
    rng = np.random.default_rng(16)
    X = random_metric_space(rng, 7)
    small = vr_filtration(X, 1, 0.5)
    big = vr_filtration(X, 2, 0.9)
    for s, v in zip(small.simplices, small.values):
        assert s in big.dim_index[len(s) - 1]
        assert big.value_of(s) == v


def _tied_metric(rng, n):
    """Seeded metric with many equal distances: entries in [1, 2] rounded
    to one decimal (always a metric), or Euclidean distances between
    distinct points of a 5x5 integer grid."""
    if rng.integers(2):
        return FiniteMetricSpace(np.round(random_bounded_metric(rng, n, 1.0, 2.0).d, 1))
    cells = rng.choice(25, size=n, replace=False)
    return metric_from_points(np.stack([cells // 5, cells % 5], axis=1))


def _barcode_json(barcode, images, ops):
    """A barcode, then each operation's image and kernel barcodes."""
    return json.dumps([barcode.to_json_dict()]
                      + [bc.to_json_dict(op.name) for op in ops for bc in images[op]])


def _complex_json(K, top, ops):
    return _barcode_json(persistent_barcode(K, top), {
        op: (image_barcode(K, op), kernel_barcode(K, op)) for op in ops}, ops)


@pytest.mark.parametrize("top", [0, 1, 2])
def test_rips_barcodes_match_full_complex(top, monkeypatch):
    """The complex is built to dimension top, and the reduction of
    delta_top is read from the metric.  The barcode and the image and
    kernel barcodes of id and Sq0 at degree top and of Sq1 into it are
    byte-identical to those of vr_filtration(X, top + 1, scale).
    The metrics are random, tied (so apparent pairs rest on the
    tie-breaks), and random with the lower triangle 5e-10 below the
    upper, which the space does not store."""
    built = []

    def spy(X, max_dim, max_scale):
        K = vr_filtration(X, max_dim, max_scale)
        built.append(K.dimension)
        return K

    monkeypatch.setattr(distances, "vr_filtration", spy)
    rng = np.random.default_rng(307 + top)
    ops = [Operation.identity(top), Operation.sq(0, top)]
    if top:
        ops += [Operation.sq(1, top - 1), Operation.identity(top - 1)]
    for case in range(90):
        n = int(rng.integers(4, 10))
        if case % 3 == 0:
            X = random_metric_space(rng, n)
        elif case % 3 == 1:
            X = _tied_metric(rng, n)
        else:
            d = random_bounded_metric(rng, n).d.copy()
            d[np.tril_indices(n, -1)] -= 5e-10
            X = FiniteMetricSpace(d)
        off = X.d[~np.eye(n, dtype=bool)]
        scale = [X.diameter() + 1e-9, float(rng.choice(off))][case % 2]
        got = _barcode_json(*rips_barcodes(X, top, ops, scale), ops)
        assert built.pop() <= top
        full = vr_filtration(X, top + 1, scale)
        assert got == _complex_json(full, top, ops)


@pytest.mark.parametrize("block", [1, 20])
def test_top_degree_row_blocks_change_no_bar(block, monkeypatch):
    """Blocks of one row, or of a few, give the bytes of one block."""
    rng = np.random.default_rng(331)
    ops = [Operation.identity(2), Operation.sq(1, 1)]
    cases = []
    for case in range(12):
        n = int(rng.integers(5, 10))
        X = random_metric_space(rng, n) if case % 2 else _tied_metric(rng, n)
        cases.append((X, X.diameter() + 1e-9))
    expected = [_barcode_json(*rips_barcodes(X, 2, ops, s), ops) for X, s in cases]
    monkeypatch.setattr(cohomology, "_BLOCK", block)
    assert [_barcode_json(*rips_barcodes(X, 2, ops, s), ops) for X, s in cases] == expected


def test_top_degree_memory_is_two_row_blocks():
    """The top degree's cofacet values are computed in row blocks of at
    most _BLOCK entries.  On 2,000 points at scale 0.04 (9,838 edges) the
    whole edges x points matrix of them and its temporaries peaked at
    300 MB; a block and one temporary take 64 MB."""
    X = metric_from_points(np.random.default_rng(0).uniform(size=(2000, 2)))
    K = vr_filtration(X, 1, 0.04)
    cohomology.reduction(K).degree(K, 0)
    tracemalloc.start()
    try:
        cohomology._reduce_top_degree(K, X.d, 0.04)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K.n_simplices(1) == 9838
    assert peak < 3 * 8 * metric._BLOCK


def test_rips_barcodes_one_point_and_negative_degree(monkeypatch):
    """One point has no enclosing radius and keeps max_scale; a negative
    degree is an error."""
    built = []

    def spy(X, max_dim, max_scale):
        built.append((max_dim, max_scale))
        return vr_filtration(X, max_dim, max_scale)

    monkeypatch.setattr(distances, "vr_filtration", spy)
    P = FiniteMetricSpace([[0.0]])
    op = Operation.sq(1, 1)
    bc, images = rips_barcodes(P, 0, [op], 0.9)
    assert built == [(2, 0.9)]
    assert bc == persistent_barcode(vr_filtration(P, 1, 0.9), 0)
    assert images == {op: (Barcode(), Barcode())}
    X = random_metric_space(np.random.default_rng(317), 7)
    with pytest.raises(ValidationError, match="max_degree"):
        rips_barcodes(X, -1, [], 0.9)
    assert len(built) == 1


def _skewed(rng, n):
    """A random metric with its lower triangle 5e-10 below the upper and
    5e-10 on the diagonal, both within tolerance, and its mirrored upper
    triangle."""
    mirror = random_bounded_metric(rng, n).d.copy()
    d = mirror.copy()
    d[np.tril_indices(n, -1)] -= 5e-10
    np.fill_diagonal(d, 5e-10)
    return d, mirror


def test_asymmetry_within_tolerance_reads_as_the_upper_triangle():
    """A matrix asymmetric within tolerance is stored as its mirrored
    upper triangle with exact zeros on the diagonal, so its metric-path
    barcodes and GH bounds are those of the mirror."""
    rng = np.random.default_rng(331)
    ops = [Operation.sq(1, 1), Operation.identity(2)]
    for _ in range(20):
        n = int(rng.integers(4, 9))
        d, mirror = _skewed(rng, n)
        X, M = FiniteMetricSpace(d), FiniteMetricSpace(mirror)
        assert X.d.tobytes() == mirror.tobytes()
        scale = X.diameter() + 1e-9
        assert (_barcode_json(*rips_barcodes(X, 2, ops, scale), ops)
                == _barcode_json(*rips_barcodes(M, 2, ops, scale), ops))
        Y = random_metric_space(rng, 6)
        assert (gh_lower_bound(X, Y, [0, 1, 2], ops[:1], 3, scale)
                == gh_lower_bound(M, Y, [0, 1, 2], ops[:1], 3, scale))


@BLOCKS
def test_symmetric_in_row_blocks(monkeypatch, block):
    """Whatever the block, the mirror is the bytes of np.triu(d, 1) plus
    its transpose, and the symmetry check decides as abs(d - d.T) does."""
    monkeypatch.setattr(metric, "_BLOCK", block)
    rng = np.random.default_rng(349)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        d = rng.uniform(0.5, 1.0, size=(n, n))
        lower = np.tril_indices(n, -1)
        d[lower] = d.T[lower] + rng.uniform(-2e-9, 2e-9, len(lower[0]))
        upper = np.triu(d, 1)
        assert metric._symmetric(d).tobytes() == (upper + upper.T).tobytes()
        if np.abs(d - d.T).max(initial=0.0) > 1e-9:
            with pytest.raises(MetricError, match="symmetric"):
                metric._symmetric(d, 1e-9)
        else:
            assert metric._symmetric(d, 1e-9).tobytes() == (upper + upper.T).tobytes()


def test_wedge_reads_one_triangle():
    """The wedge of a matrix asymmetric within tolerance is the wedge of
    its mirror, on either side and at every basepoint."""
    rng = np.random.default_rng(337)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        d, mirror = _skewed(rng, n)
        X, M = FiniteMetricSpace(d), FiniteMetricSpace(mirror)
        Y = random_metric_space(rng, 4)
        for x0 in range(n):
            assert (gluing_wedge(X, x0, Y, 1).d.tobytes()
                    == gluing_wedge(M, x0, Y, 1).d.tobytes())
            assert (gluing_wedge(Y, 2, X, x0).d.tobytes()
                    == gluing_wedge(Y, 2, M, x0).d.tobytes())


def test_metric_imports_no_reduction():
    """The reductions live in cohomology and gf2; metric imports from the
    package only errors and simplicial."""
    tree = ast.parse(Path(metric.__file__).read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.add(node.module or "")  # "from . import x" reads as ""
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [a.name for a in node.names])
            package.update(m for m in names if m.split(".")[0] == "steenrips")
    assert package == {"errors", "simplicial"}


@BLOCKS
def test_vr_equals_build_of_same_pairs(monkeypatch, block):
    monkeypatch.setattr(metric, "_BLOCK", block)
    calls = []
    original = simplicial.normalize_simplex

    def counting(vertices):
        calls.append(1)
        return original(vertices)

    monkeypatch.setattr(simplicial, "normalize_simplex", counting)
    rng = np.random.default_rng(26)
    for _ in range(60):
        X = _tied_metric(rng, int(rng.integers(2, 10)))
        off = X.d[~np.eye(X.n, dtype=bool)]
        scales = [off.min() / 2, off.min(), float(rng.choice(off)),
                  float(rng.uniform(off.min(), off.max())), off.max()]
        for scale in scales:
            max_dim = int(rng.integers(0, 5))
            calls.clear()
            K = vr_filtration(X, max_dim, float(scale))
            assert not calls
            B = build(zip(K.simplices, K.values))
            assert len(calls) == len(K)
            assert K == B
            assert K.dim_index == B.dim_index
            assert K.dim_values == B.dim_values
            assert K.distinct_values == B.distinct_values


def test_four_point_circle_distances():
    X = circle_grid(4, 1.0)
    assert X.d[0, 1] == pytest.approx(math.pi / 2)
    assert X.d[0, 2] == pytest.approx(math.pi)


def test_gluing_wedge_two_segments():
    two = FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]])
    W = gluing_wedge(two, 0, two, 0)
    assert W.n == 3
    assert sorted(W.d[np.triu_indices(3, 1)].tolist()) == [1.0, 1.0, 2.0]


def test_gluing_wedge_with_point_is_identity():
    rng = np.random.default_rng(23)
    X = random_metric_space(rng, 5)
    P = FiniteMetricSpace([[0.0]])
    W = gluing_wedge(X, 2, P, 0)
    assert np.array_equal(W.d, X.d)


def test_gluing_wedge_invalid_basepoint():
    two = FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        gluing_wedge(two, 5, two, 0)


def test_linf_product_with_point_is_identity():
    rng = np.random.default_rng(29)
    X = random_metric_space(rng, 6)
    P = FiniteMetricSpace([[0.0]])
    assert np.array_equal(linf_product(P, X).d, X.d)


def test_linf_product_two_by_two():
    a = FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]])
    b = FiniteMetricSpace([[0.0, 2.0], [2.0, 0.0]])
    P = linf_product(a, b)
    off = sorted(P.d[np.triu_indices(4, 1)].tolist())
    assert off == [1.0, 1.0, 2.0, 2.0, 2.0, 2.0]


def test_quotient_trivial_action():
    rng = np.random.default_rng(37)
    X = random_metric_space(rng, 5)
    act = GroupAction(X, (tuple(range(5)),))
    assert np.array_equal(quotient_metric(X, act).d, X.d)


def test_quotient_circle_antipodal():
    # 2k points on a radius-2 circle under the antipodal swap: k points on
    # a radius-1 circle
    for k in (3, 5):
        big = circle_grid(2 * k, 2.0)
        perm = tuple((i + k) % (2 * k) for i in range(2 * k))
        act = GroupAction(big, (perm,))
        q = quotient_metric(big, act)
        small = circle_grid(k, 1.0)
        assert np.allclose(np.sort(q.d, axis=None), np.sort(small.d, axis=None))


def test_quotient_free_action_orbit_count():
    X = sphere_sample(2, 2.0, 10, seed=3, antipodal_closure=True)
    act = antipodal_action(X)
    assert quotient_metric(X, act).n == 10


def test_orbits_without_building_the_group():
    # (0 1) and the 8-cycle generate all 40,320 permutations of 8 points;
    # the orbits come from the two generators alone
    X = FiniteMetricSpace(np.ones((8, 8)) - np.eye(8))
    swap = (1, 0) + tuple(range(2, 8))
    cycle = tuple(range(1, 8)) + (0,)
    tracemalloc.start()
    try:
        act = GroupAction(X, (swap, cycle))
        Q = quotient_metric(X, act)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert act.orbits() == [tuple(range(8))]
    assert Q.n == 1
    assert peak < 1 << 20
    # orbits by least point, each sorted: (0 5)(2 7) and (1 3 6)(4 5)
    act = GroupAction(X, ((5, 1, 7, 3, 4, 0, 6, 2), (0, 3, 2, 6, 5, 4, 1, 7)))
    assert act.orbits() == [(0, 4, 5), (1, 3, 6), (2, 7)]


def test_group_action_rejects_non_isometry():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.5], [2.0, 2.5, 0.0]])
    X = FiniteMetricSpace(d)
    with pytest.raises(ValidationError):
        GroupAction(X, ((1, 0, 2),))


def test_sphere_sample_antipodal_distance():
    X = sphere_sample(2, 1.5, 8, seed=1, antipodal_closure=True)
    for i in range(8):
        assert X.d[i, i + 8] == pytest.approx(math.pi * 1.5)


def test_sphere_sample_deterministic():
    a = sphere_sample(2, 1.0, 12, seed=42)
    b = sphere_sample(2, 1.0, 12, seed=42)
    assert np.array_equal(a.d, b.d)
    c = sphere_sample(2, 1.0, 12, seed=43)
    assert not np.array_equal(a.d, c.d)


def test_circle_grid_consecutive_distance():
    X = circle_grid(40, 1.0)
    assert X.d[0, 1] == pytest.approx(2 * math.pi / 40)


def test_projective_sample_diameter_bound():
    Q = projective_sample(2, 15, seed=7)
    assert Q.n == 15
    assert Q.diameter() <= math.pi + 1e-9


def test_distance_matrix_roundtrip():
    rng = np.random.default_rng(41)
    X = random_metric_space(rng, 6)
    buf = io.StringIO()
    save_distance_matrix(X, buf)
    Y = load_distance_matrix(buf.getvalue())
    assert np.array_equal(X.d, Y.d)
    with pytest.raises(ValidationError):
        load_distance_matrix("-1 5")  # 1 + n * n tokens, but n < 0


def test_points_csv_euclidean_and_sphere():
    pts = load_points_csv("0,0\n1,0\n0,1\n")
    X = metric_from_points(pts, "euclidean")
    assert X.d[0, 1] == pytest.approx(1.0)
    on_sphere = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [-2.0, 0.0, 0.0]])
    S = metric_from_points(on_sphere, "sphere:2")
    assert S.d[0, 2] == pytest.approx(2 * math.pi)
    with pytest.raises(ValidationError):
        metric_from_points(on_sphere * 1.1, "sphere:2")
    with pytest.raises(ValidationError):
        metric_from_points(pts, "hyperbolic")


# -- trusted constructors ---------------------------------------------------

coords = st.integers(-1000, 1000).map(lambda k: k / 100)
radii = st.floats(0.1, 10.0)
seeds = st.integers(0, 2**32 - 1)


def _clouds(max_points):
    return st.integers(1, 3).flatmap(lambda dim: st.lists(
        st.tuples(*[coords] * dim), min_size=2, max_size=max_points,
        unique=True).map(np.array))


def _sphere_clouds(max_points):
    """(points, R): one integer direction per ray, scaled to radius R.
    Two directions are >= 3e-3 rad apart, so arccos rounding stays far
    below the 1e-9 tolerance."""
    directions = st.integers(2, 3).flatmap(lambda dim: st.lists(
        st.tuples(*[st.integers(-10, 10)] * dim).filter(any),
        min_size=2, max_size=max_points,
        unique_by=lambda v: tuple(c // math.gcd(*v) for c in v)))

    def on_sphere(args):
        v, radius = np.array(args[0], dtype=float), args[1]
        return v * (radius / np.linalg.norm(v, axis=1))[:, None], radius

    return st.tuples(directions, radii).map(on_sphere)


def _bounded(args):
    seed, n, low, ratio = args
    return random_bounded_metric(np.random.default_rng(seed), n, low, low * ratio)


@st.composite
def _sphere_samples(draw, max_points):
    closed = draw(st.booleans())
    count = draw(st.integers(2, max_points // 2 if closed else max_points))
    return sphere_sample(draw(st.integers(1, 3)), draw(radii), count,
                         draw(seeds), antipodal_closure=closed)


def _spaces(max_points):
    """Spaces from the constructors that take no space."""
    n = st.integers(2, max_points)
    return st.one_of(
        _clouds(max_points).map(metric_from_points),
        _sphere_clouds(max_points).map(
            lambda a: metric_from_points(a[0], f"sphere:{a[1]!r}")),
        _sphere_samples(max_points),
        st.builds(circle_grid, n, radii),
        st.builds(lambda dim, count, seed, radius:
                  projective_sample(dim, count, seed, radius),
                  st.integers(1, 3), n, seeds, radii),
        st.builds(lambda seed, count:
                  random_metric_space(np.random.default_rng(seed), count),
                  seeds, n),
        st.tuples(seeds, n, radii, st.floats(1.01, 2.0)).map(_bounded),
    )


@st.composite
def _wedges(draw):
    X, Y = draw(_spaces(20)), draw(_spaces(20))
    return gluing_wedge(X, draw(st.integers(0, X.n - 1)),
                        Y, draw(st.integers(0, Y.n - 1)))


@st.composite
def _quotients(draw):
    """A circle grid by rotations and a reflection, or any space by the
    trivial action."""
    if draw(st.booleans()):
        X = draw(_spaces(40))
        return quotient_metric(X, GroupAction(X, (tuple(range(X.n)),)))
    count = draw(st.integers(2, 40))
    X = circle_grid(count, draw(radii))
    shift = draw(st.integers(0, count - 1))
    gens = [tuple((i + shift) % count for i in range(count))]
    if draw(st.booleans()):
        gens.append(tuple(-i % count for i in range(count)))
    return quotient_metric(X, GroupAction(X, tuple(gens)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_spaces(40), _wedges(),
                 st.builds(linf_product, _spaces(6), _spaces(6)), _quotients()))
def test_constructors_pass_the_full_check(X):
    """At ordinary scales every trusted constructor's matrix is a metric
    to the tolerance, and the full check keeps its bytes."""
    assert X.d.dtype == np.float64 and not X.d.flags.writeable
    assert FiniteMetricSpace(X.d).d.tobytes() == X.d.tobytes()


class _Checked(Exception):
    pass


def test_only_outside_matrices_reach_the_triangle_check(monkeypatch, tmp_path):
    def checked(d):
        raise _Checked

    monkeypatch.setattr(metric, "_check_triangle", checked)
    rng = np.random.default_rng(43)
    pts = rng.uniform(-1.0, 1.0, size=(12, 3))
    on_sphere = 2.0 * pts / np.linalg.norm(pts, axis=1, keepdims=True)
    c = circle_grid(6, 1.0)
    S = sphere_sample(2, 2.0, 5, seed=1, antipodal_closure=True)
    spaces = [
        metric_from_points(pts), metric_from_points(on_sphere, "sphere:2"), S,
        c, gluing_wedge(c, 0, S, 3), linf_product(c, S),
        quotient_metric(S, antipodal_action(S)), projective_sample(2, 8, seed=1),
        random_metric_space(rng, 7), random_bounded_metric(rng, 7),
    ]
    assert all(isinstance(X, FiniteMetricSpace) for X in spaces)
    with pytest.raises(_Checked):
        FiniteMetricSpace(c.d)
    buf = io.StringIO()
    save_distance_matrix(c, buf)
    with pytest.raises(_Checked):
        load_distance_matrix(buf.getvalue())
    path = tmp_path / "c.dmat"
    path.write_text(buf.getvalue())
    with pytest.raises(_Checked):
        main(["barcode", "--input", str(path), "--max-dim", "2", "--max-scale", "3"])
    with pytest.raises(_Checked):
        stability_check(c, 0.01, 1, 0, Operation.sq(1, 0), 0)


def test_rounding_can_break_a_constructed_metric():
    """Nearly collinear points near 1e8: the Euclidean matrix is the
    rounded value of a metric and is accepted, though rounding breaks
    the triangle inequality by more than the tolerance."""
    rng = np.random.default_rng(47)
    t = rng.uniform(0.0, 1.0, 40)
    pts = (np.outer(t, [1.0, 2.0, -1.0]) + [3.0, 7.0, 1.0]) * 1e7
    X = metric_from_points(pts + 1e-5 * rng.standard_normal((40, 3)))
    with pytest.raises(MetricError, match="triangle inequality"):
        FiniteMetricSpace(X.d)
