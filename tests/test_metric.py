import math
import re
import tracemalloc

import numpy as np
import pytest

from steenrips.errors import MetricError, ValidationError
from steenrips.cohomology import persistent_barcode
from steenrips.metric import (
    FiniteMetricSpace,
    GroupAction,
    _vr_for_degrees,
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
from steenrips import simplicial
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


def test_vr_three_points():
    K = vr_filtration(three_point_space(), 2, 2.0)
    assert len(K) == 7
    assert K.value_of([0, 1, 2]) == 1.0


def test_vr_below_minimum_distance():
    K = vr_filtration(three_point_space(), 2, 0.5)
    assert len(K) == 3 and K.dimension == 0


def test_vr_matches_subset_enumeration():
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


def _barcode_json(K, top, ops):
    return json.dumps(
        [persistent_barcode(K, top).to_json_dict()]
        + [f(K, op).to_json_dict(op.name) for op in ops
           for f in (image_barcode, kernel_barcode)])


@pytest.mark.parametrize("top", [0, 1, 2])
def test_vr_for_degrees_matches_full_complex(top):
    """Below max_dim the complex is built to dimension top, and the
    reduction of delta_top is read from the metric.  The barcode and the
    image and kernel barcodes of id and Sq0 at degree top and of Sq1 into
    it are byte-identical to those of vr_filtration(X, max_dim, scale).
    The metrics are random, tied (so apparent pairs rest on the
    tie-breaks), and random with the lower triangle 5e-10 below the
    upper, which vr_filtration never reads."""
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
        max_dim = top + 1 + case % 2
        K = _vr_for_degrees(X, top, max_dim, scale)
        assert K.dimension <= top
        full = vr_filtration(X, max_dim, scale)
        assert _barcode_json(K, top, ops) == _barcode_json(full, top, ops)


def test_vr_for_degrees_at_max_dim_and_above():
    rng = np.random.default_rng(317)
    X = random_metric_space(rng, 7)
    assert _vr_for_degrees(X, 2, 2, 0.9) == vr_filtration(X, 2, 0.9)
    for top in (3, -1):
        with pytest.raises(ValidationError, match="max_dim"):
            _vr_for_degrees(X, top, 2, 0.9)


def test_vr_equals_build_of_same_pairs(monkeypatch):
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
