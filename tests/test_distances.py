import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from steenrips import metric
from steenrips.cohomology import Bar, Barcode, persistent_barcode
from steenrips.distances import (
    _costs,
    _feasible,
    _invariant_barcodes,
    bottleneck,
    bottleneck_oracle,
    gh_lower_bound,
    stability_check,
)
from steenrips.errors import ValidationError
from steenrips.metric import (
    FiniteMetricSpace,
    _vr_for_degrees,
    circle_grid,
    vr_filtration,
)
from steenrips.operations import Operation, image_barcode, kernel_barcode
from steenrips.synthetic import (
    random_barcode,
    random_bounded_metric,
    random_metric_space,
)

INF = math.inf


def bc(*pairs):
    return Barcode(Bar(0, b, d) for b, d in pairs)


def test_bottleneck_identical():
    a = bc((0.0, 2.0), (1.0, 5.0))
    assert bottleneck(a, a, 0) == 0.0


def test_bottleneck_single_unmatched():
    assert bottleneck(bc((0.0, 2.0)), bc(), 0) == 1.0
    assert bottleneck(bc(), bc((0.0, 2.0)), 0) == 1.0


def test_bottleneck_match_beats_diagonal():
    assert bottleneck(bc((0.0, 4.0)), bc((1.0, 3.0)), 0) == 1.0


def test_bottleneck_infinite_bars():
    a = Barcode([Bar(0, 0.0, INF)])
    b = Barcode([Bar(0, 1.5, INF)])
    assert bottleneck(a, b, 0) == 1.5
    assert bottleneck(a, Barcode(), 0) == INF
    mixed_a = Barcode([Bar(0, 0.0, INF), Bar(0, 0.0, 1.0)])
    mixed_b = Barcode([Bar(0, 0.2, INF), Bar(0, 0.1, 0.9)])
    assert bottleneck(mixed_a, mixed_b, 0) == pytest.approx(0.2)


def test_bottleneck_of_int_endpoints_is_float():
    # Bar coerces its endpoints, so int-born essential bars give a float
    d = bottleneck(Barcode([Bar(0, 0, INF)]), Barcode([Bar(0, 3, INF)]), 0)
    assert repr(d) == "3.0"


def test_bottleneck_respects_degree():
    a = Barcode([Bar(1, 0.0, 4.0)])
    b = Barcode([Bar(2, 0.0, 4.0)])
    assert bottleneck(a, b, 1) == 2.0
    assert bottleneck(a, b, 2) == 2.0
    assert bottleneck(a, b, 3) == 0.0


def test_oracle_equivalence_random():
    rng = np.random.default_rng(101)
    for _ in range(200):
        a = random_barcode(rng, max_bars=6, degree=0)
        b = random_barcode(rng, max_bars=6, degree=0)
        assert bottleneck(a, b, 0) == bottleneck_oracle(a, b, 0)


def test_bottleneck_long_augmenting_paths():
    # A-bars (i, i+10) against B-bars (i+0.5, i+10.5) chain every bar to
    # the next, so augmenting paths run the length of the barcode; a
    # recursive search exceeds the lowered recursion limit here
    code = (
        "import sys\n"
        "sys.setrecursionlimit(150)\n"
        "from steenrips.cohomology import Bar, Barcode\n"
        "from steenrips.distances import bottleneck\n"
        "A = Barcode(Bar(0, i, i + 10) for i in range(1000))\n"
        "B = Barcode(Bar(0, i + 0.5, i + 10.5) for i in range(1000))\n"
        "print(bottleneck(A, B, 0))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0.5"


def test_oracle_size_limit():
    big = Barcode([Bar(0, float(i), float(i) + 1.0) for i in range(8)])
    with pytest.raises(Exception):
        bottleneck_oracle(big, big, 0)


def test_bottleneck_pseudometric():
    rng = np.random.default_rng(103)
    for _ in range(40):
        a = random_barcode(rng, max_bars=5, degree=0)
        b = random_barcode(rng, max_bars=5, degree=0)
        c = random_barcode(rng, max_bars=5, degree=0)
        dab = bottleneck(a, b, 0)
        dba = bottleneck(b, a, 0)
        assert dab == dba
        dac, dcb = bottleneck(a, c, 0), bottleneck(c, b, 0)
        if math.isfinite(dac) and math.isfinite(dcb):
            assert dab <= dac + dcb + 1e-12
        assert bottleneck(a, a, 0) == 0.0


def test_threshold_feasibility_monotone():
    rng = np.random.default_rng(105)
    for _ in range(25):
        a = random_barcode(rng, max_bars=5, degree=0, p_infinite=0.0)
        b = random_barcode(rng, max_bars=5, degree=0, p_infinite=0.0)
        fa, fb = a.expanded(0), b.expanded(0)
        costs = sorted({0.0}
                       | {(d - x) / 2 for x, d in fa + fb}
                       | {max(abs(x - y), abs(d - e))
                          for x, d in fa for y, e in fb})
        pair, ua, ub = _costs(fa, fb)
        flags = [_feasible(pair, ua, ub, c) for c in costs]
        assert flags[-1]  # every bar unmatched is within the largest cost
        assert flags == sorted(flags)  # once feasible, stays feasible


def test_gh_bound_same_space_is_zero():
    X = circle_grid(8, 1.0)
    report = gh_lower_bound(X, X, [0, 1], [Operation.sq(1, 1)], 3, 4.0)
    assert report["gh_lower_bound"] == 0.0
    assert all(e["d_B"] == 0.0 for e in report["per_invariant"])


def test_gh_bound_symmetric_and_bounded_by_perturbation():
    rng = np.random.default_rng(107)
    X = random_bounded_metric(rng, 8)
    delta = 0.03
    noise = rng.uniform(-delta, delta, size=(8, 8))
    noise = np.triu(noise, 1)
    Y = FiniteMetricSpace(X.d + noise + noise.T)
    scale = max(X.diameter(), Y.diameter()) + 0.01
    rep_xy = gh_lower_bound(X, Y, [0, 1], [], 2, scale)
    rep_yx = gh_lower_bound(Y, X, [0, 1], [], 2, scale)
    assert rep_xy["gh_lower_bound"] == rep_yx["gh_lower_bound"]
    for entry in rep_xy["per_invariant"]:
        assert entry["d_B"] <= delta + 1e-12
    assert rep_xy["gh_lower_bound"] <= delta / 2 + 1e-12


def test_scaling_equivariance():
    rng = np.random.default_rng(109)
    X = random_metric_space(rng, 7)
    lam = 2.5
    Y = FiniteMetricSpace(X.d * lam)

    bx = persistent_barcode(vr_filtration(X, 2, X.diameter() + 0.01), 1)
    by = persistent_barcode(vr_filtration(Y, 2, Y.diameter() + 0.01), 1)
    scaled = Barcode(
        Bar(b.degree, b.birth * lam,
            b.death * lam if math.isfinite(b.death) else INF, b.multiplicity)
        for b in bx.bars
    )
    for got, want in zip(by.bars, scaled.bars):
        assert got.degree == want.degree
        assert got.birth == pytest.approx(want.birth)
        assert (got.death == pytest.approx(want.death)
                if math.isfinite(want.death) else math.isinf(got.death))


def test_stability_check_small():
    rng = np.random.default_rng(111)
    X = random_bounded_metric(rng, 8)
    report = stability_check(X, delta=0.04, trials=8, seed=5,
                             op=Operation.sq(1, 1), degree=1, max_dim=3)
    assert report["passed"]
    assert report["violations"] == []
    assert report["max_ratio"] <= 1.0 + 1e-9
    assert len(report["results"]) == 8


def test_stability_zero_delta():
    rng = np.random.default_rng(113)
    X = random_metric_space(rng, 6)
    report = stability_check(X, delta=0.0, trials=2, seed=1,
                             op=Operation.identity(1), degree=1, max_dim=2)
    assert report["passed"]
    assert all(r["d_B_homology"] == 0.0 for r in report["results"])

def _lower_skewed(X):
    """X with its lower triangle 5e-10 below the upper, within the
    validation tolerance."""
    d = X.d.copy()
    d[np.tril_indices(X.n, -1)] -= 5e-10
    return FiniteMetricSpace(d)


def _enclosing_radius(X):
    """min over x of max over y of the entry d[u, v], u < v, of {x, y}."""
    return min(max(X.d[min(x, y), max(x, y)] for y in range(X.n) if y != x)
               for x in range(X.n))


@pytest.mark.parametrize("max_dim", [2, 3])
def test_enclosing_radius_cap_is_exact(max_dim):
    """Below max_dim the barcodes and the Sq^1 image and kernel barcodes
    of VR(X) cut at the enclosing radius are those of the full VR(X).
    The lower triangle sits below the upper, so a radius read from whole
    rows drops one of the centre's own edges and changes some of them."""
    rng = np.random.default_rng(211 + max_dim)
    op = Operation.sq(1, max_dim - 2)
    for _ in range(100):
        X = _lower_skewed(random_bounded_metric(rng, int(rng.integers(5, 10))))
        scale = X.diameter() + 1e-9
        K = vr_filtration(X, max_dim, scale)
        C = _vr_for_degrees(X, max_dim - 1, max_dim, scale)
        assert max(C.values) <= _enclosing_radius(X) < scale
        assert (persistent_barcode(C, max_dim - 1)
                == persistent_barcode(K, max_dim - 1))
        assert image_barcode(C, op) == image_barcode(K, op)
        assert kernel_barcode(C, op) == kernel_barcode(K, op)
        # degree max_dim keeps the caller's scale and dimension
        assert _vr_for_degrees(X, max_dim, max_dim, scale) == K
        homology, _ = _invariant_barcodes(X, [max_dim], [], max_dim, scale)
        assert homology == persistent_barcode(K, max_dim)


def test_cap_reaches_vr_filtration(monkeypatch):
    """Below max_dim, VR is built at the enclosing radius to the top
    degree read, with no simplex above it; at max_dim, to max_dim at the
    caller's scale."""
    built = []

    def spy(X, max_dim, max_scale):
        K = vr_filtration(X, max_dim, max_scale)
        built.append((max_dim, max_scale, K.dimension))
        return K

    monkeypatch.setattr(metric, "vr_filtration", spy)
    rng = np.random.default_rng(223)
    X, Y = random_metric_space(rng, 8), random_metric_space(rng, 9)
    scale = max(X.diameter(), Y.diameter())
    radii = [_enclosing_radius(X), _enclosing_radius(Y)]
    assert max(radii) < scale
    sq1 = [Operation.sq(1, 1)]
    gh_lower_bound(X, Y, [0, 1, 2], sq1, 3, scale)
    assert built == [(2, r, 2) for r in radii]
    built.clear()
    gh_lower_bound(X, Y, [0, 1, 2, 3], sq1, 3, scale)
    assert built == [(3, scale, 3), (3, scale, 3)]
    built.clear()
    low = min(radii) / 2
    gh_lower_bound(X, Y, [0, 1], [], 3, low)
    assert [b[:2] for b in built] == [(1, low), (1, low)]
    assert all(b[2] <= 1 for b in built)


def test_metric_paths_reject_degrees_above_max_dim():
    """A degree or operation target above max_dim has no barcode in the
    complex; it is an error, not an empty barcode or a d_B of 0."""
    rng = np.random.default_rng(227)
    X, Y = random_metric_space(rng, 6), random_metric_space(rng, 7)
    with pytest.raises(ValidationError, match="max_dim"):
        gh_lower_bound(X, Y, [0, 5], [], 2, 1.0)
    with pytest.raises(ValidationError, match="max_dim"):
        gh_lower_bound(X, Y, [0], [Operation.sq(1, 2)], 2, 1.0)
    with pytest.raises(ValidationError, match="max_dim"):
        stability_check(X, 0.01, 1, 0, Operation.identity(1), 3, 2)
    report = gh_lower_bound(X, Y, [0, 2], [Operation.sq(1, 1)], 2, 1.0)
    assert [e["invariant"] for e in report["per_invariant"]] == [
        "H0", "H2", "imgSq1@deg2"]


def test_gh_bound_one_point_spaces():
    P = FiniteMetricSpace([[0.0]])
    report = gh_lower_bound(P, P, [0, 1], [Operation.sq(1, 1)], 3, 1.0)
    assert {e["invariant"]: e["d_B"] for e in report["per_invariant"]} == {
        "H0": 0.0, "H1": 0.0, "imgSq1@deg2": 0.0}
    assert report["gh_lower_bound"] == 0.0
