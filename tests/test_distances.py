import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from steenrips import distances
from steenrips.cohomology import Bar, Barcode, persistent_barcode
from steenrips.distances import (
    _costs,
    _feasible,
    _saturates,
    bottleneck,
    bottleneck_oracle,
    gh_lower_bound,
    rips_barcodes,
    stability_check,
)
from steenrips.errors import ValidationError
from steenrips.metric import (
    FiniteMetricSpace,
    circle_grid,
    metric_from_points,
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
        a = random_barcode(rng, max_bars=6)
        b = random_barcode(rng, max_bars=6)
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
        a = random_barcode(rng, max_bars=5)
        b = random_barcode(rng, max_bars=5)
        c = random_barcode(rng, max_bars=5)
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
        a = random_barcode(rng, max_bars=5, p_infinite=0.0)
        b = random_barcode(rng, max_bars=5, p_infinite=0.0)
        fa, fb = a.expanded(0), b.expanded(0)
        costs = sorted({0.0}
                       | {(d - x) / 2 for x, d in fa + fb}
                       | {max(abs(x - y), abs(d - e))
                          for x, d in fa for y, e in fb})
        pair, ua, ub = _costs(fa, fb)
        flags = [_feasible(pair, ua, ub, c, _saturates) for c in costs]
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
                             op=Operation.sq(1, 1), degree=1)
    assert report["passed"]
    assert report["violations"] == []
    assert report["max_ratio"] <= 1.0 + 1e-9
    assert len(report["results"]) == 8


def test_stability_zero_delta():
    rng = np.random.default_rng(113)
    X = random_metric_space(rng, 6)
    report = stability_check(X, delta=0.0, trials=2, seed=1,
                             op=Operation.identity(1), degree=1)
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


@pytest.mark.parametrize("dim", [2, 3])
def test_enclosing_radius_cap_is_exact(dim, monkeypatch):
    """Below dim the barcodes and the Sq^1 image and kernel barcodes of
    VR(X) cut at the enclosing radius are those of the full VR(X).
    The given lower triangle sits below the upper; the space stores the
    upper mirrored, so the radius is read from the entries VR reads."""
    built = []

    def spy(X, max_dim, max_scale):
        K = vr_filtration(X, max_dim, max_scale)
        built.append(K)
        return K

    monkeypatch.setattr(distances, "vr_filtration", spy)
    rng = np.random.default_rng(211 + dim)
    op = Operation.sq(1, dim - 2)
    for _ in range(100):
        X = _lower_skewed(random_bounded_metric(rng, int(rng.integers(5, 10))))
        scale = X.diameter() + 1e-9
        K = vr_filtration(X, dim, scale)
        bc, images = rips_barcodes(X, dim - 1, [op], scale)
        assert max(built.pop().values) <= _enclosing_radius(X) < scale
        assert bc == persistent_barcode(K, dim - 1)
        assert images[op] == (image_barcode(K, op), kernel_barcode(K, op))


def test_cap_reaches_vr_filtration(monkeypatch):
    """VR is built at the enclosing radius to the top degree read, with
    no simplex above it; a top degree at max_dim builds nothing."""
    built = []

    def spy(X, max_dim, max_scale):
        K = vr_filtration(X, max_dim, max_scale)
        built.append((max_dim, max_scale, K.dimension))
        return K

    monkeypatch.setattr(distances, "vr_filtration", spy)
    rng = np.random.default_rng(223)
    X, Y = random_metric_space(rng, 8), random_metric_space(rng, 9)
    scale = max(X.diameter(), Y.diameter())
    radii = [_enclosing_radius(X), _enclosing_radius(Y)]
    assert max(radii) < scale
    sq1 = [Operation.sq(1, 1)]
    gh_lower_bound(X, Y, [0, 1, 2], sq1, 3, scale)
    assert built == [(2, r, 2) for r in radii]
    built.clear()
    with pytest.raises(ValidationError, match="max_dim"):
        gh_lower_bound(X, Y, [0, 1, 2, 3], sq1, 3, scale)
    assert built == []
    gh_lower_bound(X, Y, [0, 1, 2, 3], sq1, 4, scale)
    assert [b[:2] for b in built] == [(3, r) for r in radii]
    assert all(b[2] <= 3 for b in built)
    built.clear()
    low = min(radii) / 2
    gh_lower_bound(X, Y, [0, 1], [], 3, low)
    assert [b[:2] for b in built] == [(1, low), (1, low)]
    assert all(b[2] <= 1 for b in built)


def test_no_invariants_builds_nothing(monkeypatch):
    """Empty degrees and operations are refused before any VR is built,
    whatever max_dim."""
    built = []
    monkeypatch.setattr(distances, "vr_filtration", lambda *args: built.append(args))
    X = circle_grid(6)
    for max_dim in (0, 2):
        with pytest.raises(ValidationError, match="no invariants requested"):
            gh_lower_bound(X, X, [], [], max_dim, 10.0)
    assert built == []

def test_negative_degrees_are_refused(monkeypatch):
    """A negative degree has no barcode: bottleneck and its oracle refuse
    it, and gh_lower_bound refuses it before it builds a complex, instead
    of reporting a d_B of 0 for it."""
    A = Barcode([Bar(0, 0.0, 1.0)])
    with pytest.raises(ValidationError, match="degree must be nonnegative, got -1"):
        bottleneck(A, A, -1)
    with pytest.raises(ValidationError, match="degree must be nonnegative, got -1"):
        bottleneck_oracle(A, A, -1)
    built = []
    monkeypatch.setattr(distances, "vr_filtration", lambda *args: built.append(args))
    X = circle_grid(6)
    with pytest.raises(ValidationError, match=r"degrees must be nonnegative, got \[-1, 1\]"):
        gh_lower_bound(X, X, [-1, 1], [], 2, 10.0)
    assert built == []


@pytest.mark.parametrize("delta, trials, message", [
    (math.nan, 2, "delta must be finite and nonnegative, got nan"),
    (math.inf, 2, "delta must be finite and nonnegative, got inf"),
    (-0.1, 2, "delta must be finite and nonnegative, got -0.1"),
    (0.01, 0, "trials must be at least 1, got 0"),
    (0.01, -3, "trials must be at least 1, got -3"),
])
def test_stability_check_refuses_bad_arguments(delta, trials, message, monkeypatch):
    """A delta that is not finite, or no trial at all, is refused before
    any VR is built: no numpy overflow, and no pass that checked nothing."""
    built = []
    monkeypatch.setattr(distances, "vr_filtration", lambda *args: built.append(args))
    with pytest.raises(ValidationError, match=message):
        stability_check(circle_grid(6), delta, trials, 0, Operation.identity(1), 1)
    assert built == []


def test_metric_paths_reject_degrees_above_max_dim():
    """A degree or operation target at or above max_dim has no exact
    barcode in VR to dimension max_dim; it is an error, not an empty
    barcode, a skeleton's barcode or a d_B of 0."""
    rng = np.random.default_rng(227)
    X, Y = random_metric_space(rng, 6), random_metric_space(rng, 7)
    for degrees, ops in (([0, 5], []), ([0], [Operation.sq(1, 2)]),
                         ([0, 2], []), ([0], [Operation.sq(1, 1)])):
        with pytest.raises(ValidationError, match="max_dim"):
            gh_lower_bound(X, Y, degrees, ops, 2, 1.0)
    # degree 0 needs the edges: no max_dim below 1 has an empty range
    for max_dim in (0, -1):
        with pytest.raises(ValidationError, match=f"max_dim must be at least 1, got {max_dim}"):
            gh_lower_bound(X, Y, [0], [], max_dim, 1.0)
    # stability_check reads its degrees from the metric, with no cap
    assert stability_check(X, 0.01, 2, 0, Operation.identity(2), 2)["passed"]
    report = gh_lower_bound(X, Y, [0, 2], [Operation.sq(1, 1)], 3, 1.0)
    assert [e["invariant"] for e in report["per_invariant"]] == [
        "H0", "H2", "imgSq1@deg2"]


def test_gh_bound_between_circles_reads_no_skeleton():
    """H1 of the 1-skeleton, where every cycle of the two circle grids
    lives forever, would give a bound of inf: max_dim 1 is an error, and
    max_dim 2 and 3 give one finite report."""
    X, Y = circle_grid(10), circle_grid(12)
    diam = max(X.diameter(), Y.diameter())
    with pytest.raises(ValidationError, match="max_dim"):
        gh_lower_bound(X, Y, [0, 1], [], 1, diam)
    reports = [gh_lower_bound(X, Y, [0, 1], [], m, diam) for m in (2, 3)]
    assert reports[0] == reports[1]
    assert math.isfinite(reports[0]["gh_lower_bound"])


def test_gh_bound_one_point_spaces():
    P = FiniteMetricSpace([[0.0]])
    report = gh_lower_bound(P, P, [0, 1], [Operation.sq(1, 1)], 3, 1.0)
    assert {e["invariant"]: e["d_B"] for e in report["per_invariant"]} == {
        "H0": 0.0, "H1": 0.0, "imgSq1@deg2": 0.0}
    assert report["gh_lower_bound"] == 0.0


def _noisy_circle_h0(seed):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, 200)
    r = 1.0 + 0.05 * rng.standard_normal(200)
    X = metric_from_points(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
    return persistent_barcode(vr_filtration(X, 1, 0.25), 0)


def test_one_birth_bars_take_first_fit(monkeypatch):
    """Every H0 bar of VR is born at 0, so the noisy circles' H0 matching
    never runs Kuhn's search; two births on one side do."""
    A, B = _noisy_circle_h0(0), _noisy_circle_h0(1)
    assert [d for _, d in A.expanded(0) + B.expanded(0)].count(INF) == 2
    calls = {"_saturates": 0, "_first_fit": 0}

    def spy(name):
        f = getattr(distances, name)

        def counted(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(distances, name, counted)

    spy("_saturates")
    spy("_first_fit")
    d = bottleneck(A, B, 0)
    assert calls["_saturates"] == 0 and calls["_first_fit"] > 0

    calls.update(_saturates=0, _first_fit=0)
    two_births = bc((0.0, 1.0), (0.5, 2.0), (0.0, 3.0))
    one_birth = bc((1.0, 2.5), (1.0, 3.5))
    assert bottleneck(two_births, one_birth, 0) == bottleneck_oracle(two_births, one_birth, 0)
    assert calls["_saturates"] > 0 and calls["_first_fit"] == 0

    monkeypatch.setattr(distances, "_first_fit", distances._saturates)
    assert bottleneck(A, B, 0) == d
