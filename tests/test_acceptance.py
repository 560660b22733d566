"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines.  Criterion 10's strict inequality (the image-of-Sq^1 GH
bound beats every homological bound for RP^2 against S^1 v S^2) is
checked on deterministic models that resolve both spaces, after a
resolution precondition; see ``test_criterion_10_discrimination``.
"""

import itertools
import math
import time
from contextlib import contextmanager
import numpy as np
import pytest

from steenrips.cohomology import (
    Bar,
    Barcode,
    cohomology_basis,
    is_coboundary,
    persistent_barcode,
)
from steenrips.distances import bottleneck, bottleneck_oracle, gh_lower_bound
from steenrips.metric import (
    antipodal_action,
    circle_grid,
    gluing_wedge,
    metric_from_points,
    projective_sample,
    quotient_metric,
    vr_filtration,
)
from steenrips.operations import (
    Operation,
    homological_radius,
    image_barcode,
    theta_radius,
)
from steenrips.simplicial import (
    Cochain,
    coboundary,
    rp2_complex,
)
from steenrips.steenrod import cup_i, sq
from steenrips.synthetic import random_barcode, random_filtered_complex
from steenrips.verify import (
    verify_adem_sq1,
    verify_product,
    verify_stability,
    verify_wedge,
)

from oracles import kernel_rank, oracle_cohomology_basis, sublevel, theta_rank

INF = math.inf


@contextmanager
def criterion(number, description, budget=None):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    elapsed = time.time() - start
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget}s"
    print(f"[acceptance] criterion {number} ({description}): "
          f"PASS ({elapsed:.1f}s)")


def test_criterion_01_circle_barcode():
    with criterion(1, "circle barcode hits zeta_1", budget=10.0):
        X = circle_grid(40, 1.0)
        K = vr_filtration(X, 2, 2.3)
        bars = persistent_barcode(K, 1).expanded(1)
        long_bars = [(b, d) for b, d in bars
                     if (d - b if math.isfinite(d) else INF) > 0.5]
        assert len(long_bars) == 1
        birth, death = long_bars[0]
        grid_step = math.pi / 20
        zeta1 = 2 * math.pi / 3
        assert birth <= grid_step + 1e-12
        assert zeta1 - grid_step <= death <= zeta1 + grid_step


def test_criterion_02_wedge_decomposition():
    with criterion(2, "wedge barcodes decompose as unions", budget=30.0):
        report = verify_wedge(seed=0, trials=20)
        assert report["passed"], [c for c in report["checks"]
                                  if not c["passed"]]


def test_criterion_03_product_kunneth():
    with criterion(3, "product Betti numbers obey Kunneth", budget=30.0):
        report = verify_product(seed=0)
        assert report["passed"], [c for c in report["checks"]
                                  if not c["passed"]]


def test_criterion_04_rp2_steenrod():
    with criterion(4, "projective-plane Steenrod action", budget=1.0):
        K = rp2_complex()
        assert [len(cohomology_basis(K, p)) for p in range(3)] == [1, 1, 1]
        sigma = cohomology_basis(K, 1).cocycles[0]
        assert not is_coboundary(sq(1, sigma))  # [Sq1 sigma] != 0
        assert image_barcode(K, Operation.sq(1, 1)) == Barcode([Bar(2, 0.0, INF)])


def test_criterion_05_cup_i_coboundary_identity():
    with criterion(5, "cup-i coboundary identity on 50 random complexes"):
        rng = np.random.default_rng(2024)
        failures = 0
        for _ in range(50):
            K = random_filtered_complex(rng, target_size=25)
            for p in range(K.dimension + 1):
                for q in range(K.dimension + 1):
                    for i in range(min(p, q) + 1):
                        if p + q - i > K.dimension + 1:
                            continue
                        for _ in range(2):
                            a = Cochain(K, p, int(rng.integers(0, 1 << K.n_simplices(p))))
                            b = Cochain(K, q, int(rng.integers(0, 1 << K.n_simplices(q))))
                            lhs = coboundary(cup_i(a, b, i))
                            rhs = (cup_i(coboundary(a), b, i)
                                   + cup_i(a, coboundary(b), i))
                            if i >= 1:
                                rhs = rhs + cup_i(a, b, i - 1) + cup_i(b, a, i - 1)
                            if lhs.bits != rhs.bits:
                                failures += 1
        assert failures == 0


def test_criterion_06_adem_sq1sq1():
    with criterion(6, "Adem instance Sq1 Sq1 = 0"):
        report = verify_adem_sq1(seed=0, trials=20)
        assert report["passed"], [c for c in report["checks"]
                                  if not c["passed"]]


def test_criterion_07_bottleneck_oracle():
    with criterion(7, "bottleneck equals exhaustive oracle", budget=5.0):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = random_barcode(rng, max_bars=6)
            b = random_barcode(rng, max_bars=6)
            assert bottleneck(a, b, 0) == bottleneck_oracle(a, b, 0)


def test_criterion_08_identity_operation_oracle():
    with criterion(8, "identity operation reproduces the barcode"):
        rng = np.random.default_rng(8)
        for _ in range(50):
            K = random_filtered_complex(rng, target_size=22)
            bc = persistent_barcode(K, K.dimension)
            for ell in range(K.dimension + 1):
                assert image_barcode(K, Operation.identity(ell)) == bc.in_degree(ell)
                for op in (Operation.identity(ell), Operation.sq(1, ell)):
                    for i in range(K.num_values):
                        dim_h = len(oracle_cohomology_basis(sublevel(K, i), ell))
                        assert (theta_rank(K, op, i, i)
                                + kernel_rank(K, op, i, i)) == dim_h


def test_criterion_09_stability():
    with criterion(9, "stability under sup-norm perturbation", budget=60.0):
        report = verify_stability(seed=0, trials=50)
        assert report["passed"], [c for c in report["checks"]
                                  if not c["passed"]]
        assert report["max_ratio"] <= 1.0 + 1e-9


RP_SEED = 1  # chosen so the 30-orbit sample carries a nonempty img_Sq1 barcode


@pytest.mark.slow
def test_criterion_10_radii():
    with criterion(10, "projective-plane radii near pi/3 (SLOW)"):
        Q = projective_sample(2, 30, seed=RP_SEED)  # 60-point closed sample
        K = vr_filtration(Q, 3, 2.3)
        bc = persistent_barcode(K, 2)
        img = image_barcode(K, Operation.sq(1, 1))
        target = math.pi / 3
        h1_u = homological_radius(bc, 1) / 2.0
        img_u = theta_radius(img) / 2.0
        assert abs(h1_u - target) <= 0.35
        assert abs(img_u - target) <= 0.35
        # the tool reports both scales: drive the actual CLI end to end
        import json
        import tempfile
        from pathlib import Path

        from steenrips.cli import main

        with tempfile.TemporaryDirectory() as tmp:
            dmat = Path(tmp) / "rp.dmat"
            out = Path(tmp) / "img.json"
            assert main(["make", "rp", "--dim", "2", "--count", "30",
                         "--seed", str(RP_SEED), "--out", str(dmat)]) == 0
            assert main(["image-barcode", "--input", str(dmat),
                         "--max-dim", "3", "--max-scale", "2.3",
                         "--op", "sq:1", "--source-degree", "1",
                         "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
        entry = payload["radii"][0]
        assert entry["vr_scale"] == pytest.approx(2 * img_u, rel=1e-6)
        assert entry["u_scale"] == pytest.approx(img_u, rel=1e-6)
        assert payload["bars"][0]["death_u_scale"] == pytest.approx(img_u, rel=1e-6)


def _icosphere(frequency, radius):
    """Vertices of the geodesic icosphere: each icosahedron face split
    into frequency^2 triangles, then projected onto the sphere."""
    phi = (1 + 5 ** 0.5) / 2
    corners = np.array([np.roll((0.0, s * 1.0, t * phi), k)
                        for k in range(3) for s in (-1, 1) for t in (-1, 1)])
    gap = np.linalg.norm(corners[:, None] - corners[None], axis=2)
    points = {}
    for face in itertools.combinations(range(12), 3):
        if not all(abs(gap[a, b] - 2.0) < 1e-9
                   for a, b in itertools.combinations(face, 2)):
            continue
        for i in range(frequency + 1):
            for j in range(frequency + 1 - i):
                p = (i * corners[face[0]] + j * corners[face[1]]
                     + (frequency - i - j) * corners[face[2]])
                p = radius * p / np.linalg.norm(p)
                points.setdefault(tuple(np.round(p, 9)), p)
    return np.array(list(points.values()))


def _mesh(X):
    """Largest nearest-neighbour distance of a finite metric space."""
    return float((X.d + np.diag(np.full(X.n, INF))).min(axis=1).max())


def _signal_births(X, cap):
    """Births of the longest H^1 and H^2 bars of VR(X), read from the
    filtration capped at ``cap``.  VR_r(X) is a full simplex, hence
    acyclic, from r = diameter on, so a bar born after the cap is at most
    diameter - cap long: the capped bars are the true ones when none is
    essential and the longest outlasts that."""
    bc = persistent_barcode(vr_filtration(X, 3, cap), 2)
    births = []
    for m in (1, 2):
        birth, death = max(bc.expanded(m), key=lambda bar: bar[1] - bar[0])
        assert X.diameter() - cap < death - birth < INF, (
            f"cap {cap} does not determine the longest H{m} bar")
        births.append(birth)
    return births


@pytest.mark.slow
def test_criterion_10_discrimination():
    """Criterion 10's claim: for RP^2 (radius 2) against S^1 (length 2 pi)
    wedge S^2 (radius 1) the img_Sq1 bound strictly beats every homological
    GH bound.  Stability carries it to finite models only up to sampling
    error, so each model must first resolve its space: its longest H^1 and
    H^2 bars are born no later than its mesh (largest nearest-neighbour
    distance).  A precondition failure points to the data, an inequality
    failure to the program.

    Deterministic models: RP^2 is the antipodal quotient of the
    frequency-3 icosphere (46 orbits, mesh 0.8308, H^2 born at 0.8308);
    the wedge glues the 9-point circle grid to the icosahedron (mesh
    1.1071, H^2 born at 1.1071).  They give H0 0.3504, H1 0.1145,
    H2 0.3491 and imgSq1 0.6408.

    A 30-orbit random draw cannot meet the precondition.  VR_r of
    ``projective_sample(2, 30, seed=1)`` has F2 Betti numbers (1,1,0) at
    r = 1.9999 and (1,1,1) at r = 2.01, against a mesh of 1.0466.  Its H^1
    signal dies at 2.1227, so its img_Sq1 bar lies inside
    [1.9999, 2.1227) and bounds at most 0.0614, while the H0 bound, fixed
    by minimum-spanning-tree edge lengths, is 0.3128.  The random
    21-point S^2 of ``sphere_sample(2, 1.0, 21, seed=2)`` carries no H^2
    before 1.76, against a mesh of 0.840.
    """
    with criterion(10, "Sq1 bound beats homology bounds (SLOW)"):
        sphere = _icosphere(3, 2.0)
        # one point of each antipodal pair, then their antipodes, in the
        # order antipodal_action pairs them
        keep = [p for p in sphere
                if tuple(np.round(p, 9)) > tuple(np.round(-p, 9))]
        closed = metric_from_points(np.vstack([keep, -np.array(keep)]),
                                    "sphere:2")
        Q = quotient_metric(closed, antipodal_action(closed))
        wedge = gluing_wedge(circle_grid(9, 1.0), 0,
                             metric_from_points(_icosphere(1, 1.0), "sphere:1"),
                             0)
        scale = max(Q.diameter(), wedge.diameter()) + 1e-9
        # the projective model's bars all die by 2.22; capping its VR at
        # 2.3 keeps 10.5k of its 163k tetrahedra
        for name, X, cap in (("RP^2", Q, 2.3), ("S^1 v S^2", wedge, scale)):
            mesh = _mesh(X)
            for m, birth in zip((1, 2), _signal_births(X, cap)):
                # lengths equal in exact arithmetic differ in the last
                # digits after arccos; 1e-9 is the metric tolerance
                assert birth <= mesh + 1e-9, (
                    f"{name} model does not resolve H{m}: its longest bar is "
                    f"born at {birth:.4f}, after the mesh {mesh:.4f}"
                )
        report = gh_lower_bound(Q, wedge, [0, 1, 2],
                                [Operation.sq(1, 1)], 3, scale)
        bounds = {e["invariant"]: e["d_B"] for e in report["per_invariant"]}
        img_bound = bounds["imgSq1@deg2"]
        for m in (0, 1, 2):
            assert img_bound > bounds[f"H{m}"], (
                f"imgSq1 bound {img_bound:.4f} does not exceed "
                f"H{m} bound {bounds[f'H{m}']:.4f} on resolved models"
            )
