"""Random samples of RP^2 against S^1 v S^2: does the Sq^1 bound win?

Criterion 10 claims that the img_Sq1 Gromov-Hausdorff bound beats every
homological bound for the projective plane against the wedge of a
circle and a sphere.  Its test runs on deterministic models, because a
30-orbit random sample of RP^2 has no H^2 before scale 2.  This demo
sweeps random samples ``projective_sample(2, N, seed)`` at N = 30, 45
and 60 orbits over fixed seeds, against the wedge of the benchmark's
gh-rp2-wedge workload.  Per sample it prints the resolution
precondition of criterion 10: the births of the longest H^1 and H^2
bars against the mesh (the largest nearest-neighbour distance).  Per N
it prints how often the imgSq1@deg2 bottleneck distance exceeds that of
H0, of H1, of H2 and of all three.  It reports what it finds and
asserts nothing.

The barcodes come from ``rips_barcodes``, the call ``gh_lower_bound``
makes for each side (degrees 0-2 and Sq^1 from degree 1): the complex
is built to dimension 2 and H^2 takes its deaths from the metric, so a
60-orbit side takes well under a second.
"""

import math

import numpy as np

from steenrips import (
    Operation,
    bottleneck,
    circle_grid,
    gluing_wedge,
    projective_sample,
    rips_barcodes,
    sphere_sample,
)

SEEDS = (1, 2, 3, 4)
DEGREES = [0, 1, 2]
SQ1 = Operation.sq(1, 1)


def mesh(X):
    """Largest nearest-neighbour distance."""
    return float((X.d + np.diag(np.full(X.n, math.inf))).min(axis=1).max())


def longest_birth(barcode, degree):
    """Birth of the longest bar in the degree (None when there is none)."""
    bars = barcode.expanded(degree)
    if not bars:
        return None
    return max(bars, key=lambda bar: bar[1] - bar[0])[0]


def show(value):
    return "  none" if value is None else f"{value:6.3f}"


wedge = gluing_wedge(circle_grid(9, 1.0), 0, sphere_sample(2, 1.0, 21, seed=2), 0)
print(f"wedge: {wedge.n} points, mesh {mesh(wedge):.3f}")
for count in (30, 45, 60):
    wins = dict.fromkeys([*DEGREES, "all"], 0)
    print(f"\nN = {count} orbits")
    print("  seed   mesh  H1 birth  H2 birth   resolved   "
          "d_B:  H0     H1     H2   imgSq1")
    for seed in SEEDS:
        rp = projective_sample(2, count, seed)
        scale = max(rp.diameter(), wedge.diameter()) + 1e-9
        sides = [rips_barcodes(X, max(DEGREES), [SQ1], scale)
                 for X in (rp, wedge)]
        (hom_rp, img_rp), (hom_w, img_w) = sides
        d_b = [bottleneck(hom_rp, hom_w, m) for m in DEGREES]
        d_img = bottleneck(img_rp[SQ1][0], img_w[SQ1][0], SQ1.target_degree)
        for m in DEGREES:
            wins[m] += d_img > d_b[m]
        wins["all"] += d_img > max(d_b)
        h = mesh(rp)
        births = [longest_birth(hom_rp, m) for m in (1, 2)]
        resolved = all(b is not None and b <= h for b in births)
        print(f"  {seed:4d} {h:6.3f}  {show(births[0])}    {show(births[1])}"
              f"   {str(resolved):>8}        "
              + " ".join(f"{d:6.3f}" for d in (*d_b, d_img)))
    print("  imgSq1@deg2 exceeds "
          + ", ".join(f"H{m} in {wins[m]}/{len(SEEDS)}" for m in DEGREES)
          + f"; all three in {wins['all']}/{len(SEEDS)}")
