"""The benchmark's three workloads: seeded inputs, one job, its checks.

Every workload draws a pool of ``POOL`` instances from the seed; job
``j`` of a run uses instance ``j mod POOL``.  The pool is larger than
the number of jobs that fit one run, so every job of a run is another
instance and a run's median covers many samples.  Where one input
property drives most of a job's cost (``cloud-h01``), the pool is put
in ``balanced`` order by that property, so that every run, however many
jobs fit its window, sees the same spread of easy and hard
instances.  ``run(instance, tracer, keep)`` calls the
library step by step inside spans; its output holds the job's
``result`` plus what the checks need, and the complexes the probes need
when ``keep`` is set.  ``job(instance)`` is the untraced call that is
timed.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

import steenrips as sr

import checks
from tracer import NullTracer

NULL = NullTracer()
SQ1 = sr.Operation.sq(1, 1)


def instance_seeds(seed: int, stream: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, stream]).generate_state(count)]


def balanced(pool: list, key) -> list:
    """Sort by key, then order by bit-reversed rank: each prefix of 2^m
    instances takes every (len(pool) / 2^m)-th instance of the sorted pool."""
    ranked = sorted(pool, key=key)
    bits = (len(ranked) - 1).bit_length()
    return [ranked[int(f"{k:0{bits}b}"[::-1], 2)] for k in range(len(ranked))]


def _pairs(a, b, degree):
    return a.expanded(degree), b.expanded(degree)


def rp2_sample(seed: int, count: int, radius: float = 2.0) -> np.ndarray:
    """Distances of ``count`` uniform random points of RP^2, the antipodal
    quotient of the round sphere of this radius (as ``projective_sample``,
    without validating the matrix)."""
    points = np.random.default_rng(seed).standard_normal((count, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    d = radius * np.arccos(np.clip(np.abs(points @ points.T), 0.0, 1.0))
    np.fill_diagonal(d, 0.0)
    return np.minimum(d, d.T)


def maxmin(d: np.ndarray, count: int) -> np.ndarray:
    """Distance matrix of ``count`` points picked greedily farthest from
    those already picked, starting at point 0."""
    picked, reach = [0], d[0].copy()
    for _ in range(count - 1):
        picked.append(int(np.argmax(reach)))
        reach = np.minimum(reach, d[picked[-1]])
    return d[np.ix_(picked, picked)]


class Workload:
    name = ""
    uses_steenrod = False

    def make_inputs(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, inst, tracer=NULL, keep: bool = False) -> dict:
        raise NotImplementedError

    def job(self, inst) -> dict:
        return self.run(inst)

    def check(self, inst, out: dict) -> list[str]:
        raise NotImplementedError


class Rp2Sq1(Workload):
    """Image and kernel barcodes of Sq^1 on a 30-orbit RP^2 sample.

    Each instance is a maxmin subsample of 30 of 120 random orbits: the
    job cost of plain random samples spreads so widely (a coefficient of
    variation near 0.3 at 30 orbits) that a pool of a dozen gives a
    different median on every seed.  30 orbits, not 40, so that a run
    covers some fifty instances.  The 120 orbits are drawn
    here, not by ``projective_sample``, whose check of the triangle
    inequality on the 240-point sphere would set the run's peak memory.
    """

    name = "rp2-sq1"
    uses_steenrod = True
    POOL, ORBITS, OVERSAMPLE = 64, 30, 4
    MAX_DIM, MAX_SCALE = 3, 2.3

    def make_inputs(self, seed):
        return [maxmin(rp2_sample(s, self.OVERSAMPLE * self.ORBITS), self.ORBITS)
                for s in instance_seeds(seed, 0, self.POOL)]

    def run(self, d, tracer=NULL, keep=False):
        with tracer.span("metric.validate"):
            X = sr.FiniteMetricSpace(d)
        with tracer.span("metric.vr"):
            K = sr.vr_filtration(X, self.MAX_DIM, self.MAX_SCALE)
        with tracer.span("cohomology.barcode"):
            bc = sr.persistent_barcode(K, 2)
        with tracer.span("operations.image"):
            img = sr.image_barcode(K, SQ1)
        with tracer.span("operations.kernel"):
            ker = sr.kernel_barcode(K, SQ1)
        return {
            "result": (checks.barcode_key(bc), checks.barcode_key(img), checks.barcode_key(ker)),
            "values": K.distinct_values, "complexes": [K] if keep else [],
            "barcodes": [bc], "images": [img], "kernels": [ker], "matchings": [],
        }

    def check(self, d, out):
        (bc,), (img,), (ker,) = out["barcodes"], out["images"], out["kernels"]
        return checks.rank_nullity(out["values"], bc, img, ker)


class GhRp2Wedge(Workload):
    """Gromov-Hausdorff lower bound between RP^2 and a circle-sphere wedge."""

    name = "gh-rp2-wedge"
    uses_steenrod = True
    POOL = 16
    DEGREES, MAX_DIM = [0, 1, 2], 3

    def make_inputs(self, seed):
        seeds = instance_seeds(seed, 1, 2 * self.POOL)
        pool = []
        for s_rp, s_sphere in zip(seeds[::2], seeds[1::2]):
            q = sr.projective_sample(2, 30, s_rp).d
            w = sr.gluing_wedge(sr.circle_grid(9, 1.0), 0,
                                sr.sphere_sample(2, 1.0, 21, seed=s_sphere), 0).d
            pool.append((q, w, max(float(q.max()), float(w.max())) + 1e-9))
        return pool

    def job(self, inst):
        q, w, scale = inst
        X, Y = sr.FiniteMetricSpace(q), sr.FiniteMetricSpace(w)
        return {"result": sr.gh_lower_bound(X, Y, self.DEGREES, [SQ1], self.MAX_DIM, scale)}

    def run(self, inst, tracer=NULL, keep=False):
        """gh_lower_bound rebuilt from its steps, one span per library call.

        Like gh_lower_bound, it holds one complex at a time unless ``keep``
        asks for both (for the probes)."""
        q, w, scale = inst
        with tracer.span("metric.validate"):
            spaces = [sr.FiniteMetricSpace(q), sr.FiniteMetricSpace(w)]
        complexes, barcodes, images = [], [], []
        for X in spaces:
            with tracer.span("metric.vr"):
                K = sr.vr_filtration(X, self.MAX_DIM, scale)
            with tracer.span("cohomology.barcode"):
                barcodes.append(sr.persistent_barcode(K, max(self.DEGREES)))
            with tracer.span("operations.image"):
                images.append(sr.image_barcode(K, SQ1))
            if keep:
                complexes.append(K)
            del K
        per_invariant, matchings = [], []
        for m in self.DEGREES:
            with tracer.span("distances.bottleneck"):
                d_b = sr.bottleneck(barcodes[0], barcodes[1], m)
            per_invariant.append({"invariant": f"H{m}", "d_B": d_b})
            matchings.append((*_pairs(barcodes[0], barcodes[1], m), d_b))
        deg = SQ1.target_degree
        with tracer.span("distances.bottleneck"):
            d_b = sr.bottleneck(images[0], images[1], deg)
        per_invariant.append({"invariant": f"img{SQ1.name}@deg{deg}", "d_B": d_b})
        matchings.append((*_pairs(images[0], images[1], deg), d_b))
        best = max(per_invariant, key=lambda e: e["d_B"])
        report = {
            "per_invariant": per_invariant,
            "gh_lower_bound": best["d_B"] / 2.0,
            "argmax": best["invariant"],
        }
        return {"result": report, "complexes": complexes, "barcodes": barcodes,
                "images": images, "kernels": [], "matchings": matchings}

    def check(self, inst, out):
        problems = []
        for pairs_a, pairs_b, d_b in out["matchings"]:
            problems += checks.bottleneck_certificate(pairs_a, pairs_b, d_b)
        img_a, img_b = out["images"]
        deg = SQ1.target_degree
        if max(len(img_a.in_degree(deg)), len(img_b.in_degree(deg))) <= 7:
            oracle = sr.bottleneck_oracle(img_a, img_b, deg)
            if oracle != out["matchings"][-1][2]:
                problems.append(f"image d_B {out['matchings'][-1][2]!r} != oracle {oracle!r}")
        return problems


def _longest_mst_edge(points: np.ndarray, max_scale: float) -> float:
    """Longest edge of the minimum spanning tree of the points' distance
    graph thresholded at max_scale (the largest finite H0 death of their VR
    filtration), or inf when that graph is disconnected."""
    x, y = points[:, 0], points[:, 1]
    d = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    mst = minimum_spanning_tree(csr_matrix(np.where(d <= max_scale, d, 0.0)))
    return float(mst.data.max()) if mst.nnz == len(points) - 1 else float("inf")


class CloudH01(Workload):
    """H0/H1 bottleneck distance between two noisy 200-point circles.

    200 points rather than 400: the job cost depends steeply on the input
    (below), so a run needs many instances for a steady median, and at
    300 points only some seventeen fit one run.

    Radial noise is Gaussian.  A cloud whose MAX_SCALE neighbourhood graph
    is disconnected (an outlier with no neighbour) is drawn again, so each
    side has exactly one essential H0 bar and matching never short-circuits
    to an infinite distance.  The H0 matching is slow when the two clouds'
    longest MST edges are close (a small distance): at 200 points the job
    takes from 0.4 s to 1.4 s, nearly all of it in the H0 matching.  So
    the pool is balanced on the gap.
    """

    name = "cloud-h01"
    POOL = 64
    POINTS, NOISE, MAX_DIM, MAX_SCALE = 200, (0.05, 0.1), 2, 0.25

    def make_inputs(self, seed):
        pool = []
        for s in instance_seeds(seed, 2, self.POOL):
            rng = np.random.default_rng(s)
            clouds, longest = [], []
            for noise in self.NOISE:
                edge = float("inf")
                while edge == float("inf"):
                    theta = rng.uniform(0.0, 2.0 * np.pi, self.POINTS)
                    r = 1.0 + noise * rng.standard_normal(self.POINTS)
                    points = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
                    edge = _longest_mst_edge(points, self.MAX_SCALE)
                clouds.append(points)
                longest.append(edge)
            pool.append((longest[1] - longest[0], tuple(clouds)))
        return [clouds for _, clouds in balanced(pool, key=lambda item: item[0])]

    def run(self, inst, tracer=NULL, keep=False):
        matrices, complexes, barcodes = [], [], []
        for points in inst:
            with tracer.span("metric.validate"):
                X = sr.metric_from_points(points)
            with tracer.span("metric.vr"):
                K = sr.vr_filtration(X, self.MAX_DIM, self.MAX_SCALE)
            with tracer.span("cohomology.barcode"):
                barcodes.append(sr.persistent_barcode(K, 1))
            matrices.append(X.d)
            if keep:
                complexes.append(K)
            del X, K
        matchings = []
        for m in (0, 1):
            with tracer.span("distances.bottleneck"):
                d_b = sr.bottleneck(barcodes[0], barcodes[1], m)
            matchings.append((*_pairs(barcodes[0], barcodes[1], m), d_b))
        result = (*map(checks.barcode_key, barcodes), *(d for _, _, d in matchings))
        return {"result": result, "matrices": matrices, "complexes": complexes,
                "barcodes": barcodes, "images": [], "kernels": [], "matchings": matchings}

    def check(self, inst, out):
        problems = []
        for d, bc in zip(out["matrices"], out["barcodes"]):
            problems += checks.h0_matches_mst(d, self.MAX_SCALE, bc)
        for pairs_a, pairs_b, d_b in out["matchings"]:
            problems += checks.bottleneck_certificate(pairs_a, pairs_b, d_b)
        return problems


WORKLOADS = {wl.name: wl for wl in (Rp2Sq1(), GhRp2Wedge(), CloudH01())}


def probe(out: dict, tracer, uses_steenrod: bool) -> int:
    """Time single layers on a job's complexes; returns the Sq^1 calls made.

    H^1 of a whole VR complex is usually zero, so Sq^1 is applied to the
    cocycle basis of the sublevel complex where most H^1 bars are alive.
    """
    sq_calls = 0
    for K, bc in zip(out["complexes"], out["barcodes"]):
        pairs = list(zip(K.simplices, K.values))
        with tracer.span("simplicial.build"):
            sr.build(pairs)
        with tracer.span("simplicial.coboundary"):
            delta = [sr.coboundary_matrix(K, p) for p in (0, 1, 2)]
        with tracer.span("gf2.rank"):
            sr.rank(delta[1])
        if uses_steenrod:
            peak = max(K.distinct_values, key=lambda t: bc.alive(1, t))
            sub = sr.build([(s, v) for s, v in pairs if v <= peak])
            for c in sr.cohomology_basis(sub, 1).cocycles:
                with tracer.span("steenrod.sq"):
                    sr.sq(1, c)
                sq_calls += 1
    return sq_calls


def counts(out: dict) -> dict[str, int]:
    """Sizes of a job's intermediate objects, summed over its complexes."""
    cx = out["complexes"]
    c = {f"simplicial.simplices.d{p}": sum(K.n_simplices(p) for K in cx) for p in range(4)}
    c["simplicial.values_R"] = sum(K.num_values for K in cx)
    c["cohomology.bars"] = sum(len(b) for b in out["barcodes"])
    c["operations.image_bars"] = sum(len(b) for b in out["images"])
    c["operations.kernel_bars"] = sum(len(b) for b in out["kernels"])
    c["distances.bars_per_side"] = max((max(len(a), len(b)) for a, b, _ in out["matchings"]), default=0)
    c["distances.pairs"] = sum(
        sum(1 for p in a if p[1] != float("inf")) * sum(1 for p in b if p[1] != float("inf"))
        for a, b, _ in out["matchings"])
    return c
