"""Exact bottleneck distance, brute-force oracle, stability and GH bounds.

The bottleneck distance is computed combinatorially.  One numpy pass
builds the n x m matrix of L-infinity pair costs and the half-persistence
of every finite bar; the answer is the least of these costs (or 0) at
which a partial matching of that cost exists, found by binary search.
At a threshold c the bars with half-persistence > c must be matched
along pairs of cost <= c.  By the Mendelsohn-Dulmage theorem (Mendelsohn
& Dulmage, "Some generalizations of the problem of distinct
representatives", Canad. J. Math. 1958), a matching covering those
A-bars and one covering those B-bars combine into one covering both, so
each probe is two one-sided saturation searches (Kuhn's augmenting
paths) over the threshold graph.  No geometric approximation; acceptance
tests compare for equality against exhaustive enumeration.
"""

from __future__ import annotations

import math

import numpy as np

from .cohomology import Barcode, persistent_barcode
from .errors import InternalInvariantError, ValidationError
from .metric import FiniteMetricSpace, _vr_for_degrees
from .operations import Operation, image_barcode

INF = math.inf


def _pair_cost(a: tuple[float, float], b: tuple[float, float]) -> float:
    """L-infinity cost of matching two bars; infinite bars only match
    each other, at the difference of births."""
    ainf, binf = math.isinf(a[1]), math.isinf(b[1])
    if ainf != binf:
        return INF
    if ainf:
        return abs(a[0] - b[0])
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _unmatched_cost(a: tuple[float, float]) -> float:
    return INF if math.isinf(a[1]) else (a[1] - a[0]) / 2.0


def _saturates(edges: np.ndarray, rows: np.ndarray) -> bool:
    """Does some matching in the bipartite graph ``edges`` (a boolean
    left x right matrix) cover every left vertex in ``rows``?

    Kuhn's augmenting paths, one root per row: a root left exposed at its
    turn stays exposed in every maximum matching, so the search stops
    there.  The depth-first search keeps its path on an explicit stack,
    so an augmenting path may be as long as the graph allows.
    """
    adj = [np.flatnonzero(edges[i]).tolist() for i in rows]
    match_right = [-1] * edges.shape[1]
    for root in range(len(adj)):
        seen = [False] * edges.shape[1]
        # path[k] = (left vertex, its unread neighbours); via[k] = the
        # right vertex through which path[k] reached path[k + 1]
        path = [(root, iter(adj[root]))]
        via: list[int] = []
        while path:
            for v in path[-1][1]:
                if not seen[v]:
                    break
            else:
                path.pop()
                if via:
                    via.pop()
                continue
            seen[v] = True
            via.append(v)
            u = match_right[v]
            if u == -1:
                for (w, _), x in zip(path, via):
                    match_right[x] = w
                break
            path.append((u, iter(adj[u])))
        else:
            return False
    return True


def _costs(fa: list[tuple[float, float]], fb: list[tuple[float, float]]):
    """L-infinity pair costs (n x m) and half-persistences of finite bars;
    the same floats as ``_pair_cost`` and ``_unmatched_cost``."""
    a = np.array(fa, dtype=np.float64).reshape(-1, 2)
    b = np.array(fb, dtype=np.float64).reshape(-1, 2)
    pair = np.maximum(np.abs(a[:, None, 0] - b[None, :, 0]),
                      np.abs(a[:, None, 1] - b[None, :, 1]))
    return pair, (a[:, 1] - a[:, 0]) / 2.0, (b[:, 1] - b[:, 0]) / 2.0


def _feasible(pair: np.ndarray, ua: np.ndarray, ub: np.ndarray,
              c: float) -> bool:
    """Is there a partial matching of cost <= c between finite bars?

    Bars with half-persistence > c must be matched, along pairs of cost
    <= c.  A matching covering the A-bars that must be matched and one
    covering the B-bars that must be matched combine into one covering
    both (Mendelsohn-Dulmage), so two one-sided searches decide it.
    """
    edges = pair <= c
    return (_saturates(edges, np.flatnonzero(ua > c))
            and _saturates(edges.T, np.flatnonzero(ub > c)))


def bottleneck(A: Barcode, B: Barcode, degree: int) -> float:
    """Exact bottleneck distance between the degree-``degree`` parts.

    Mismatched infinite-bar counts give inf (not an error).
    """
    bars_a = A.expanded(degree)
    bars_b = B.expanded(degree)
    inf_a = sorted(a for a, d in bars_a if math.isinf(d))
    inf_b = sorted(a for a, d in bars_b if math.isinf(d))
    if len(inf_a) != len(inf_b):
        return INF
    inf_cost = max((abs(x - y) for x, y in zip(inf_a, inf_b)), default=0.0)
    fa = [p for p in bars_a if not math.isinf(p[1])]
    fb = [p for p in bars_b if not math.isinf(p[1])]
    if not fa and not fb:
        return inf_cost
    pair, ua, ub = _costs(fa, fb)
    ordered = np.unique(np.concatenate(([0.0], ua, ub, pair.ravel())))
    lo, hi = 0, len(ordered) - 1
    if not _feasible(pair, ua, ub, ordered[hi]):
        # all-unmatched is always feasible at the largest half-persistence
        raise InternalInvariantError("threshold graph not monotone")
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(pair, ua, ub, ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return max(inf_cost, float(ordered[lo]))


def bottleneck_oracle(A: Barcode, B: Barcode, degree: int) -> float:
    """Exhaustive minimum over all partial matchings (<= 7 bars per side)."""
    bars_a = A.expanded(degree)
    bars_b = B.expanded(degree)
    if len(bars_a) > 7 or len(bars_b) > 7:
        raise ValidationError("oracle limited to 7 bars per side")
    n, m = len(bars_a), len(bars_b)
    best = INF

    def recurse(i: int, used: int, cost: float):
        nonlocal best
        if cost >= best:
            return
        if i == n:
            total = cost
            for j in range(m):
                if not used >> j & 1:
                    total = max(total, _unmatched_cost(bars_b[j]))
            best = min(best, total)
            return
        recurse(i + 1, used, max(cost, _unmatched_cost(bars_a[i])))
        for j in range(m):
            if not used >> j & 1:
                recurse(i + 1, used | 1 << j,
                        max(cost, _pair_cost(bars_a[i], bars_b[j])))

    recurse(0, 0, 0.0)
    return best


def _invariant_barcodes(X: FiniteMetricSpace, degrees: list[int],
                        ops: list[Operation], max_dim: int, max_scale: float):
    top = max([*degrees, *(op.target_degree for op in ops)], default=0)
    K = _vr_for_degrees(X, top, max_dim, max_scale)
    homology = persistent_barcode(K, max(degrees, default=0))
    images = {op: image_barcode(K, op) for op in ops}
    return homology, images


def gh_lower_bound(X: FiniteMetricSpace, Y: FiniteMetricSpace,
                   degrees: list[int], ops: list[Operation],
                   max_dim: int, max_scale: float) -> dict:
    """Per-invariant bottleneck distances and the Gromov-Hausdorff lower
    bound max(d_B) / 2, with the invariant achieving it."""
    hom_x, img_x = _invariant_barcodes(X, degrees, ops, max_dim, max_scale)
    hom_y, img_y = _invariant_barcodes(Y, degrees, ops, max_dim, max_scale)
    per_invariant = []
    for m in degrees:
        per_invariant.append({
            "invariant": f"H{m}",
            "d_B": bottleneck(hom_x, hom_y, m),
        })
    for op in ops:
        per_invariant.append({
            "invariant": f"img{op.name}@deg{op.target_degree}",
            "d_B": bottleneck(img_x[op], img_y[op], op.target_degree),
        })
    if not per_invariant:
        raise ValidationError("no invariants requested")
    best = max(per_invariant, key=lambda e: e["d_B"])
    return {
        "per_invariant": per_invariant,
        "gh_lower_bound": best["d_B"] / 2.0,
        "argmax": best["invariant"],
    }


def stability_check(X: FiniteMetricSpace, delta: float, trials: int,
                    seed: int, op: Operation, degree: int,
                    max_dim: int) -> dict:
    """Perturb the metric by sup-norm <= delta and verify the stability
    inequality: every bottleneck distance must stay <= delta.  The VR
    scale is capped at diameter + 2 delta, past every perturbed diameter,
    and, when both compared degrees are below max_dim, each side's at
    its own enclosing radius, which leaves that side's barcodes exact.

    Returns per-trial distances, the max observed ratio d_B/delta, and a
    list of violating trials (empty when the inequality holds throughout).
    """
    if delta < 0:
        raise ValidationError("delta must be nonnegative")
    rng = np.random.default_rng(seed)
    max_scale = X.diameter() + 2.0 * delta + 1e-9
    base_h, base_img = _invariant_barcodes(X, [degree], [op], max_dim,
                                           max_scale)

    results = []
    violations = []
    for trial in range(trials):
        pert = None
        for _ in range(100):
            noise = rng.uniform(-delta, delta, size=(X.n, X.n))
            noise = np.triu(noise, 1)
            noise = noise + noise.T
            try:
                pert = FiniteMetricSpace(X.d + noise)
                break
            except ValidationError:
                continue
        if pert is None:
            raise ValidationError(
                "could not produce a valid perturbed metric after 100 tries"
            )
        pert_h, pert_img = _invariant_barcodes(pert, [degree], [op], max_dim,
                                               max_scale)
        d_h = bottleneck(base_h, pert_h, degree)
        d_img = bottleneck(base_img[op], pert_img[op], op.target_degree)
        results.append({"trial": trial, "d_B_homology": d_h, "d_B_image": d_img})
        tol = delta + 1e-12
        if d_h > tol or d_img > tol:
            violations.append(trial)
    worst = max(
        (max(r["d_B_homology"], r["d_B_image"]) for r in results),
        default=0.0,
    )
    return {
        "delta": delta,
        "trials": trials,
        "operation": op.name,
        "degree": degree,
        "max_ratio": (worst / delta) if delta > 0 else 0.0,
        "violations": violations,
        "results": results,
        "passed": not violations,
    }
