"""Exact bottleneck distance, brute-force oracle, stability and GH bounds.

The bottleneck distance is computed combinatorially, from the arrays of
the two barcodes.  One numpy pass builds the n x m matrix of L-infinity
pair costs and the half-persistence of every finite bar; the answer is
the least of these costs (or 0) at which a partial matching of that
cost exists.  It is found by two binary searches: one over 0 and the
half-persistences, then one over the pair costs between the two
half-persistences that bracket the answer, so that not every pair cost
is sorted (the candidates of Kerber, Morozov & Nigmetov, "Geometry helps
to compare persistence diagrams", JEA 2017).  At a threshold c the bars
with half-persistence > c must be matched along pairs of cost <= c.  By
the Mendelsohn-Dulmage theorem (Mendelsohn & Dulmage, "Some
generalizations of the problem of distinct representatives", Canad. J.
Math. 1958), a matching covering those A-bars and one covering those
B-bars combine into one covering both, so each probe is two one-sided
saturation searches over the threshold graph.

When each side's finite bars share one birth (every H0 bar of a VR
filtration is born at 0; the two sides' births may differ), the search
is first-fit.  The finite bars come sorted by death, and a pair's cost
is max(|b_a - b_b|, fl(|d_a - d_b|)): a constant and a float difference
that is monotone on each side of d_a.  So each bar's neighbours at c,
read from the same ``pair <= c`` booleans as in general, are one
contiguous window of the other side, and the windows' ends are
nondecreasing along the bars: a convex bipartite graph (Glover, Naval
Res. Logist. Q. 1967), where matching each bar to the first free
neighbour in sorted order decides saturation.  Otherwise each search is
Kuhn's augmenting paths.  The one probe takes either search, read from
the bars, over the same rows; no geometric approximation, and
acceptance tests compare for equality against exhaustive enumeration.
"""

from __future__ import annotations

import math

import numpy as np

from .cohomology import Barcode, persistent_barcode, reduction
from .errors import InternalInvariantError, ValidationError
from .metric import FiniteMetricSpace, _symmetric, vr_filtration
from .operations import Operation, image_barcode, kernel_barcode

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


def _saturates(edges: np.ndarray) -> bool:
    """Does some matching in the bipartite graph ``edges`` (a boolean
    rows x right matrix) cover every row?  ``_feasible``'s general search.

    Kuhn's augmenting paths, one root per row: a root left exposed at its
    turn stays exposed in every maximum matching, so the search stops
    there.  The depth-first search keeps its path on an explicit stack,
    so an augmenting path may be as long as the graph allows.
    """
    adj = [np.flatnonzero(row).tolist() for row in edges]
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


def _feasible(pair: np.ndarray, ua: np.ndarray, ub: np.ndarray, c: float,
              covers) -> bool:
    """Is there a partial matching of cost <= c between finite bars?

    Bars with half-persistence > c must be matched, along pairs of cost
    <= c.  A matching covering the A-bars that must be matched and one
    covering the B-bars that must be matched combine into one covering
    both (Mendelsohn-Dulmage), so two one-sided searches decide it, each
    a ``covers`` of the rows of ``pair <= c`` of the bars that must be
    matched: ``_first_fit`` or ``_saturates``, read from the bars.
    First-fit runs on one-birth sides, whose half-persistences ascend
    with the deaths, so its rows are sliced as a suffix, not masked.
    """
    if covers is _first_fit:
        must_a = slice(ua.searchsorted(c, "right"), None)
        must_b = slice(ub.searchsorted(c, "right"), None)
    else:
        must_a, must_b = ua > c, ub > c
    return covers(pair[must_a] <= c) and covers((pair[:, must_b] <= c).T)


def _first_fit(edges: np.ndarray) -> bool:
    """Does some matching cover every row of ``edges`` (a boolean rows x
    right matrix) whose True entries are, per row, one contiguous window
    with nondecreasing ends down the rows?

    Row k takes the first free column of its window: with L_k its first
    neighbour, j_k = max(L_k, j_(k-1) + 1) = k + max(L_t - t for t <= k).
    It is saturated iff each j_k is in range and a neighbour of row k (a
    row without neighbours fails the second test).
    """
    k, m = edges.shape
    if k == 0 or m == 0:
        return k == 0
    steps = np.arange(k)
    j = steps + np.maximum.accumulate(edges.argmax(axis=1) - steps)
    return bool(j[-1] < m and edges[steps, j].all())


def _expanded(A: Barcode, B: Barcode, degree: int) -> tuple[list, list]:
    """The (birth, death) pairs of both degree-``degree`` parts; a
    negative degree has no barcode and is refused."""
    if degree < 0:
        raise ValidationError(f"degree must be nonnegative, got {degree}")
    return A.expanded(degree), B.expanded(degree)


def _side(X: Barcode, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The births and deaths of X's finite bars in this degree and the
    births of its essential bars, multiplicities unrolled, in X's order:
    by birth, then death."""
    if degree < 0:
        raise ValidationError(f"degree must be nonnegative, got {degree}")
    part = slice(*X.degree.searchsorted((degree, degree + 1)))
    birth = np.repeat(X.birth[part], X.multiplicity[part])
    death = np.repeat(X.death[part], X.multiplicity[part])
    finite = death < INF
    return birth[finite], death[finite], birth[~finite]


def _least_feasible(ordered: np.ndarray, feasible) -> int:
    """The index of the least value of ``ordered`` (nondecreasing) at
    which the monotone ``feasible`` holds, len(ordered) if none, by
    binary search."""
    lo, hi = 0, len(ordered)
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return lo


def bottleneck(A: Barcode, B: Barcode, degree: int) -> float:
    """Exact bottleneck distance between the degree-``degree`` parts.

    Read from the barcodes' arrays.  Mismatched infinite-bar counts give
    inf (not an error).  The answer is the least candidate, 0, a
    half-persistence or a pair cost, at which ``_feasible`` holds, found
    in two stages.  A binary search over the sorted 0 and
    half-persistences finds the least feasible one, s_hi, and the one
    below it, s_lo, which is not (none if s_hi is 0).  Then only the pair
    costs strictly between s_lo and s_hi are sorted and searched, s_hi
    being the answer if none of them is feasible.  When the finite bars
    of each side share one birth (in any degree; the sides' births may
    differ), each probe covers the rows of ``pair <= c`` by first-fit
    over their death-sorted windows; otherwise by Kuhn's search.  The
    candidates and the predicate are those of one search over every
    candidate, and so is the value.
    """
    (ba, da, ia), (bb, db, ib) = _side(A, degree), _side(B, degree)
    if len(ia) != len(ib):
        return INF
    inf_cost = float(np.abs(ia - ib).max()) if len(ia) else 0.0
    if not len(ba) and not len(bb):
        return inf_cost
    # max(|b_a - b_b|, |d_a - d_b|) in two n x m buffers, filled in place
    pair, deaths = np.subtract.outer(ba, bb), np.subtract.outer(da, db)
    np.maximum(np.abs(pair, out=pair), np.abs(deaths, out=deaths), out=pair)
    ua, ub = (da - ba) / 2.0, (db - bb) / 2.0
    # the bars come sorted by (birth, death): one birth leaves them by death
    one_birth = (not len(ba) or ba[0] == ba[-1]) and (not len(bb) or bb[0] == bb[-1])
    covers = _first_fit if one_birth else _saturates

    def feasible(c) -> bool:
        return _feasible(pair, ua, ub, c, covers)

    halves = np.sort(np.concatenate(([0.0], ua, ub)))
    k = _least_feasible(halves, feasible)
    if k == len(halves):
        # all-unmatched is always feasible at the largest half-persistence
        raise InternalInvariantError("threshold graph not monotone")
    s_lo, s_hi = halves[k - 1] if k else -INF, halves[k]
    band = np.sort(pair[(s_lo < pair) & (pair < s_hi)])
    j = _least_feasible(band, feasible)
    return max(inf_cost, float(band[j] if j < len(band) else s_hi))


def bottleneck_oracle(A: Barcode, B: Barcode, degree: int) -> float:
    """Exhaustive minimum over all partial matchings (<= 7 bars per side)."""
    bars_a, bars_b = _expanded(A, B, degree)
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


def _top_degree(max_degree: int, ops: list[Operation], max_dim: int | None = None,
                name: str = "max_dim") -> int:
    """The largest degree a metric call reads: max_degree or an
    operation's target degree.  Given the VR dimension max_dim (spelled
    ``name`` in messages), refuse a max_dim below 1 and a degree read
    outside 0..max_dim - 1, as H^k of VR needs its (k+1)-simplices."""
    if max_dim is not None and max_dim < 1:
        raise ValidationError(f"{name} must be at least 1, got {max_dim}: "
                              "degree 0 is read from the edges")
    top = max([max_degree, *(op.target_degree for op in ops)])
    if max_dim is not None and not 0 <= top < max_dim:
        raise ValidationError(f"degree {top} is outside 0..{max_dim - 1}: degrees "
                              f"read must be below {name} ({max_dim})")
    return top


def rips_barcodes(X: FiniteMetricSpace, max_degree: int, ops: list[Operation],
                  max_scale: float) -> tuple[Barcode, dict]:
    """The barcode of VR(X) up to max_scale in degrees 0..max_degree, and
    each operation's (image, kernel) barcodes: those of
    vr_filtration(X, top + 1, max_scale), top the largest degree read.

    Two savings leave them exact.  Let r_enc = min_x max_y d(x, y), the
    enclosing radius.  From r_enc on, VR_r is a cone on any x attaining
    it, so every bar but the essential H0 bar has died by r_enc, and the
    scale is cut at min(max_scale, r_enc) (Ripser uses the same
    threshold; one point keeps max_scale).  And the complex is built to
    dimension max(top, 1) only: for top >= 1 its (top+1)-simplices would
    serve only as the rows of delta_top, so the complex's reduction is
    made with the metric, from which it reduces the complex's top degree
    (:func:`steenrips.cohomology.reduction`); degree 0 is settled by
    union-find over the edges, which are built.
    """
    if max_degree < 0:
        raise ValidationError("max_degree must be nonnegative")
    top = _top_degree(max_degree, ops)
    scale = min(max_scale, float(X.d.max(axis=1).min())) if X.n > 1 else max_scale
    K = vr_filtration(X, max(top, 1), scale)
    reduction(K, (X.d, scale))
    return (persistent_barcode(K, max_degree),
            {op: (image_barcode(K, op), kernel_barcode(K, op)) for op in ops})


def gh_lower_bound(X: FiniteMetricSpace, Y: FiniteMetricSpace,
                   degrees: list[int], ops: list[Operation],
                   max_dim: int, max_scale: float) -> dict:
    """Per-invariant bottleneck distances and the Gromov-Hausdorff lower
    bound max(d_B) / 2, with the invariant achieving it.  Every degree
    compared must be below max_dim, as H^k of VR needs its (k+1)-simplices."""
    if not degrees and not ops:
        raise ValidationError("no invariants requested")
    if min(degrees, default=0) < 0:
        raise ValidationError(f"degrees must be nonnegative, got {degrees}")
    max_degree = max(degrees, default=0)
    _top_degree(max_degree, ops, max_dim)
    hom_x, img_x = rips_barcodes(X, max_degree, ops, max_scale)
    hom_y, img_y = rips_barcodes(Y, max_degree, ops, max_scale)
    per_invariant = []
    for m in degrees:
        per_invariant.append({
            "invariant": f"H{m}",
            "d_B": bottleneck(hom_x, hom_y, m),
        })
    for op in ops:
        per_invariant.append({
            "invariant": f"img{op.name}@deg{op.target_degree}",
            "d_B": bottleneck(img_x[op][0], img_y[op][0], op.target_degree),
        })
    best = max(per_invariant, key=lambda e: e["d_B"])
    return {
        "per_invariant": per_invariant,
        "gh_lower_bound": best["d_B"] / 2.0,
        "argmax": best["invariant"],
    }


def stability_check(X: FiniteMetricSpace, delta: float, trials: int,
                    seed: int, op: Operation, degree: int) -> dict:
    """Perturb the metric by sup-norm <= delta and verify the stability
    inequality: every bottleneck distance must stay <= delta.  Each
    side's VR scale is its own enclosing radius, which leaves its
    barcodes exact, so no scale cap is passed on.

    Returns per-trial distances, the max observed ratio d_B/delta, and a
    list of violating trials (empty when the inequality holds throughout).
    """
    if not 0 <= delta < INF:
        raise ValidationError(f"delta must be finite and nonnegative, got {delta}")
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    base_h, base_img = rips_barcodes(X, degree, [op], INF)

    results = []
    violations = []
    for trial in range(trials):
        pert = None
        for _ in range(100):
            noise = _symmetric(rng.uniform(-delta, delta, size=(X.n, X.n)))
            try:
                pert = FiniteMetricSpace(X.d + noise)
                break
            except ValidationError:
                continue
        if pert is None:
            raise ValidationError(
                "could not produce a valid perturbed metric after 100 tries"
            )
        pert_h, pert_img = rips_barcodes(pert, degree, [op], INF)
        d_h = bottleneck(base_h, pert_h, degree)
        d_img = bottleneck(base_img[op][0], pert_img[op][0], op.target_degree)
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
