"""Independent correctness checks for benchmark outputs.

Each checker returns a list of problems; an empty list means the output
passed.  The checkers use only numpy and scipy, never the library's own
algorithms, so a wrong fast path in the library cannot confirm itself.
Barcodes are read through ``expanded(degree)`` and ``alive(degree, t)``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching, minimum_spanning_tree


def rank_nullity(values, homology, image, kernel, source: int = 1) -> list[str]:
    """Pointwise rank-nullity of Sq^k: H^s -> H^(s+1) at every filtration value.

    dim H^s(t) = dim ker(t) + dim im(t), and im(t) <= dim H^(s+1)(t).
    """
    target = source + 1
    problems = []
    for t in values:
        h_src = homology.alive(source, t)
        h_tgt = homology.alive(target, t)
        k = kernel.alive(source, t)
        i = image.alive(target, t)
        if h_src != k + i:
            problems.append(f"rank-nullity fails at t={t!r}: H{source}={h_src}, ker={k}, im={i}")
        if i > h_tgt:
            problems.append(f"image exceeds H{target} at t={t!r}: im={i}, H{target}={h_tgt}")
    return problems


def h0_matches_mst(d: np.ndarray, max_scale: float, barcode) -> list[str]:
    """Finite H0 deaths equal the minimum-spanning-tree edge weights of the
    distance graph thresholded at max_scale, with exactly one essential bar."""
    pairs = barcode.expanded(0)
    essential = sum(1 for _, death in pairs if math.isinf(death))
    if essential != 1:
        return [f"expected one essential H0 bar, found {essential}"]
    graph = np.where(d <= max_scale, d, 0.0)
    expected = sorted(minimum_spanning_tree(graph).data.tolist())
    deaths = sorted(death for _, death in pairs if not math.isinf(death))
    if deaths != expected:
        return [f"H0 deaths differ from MST weights ({len(deaths)} deaths, {len(expected)} edges)"]
    return []


def _split(pairs):
    finite = np.array([p for p in pairs if not math.isinf(p[1])], dtype=np.float64).reshape(-1, 2)
    births_inf = sorted(b for b, death in pairs if math.isinf(death))
    return finite, births_inf


def _costs(fa: np.ndarray, fb: np.ndarray):
    """L-infinity pair costs and half-persistence (distance to the diagonal)."""
    pair = np.maximum(np.abs(fa[:, None, 0] - fb[None, :, 0]),
                      np.abs(fa[:, None, 1] - fb[None, :, 1]))
    return pair, (fa[:, 1] - fa[:, 0]) / 2.0, (fb[:, 1] - fb[:, 0]) / 2.0


def _perfect(pair, ua, ub, c: float) -> bool:
    """Perfect matching of the diagonal-augmented graph at threshold c.

    Rows: A-bars, then one diagonal slot per B-bar.  Columns: B-bars,
    then one diagonal slot per A-bar.  A bar may pair with a bar within
    c or with its own diagonal slot when within c of the diagonal;
    diagonal slots pair with each other freely.
    """
    n, m = len(ua), len(ub)
    if n + m == 0:
        return True
    rows, cols = np.nonzero(pair <= c)
    ia = np.nonzero(ua <= c)[0]
    jb = np.nonzero(ub <= c)[0]
    dj, di = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
    r = np.concatenate([rows, ia, n + jb, n + dj.ravel()])
    k = np.concatenate([cols, m + ia, jb, m + di.ravel()])
    graph = csr_matrix((np.ones(len(r), dtype=np.int8), (r, k)), shape=(n + m, n + m))
    match = maximum_bipartite_matching(graph, perm_type="column")
    return bool((match >= 0).all())


def _candidates(pair, ua, ub) -> list[float]:
    return sorted({0.0, *pair.ravel().tolist(), *ua.tolist(), *ub.tolist()})


def candidates(pairs_a, pairs_b) -> list[float]:
    """Sorted distinct values a finite bottleneck distance can take."""
    return _candidates(*_costs(_split(pairs_a)[0], _split(pairs_b)[0]))


def bottleneck_certificate(pairs_a, pairs_b, d: float) -> list[str]:
    """Confirm d is the bottleneck distance between two lists of (birth, death).

    Essential bars match by sorted births.  For the finite bars, the
    augmented graph must be perfectly matchable at d and, unless the
    essential part sets d, not at the largest candidate below d.
    """
    fa, inf_a = _split(pairs_a)
    fb, inf_b = _split(pairs_b)
    if len(inf_a) != len(inf_b):
        return [] if math.isinf(d) else [f"essential counts differ but d={d!r}"]
    if math.isinf(d):
        return ["d is inf with equal essential counts"]
    inf_cost = max((abs(x - y) for x, y in zip(inf_a, inf_b)), default=0.0)
    if d < inf_cost:
        return [f"d={d!r} below the essential-bar cost {inf_cost!r}"]
    pair, ua, ub = _costs(fa, fb)
    if not _perfect(pair, ua, ub, d):
        return [f"no matching of cost <= d={d!r}"]
    if d == inf_cost:
        return []
    cands = _candidates(pair, ua, ub)
    if d not in cands:
        return [f"d={d!r} is not a pair or diagonal cost"]
    below = [c for c in cands if c < d]
    if below and _perfect(pair, ua, ub, below[-1]):
        return [f"a matching of cost {below[-1]!r} < d={d!r} exists"]
    return []


def digest(obj) -> str:
    """Short hash of the exact repr of an output (floats keep every digit)."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def barcode_key(barcode) -> tuple:
    return tuple((b.degree, b.birth, b.death, b.multiplicity) for b in barcode)
