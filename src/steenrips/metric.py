"""Finite metric spaces, metric constructions and Vietoris-Rips expansion.

Distances live in plain numpy float64 matrices.  Validation is strict:
symmetry, zero diagonal, positivity and the triangle inequality are
checked to 1e-9 and violations are hard errors, because the downstream
decomposition and stability theorems assume metrics.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import combinations
from typing import TextIO

import numpy as np

from .cohomology import INF, reduction
from .errors import InternalInvariantError, MetricError, ValidationError
from .gf2 import PivotTable
from .simplicial import FilteredComplex

_TOL = 1e-9


class FiniteMetricSpace:
    """Symmetric distance matrix with zero diagonal and triangle inequality."""

    __slots__ = ("n", "d")

    def __init__(self, d):
        d = np.asarray(d, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise MetricError("distance matrix must be square")
        n = d.shape[0]
        if n == 0:
            raise MetricError("empty metric space")
        if not np.isfinite(d).all():
            raise MetricError("distances must be finite")
        if np.abs(np.diag(d)).max(initial=0.0) > _TOL:
            raise MetricError("diagonal must be zero")
        if np.abs(d - d.T).max(initial=0.0) > _TOL:
            raise MetricError("distance matrix must be symmetric")
        off = d[~np.eye(n, dtype=bool)]
        if off.size and off.min() <= 0.0:
            raise MetricError("distinct points at non-positive distance")
        # d(x,y) <= d(x,z) + d(z,y) for all z, within tolerance; one row
        # of slack at a time keeps the check in O(n^2) memory
        slack = np.empty_like(d)
        for i in range(n):
            slack[i] = (d[i] + d).min(axis=1)
        if (d > slack + _TOL).any():
            i, j = np.unravel_index(np.argmax(d - slack), d.shape)
            raise MetricError(
                f"triangle inequality fails at points ({i}, {j})"
            )
        d = d.copy()
        d.flags.writeable = False
        self.n = n
        self.d = d

    def diameter(self) -> float:
        return float(self.d.max())

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class GroupAction:
    """Finite isometric action given by generator permutations."""

    space: FiniteMetricSpace
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.space.n
        for g in self.generators:
            if sorted(g) != list(range(n)):
                raise ValidationError(f"not a permutation of {n} points: {g}")
            perm = np.asarray(g)
            if np.abs(self.space.d[np.ix_(perm, perm)] - self.space.d).max() > _TOL:
                raise ValidationError("generator is not an isometry")

    def orbits(self) -> list[tuple[int, ...]]:
        """Orbits by least point, each sorted.

        The inverse of a permutation is one of its powers, so the orbit of
        x is its component in the graph x -> g(x) over the generators g;
        the group itself is never built.
        """
        seen = [False] * self.space.n
        out = []
        for x in range(self.space.n):
            if seen[x]:
                continue
            seen[x] = True
            orb = [x]
            for y in orb:
                for g in self.generators:
                    if not seen[g[y]]:
                        seen[g[y]] = True
                        orb.append(g[y])
            out.append(tuple(sorted(orb)))
        return out


def vr_filtration(X: FiniteMetricSpace, max_dim: int, max_scale: float) -> FilteredComplex:
    """Vietoris-Rips filtration up to the given dimension and scale.

    A simplex enters at its diameter (exact IEEE max of pairwise
    distances, vertices at 0).  The distance graph thresholded at
    max_scale is read once into lower-neighbour maps ``near[v] =
    {u: d[u, v]}``, u < v.  Expansion starts from each vertex v in
    increasing order and prepends a common lower neighbour u of the
    current simplex, depth first, so every clique of at most max_dim + 1
    vertices is emitted exactly once, with increasing vertices.  Each
    candidate u carries its largest distance to the current simplex, so
    a diameter costs one comparison.  The (value, dimension, vertices)
    entries are sorted once, which is the canonical order, and go to
    FilteredComplex directly: they are duplicate-free, closed under
    faces and monotone by construction, so :func:`build`'s validation
    is skipped.
    """
    if max_dim < 0:
        raise ValidationError("max_dim must be nonnegative")
    if not max_scale > 0:
        raise ValidationError("max_scale must be positive")
    d = X.d
    near: list[dict[int, float]] = []
    for v in range(X.n):
        # always the upper-triangle entry d[u, v], u < v: validation lets
        # d[u, v] and d[v, u] differ by up to _TOL
        column = d[:v, v]
        us = np.flatnonzero(column <= max_scale)
        near.append(dict(zip(us.tolist(), column[us].tolist())))
    entries: list[tuple[float, int, tuple[int, ...]]] = [
        (0.0, 0, (v,)) for v in range(X.n)
    ]

    def expand(simplex: tuple[int, ...], diam: float,
               candidates: list[tuple[int, float]]):
        dim = len(simplex)
        for idx, (u, reach) in enumerate(candidates):
            dd = reach if reach > diam else diam
            face = (u,) + simplex
            entries.append((dd, dim, face))
            if dim < max_dim:
                lower_u = near[u]
                rest = [(w, r if r >= x else x) for w, r in candidates[:idx]
                        if (x := lower_u.get(w)) is not None]
                if rest:
                    expand(face, dd, rest)

    if max_dim >= 1:
        for v in range(X.n):
            if near[v]:
                expand((v,), 0.0, list(near[v].items()))
    entries.sort()
    values, _, simplices = zip(*entries)
    return FilteredComplex(simplices, values)


def _vr_for_degrees(X: FiniteMetricSpace, top: int, max_dim: int,
                    max_scale: float) -> FilteredComplex:
    """The complex from which the metric paths read barcodes in degrees
    <= top, and image and kernel barcodes of operations into them: those
    of vr_filtration(X, max_dim, max_scale), which it is when top ==
    max_dim (and for one point).

    Below max_dim two savings leave those barcodes exact.  Let r_enc =
    min_x max_y d(x, y), the enclosing radius.  From r_enc on, VR_r is a
    cone on any x attaining it, so every bar but the essential H0 bar has
    died by r_enc, and the scale is cut at min(max_scale, r_enc) (Ripser
    uses the same threshold).  And the complex is built to dimension top
    only: its (top+1)-simplices would serve only as the rows of
    delta_top, whose reduction is read from the metric instead
    (:func:`_reduce_top_degree`).  Distances are the mirrored upper
    triangle d[u, v], u < v, which is what vr_filtration reads:
    validation lets d[v, u] differ by up to _TOL.
    """
    if not 0 <= top <= max_dim:
        raise ValidationError(f"degree {top} is outside 0..max_dim ({max_dim})")
    if top == max_dim or X.n == 1:
        return vr_filtration(X, max_dim, max_scale)
    upper = np.triu(X.d, 1)
    d = upper + upper.T
    scale = min(max_scale, float(d.max(axis=1).min()))
    K = vr_filtration(X, top, scale)
    if K.dimension == top:
        _reduce_top_degree(K, d, scale)
    return K


def _reduce_top_degree(K: FilteredComplex, d: np.ndarray, scale: float) -> None:
    """Reduce delta_p of K's top degree p as if K held the (p+1)-simplices
    of VR at this scale, and store its bars in the cohomology reduction.

    The cofacet sigma + {v} of a p-simplex sigma enters at the IEEE max
    of value(sigma) and d[u, v], u in sigma, if that is <= scale.  After
    the delta_{p-1} pivots are cleared, the column of sigma is apparent
    (Bauer, "Ripser", 2021) when its earliest cofacet tau, the least by
    (value, v), has sigma as its latest facet: every other facet
    tau - {x} has a smaller value, or an equal one and x > v.  It keeps
    the pivot tau unreduced, and its companion is the unit cochain.  The
    few columns left are reduced in reverse order as sets of (value,
    vertices) keys; a pivot tau is owned by its apparent facet, which is
    later than the column, or by a column reduced before.  So the bars
    and companions are those of the explicit reduction.  K has no rows
    for delta_p, so its table stays empty.
    """
    p = K.dimension
    red = reduction(K)
    cleared = list(red.degree(K, p - 1)[0].columns) if p else []
    simplices, index, values = K.dim_simplices[p], K.dim_index[p], K.dim_values[p]
    S = np.array(simplices).reshape(len(simplices), p + 1)
    vals = np.array(values)
    rows = np.arange(len(S))
    cof = np.repeat(vals[:, None], d.shape[0], axis=1)
    for i in range(p + 1):
        np.maximum(cof, d[S[:, i]], out=cof)
    cof[rows[:, None], S] = INF
    cof[cof > scale] = INF
    v = cof.argmin(axis=1)
    death = cof[rows, v]
    T = np.column_stack([S, v])
    apparent = death < INF
    for x in range(p + 1):
        facet = np.zeros(len(S))
        for a, b in combinations([i for i in range(p + 2) if i != x], 2):
            np.maximum(facet, d[T[:, a], T[:, b]], out=facet)
        apparent &= (facet < vals) | ((facet == vals) & (S[:, x] > v))
    apparent[cleared] = False
    long = np.flatnonzero(apparent & (vals < death))
    bars = list(zip(long.tolist(), death[long].tolist(), [None] * len(long)))
    left = ~apparent
    left[cleared] = False
    v = v.tolist()

    def cofacets(j: int) -> set:
        ws = np.flatnonzero(cof[j] < INF)
        return {(c, tuple(sorted(simplices[j] + (w,))))
                for w, c in zip(ws.tolist(), cof[j, ws].tolist())}

    pivots: dict = {}
    for s in np.flatnonzero(left)[::-1].tolist():
        col, z = cofacets(s), 1 << s
        while col:
            tau = min(col)
            if tau in pivots:
                add, y = pivots[tau]
            else:
                j = max(index[f] for f in combinations(tau[1], p + 1))
                if not (apparent[j] and sum(tau[1]) - sum(simplices[j]) == v[j]):
                    pivots[tau] = col, z
                    break
                add, y = cofacets(j), 1 << j
            col ^= add
            z ^= y
        end = tau[0] if col else INF
        if values[s] < end:
            bars.append((s, end, z))
    bars.sort(key=lambda bar: -bar[0])
    red.tables.append(PivotTable())
    red.bars.append(bars)


def gluing_wedge(X: FiniteMetricSpace, x0: int, Y: FiniteMetricSpace, y0: int) -> FiniteMetricSpace:
    """Wedge of two pointed spaces: cross distances route through basepoints."""
    if not 0 <= x0 < X.n:
        raise ValidationError(f"basepoint {x0} out of range")
    if not 0 <= y0 < Y.n:
        raise ValidationError(f"basepoint {y0} out of range")
    keep = [j for j in range(Y.n) if j != y0]
    n = X.n + len(keep)
    d = np.zeros((n, n))
    d[:X.n, :X.n] = X.d
    d[X.n:, X.n:] = Y.d[np.ix_(keep, keep)]
    cross = X.d[:, x0][:, None] + Y.d[y0, keep][None, :]
    d[:X.n, X.n:] = cross
    d[X.n:, :X.n] = cross.T
    return FiniteMetricSpace(d)


def linf_product(X: FiniteMetricSpace, Y: FiniteMetricSpace) -> FiniteMetricSpace:
    """Product space with d((x,y),(x',y')) = max of factor distances.

    Point (i, j) gets index i * |Y| + j.
    """
    dx = np.kron(X.d, np.ones((Y.n, Y.n)))
    dy = np.kron(np.ones((X.n, X.n)), Y.d)
    return FiniteMetricSpace(np.maximum(dx, dy))


def quotient_metric(X: FiniteMetricSpace, action: GroupAction) -> FiniteMetricSpace:
    """Orbit space with d([x],[y]) = min over the group of d(x, g y)."""
    if action.space is not X:
        raise ValidationError("action is not an action on this space")
    orbits = action.orbits()
    k = len(orbits)
    d = np.zeros((k, k))
    for a in range(k):
        ra = orbits[a][0]
        for b in range(a + 1, k):
            val = min(float(X.d[ra, y]) for y in orbits[b])
            d[a, b] = d[b, a] = val
    try:
        return FiniteMetricSpace(d)
    except MetricError as exc:
        # cannot happen for a proper isometric action
        raise InternalInvariantError(f"quotient is not a metric: {exc}") from exc


def antipodal_action(X: FiniteMetricSpace) -> GroupAction:
    """Action swapping point k with point k + n/2 (antipodally closed samples)."""
    if X.n % 2:
        raise ValidationError("antipodal action needs an even point count")
    half = X.n // 2
    perm = tuple(list(range(half, X.n)) + list(range(half)))
    return GroupAction(X, (perm,))


def sphere_sample(n: int, radius: float, count: int, seed: int = 0,
                  antipodal_closure: bool = False) -> FiniteMetricSpace:
    """Uniform sample of the round n-sphere of the given radius.

    Gaussian normalization; geodesic distance radius * angle.  With
    antipodal_closure the antipode of every sample is appended, so the
    swap permutation is an exact isometry of the matrix.
    """
    if n < 1:
        raise ValidationError("sphere dimension must be >= 1")
    if count < 2:
        raise ValidationError("need at least two sample points")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, n + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    if antipodal_closure:
        pts = np.vstack([pts, -pts])
    cosines = np.clip(pts @ pts.T, -1.0, 1.0)
    d = radius * np.arccos(cosines)
    np.fill_diagonal(d, 0.0)
    d = np.minimum(d, d.T)
    return FiniteMetricSpace(d)


def circle_grid(count: int, radius: float = 1.0) -> FiniteMetricSpace:
    """count equally spaced points on a circle, geodesic distances."""
    if count < 2:
        raise ValidationError("need at least two grid points")
    d = np.zeros((count, count))
    step = 2.0 * math.pi * radius / count
    for i in range(count):
        for j in range(i + 1, count):
            m = min(j - i, count - (j - i))
            d[i, j] = d[j, i] = step * m
    return FiniteMetricSpace(d)


def projective_sample(dim: int, count: int, seed: int = 0,
                      radius: float = 2.0) -> FiniteMetricSpace:
    """Sample of real projective space: antipodal quotient of a sphere sample.

    The default sphere radius 2 makes the quotient's diameter pi*radius/2.
    """
    sphere = sphere_sample(dim, radius, count, seed, antipodal_closure=True)
    return quotient_metric(sphere, antipodal_action(sphere))


# -- file formats -----------------------------------------------------------


def load_distance_matrix(source: TextIO | str) -> FiniteMetricSpace:
    """Read the text format: first line N, then N rows of N reals."""
    text = source if isinstance(source, str) else source.read()
    tokens = text.split()
    if not tokens:
        raise ValidationError("empty distance-matrix file")
    try:
        n = int(tokens[0])
    except ValueError:
        raise ValidationError("first token must be the point count") from None
    if n < 0:
        raise ValidationError(f"point count {n} is negative")
    if len(tokens) != 1 + n * n:
        raise ValidationError(
            f"expected {n * n} matrix entries, found {len(tokens) - 1}"
        )
    try:
        vals = [float(t) for t in tokens[1:]]
    except ValueError as exc:
        raise ValidationError(f"bad matrix entry: {exc}") from None
    return FiniteMetricSpace(np.asarray(vals).reshape(n, n))


def save_distance_matrix(X: FiniteMetricSpace, stream: TextIO) -> None:
    stream.write(f"{X.n}\n")
    for row in X.d:
        stream.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_points_csv(source: TextIO | str) -> np.ndarray:
    """Point cloud CSV: one point per row, numeric columns."""
    text = source if isinstance(source, str) else source.read()
    rows = []
    for rec in csv.reader(io.StringIO(text)):
        if not rec or all(not cell.strip() for cell in rec):
            continue
        try:
            rows.append([float(cell) for cell in rec])
        except ValueError as exc:
            raise ValidationError(f"bad CSV value: {exc}") from None
    if not rows:
        raise ValidationError("empty point-cloud file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValidationError("rows have inconsistent column counts")
    return np.asarray(rows, dtype=np.float64)


def metric_from_points(points: np.ndarray, kind: str = "euclidean") -> FiniteMetricSpace:
    """Build a metric from coordinates: ``euclidean`` or ``sphere:<radius>``."""
    pts = np.asarray(points, dtype=np.float64)
    if kind == "euclidean":
        diff = pts[:, None, :] - pts[None, :, :]
        return FiniteMetricSpace(np.sqrt((diff ** 2).sum(axis=2)))
    if kind.startswith("sphere:"):
        try:
            radius = float(kind.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad sphere radius in {kind!r}") from None
        norms = np.linalg.norm(pts, axis=1)
        if np.abs(norms - radius).max() > 1e-6:
            raise ValidationError(
                "points are not on the sphere of the requested radius"
            )
        unit = pts / norms[:, None]
        d = radius * np.arccos(np.clip(unit @ unit.T, -1.0, 1.0))
        np.fill_diagonal(d, 0.0)
        return FiniteMetricSpace(np.minimum(d, d.T))
    raise ValidationError(f"unknown metric kind {kind!r}")
