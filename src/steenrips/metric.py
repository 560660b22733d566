"""Finite metric spaces, metric constructions and Vietoris-Rips expansion.

Distances live in plain numpy float64 matrices.  A matrix from outside
is checked for symmetry, zero diagonal, positivity and the triangle
inequality to 1e-9, and violations are hard errors, because the
downstream decomposition and stability theorems assume metrics.  A space
stores the upper triangle mirrored with a zero diagonal, so asymmetry
within 1e-9 resolves to the upper triangle for every reader.  The
constructors here and in :mod:`steenrips.synthetic` round exact metrics
and skip only the O(n^3) triangle check.  Rounding can break the
inequality by more than 1e-9 (nearly collinear points with coordinates
near 1e8); that is accepted, since VR expansion, barcodes and bottleneck
distances need only a symmetric matrix.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import InternalInvariantError, MetricError, ValidationError
from .simplicial import FilteredComplex

_TOL = 1e-9
# most entries one block of vr_filtration or metric_from_points holds
_BLOCK = 1 << 22
# most sums a block of _check_triangle holds beyond one row of n^2: 512 KB
# covers a small space in one numpy pass, where a block of _BLOCK would
# raise the peak of a few hundred points from ~2 to ~35 MB
_TRIANGLE_BLOCK = 1 << 16


class FiniteMetricSpace:
    """Symmetric distance matrix with zero diagonal and triangle inequality.

    ``d`` is the upper triangle of the given matrix mirrored with a zero
    diagonal, read-only: asymmetry within 1e-9 resolves to the upper one.
    ``FiniteMetricSpace(d)`` runs every check, so :func:`load_distance_matrix`
    and ``stability_check``'s perturbed matrices do.  The constructors call
    ``_trusted``, which skips the triangle check (see the module docstring).
    """

    __slots__ = ("n", "d")

    def __init__(self, d):
        self._load(d)
        _check_triangle(self.d)

    @classmethod
    def _trusted(cls, d) -> FiniteMetricSpace:
        X = cls.__new__(cls)
        X._load(d)
        return X

    def _load(self, d) -> None:
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
        if d.min(initial=math.inf, where=~np.eye(n, dtype=bool)) <= 0.0:
            raise MetricError("distinct points at non-positive distance")
        d = _symmetric(d, _TOL)
        d.flags.writeable = False
        self.n = n
        self.d = d

    def diameter(self) -> float:
        return float(self.d.max())

    def __len__(self) -> int:
        return self.n


def _symmetric(d: np.ndarray, tol: float = math.inf) -> np.ndarray:
    """The strict upper triangle of d mirrored, with a zero diagonal; a
    MetricError if some |d[i, j] - d[j, i]| exceeds tol.  Row blocks of
    at most _BLOCK entries: each block of the output holds its rows'
    asymmetry before their mirrored values, so beside the output only a
    block's boolean mask is held."""
    n = d.shape[0]
    out = np.empty((n, n))
    cols = np.arange(n)
    step = max(1, _BLOCK // n)
    for a in range(0, n, step):
        block, mirror = out[a:a + step], d[:, a:a + step].T
        np.subtract(d[a:a + step], mirror, out=block)
        if np.abs(block, out=block).max(initial=0.0) > tol:
            raise MetricError("distance matrix must be symmetric")
        rows = cols[a:a + len(block)]
        block[...] = d[a:a + step]
        np.copyto(block, mirror, where=cols < rows[:, None])
        block[rows - a, rows] = 0.0
    return out


def _check_triangle(d: np.ndarray) -> None:
    """d(x,y) <= d(x,z) + d(z,y) for all z, within tolerance.  The slack
    min_z d(x,z) + d(z,y) is taken in blocks of max(1, _TRIANGLE_BLOCK //
    n^2) rows, so at most max(_TRIANGLE_BLOCK, n^2) sums are held at
    once: O(n^2) memory, and one numpy pass for a small space."""
    n = d.shape[0]
    slack = np.empty_like(d)
    step = max(1, _TRIANGLE_BLOCK // (n * n))
    for a in range(0, n, step):
        slack[a:a + step] = (d[a:a + step, None, :] + d[None, :, :]).min(axis=2)
    if (d > slack + _TOL).any():
        i, j = np.unravel_index(np.argmax(d - slack), d.shape)
        raise MetricError(f"triangle inequality fails at points ({i}, {j})")


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
    max_scale is read once into upper-neighbour lists (CSR arrays), and
    the complex grows one dimension at a time as arrays of increasing
    vertex rows: the cofaces of a k-simplex are its extensions by an
    upper neighbour w of its last vertex that is adjacent to the other
    vertices, so every clique of at most max_dim + 1 vertices is made
    exactly once.  Candidates are screened in blocks of at most
    ``_BLOCK``.  A coface's value is the elementwise maximum of the
    simplex's value and the distances to w.  The rows of each dimension
    come out in lexicographic order, so a stable sort by value orders
    each dimension by (value, vertices), the order the complex stores.
    The complex is assembled from these rows and their float64 values
    directly, kept as computed: the 0-simplices
    are the points 0..n-1 in order, so a point's index is its position
    and its id, and no vertex tuple is made.  It is duplicate-free,
    closed under faces and monotone by construction, so :func:`build`'s
    validation is skipped.
    """
    if max_dim < 0:
        raise ValidationError("max_dim must be nonnegative")
    if not max_scale > 0:
        raise ValidationError("max_scale must be positive")
    d = X.d
    adj = d <= max_scale
    # flat indices: a 2-d np.nonzero is several times slower
    rows, cols = np.divmod(np.flatnonzero(adj), X.n)
    above = cols > rows
    upper = cols[above]
    indptr = np.zeros(X.n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows[above], minlength=X.n), out=indptr[1:])
    dims = [(np.arange(X.n)[:, None], np.zeros(X.n))]
    for _ in range(max_dim):
        S, V = _cofaces(*dims[-1], d, adj, indptr, upper)
        if not len(V):
            break
        dims.append((S, V))
    del adj
    dim_rows, dim_values = [], []
    for S, V in dims:
        order = np.argsort(V, kind="stable")
        dim_rows.append(S[order])
        dim_values.append(V[order])
    return FilteredComplex(range(X.n), dim_rows, dim_values)


def _cofaces(S: np.ndarray, V: np.ndarray, d: np.ndarray, adj: np.ndarray,
             indptr: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (k+1)-simplex rows and values from the k-simplex rows S and
    values V, both in lexicographic order.  Candidate c is upper
    neighbour number c - ends[s] of simplex s's last vertex; at most
    _BLOCK candidates are held at once."""
    first = indptr[S[:, -1]]
    ends = np.zeros(len(S) + 1, dtype=np.intp)
    np.cumsum(indptr[S[:, -1] + 1] - first, out=ends[1:])
    faces = [np.empty((0, S.shape[1] + 1), dtype=S.dtype)]
    values = [np.empty(0)]
    for a in range(0, int(ends[-1]), _BLOCK):
        b = min(a + _BLOCK, int(ends[-1]))
        s0 = np.searchsorted(ends, a, "right") - 1
        s1 = np.searchsorted(ends, b, "left")
        owner = np.repeat(np.arange(s0, s1), np.diff(np.clip(ends[s0:s1 + 1], a, b)))
        w = upper[first[owner] + np.arange(a, b) - ends[owner]]
        keep = np.ones(len(w), dtype=bool)
        for col in S.T[:-1]:
            keep &= adj[col[owner], w]
        owner, w = owner[keep], w[keep]
        value = V[owner]
        for col in S.T:
            np.maximum(value, d[col[owner], w], out=value)
        faces.append(np.column_stack((S[owner], w)))
        values.append(value)
    return np.concatenate(faces), np.concatenate(values)


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
    return FiniteMetricSpace._trusted(d)


def linf_product(X: FiniteMetricSpace, Y: FiniteMetricSpace) -> FiniteMetricSpace:
    """Product space with d((x,y),(x',y')) = max of factor distances.

    Point (i, j) gets index i * |Y| + j.
    """
    dx = np.kron(X.d, np.ones((Y.n, Y.n)))
    dy = np.kron(np.ones((X.n, X.n)), Y.d)
    return FiniteMetricSpace._trusted(np.maximum(dx, dy))


def quotient_metric(X: FiniteMetricSpace, action: GroupAction) -> FiniteMetricSpace:
    """Orbit space with d([x],[y]) = min over the group of d(x, g y)."""
    if action.space is not X:
        raise ValidationError("action is not an action on this space")
    orbits = action.orbits()
    starts = np.cumsum([0] + [len(o) for o in orbits[:-1]])
    # row a: the least distance from orbit a's least point to each orbit;
    # the strict upper triangle is kept and mirrored
    d = np.triu(np.minimum.reduceat(
        X.d[np.ix_([o[0] for o in orbits], np.concatenate(orbits))], starts, axis=1), 1)
    lower = np.tril_indices(len(orbits), -1)
    d[lower] = d.T[lower]
    try:
        return FiniteMetricSpace._trusted(d)
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
    return _geodesic(pts, radius)


def _geodesic(unit: np.ndarray, radius: float) -> FiniteMetricSpace:
    """Great-circle distances radius * angle between unit vectors."""
    d = radius * np.arccos(np.clip(unit @ unit.T, -1.0, 1.0))
    np.fill_diagonal(d, 0.0)
    return FiniteMetricSpace._trusted(d)


def circle_grid(count: int, radius: float = 1.0) -> FiniteMetricSpace:
    """count equally spaced points on a circle, geodesic distances."""
    if count < 2:
        raise ValidationError("need at least two grid points")
    step = 2.0 * math.pi * radius / count
    k = np.abs(np.subtract.outer(np.arange(count), np.arange(count)))
    return FiniteMetricSpace._trusted(step * np.minimum(k, count - k))


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
    if pts.ndim != 2:
        raise ValidationError(f"points must be one row per point, got shape {pts.shape}")
    if not len(pts):
        raise MetricError("empty metric space")
    if kind == "euclidean":
        # row blocks of the one-shot formula, same bytes, at most
        # min(_BLOCK, n^2 / 4) coordinate differences held at once: a
        # block of _BLOCK alone is as large as the output at 2,000 points.
        # numpy's axis sum adds fewer than 8 terms in order, so there the
        # squares are added into the block's rows of d one coordinate at a
        # time; from 8 on it adds them pairwise, and it sums the block
        n, k = pts.shape
        d = np.empty((n, n))
        held = min(_BLOCK, n * n // 4)
        if 0 < k < 8:
            step = max(1, held // n)
            for a in range(0, n, step):
                rows = d[a:a + step]
                np.subtract(pts[a:a + step, :1], pts[:, 0], out=rows)
                rows *= rows
                for c in range(1, k):
                    diff = pts[a:a + step, c:c + 1] - pts[:, c]
                    diff *= diff
                    rows += diff
                    del diff
                np.sqrt(rows, out=rows)
        else:
            step = max(1, held // max(1, pts.size))
            for a in range(0, n, step):
                diff = pts[a:a + step, None, :] - pts[None, :, :]
                diff **= 2
                np.sqrt(diff.sum(axis=2), out=d[a:a + step])
                del diff
        return FiniteMetricSpace._trusted(d)
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
        return _geodesic(pts / norms[:, None], radius)
    raise ValidationError(f"unknown metric kind {kind!r}")
