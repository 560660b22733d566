"""Persistent image/kernel barcodes of cohomology operations.

Ranks of the structure maps are assembled into a table over filtration
indices and converted to bars by Mobius inversion.  The whole table
comes from one global coboundary reduction, exploiting that a
sublevel's cochains occupy a bit-prefix of the full complex's:

* a column reduced to a distinct lowest set bit survives masking to the
  prefix iff its pivot lies inside the prefix, so the rank of any masked
  column span is the number of pivots below the prefix length;
* the coboundary of a simplex outside a sublevel masks to zero there
  (faces precede cofaces), so one global coboundary matrix serves every
  sublevel at once.

This is the only image/kernel path.  Tests pin it to the literal
per-pair ranks of the reference implementations in tests/oracles.py.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cohomology import Bar, Barcode, cocycle_representatives
from .errors import InternalInvariantError, ValidationError
from .gf2 import PivotTable
from .simplicial import Cochain, FilteredComplex, coboundary_columns, zero_cochain
from .steenrod import _cup_bits, sq as _sq

INF = math.inf


@dataclass(frozen=True)
class Operation:
    """Linear cohomology operation: identity, zero, or a Steenrod square."""

    kind: str
    source_degree: int
    k: int = 0

    def __post_init__(self):
        if self.kind not in ("identity", "zero", "sq"):
            raise ValidationError(f"unknown operation kind {self.kind!r}")
        if self.source_degree < 0:
            raise ValidationError("source degree must be nonnegative")
        if self.kind == "sq" and self.k < 0:
            raise ValidationError("Steenrod square index must be nonnegative")

    @classmethod
    def identity(cls, degree: int) -> "Operation":
        return cls("identity", degree)

    @classmethod
    def zero(cls, degree: int) -> "Operation":
        return cls("zero", degree)

    @classmethod
    def sq(cls, k: int, source_degree: int) -> "Operation":
        return cls("sq", source_degree, k)

    @property
    def target_degree(self) -> int:
        return self.source_degree + (self.k if self.kind == "sq" else 0)

    @property
    def name(self) -> str:
        if self.kind == "identity":
            return "id"
        if self.kind == "zero":
            return "zero"
        return f"Sq{self.k}"

    def apply(self, c: Cochain) -> Cochain:
        """Chain-level action on a cocycle of the source degree."""
        if c.degree != self.source_degree:
            raise ValidationError(
                f"{self.name} expects degree {self.source_degree}, got {c.degree}"
            )
        if self.kind == "identity":
            return c
        if self.kind == "zero":
            return zero_cochain(c.host, self.target_degree)
        return _sq(self.k, c)


class RankFunction:
    """Table r(i, j) of structure-map ranks over filtration indices.

    Stored on the compressed grid of indices where the module can
    change; rank(i, j) resolves arbitrary indices through that grid.
    """

    __slots__ = ("n", "indices", "table")

    def __init__(self, n: int, indices: Sequence[int], table: np.ndarray):
        self.n = n
        self.indices = list(indices)
        self.table = np.asarray(table, dtype=np.int64)
        if self.indices and self.indices[0] != 0:
            raise ValidationError("compressed grid must start at index 0")
        if self.table.shape != (len(self.indices), len(self.indices)):
            raise ValidationError("table shape does not match grid size")

    @classmethod
    def dense(cls, table) -> "RankFunction":
        t = np.asarray(table, dtype=np.int64)
        return cls(t.shape[0], range(t.shape[0]), t)

    def rank(self, i: int, j: int) -> int:
        if not 0 <= i <= j < self.n:
            raise ValidationError(f"need 0 <= i <= j < {self.n}, got ({i}, {j})")
        a = bisect_right(self.indices, i) - 1
        b = bisect_right(self.indices, j) - 1
        return int(self.table[a, b])


def _basis_bits_at(K: FilteredComplex, ell: int, j: int,
                   delta_ell: list[int], delta_below: list[int]) -> list[int]:
    """Cocycle representatives of a basis of H^ell(K_j), bit-packed over
    the full complex's ell-simplex order (support inside the prefix)."""
    n_src = K.count_at(ell, j)
    n_tgt = K.count_at(ell + 1, j)
    mask_tgt = (1 << n_tgt) - 1
    coboundaries = PivotTable()
    if ell >= 1:
        mask_src = (1 << n_src) - 1
        for col in delta_below[:K.count_at(ell - 1, j)]:
            coboundaries.insert(col & mask_src)
    return cocycle_representatives(
        [col & mask_tgt for col in delta_ell[:n_src]], n_tgt, coboundaries)


def _image_bits(K: FilteredComplex, op: Operation, cocycle_bits: int,
                count_m: int) -> int:
    """Chain-level op applied to a sublevel cocycle, evaluated on the
    first count_m target simplices (all faces lie in the sublevel)."""
    if op.kind == "identity":
        return cocycle_bits
    if op.kind == "zero":
        return 0
    ell = op.source_degree
    if op.k > ell:
        return 0
    return _cup_bits(K, ell, ell, ell - op.k, cocycle_bits, cocycle_bits,
                     count=count_m)


def _relevant_indices(K: FilteredComplex, degrees: set[int]) -> list[int]:
    """Indices where the complex changes in any of the given degrees."""
    if K.num_values == 0:
        return []
    out = [0]
    degs = [p for p in degrees if 0 <= p <= K.dimension]
    prev = {p: K.count_at(p, 0) for p in degs}
    for i in range(1, K.num_values):
        cur = {p: K.count_at(p, i) for p in degs}
        if cur != prev:
            out.append(i)
            prev = cur
    return out


def _grid_degrees(op: Operation) -> set[int]:
    ell, m = op.source_degree, op.target_degree
    return {ell - 1, ell, ell + 1, m, m + 1}


def _rank_table(K: FilteredComplex, op: Operation, kernel: bool) -> RankFunction:
    """Build the full rank table via the global-reduction fast path."""
    ell, m = op.source_degree, op.target_degree
    N = K.num_values
    if N == 0:
        return RankFunction(0, [], np.zeros((0, 0), dtype=np.int64))
    rel = _relevant_indices(K, _grid_degrees(op))
    R = len(rel)

    delta_ell = coboundary_columns(K, ell) if ell <= K.dimension else []
    delta_below = coboundary_columns(K, ell - 1) if ell >= 1 else []
    # global coboundary reductions in the target and source degrees
    d_m = PivotTable()
    if m >= 1:
        for col in coboundary_columns(K, m - 1):
            d_m.insert(col)
    if m == ell:
        d_ell = d_m
    else:
        d_ell = PivotTable()
        if kernel and ell >= 1:
            for col in delta_below:
                d_ell.insert(col)

    count_deg = ell if kernel else m
    prefix = np.array([K.count_at(count_deg, idx) for idx in rel], dtype=np.int64)
    table = np.zeros((R, R), dtype=np.int64)

    for b, j in enumerate(rel):
        basis = _basis_bits_at(K, ell, j, delta_ell, delta_below)
        n_m_j = K.count_at(m, j)
        images = [_image_bits(K, op, c, n_m_j) for c in basis]
        if not kernel:
            pivots = _new_pivots(d_m, images)
        else:
            # kernel: combinations of images that vanish in H^m(K_j); the
            # masked pivots all lie below n_m_j, as dependencies() needs
            mask_j = (1 << n_m_j) - 1
            membership = PivotTable({p: col & mask_j
                                     for p, col in d_m.columns.items()
                                     if p < n_m_j})
            kappas = []
            for alpha in membership.dependencies(images, n_m_j):
                acc = 0
                t = 0
                while alpha:
                    if alpha & 1:
                        acc ^= basis[t]
                    alpha >>= 1
                    t += 1
                kappas.append(acc)
            pivots = _new_pivots(d_ell, kappas)
        table[: b + 1, b] = np.searchsorted(pivots, prefix[: b + 1], side="left")
    return RankFunction(N, rel, table)


def _new_pivots(base: PivotTable, columns: Iterable[int]) -> np.ndarray:
    """Sorted pivots that the columns add to a copy of ``base``."""
    table = PivotTable(base.columns)
    added = [table.insert(col) for col in columns]
    return np.array(sorted(p for p in added if p is not None), dtype=np.int64)


def theta_rank_function(K: FilteredComplex, op: Operation) -> RankFunction:
    return _rank_table(K, op, kernel=False)


def kernel_rank_function(K: FilteredComplex, op: Operation) -> RankFunction:
    return _rank_table(K, op, kernel=True)


def rank_to_barcode(R: RankFunction, values: Sequence[float],
                    reversed_module: bool = False, degree: int = 0) -> Barcode:
    """Mobius inversion of a rank table into a barcode.

    Multiplicity of the bar alive on grid indices [b, d-1] (death at
    value d, or infinite past the end) is
    mu(b, d) = (r(b, d-1) - r(b, d)) - (r(b-1, d-1) - r(b-1, d)).
    Cohomology modules are contravariant: with reversed_module the
    indices are mirrored before inversion and bars mirrored back.
    Negative multiplicities signal a broken rank function and raise.
    """
    if R.n != len(values):
        raise ValidationError("value grid does not match the rank table")
    if R.n == 0:
        return Barcode()
    rel = R.indices
    size = len(rel)
    T = R.table
    if reversed_module:
        Tm = np.zeros_like(T)
        for a in range(size):
            for b in range(a, size):
                Tm[a, b] = T[size - 1 - b, size - 1 - a]
        T = Tm
    # padded so that r(-1, .) = r(., size) = 0
    A = np.zeros((size + 2, size + 2), dtype=np.int64)
    A[1:size + 1, 1:size + 1] = T
    # mu[b, d] over 0 <= b < d <= size
    mu = np.zeros((size, size + 1), dtype=np.int64)
    for b in range(size):
        r_bd = A[b + 1, b + 2:size + 2]          # r(b, d) for d = b+1 .. size
        r_bdm1 = A[b + 1, b + 1:size + 1]        # r(b, d-1)
        r_pbd = A[b, b + 2:size + 2]             # r(b-1, d)
        r_pbdm1 = A[b, b + 1:size + 1]           # r(b-1, d-1)
        mu[b, b + 1:] = (r_bdm1 - r_bd) - (r_pbdm1 - r_pbd)
    if (mu < 0).any():
        raise InternalInvariantError("negative multiplicity in Mobius inversion")
    bars = []
    for b, d in zip(*np.nonzero(mu)):
        mult = int(mu[b, d])
        if reversed_module:
            lo = size - d            # first compressed index alive
            hi_next = size - b       # compressed death index (size => infinite)
        else:
            lo, hi_next = int(b), int(d)
        birth = values[rel[lo]]
        death = INF if hi_next >= size else values[rel[hi_next]]
        bars.append(Bar(degree, birth, death, mult))
    return Barcode(bars)


def image_barcode(K: FilteredComplex, op: Operation) -> Barcode:
    """Barcode of the image persistence module of the operation."""
    R = theta_rank_function(K, op)
    return rank_to_barcode(R, K.distinct_values, reversed_module=True,
                           degree=op.target_degree)


def kernel_barcode(K: FilteredComplex, op: Operation) -> Barcode:
    """Barcode of the kernel persistence module of the operation."""
    R = kernel_rank_function(K, op)
    return rank_to_barcode(R, K.distinct_values, reversed_module=True,
                           degree=op.source_degree)


def _signal_min_death(bars: list[Bar], eps: float | None) -> float:
    if not bars:
        return 0.0
    if eps is not None:
        deaths = [b.death for b in bars if b.birth <= eps]
        return min(deaths) if deaths else 0.0
    # On a finite sample nothing is born at scale 0, so "bars born at the
    # start" is read as the signal bars: persistence at least half the
    # maximum.  (Noise is born late and dies fast; the classes of the
    # underlying space give the dominant bars.)
    pmax = max(b.death - b.birth for b in bars)
    if math.isinf(pmax):
        return min(b.death for b in bars if math.isinf(b.death))
    return min(b.death for b in bars if b.death - b.birth >= pmax / 2.0)


def homological_radius(barcode: Barcode, degree: int,
                       eps: float | None = None) -> float:
    """First death of the degree-``degree`` signal classes, at VR scale
    (the neighborhood-scale value is half of this).

    With ``eps`` given, takes the minimum death among bars born by eps
    (the exact reading for filtrations whose classes appear at the
    start); otherwise the signal bars are those of at least half the
    maximal persistence in the degree.  Returns 0 when the degree is
    empty, inf when the signal never dies.
    """
    return _signal_min_death(
        [b for b in barcode.bars if b.degree == degree], eps
    )


def theta_radius(barcode: Barcode, eps: float | None = None) -> float:
    """First death of the signal bars of an operation barcode (VR scale)."""
    return _signal_min_death(list(barcode.bars), eps)
