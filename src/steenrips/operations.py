"""Persistent image/kernel barcodes of cohomology operations.

Both barcodes of an operation theta: H^ell -> H^m come from one pass
over the bars of H^ell.  The pass rests on two facts about the canonical
order:

* sublevels are bit-prefixes: the p-cochains of K_i occupy the first
  bits of K's, one per p-simplex of K_i, and the coboundary of a
  simplex outside K_i masks to zero there (faces precede cofaces), so
  one global coboundary matrix serves every sublevel;
* a masked rank is a pivot count: columns reduced to distinct lowest
  rows stay independent when masked to a prefix, and exactly those
  with a pivot inside it stay nonzero, so the rank of a masked span is
  the number of pivots below the prefix length.

The pass has three steps.

1. The bars of H^ell, each with a representative cocycle z, come from
   the cohomology reduction of K (steenrips.cohomology), which the
   ordinary barcode reads too.
2. Image: theta(z) is evaluated once per bar, below the bar's death,
   and its rows are reduced, with z as companion, against the global
   delta_{m-1} pivots and stored among them, by decreasing death.  The
   bars alive past v_j are a prefix of that order, so r(i, j) is the
   number of new pivots below K_i's prefix that they add: each new
   pivot p gives the image bar [value p, death).  The companion left
   over is a kernel candidate kappa, a combination of representatives
   whose image vanishes below e = min(death, value p).
3. Kernel: the kappa are reduced and stored by decreasing e among the
   global delta_{ell-1} pivots, and each new pivot q gives the kernel
   bar [value q, e) by the same count.

In both modules r(i, j) is then the number of bars alive at v_i and
v_j.  Tests pin both barcodes to the literal per-pair ranks of the
reference implementations in tests/oracles.py.  Each pass reduces and
stores its columns with :func:`steenrips.gf2.insert` and reads them with
:func:`steenrips.gf2.read`, the routines of the cohomology reduction, in
a dict layered over that reduction's columns, ``column(tau)`` of a
degree, which it reads only where a reduction reaches their pivot, with
companion 0.  A column it stores keeps its pairs until a later column of
the pass first reads it.  Both barcodes are memoised with the reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cohomology import Bar, Barcode, _Columns, reduction
from .errors import ValidationError
from .gf2 import insert, read, rows, to_bools
from .simplicial import FilteredComplex
from .steenrod import _cup_bits, _cup_faces

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


def _image_kernel(K: FilteredComplex, op: Operation) -> tuple[Barcode, Barcode]:
    """Image and kernel barcodes of op, in one pass over the bars of
    H^ell (steps 2-3 of the module docstring), memoised per complex."""
    ell, m = op.source_degree, op.target_degree
    if ell > K.dimension:
        return Barcode(), Barcode()
    red = reduction(K)
    memo = red.operations.get(op)
    if memo is not None:
        return memo
    values_ell = K.dim_value_arrays[ell]
    # step 2: image, one evaluation of op per bar, below its death
    values_m = K.dim_value_arrays[m] if m <= K.dimension else np.empty(0)
    cup = op.kind == "sq" and op.k <= ell
    faces = _cup_faces(K, ell, ell, ell - op.k) if cup else None
    d_m = _Columns(K, m - 1)
    lookup = partial(read, d_m)
    image, candidates = ([], []), []  # image (births, deaths)
    for s, death, z in sorted(red.degree(K, ell).bars, key=lambda bar: -bar[1]):
        z = 1 << s if z is None else z
        count = int(values_m.searchsorted(death))
        if cup:
            a = to_bools(z, len(values_ell))
            img = np.flatnonzero(_cup_bits(*faces, a, a, count)).tolist()
        else:
            img = rows(z & ((1 << count) - 1)) if op.kind == "identity" else []
        p, kappa = insert(d_m, img, z, lookup)
        e = death
        if p is not None and values_m[p] < death:
            e = values_m[p]
            image[0].append(e)
            image[1].append(death)
        candidates.append((e, kappa))
    # step 3: kernel, the candidates in the global delta_{ell-1} pivots
    d_ell = _Columns(K, ell - 1)
    lookup = partial(read, d_ell)
    kernel = [], []  # births, deaths
    for e, kappa in sorted(candidates, key=lambda c: -c[0]):
        q, _ = insert(d_ell, rows(kappa), 0, lookup)
        if q is not None and values_ell[q] < e:
            kernel[0].append(values_ell[q])
            kernel[1].append(e)
    memo = red.operations[op] = (Barcode.from_arrays(m, *image, 1),
                                 Barcode.from_arrays(ell, *kernel, 1))
    return memo


def image_barcode(K: FilteredComplex, op: Operation) -> Barcode:
    """Barcode of the image persistence module of the operation."""
    return _image_kernel(K, op)[0]


def kernel_barcode(K: FilteredComplex, op: Operation) -> Barcode:
    """Barcode of the kernel persistence module of the operation."""
    return _image_kernel(K, op)[1]


def _signal_min_death(bars: list[Bar]) -> float:
    if not bars:
        return 0.0
    # On a finite sample nothing is born at scale 0, so "bars born at the
    # start" is read as the signal bars: persistence at least half the
    # maximum.  (Noise is born late and dies fast; the classes of the
    # underlying space give the dominant bars.)
    pmax = max(b.death - b.birth for b in bars)
    if math.isinf(pmax):
        return min(b.death for b in bars if math.isinf(b.death))
    return min(b.death for b in bars if b.death - b.birth >= pmax / 2.0)


def homological_radius(barcode: Barcode, degree: int) -> float:
    """First death of the degree-``degree`` signal classes, at VR scale
    (the neighborhood-scale value is half of this).

    The signal bars are those of at least half the maximal persistence
    in the degree.  Returns 0 when the degree is empty, inf when the
    signal never dies.
    """
    return _signal_min_death([b for b in barcode.bars if b.degree == degree])


def theta_radius(barcode: Barcode) -> float:
    """First death of the signal bars of an operation barcode (VR scale)."""
    return _signal_min_death(list(barcode.bars))
