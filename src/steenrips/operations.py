"""Persistent image/kernel barcodes of cohomology operations.

Both barcodes of an operation theta: H^ell -> H^m come from one pass
over the bars of H^ell.  The pass rests on two facts about the canonical
order:

* sublevels are bit-prefixes: the p-cochains of K_i occupy the first
  bits of K's, one per p-simplex of K_i, and the coboundary of a
  simplex outside K_i masks to zero there (faces precede cofaces), so
  one global coboundary matrix serves every sublevel;
* a masked rank is a pivot count: columns reduced to distinct lowest
  set bits stay independent when masked to a prefix, and exactly those
  with a pivot inside it stay nonzero, so the rank of a masked span is
  the number of pivots below the prefix length.

The pass has three steps.

1. The bars of H^ell, each with a representative cocycle z, come from
   the cohomology reduction of K (steenrips.cohomology), which the
   ordinary barcode reads too.
2. Image: theta(z) is evaluated once per bar, below the bar's death, and
   inserted with z as companion into the global delta_{m-1} pivots, by
   decreasing death.  The bars alive past v_j are a prefix of that
   order, so r(i, j) is the number of new pivots below K_i's prefix
   that they add: each new pivot p gives the image bar [value p, death).
   The companion left over is a kernel candidate kappa, a combination
   of representatives whose image vanishes below
   e = min(death, value p).
3. Kernel: the kappa are inserted by decreasing e into the global
   delta_{ell-1} pivots, and each new pivot q gives the kernel bar
   [value q, e) by the same count.

In both modules r(i, j) is then the number of bars alive at v_i and
v_j.  Tests pin both barcodes to the literal per-pair ranks of the
reference implementations in tests/oracles.py.  The delta_{m-1} and
delta_{ell-1} pivots are copies of the reduction's tables, which build
a pivot's column only when an insertion reaches it, and both barcodes
are memoised with the reduction.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .cohomology import Bar, Barcode, reduction
from .errors import ValidationError
from .simplicial import Cochain, FilteredComplex, zero_cochain
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


def _image_bits(K: FilteredComplex, op: Operation, cocycle_bits: int,
                count_m: int) -> int:
    """Chain-level op applied to a cocycle, evaluated on the first
    count_m target simplices (where the cocycle's coboundary vanishes)."""
    if op.kind == "identity":
        return cocycle_bits & ((1 << count_m) - 1)
    if op.kind == "zero":
        return 0
    ell = op.source_degree
    if op.k > ell:
        return 0
    return _cup_bits(K, ell, ell, ell - op.k, cocycle_bits, cocycle_bits,
                     count=count_m)


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
    values_ell = K.dim_values[ell]
    # step 2: image, one evaluation of op per bar
    n_m = K.n_simplices(m)
    values_m = K.dim_values[m] if n_m else ()
    d_m = red.pivots(K, m - 1)
    image, candidates = [], []
    for s, death, z in sorted(red.degree(K, ell)[1], key=lambda bar: -bar[1]):
        z = 1 << s if z is None else z
        img = _image_bits(K, op, z, bisect_left(values_m, death))
        p, kappa = d_m.insert_augmented(img | z << n_m, n_m)
        e = death
        if p is not None and values_m[p] < death:
            image.append(Bar(m, values_m[p], death))
            e = values_m[p]
        candidates.append((e, kappa))
    # step 3: kernel, the candidates in the global delta_{ell-1} pivots
    d_ell = red.pivots(K, ell - 1)
    kernel = []
    for e, kappa in sorted(candidates, key=lambda c: -c[0]):
        q = d_ell.insert(kappa)
        if q is not None and values_ell[q] < e:
            kernel.append(Bar(ell, values_ell[q], e))
    memo = red.operations[op] = (Barcode(image), Barcode(kernel))
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
