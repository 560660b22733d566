"""Linear algebra over the two-element field: one column reduction.

A cochain is a Python int used as a bit-vector: bit i is its value on
simplex i, and addition is XOR, which CPython performs word-parallel.
``to_bools`` and ``from_bools`` turn a bit-vector into a boolean array
and back, for cochain values gathered through face arrays, and ``rows``
lists its set bits.

A column being reduced is a list of its row keys kept as a binary heap,
with a companion int beside it (Ripser's working column, Bauer,
"Ripser", 2021).  :func:`reduce_column` is the one routine that reduces
a column, and :func:`insert` the one that stores it: the cohomology
reduction, the image/kernel pass and :func:`rank` insert their columns,
and the coboundary test only reduces.  Pivots are the least row of odd
count, and reduction is deterministic, so reduced forms and ranks are
reproducible bit-for-bit.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice
from typing import Callable, Iterable

import numpy as np


def to_bools(bits: int, n: int) -> np.ndarray:
    """Bits 0..n-1 of a bit-vector below 2**(8 * ceil(n / 8)) as a boolean
    array of length n."""
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def from_bools(flags: np.ndarray) -> int:
    """The bit-vector with bit i set where flags[i] is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def rows(bits: int) -> list[int]:
    """The set bits of a bit-vector, increasing: a column as a heap."""
    return np.flatnonzero(to_bools(bits, bits.bit_length())).tolist()


def reduce_column(heap: list[int], z: int,
                  lookup: Callable[[int], tuple[list[int], int] | None]) -> tuple[int | None, int]:
    """Reduce the column ``heap``, with companion z, against the stored
    columns: ``lookup(tau)`` is the column with pivot tau, as its rows
    with tau first and its companion, or None if none is stored.

    The pivot is the least entry of odd count: entries pushed an even
    number of times cancel when they reach the top.  While a column is
    stored under the pivot, it is added, and its companion is XORed into
    z.  Returns the pivot, None if the column reduced to zero, and z.  A
    pivot is popped and the heap left holding the rest of the column,
    pairs included.
    """
    while heap:
        tau = heappop(heap)
        if heap and heap[0] == tau:
            heappop(heap)
            continue
        found = lookup(tau)
        if found is None:
            return tau, z
        add, y = found
        for row in islice(add, 1, None):  # add[0] is tau, popped
            heappush(heap, row)
        z ^= y
    return None, z


def insert(columns: dict, heap: list[int], z: int,
           lookup: Callable[[int], tuple[list[int], int] | None]) -> tuple[int | None, int]:
    """Reduce the column ``heap`` with companion z against ``lookup`` and
    store it in ``columns`` under its pivot tau, if any, as ``[tau,
    *rest], z``: the rest sorted and without pairs, as a stored column
    that kept its pairs would hand them to every column it reduces, and
    those to theirs.  Returns the pivot, None if the column reduced to
    zero, and z."""
    tau, z = reduce_column(heap, z, lookup)
    if tau is not None:
        _drop_pairs(heap)
        columns[tau] = [tau, *heap], z
    return tau, z


def _drop_pairs(heap: list[int]) -> None:
    """Sort the heap and keep one copy of each entry of odd count."""
    heap.sort()
    kept = 0
    for row in heap:  # writes only behind the read
        if kept and heap[kept - 1] == row:
            kept -= 1
        else:
            heap[kept] = row
            kept += 1
    del heap[kept:]


def rank(columns: Iterable[int]) -> int:
    """Dimension of the span of the bit-vector columns over F2."""
    table: dict[int, tuple[list[int], int]] = {}
    # last column first, as the cohomology reduction goes: on a coboundary
    # matrix in canonical order that keeps the heap columns short
    for bits in reversed(list(columns)):
        insert(table, rows(bits), 0, table.get)
    return len(table)
