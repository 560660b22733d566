"""Seeded random inputs for the verification suites and tests."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .cohomology import Bar, Barcode
from .metric import FiniteMetricSpace, _symmetric, metric_from_points
from .simplicial import FilteredComplex, build


def random_metric_space(rng: np.random.Generator, n_points: int) -> FiniteMetricSpace:
    """Euclidean distances of uniform points in the unit square."""
    return metric_from_points(rng.uniform(0.0, 1.0, size=(n_points, 2)))


def random_bounded_metric(rng: np.random.Generator, n_points: int,
                          low: float = 1.0, high: float = 1.8) -> FiniteMetricSpace:
    """Random metric with entries in [low, high], high <= 2*low.

    Every triangle has slack >= 2*low - high, so sup-norm perturbations
    up to (2*low - high)/3 can never break the triangle inequality;
    this is the right test bed for stability properties.
    """
    if not low < high <= 2 * low:
        raise ValueError("need low < high <= 2*low for an unconditional metric")
    d = rng.uniform(low, high, size=(n_points, n_points))
    return FiniteMetricSpace._trusted(_symmetric(d))


def random_filtered_complex(rng: np.random.Generator, target_size: int = 25,
                            random_values: bool = True) -> FilteredComplex:
    """Random filtered complex on 3 to 6 vertices: random top simplices of
    dimension 1 to 3 closed under faces, face values forced below coface
    values."""
    n = int(rng.integers(3, 7))
    entries: dict[tuple[int, ...], float] = {}
    for v in range(n):
        entries[(v,)] = float(np.round(rng.uniform(0.0, 0.2), 3)) if random_values else 0.0
    attempts = 0
    while len(entries) < target_size and attempts < 8 * target_size:
        attempts += 1
        dim = int(rng.integers(1, 4))
        if dim + 1 > n:
            continue
        verts = tuple(sorted(rng.choice(n, size=dim + 1, replace=False).tolist()))
        if verts in entries:
            continue
        # value above every existing face value
        base = 0.0
        for k in range(1, len(verts)):
            for face in combinations(verts, k):
                if face in entries:
                    base = max(base, entries[face])
        value = base + (float(np.round(rng.uniform(0.01, 1.0), 3)) if random_values else 0.0)
        # close under faces, reusing existing values
        for k in range(2, len(verts) + 1):
            for face in combinations(verts, k):
                if face not in entries:
                    face_base = max(
                        (entries[g] for r in range(1, k)
                         for g in combinations(face, r) if g in entries),
                        default=0.0,
                    )
                    entries[face] = (face_base + value) / 2 if k < len(verts) else value
    return build([(list(s), v) for s, v in entries.items()])


def random_barcode(rng: np.random.Generator, max_bars: int = 6,
                   p_infinite: float = 0.15) -> Barcode:
    """Degree-0 bars born in [0, 10), finite ones at most 5 long."""
    bars = []
    for _ in range(int(rng.integers(0, max_bars + 1))):
        birth = float(np.round(rng.uniform(0.0, 10.0), 3))
        if rng.uniform() < p_infinite:
            bars.append(Bar(0, birth, float("inf")))
        else:
            death = birth + float(np.round(rng.uniform(0.001, 5.0), 3))
            bars.append(Bar(0, birth, death))
    return Barcode(bars)
