"""Value-identity gate: repr of bottleneck on 200 seeded barcode pairs.

The pairs cover 0-60 bars per side in one degree with decoy bars in the
other, essential bars (equal and unequal counts), multiplicities, and
four endpoint families: three-decimal reals, small integers (ties at
every cost), one bar repeated per side, and a perturbed copy of the
other side.  bottleneck_golden.json holds ``repr(bottleneck(a, b, deg))``
per seed, recorded from the matching code before the one-sided
saturation rewrite.  Re-record only when values change on purpose:

    PYTHONPATH=src python tests/test_bottleneck_golden.py
"""

import json
from pathlib import Path

import numpy as np

from steenrips.cohomology import Bar, Barcode
from steenrips.distances import bottleneck

GOLDEN = Path(__file__).with_name("bottleneck_golden.json")
SEEDS = range(200)


def _finite_bars(rng, kind, count):
    if kind == 0:  # three-decimal reals, as in synthetic.random_barcode
        births = np.round(rng.uniform(0.0, 10.0, count), 3)
        return [(b, b + l) for b, l in
                zip(births, np.round(rng.uniform(0.001, 5.0, count), 3))]
    if kind == 1:  # small integers: pair costs tie half-persistences
        births = rng.integers(0, 7, count)
        return [(b, b + l) for b, l in zip(births, rng.integers(1, 5, count))]
    b = int(rng.integers(0, 3))  # kind 2: every bar the same
    return [(b, b + int(rng.integers(1, 4)))] * count


def bottleneck_pair(seed: int):
    rng = np.random.default_rng(seed)
    kind = seed % 4
    deg = int(rng.integers(0, 2))
    n, m = (int(x) for x in rng.integers(0, 61, 2))
    fa = _finite_bars(rng, min(kind, 2), n)
    if kind == 3:  # B is a jittered copy of A with bars dropped and added
        keep = rng.uniform(size=n) < 0.8
        moved = [(b + rng.normal(0, 0.05), d + rng.normal(0, 0.05))
                 for (b, d), k in zip(fa, keep) if k]
        fb = [(b, d) for b, d in moved if b < d]
        fb += _finite_bars(rng, 0, int(rng.integers(0, 6)))
    else:
        fb = _finite_bars(rng, kind, m)
    k = int(rng.integers(0, 4))
    extra = int(rng.uniform() < 0.1)  # unequal essential counts: inf
    ea = [(float(x), float("inf")) for x in rng.integers(0, 5, k)]
    eb = [(float(x), float("inf")) for x in rng.integers(0, 5, k + extra)]
    decoys = [(float(x), float(x) + 1.0) for x in rng.integers(0, 5, 3)]

    def barcode(finite, essential):
        mult = 1 + (rng.uniform(size=len(finite)) < 0.1)
        bars = [Bar(deg, float(b), float(d), int(u))
                for (b, d), u in zip(finite, mult)]
        bars += [Bar(deg, b, d) for b, d in essential]
        bars += [Bar(1 - deg, b, d) for b, d in decoys]
        return Barcode(bars)

    return barcode(fa, ea), barcode(fb, eb), deg


def seed_value(seed: int) -> str:
    a, b, deg = bottleneck_pair(seed)
    return repr(bottleneck(a, b, deg))


def test_bottleneck_values_identical_to_recorded():
    expected = json.loads(GOLDEN.read_text())
    assert len(expected) == len(SEEDS)
    for seed in SEEDS:
        assert seed_value(seed) == expected[seed], f"first changed seed: {seed}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([seed_value(s) for s in SEEDS], indent=0) + "\n")
