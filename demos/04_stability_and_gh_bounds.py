"""Stability of barcodes and Gromov-Hausdorff lower bounds.

Perturbing every distance by at most delta moves every barcode
(homology and operation image alike) by at most delta in bottleneck
distance; conversely, half the bottleneck distance between two spaces'
barcodes is a certified lower bound for their Gromov-Hausdorff
distance.

``stability_check`` and ``gh_lower_bound`` read their barcodes through
``rips_barcodes``, which builds VR only to the largest degree compared.  ``stability_check`` takes no dimension
cap; ``gh_lower_bound``'s ``max_dim`` only checks that every degree it
compares lies below it.
"""

import numpy as np

from steenrips import Operation, gh_lower_bound, stability_check
from steenrips.synthetic import random_bounded_metric

rng = np.random.default_rng(3)
X = random_bounded_metric(rng, 10)

report = stability_check(X, delta=0.05, trials=20, seed=1,
                         op=Operation.sq(1, 1), degree=1)
print(f"stability over {report['trials']} perturbations of size {report['delta']}:")
print(f"  worst observed d_B / delta = {report['max_ratio']:.3f}  "
      f"(the theorem guarantees <= 1)")
print(f"  violations: {report['violations']}")

Y = random_bounded_metric(rng, 10)
scale = max(X.diameter(), Y.diameter()) + 1e-9
bound = gh_lower_bound(X, Y, degrees=[0, 1], ops=[Operation.sq(1, 1)],
                       max_dim=3, max_scale=scale)
print("\nGromov-Hausdorff lower bound between two random spaces:")
for entry in bound["per_invariant"]:
    print(f"  {entry['invariant']:>14}: d_B = {entry['d_B']:.4f}")
print(f"  bound: d_GH >= {bound['gh_lower_bound']:.4f} (from {bound['argmax']})")
