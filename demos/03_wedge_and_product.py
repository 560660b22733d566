"""Decomposition laws for wedges and products of metric spaces.

Gluing two pointed spaces routes cross distances through the
basepoints; the barcodes of the wedge then split as the multiset union
of the factors' barcodes (one shared component in degree 0).  Products
with the sup metric obey a Kunneth rule at every scale.
"""

import numpy as np

from steenrips import (
    circle_grid,
    gluing_wedge,
    linf_product,
    persistent_barcode,
    vr_filtration,
)
from steenrips.synthetic import random_metric_space

rng = np.random.default_rng(11)

# -- wedge: barcode of X v Y = barcode(X) + barcode(Y) ----------------------
X = random_metric_space(rng, 6)
Y = random_metric_space(rng, 7)
W = gluing_wedge(X, 0, Y, 0)
scale = W.diameter() + 1e-9

bw = persistent_barcode(vr_filtration(W, 2, scale), 1)
bx = persistent_barcode(vr_filtration(X, 2, scale), 1)
by = persistent_barcode(vr_filtration(Y, 2, scale), 1)
print("wedge degree-1 barcode equals the union of factors:",
      bw.in_degree(1) == bx.in_degree(1).union(by.in_degree(1)))

# -- product: Betti numbers multiply scale by scale -------------------------
C = circle_grid(4, 1.0)
P = linf_product(C, C)          # 16 points, a discrete torus
KP = vr_filtration(P, 3, P.diameter() + 1e-9)
KC = vr_filtration(C, 3, P.diameter() + 1e-9)
barcode_p, barcode_c = persistent_barcode(KP, 2), persistent_barcode(KC, 2)

# the Betti numbers at scale t count the bars alive at t
print("\n  scale   torus Betti (0,1,2)   Kunneth from circle factors")
for t in KP.distinct_values:
    bp = [barcode_p.alive(m, t) for m in range(3)]
    bc = [barcode_c.alive(m, t) for m in range(3)]
    kunneth = [sum(bc[a] * bc[m - a] for a in range(m + 1)) for m in range(3)]
    print(f"  {t:5.3f}   {bp}             {kunneth}")
