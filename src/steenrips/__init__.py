"""Persistent cohomology-operation barcodes for Vietoris-Rips filtrations.

F2 persistence, chain-level Steenrod squares, image/kernel barcodes of
cohomology operations, exact bottleneck distances and Gromov-Hausdorff
lower bounds for finite metric spaces.
"""

from .errors import (
    ClosureError,
    DimensionMismatchError,
    DuplicateSimplexError,
    InternalInvariantError,
    MetricError,
    MonotonicityError,
    NotACocycleError,
    ValidationError,
)
from .gf2 import rank
from .simplicial import (
    Cochain,
    FilteredComplex,
    build,
    coboundary,
    coboundary_matrix,
    dump_complex,
    load_complex,
    rp2_complex,
    zero_cochain,
)
from .metric import (
    FiniteMetricSpace,
    GroupAction,
    antipodal_action,
    circle_grid,
    gluing_wedge,
    linf_product,
    load_distance_matrix,
    load_points_csv,
    metric_from_points,
    projective_sample,
    quotient_metric,
    save_distance_matrix,
    sphere_sample,
    vr_filtration,
)
from .cohomology import (
    Bar,
    Barcode,
    CohomologyBasis,
    cohomology_basis,
    is_coboundary,
    persistent_barcode,
)
from .steenrod import cup_i, sq
from .operations import (
    Operation,
    homological_radius,
    image_barcode,
    kernel_barcode,
    theta_radius,
)
from .distances import (
    bottleneck,
    bottleneck_oracle,
    gh_lower_bound,
    rips_barcodes,
    stability_check,
)

__version__ = "0.1.0"

__all__ = [
    "Bar",
    "Barcode",
    "Cochain",
    "CohomologyBasis",
    "ClosureError",
    "DimensionMismatchError",
    "DuplicateSimplexError",
    "FilteredComplex",
    "FiniteMetricSpace",
    "GroupAction",
    "InternalInvariantError",
    "MetricError",
    "MonotonicityError",
    "NotACocycleError",
    "Operation",
    "ValidationError",
    "antipodal_action",
    "bottleneck",
    "bottleneck_oracle",
    "build",
    "circle_grid",
    "coboundary",
    "coboundary_matrix",
    "cohomology_basis",
    "cup_i",
    "dump_complex",
    "gh_lower_bound",
    "gluing_wedge",
    "homological_radius",
    "image_barcode",
    "is_coboundary",
    "kernel_barcode",
    "linf_product",
    "load_complex",
    "load_distance_matrix",
    "load_points_csv",
    "metric_from_points",
    "persistent_barcode",
    "projective_sample",
    "quotient_metric",
    "rank",
    "rips_barcodes",
    "rp2_complex",
    "save_distance_matrix",
    "sphere_sample",
    "sq",
    "stability_check",
    "theta_radius",
    "vr_filtration",
    "zero_cochain",
]
