"""Exception hierarchy shared across the package.

Validation errors signal bad user input (CLI exit code 2); internal
invariant errors signal a broken computation that must never be
clamped or silently repaired (CLI exit code 3).
"""


class ValidationError(ValueError):
    """Invalid input: bad file, bad simplex list, bad metric, bad flag."""


class DimensionMismatchError(ValidationError):
    """Operands with incompatible shapes, degrees or hosts."""


class ClosureError(ValidationError):
    """A simplex is present without one of its faces."""


class MonotonicityError(ValidationError):
    """A face carries a larger filtration value than its coface."""


class DuplicateSimplexError(ValidationError):
    """The same simplex appears twice in a filtration."""


class MetricError(ValidationError):
    """Distance matrix fails symmetry, positivity or triangle inequality."""


class NotACocycleError(ValidationError):
    """A chain-level operation required a cocycle input."""


class InternalInvariantError(RuntimeError):
    """A mathematically impossible state (e.g. no feasible bottleneck threshold)."""
