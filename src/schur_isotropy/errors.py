"""Exception types shared across the package."""


class DomainError(Exception):
    """Base class for invalid inputs and guarded resource limits."""


class PartitionError(DomainError):
    """Base class for partition parsing and validation failures."""


class MalformedInput(PartitionError):
    """Partition text that is not a comma-separated list of integers."""


class NonPositivePart(PartitionError):
    """A part that is zero or negative."""


class NotWeaklyDecreasing(PartitionError):
    """Parts given out of weakly decreasing order (never silently sorted)."""


class EmptyPartition(DomainError):
    """An operation that needs at least one box got the empty shape."""


class ZeroModule(DomainError):
    """The shape has more rows than the alphabet, so the module is zero."""


class ZeroBundle(DomainError):
    """The shape has more rows than the bundle rank allows."""


class InvalidRange(DomainError):
    """k and n outside 1 <= k <= n."""


class OutOfTheoremScope(DomainError):
    """Parameters not covered by any closed-form rule or by the oracle caps."""


class SizeGuard(DomainError):
    """Predicted tableau count exceeds the enumeration cap."""


class DegreeGuard(DomainError):
    """Polynomial term count exceeds the configured cap."""


class NotSymmetric(DomainError):
    """Schur expansion requested for a non-symmetric polynomial."""


class NotHomogeneous(DomainError):
    """Schur expansion requested for a non-homogeneous polynomial."""


class ChainStepFailed(DomainError):
    """An inequality in the certification chain failed numerically."""


class InternalCheckError(Exception):
    """A cross-check that can only fail on an implementation bug."""


class InternalNonIntegral(InternalCheckError):
    """Exact rational arithmetic produced a non-integer where an integer is forced."""


class InternalMismatch(InternalCheckError):
    """Two independent computations of the same quantity disagree."""
