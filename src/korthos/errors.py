"""Exception hierarchy shared by all korthos modules."""


class KorthosError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(KorthosError, ValueError):
    """A constructor or operation received an argument outside its domain."""


class RingMismatchError(KorthosError, ValueError):
    """Operands belong to different rings (or an element index is out of range)."""


class NotAUnitError(KorthosError, ArithmeticError):
    """Multiplicative inverse requested for a non-unit."""


class DimensionMismatchError(KorthosError, ValueError):
    """Matrix shapes are incompatible with the requested operation."""


class SizeCapError(KorthosError, ValueError):
    """An exact-but-exponential routine was asked to exceed its hard size cap."""


class BudgetExceededError(KorthosError, RuntimeError):
    """A search exceeded its node budget; `profile` maps each stage of a
    pruned search to the nodes it counted.  No partial result is returned."""

    def __init__(self, message, profile=()):
        super().__init__(message)
        self.profile = dict(profile)


class NotSplittableError(KorthosError, ValueError):
    """The ring does not decompose into residue fields (e.g. a chain ring Z_{p^r}, r > 1)."""


class NotApplicableError(KorthosError, ValueError):
    """The operation is only defined for a different ring family or shape."""


class UndefinedDistanceError(KorthosError, ValueError):
    """Minimum distance requested for a code with no nonzero codeword."""


class InvariantViolationError(KorthosError, RuntimeError):
    """An internal cross-check that must hold mathematically came out false."""
