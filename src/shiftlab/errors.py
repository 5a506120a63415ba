"""Exception types shared across the package."""


class ShiftlabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ShiftlabError, ValueError):
    """Malformed input: wrong shapes, non-finite entries, bad config."""


class DomainError(ShiftlabError, ValueError):
    """Input is well-formed but outside the mathematical domain of the operation."""


class PreconditionError(ShiftlabError, ValueError):
    """A stated precondition (commutativity, growth condition, ...) fails."""


class DimensionError(ShiftlabError, ValueError):
    """A construction is infeasible at the given dimensions."""


class NumericError(ShiftlabError, RuntimeError):
    """A floating-point computation did not reach the requested accuracy."""
