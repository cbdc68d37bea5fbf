"""Exception types shared across the package, and the --cap hint of core's finiteness check.

The CLI maps these onto exit codes: parse and shape problems are data
errors (exit 3), domain violations are numerical errors (exit 4).
"""

INFEASIBLE_HINT = "cap infinite entries first (the CLI exposes --cap for this)"


class MinPlusError(Exception):
    """Base class for all package errors."""


class ShapeError(MinPlusError):
    """Operands have incompatible or malformed shapes."""


class DomainError(MinPlusError):
    """A value lies outside the domain an operation is defined on."""


class ParseError(MinPlusError):
    """Input text does not conform to the expected format."""


class NegativeCycleError(DomainError):
    """The closure series diverges because of a negative-weight cycle."""


class UnboundedColumnError(DomainError):
    """A regression column has no finite entry, so no finite solution exists."""
