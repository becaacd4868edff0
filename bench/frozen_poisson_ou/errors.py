"""Exception types shared across the package."""


class PoissonOUError(Exception):
    """Base class for package errors."""


class BudgetExceededError(PoissonOUError):
    """Truncated state space would exceed the configured state budget."""


class CapOverflowError(PoissonOUError):
    """A difference evaluation needed a count beyond the tabulated grid."""


class NonFiniteValueError(PoissonOUError):
    """A functional or integrand produced a NaN or infinity."""


class NegativeValueError(PoissonOUError):
    """Entropy was requested for a functional taking negative values."""


class PreconditionError(PoissonOUError):
    """A checker's stated precondition does not hold for the given inputs."""
