"""Exception hierarchy shared by all modules."""


class CasimirError(Exception):
    """Base class for errors raised by this package."""


class DomainError(CasimirError, ValueError):
    """Input outside the mathematical domain of an operation."""


class ConvergenceError(CasimirError, RuntimeError):
    """A series did not converge within the configured term cap, or a closed form overflowed."""


class QuadratureError(CasimirError, RuntimeError):
    """A numerical integration missed its accuracy; nothing in the package raises it now."""


class FitError(CasimirError, RuntimeError):
    """A least-squares fit had a grid point without a target, or did not converge."""


class AccuracyWarning(UserWarning):
    """Result returned, but with degraded accuracy; nothing in the package emits it now."""
