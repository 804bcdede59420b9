"""Exception types shared across the package."""


class LevyLilError(Exception):
    """Base class for package-specific failures."""


class QuadratureError(LevyLilError):
    """Quadrature did not reach the requested tolerance within budget."""

    def __init__(self, message, achieved_error=None):
        super().__init__(message)
        self.achieved_error = achieved_error


class SectorViolationError(LevyLilError):
    """Re p = 0 with Im p != 0 at an evaluation point."""


class DegenerateMeasureError(LevyLilError):
    """A ball extremum of p^U vanished; the norming function is undefined."""


class RhoOutOfRangeError(ValueError):
    """Requested level is outside the range of u on (0, 1]."""


class LevyOnlyError(ValueError):
    """Operation requires a state-independent (Levy) specification."""


class IteratedLogDomainError(ValueError):
    """t is too large for the requested number of iterated logarithms."""


class ClassifierError(LevyLilError):
    """Integrand evaluation failed inside the dyadic-block classifier."""


# numeric failures: a run records an analysis that raises one and goes on; the CLI exits 1
FAILURES = (LevyLilError, ValueError, ArithmeticError, MemoryError)
