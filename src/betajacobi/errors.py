"""Exception hierarchy shared by all modules."""


class BetaJacobiError(Exception):
    """Base class for all library errors."""


class ParameterError(BetaJacobiError, ValueError):
    """Invalid or inconsistent ensemble parameters."""


class ExtremalRegimeError(ParameterError):
    """Asymptotic formula requested for the extremal regime p + q <= 2."""


class NumericalError(BetaJacobiError, RuntimeError):
    """A numerical routine failed (non-convergence, divergence, NaN)."""


class EigenSolverError(NumericalError):
    """Tridiagonal eigenvalue solver did not converge."""


class QuadratureError(NumericalError):
    """Quadrature produced non-finite values or failed to converge."""
