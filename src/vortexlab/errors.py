"""Exception types and the option check shared by the solver modules."""

import math
import numbers


def check_solver_options(tol: float, max_iter: int = 0) -> None:
    """Raise ``ValueError`` unless ``tol`` is positive and finite and ``max_iter`` an int >= 0."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not isinstance(max_iter, numbers.Integral):  # range() takes no float, even 2.0
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")


class VortexlabError(Exception):
    """Base class for all vortexlab errors."""


class NonConvergenceError(VortexlabError):
    """An iterative solve ended without meeting its tolerance.

    Carries enough diagnostics to decide whether to retry with a better
    initial guess, a finer mesh, or a larger iteration budget.
    """

    def __init__(self, message, iterations=None, residual=None, last_iterate=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.last_iterate = last_iterate


class FieldOverflowError(VortexlabError):
    """A field drove an exponent argument past the configured cap.

    This signals divergence of an outer iteration, not a rounding issue:
    the minimizers of the functional live at O(1) amplitudes.
    """
