"""Exception types shared across the package."""

__all__ = ["AdmmFlowError", "UnsupportedFunctionError", "NumericalError", "DivergenceError",
           "WindowError"]


class AdmmFlowError(Exception):
    """Base class for errors raised by this package."""


class UnsupportedFunctionError(AdmmFlowError):
    """An operation that needs the closed-form quadratic class got something else."""


class NumericalError(AdmmFlowError):
    """A linear-algebra solve or numerical check failed to meet its tolerance."""


class DivergenceError(NumericalError):
    """An integration or iteration produced non-finite state.

    Carries the last finite time and the trajectory accumulated up to it,
    so callers can keep partial output for diagnostics.
    """

    def __init__(self, message, t_last=None, trajectory=None):
        super().__init__(message)
        self.t_last = t_last
        self.trajectory = trajectory


class WindowError(AdmmFlowError):
    """A rate-fit window contains objective gaps below the usable noise floor."""
