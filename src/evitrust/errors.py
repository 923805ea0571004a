"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["EvitrustError", "ConvergenceError", "FeedbackFormatError"]


class EvitrustError(Exception):
    """Base class for errors raised by this package."""


class ConvergenceError(EvitrustError):
    """A numeric routine failed to converge within its iteration budget.

    Carries the best estimate reached so callers can decide whether it is
    still usable.
    """

    def __init__(self, message: str, best_estimate: float):
        super().__init__(f"{message} (best estimate: {best_estimate!r})")
        self.best_estimate = best_estimate


class FeedbackFormatError(EvitrustError):
    """A feedback CSV file failed validation.

    ``line`` is the 1-based line number of the offending row (0 for
    file-level problems such as a bad header).
    """

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line
