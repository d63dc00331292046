"""Exception and warning types shared across the package."""

from __future__ import annotations


class QThermError(Exception):
    """Base class for all qtherm errors."""


class DomainError(QThermError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NoRealRootError(QThermError):
    """The trinomial equation has no positive real root on the x(0)=1 branch.

    Carries enough context to report which MaxEnt level triggered it.
    """

    def __init__(self, message: str, *, alpha: float | None = None,
                 b: float | None = None, level: int | None = None):
        super().__init__(message)
        self.alpha = alpha
        self.b = b
        self.level = level


class DivergentSeriesError(QThermError):
    """The trinomial series does not converge for the requested coefficient."""


class NonConvergenceError(QThermError):
    """An iterative solve stopped without a certified answer.

    ``solution`` holds the last iterate with ``converged=False`` so callers
    can still inspect diagnostics.
    """

    def __init__(self, message: str, *, solution=None):
        super().__init__(message)
        self.solution = solution


class ParseError(QThermError, ValueError):
    """An input file could not be parsed; ``line`` is 1-based."""

    def __init__(self, message: str, *, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RenormalizationWarning(UserWarning):
    """A probability vector was off normalization and silently rescaled."""


class DualityRangeWarning(UserWarning):
    """A duality transform produced an index outside [0, 2]."""
