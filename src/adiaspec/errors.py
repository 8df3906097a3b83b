"""Exception types shared across the toolkit.

Every failure mode that callers are expected to branch on gets its own
class; generic programming errors stay plain ValueError/TypeError.
"""

from __future__ import annotations


class AdiaspecError(Exception):
    """Base class for all toolkit-specific failures."""


class InvalidInputError(AdiaspecError, ValueError):
    """Arguments outside an operation's documented domain."""


class ConvergenceFailure(AdiaspecError, RuntimeError):
    """An iterative routine stopped before reaching the requested tolerance.

    The best error bound actually achieved is attached so callers can
    decide whether the partial result is still usable.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class ResolutionFailure(AdiaspecError, RuntimeError):
    """A scan grid was too coarse to isolate the features it looked for."""


class CoverageError(AdiaspecError, ValueError):
    """A band table does not extend far enough for the requested operation."""


class ConsistencyError(AdiaspecError, RuntimeError):
    """Intermediate results contradict each other (e.g. a lost root bracket)."""


class DegeneratePointError(AdiaspecError, ValueError):
    """Evaluation requested exactly at a degenerate point (band edge,
    branch point) where the operation is not single-valued."""


class BranchSelectionError(AdiaspecError, RuntimeError):
    """A branch-dependent quantity came out with the wrong sign or sheet."""


class PathError(AdiaspecError, RuntimeError):
    """An analytic-continuation path passed too close to a branch point."""


class CutCrossingError(PathError):
    """A continuation path ran into a branch cut on the real axis; the
    caller must pick a side (+i0 or -i0) instead."""


class StallError(AdiaspecError, RuntimeError):
    """A traced curve stopped making progress (vanishing tangent field)."""


class InsufficientLengthError(AdiaspecError, ValueError):
    """An averaging interval is too short for a meaningful estimate."""


class DegeneracyError(AdiaspecError, RuntimeError):
    """A matrix product became numerically singular."""


class NonFiniteResultError(AdiaspecError, ArithmeticError):
    """A result to be written holds a NaN or an infinity."""


class ConfigError(AdiaspecError, ValueError):
    """A run configuration file is missing keys or contains bad values."""
