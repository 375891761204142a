"""Shared exception taxonomy.

Every rejected configuration or flag raises :class:`ConfigError`, whose
message starts with what was rejected.  Numerical failures carry enough
context to locate the offending run.  ``cli`` maps each to its exit code.
"""


class SafeLQError(Exception):
    """Base class for package-specific errors."""


class ConfigError(SafeLQError):
    """Invalid problem configuration or command-line flag."""


class NegativeAlpha(SafeLQError):
    """Adversarial weight alpha must be nonnegative."""


class UnboundedSup(SafeLQError):
    """Supremum over alpha is +infinity (growth invariant violated)."""


class NonFiniteState(SafeLQError):
    """Integration produced NaN/overflow; ``time`` records where."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class NoConvergence(SafeLQError):
    """Horizon-doubling limit did not settle below tolerance.

    ``certificate`` records the horizons tried, with ``converged`` False.
    """

    def __init__(self, message: str, certificate):
        super().__init__(message)
        self.certificate = certificate


class NotStabilizable(SafeLQError):
    """No stabilizing solution of the algebraic Riccati equation was found."""


class OutOfGrid(SafeLQError):
    """Query time outside the span of a sampled solution."""


class UnsupportedVariant(SafeLQError):
    """Operation not implemented for this constraint-set variant."""


class GridTooCoarseWarning(UserWarning):
    """Kept importable, no longer raised: the DP oracle's semi-Lagrangian
    step is stable however far a transition steps across the grid."""
