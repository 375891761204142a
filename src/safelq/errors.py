"""Shared exception taxonomy.

Configuration problems derive from :class:`ConfigError` (CLI exit code 1).
Numerical failures carry enough context to locate the offending run;
:class:`NonFiniteState` and :class:`NotStabilizable` exit with code 6.
"""


class SafeLQError(Exception):
    """Base class for package-specific errors."""


class ConfigError(SafeLQError):
    """Invalid problem configuration."""


class UnknownVariant(ConfigError):
    """Catalog variant name not recognized."""


class DimensionMismatch(ConfigError):
    """Declared dimensions are inconsistent with supplied data."""


class NonPositiveWeight(ConfigError):
    """A weight that must be nonnegative/nondecreasing is not."""


class GrowthViolation(ConfigError):
    """The penalty b does not grow strictly faster than the gain a (q <= p)."""


class NonconformingWeight(ConfigError):
    """Control weight R declared, but not one half times the identity."""


class IntegrabilityMismatch(ConfigError):
    """Declared integrability tags contradict the catalog variant."""


class NegativeAlpha(SafeLQError):
    """Adversarial weight alpha must be nonnegative."""


class SingularJacobian(ConfigError):
    """Jacobian of the coordinate map is numerically singular."""


class UnboundedSup(SafeLQError):
    """Supremum over alpha is +infinity (growth invariant violated)."""


class NonFiniteState(SafeLQError):
    """Integration produced NaN/overflow; ``time`` records where."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class NoConvergence(SafeLQError):
    """Horizon-doubling limit did not settle below tolerance.

    ``attempts`` holds the (horizon, gap) pairs that were tried.
    """

    def __init__(self, message: str, attempts=()):
        super().__init__(message)
        self.attempts = tuple(attempts)


class NotStabilizable(SafeLQError):
    """No stabilizing solution of the algebraic Riccati equation was found."""


class OutOfGrid(SafeLQError):
    """Query time outside the span of a sampled solution."""


class UnsupportedVariant(SafeLQError):
    """Operation not implemented for this constraint-set variant."""


class GridTooCoarseWarning(UserWarning):
    """Dynamic-programming transition steps exceed the grid cell size."""
