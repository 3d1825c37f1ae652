"""Exception hierarchy shared across the package."""


class LevymixError(Exception):
    """Base class for all package errors."""


class NonFiniteInput(LevymixError):
    """Input matrix or vector contains NaN or Inf entries."""


class ConvergenceFailure(LevymixError):
    """An iterative computation failed to converge."""


class IllConditioned(LevymixError):
    """Eigenvalue gaps or conditioning make the Jordan structure unreliable.

    `rungs` holds one (clustering radius, reason) pair per radius that
    real_jordan_form tried, in ladder order; the message is the last reason.
    """

    rungs = ()


class DimensionMismatch(LevymixError):
    """Vector or matrix dimensions are incompatible."""


class InvalidGenerator(LevymixError):
    """A generator matrix does not have |det| = 1 within tolerance."""


class NotCompact(LevymixError):
    """The group's closure is not compact; no invariant inner product exists."""


class NotSPD(LevymixError):
    """Matrix is not symmetric positive definite."""


class CompactClosure(LevymixError):
    """Matrix has compact cyclic closure; no shrinking family exists."""


class NotReached(LevymixError):
    """A search or absorption not finished within its bound."""


class OverlapUnknown(LevymixError):
    """Exact volume requested for a region not flagged as disjoint."""


class SingularMatrix(LevymixError):
    """Matrix is singular or numerically non-invertible."""


class NotAxisAligned(LevymixError):
    """Exact overlap requested for pieces that are not axis boxes."""


class UnboundedRegion(LevymixError):
    """Region family does not admit a finite bounding box."""


class UnsupportedKind(LevymixError):
    """Operation not defined for this noise kind."""


class ApproximationTooCoarse(LevymixError):
    """No polygonal or box construction of a set exists for this input."""


class ConfigError(LevymixError):
    """A configuration, matrix or region input is unreadable or malformed."""


class FloatOverflow(LevymixError, OverflowError):
    """A result passes the float range."""


class SamplingFailure(LevymixError, RuntimeError):
    """A rejection sampler ran out of tries before drawing what was asked."""


class InvalidArgument(LevymixError, ValueError):
    """An argument is out of range or names no known option."""
