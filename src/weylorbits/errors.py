"""Exception hierarchy shared by all modules.

Every error raised on a documented failure path derives from
:class:`WeylOrbitsError`, so callers (and the CLI) can catch one base
class and map it to a diagnostic.
"""


class WeylOrbitsError(Exception):
    """Base class for all library errors."""


class UnsupportedType(WeylOrbitsError):
    """The requested root-system type or operation target is not supported."""


class UnsupportedSeries(WeylOrbitsError):
    """Orthogonal-coordinate routines were asked for a series outside A-D."""


class UnsupportedRank(WeylOrbitsError):
    """The rank is outside the documented range for this operation."""


class MismatchedSystem(WeylOrbitsError):
    """Two arguments belong to different root systems."""


class IndexOutOfRange(WeylOrbitsError):
    """A 1-based simple-root index is outside 1..rank."""


class CapExceeded(WeylOrbitsError):
    """An enumeration would exceed the caller-supplied size cap."""

    def __init__(self, message: str, size: int | None = None):
        super().__init__(message)
        self.size = size


class UnknownPair(WeylOrbitsError):
    """No built-in projection matrix exists for the requested pair."""


class NotStrictlyDominant(WeylOrbitsError):
    """A weight required to lie strictly inside the dominant chamber does not."""


class NonTermination(WeylOrbitsError):
    """An iterative reduction exceeded its step budget."""


class SeparationFailure(WeylOrbitsError):
    """The chosen grid does not separate the requested weights."""

    def __init__(self, message: str, pair: tuple | None = None):
        super().__init__(message)
        self.pair = pair


class DomainError(WeylOrbitsError):
    """An argument violates a documented precondition of the operation."""


class InvariantViolation(WeylOrbitsError):
    """An internal consistency check failed: a bug, not a bad argument."""
