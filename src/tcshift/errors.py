"""Exception hierarchy shared across the package."""


class TCShiftError(Exception):
    """Base class for all library errors."""


class AtomAtZero(TCShiftError):
    """A reciprocal norm or renormalisation hit an atom at the origin."""


class NotProbability(TCShiftError):
    """A measure that must have total mass one does not."""


class DegenerateMeasure(TCShiftError):
    """A measure concentrated at the origin carries no weight sequence."""


class InvalidWeight(TCShiftError):
    """A shift weight lies outside (0, inf)."""


class DepthExceeded(TCShiftError):
    """A weight or moment index lies beyond the instance's depth."""


class NonFinite(TCShiftError, ValueError):
    """An atom coordinate or mass is infinite or NaN, given so or produced by
    overflowing arithmetic.  It is also a ValueError, so every handler of
    invalid values catches it."""


class InvalidMoments(TCShiftError, ValueError):
    """Moment data given to a Hankel check hold an entry that is not
    positive.  It is also a ValueError."""


class PreconditionViolated(TCShiftError):
    """An operation received data that fails its stated precondition."""


class InvalidFlat(TCShiftError):
    """Flat-instance parameters violate the admissible range."""


class ValidationError(TCShiftError):
    """An instance file is well formed but violates a model invariant."""


class ParseError(TCShiftError):
    """An instance file cannot be read or is structurally malformed."""
