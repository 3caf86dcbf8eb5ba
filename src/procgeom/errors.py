"""Exception hierarchy for procgeom.

All domain errors derive from :class:`ProcgeomError` so callers (and the
CLI) can catch the whole family at once.
"""


class ProcgeomError(Exception):
    """Base class for all procgeom domain errors."""


class NonPositiveEntry(ProcgeomError):
    """A probability vector entry is zero or negative."""


class DimensionTooSmall(ProcgeomError):
    """A probability vector needs at least two entries."""


class DimensionMismatch(ProcgeomError):
    """Operands live on simplices of different dimension."""


class Overflow(ProcgeomError):
    """Elementwise powering left working precision (overflow or total underflow)."""


class DegenerateGeodesic(ProcgeomError):
    """Geodesic endpoints coincide; the curve has zero length."""


class NotOrthogonal(ProcgeomError):
    """Geodesic directions are not orthogonal within tolerance."""


class InvalidPfsa(ProcgeomError):
    """A machine violates the PFSA invariants."""


class PfsaFormatError(ProcgeomError):
    """A model file does not conform to the `pfsa v1` text format."""


class NotErgodic(ProcgeomError):
    """The transition structure has more than one closed recurrent component."""


class ZeroMass(ProcgeomError):
    """A belief update hit an all-zero posterior: the observed symbol has
    probability 0 under the belief at working precision.  Machines that
    :func:`~procgeom.pfsa.validate` accepts reach it: an emission entry of
    5e-324 times a belief entry of 0.5 rounds to 0."""


class UnknownKey(ProcgeomError, KeyError):
    """A lookup names a symbol, state, index or context that the machine or
    table does not have.  Also a :class:`KeyError`, so ``except KeyError``
    still catches it; unlike a plain ``KeyError``, its message prints
    without quotes."""

    __str__ = Exception.__str__


class AlphabetMismatch(ProcgeomError):
    """Two machines do not share the same ordered alphabet."""


class DepthExceeded(ProcgeomError):
    """Synchronization search exhausted its depth budget.

    Carries the best result found so far in ``best`` (a SyncResult for a
    single machine, or a tuple of SyncResults for a joint search).
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class MultipleRecurrentClasses(NotErgodic):
    """The uniformly driven pair chain has several recurrent classes
    reachable from its start, so the exact inner product (and the sum) is
    path dependent."""


class ZeroNorm(ProcgeomError):
    """An angle was requested against a process/stream of (near-)zero norm."""


class StreamTooShort(ProcgeomError):
    """A symbol stream is too short for the requested context depth."""
