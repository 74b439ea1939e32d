"""Exception hierarchy shared by all sqgt modules."""


class SqgtError(Exception):
    """Base class for all domain errors raised by this package.  `path` is
    the file the error is about, where the error names one."""

    def __init__(self, *args, path: str | None = None):
        super().__init__(*args)
        self.path = path


class OutOfRange(SqgtError):
    """A value fell at or above the top threshold (or below zero)."""


class InvalidBin(SqgtError):
    """A bin index below 0 or at least Q."""


class InvalidInput(SqgtError):
    """Malformed argument that violates an operation precondition."""


class InfeasibleThresholds(SqgtError):
    """The thresholds cannot support the requested construction."""


class CorruptSequence(SqgtError):
    """A sequence failed an invariant it was supposed to carry."""


class CorruptCode(SqgtError):
    """A saved code file does not describe a code: it is not JSON, lacks a
    key, holds one of the wrong type, or names a code that cannot be built."""


class UnsupportedKind(SqgtError):
    """Operation not defined for this sequence kind."""


class HeadroomError(SqgtError):
    """Top threshold too small for the requested code parameters."""


class ParameterError(SqgtError):
    """Mismatched code-construction parameters (h < d, base.d < d, ...)."""


class InvalidBase(SqgtError):
    """A binary base matrix does not deliver its claimed error correction."""


class DecodingFailure(SqgtError):
    """The decoder could not produce a consistent defective set."""


class BudgetExceeded(SqgtError):
    """An exhaustive verification, or a base matrix, would exceed its budget."""
