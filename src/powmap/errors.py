"""Domain errors shared across the package.

Every refusal raised by this package is a PowmapError, so a refusal carries
one of these names.  The CLI prints that name on stderr and exits 1; it
catches nothing else, so any other exception is a bug and keeps its traceback.
"""


class PowmapError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidArgument(PowmapError, ValueError):
    """An argument is outside its function's domain; also a ValueError for callers that catch one."""


class NotSupported(PowmapError):
    """Input is outside the desk-scale contract (size or factor count)."""


class InvalidPrime(PowmapError):
    """A modulus factor is not an acceptable odd prime, or p equals q."""


class NotCoprime(PowmapError):
    """An element to invert, or a message or cipher, shares a factor with the modulus."""


class NoSolution(PowmapError):
    """No root-extraction exponent exists for these parameters."""


class NotResidue(PowmapError):
    """The value has no t-th root for this modulus."""


class RankOutOfRange(PowmapError):
    """The side-information rank does not index into the candidate set."""


class MalformedPacket(PowmapError):
    """The packet line is not the expected one-object wire format."""


class FieldOutOfRange(PowmapError):
    """A packet field is an integer but outside its allowed range."""


class IneligibleGenerator(PowmapError):
    """The chosen root of unity does not have full order t."""
