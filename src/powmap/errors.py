"""Domain errors shared across the package.

Every failure surfaced to callers (and the CLI) carries one of these names;
the CLI prints the class name on stderr and exits 1.
"""


class PowmapError(Exception):
    """Base class for all domain errors raised by this package."""


class NotInvertible(PowmapError):
    """The element shares a factor with the modulus, so no inverse exists."""


class NotSupported(PowmapError):
    """Input is outside the desk-scale contract (size or factor count)."""


class NotDivisor(PowmapError):
    """No divisor of t is an exponent annihilating the element."""


class InvalidPrime(PowmapError):
    """A modulus factor is not an acceptable odd prime, or p equals q."""


class NotCoprime(PowmapError):
    """The message shares a factor with the modulus."""


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
