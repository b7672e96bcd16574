"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI:
  2 -- input / precision problems (InputError subtree)
  3 -- numerical instability (InstabilityError subtree)
  4 -- a mathematical consistency check failed (MathCheckError subtree)
"""


class NcgTorusError(Exception):
    """Base class for everything raised on purpose by this package."""


class InputError(NcgTorusError):
    """Bad or insufficient input."""


class InvalidInput(InputError):
    pass


class PrecisionExhausted(InputError):
    """A decimal input does not carry enough digits to certify the request."""


class InsufficientDigits(InputError):
    """A continued-fraction expansion is too short for the requested depth."""


class NotCoprime(InvalidInput):
    pass


class ThetaOutOfRange(InvalidInput):
    pass


class ShapeMismatch(InvalidInput):
    pass


class UnsupportedForm(InvalidInput):
    pass


class LevelMismatch(InvalidInput):
    pass


class HorizonTooSmall(InvalidInput):
    pass


class NotAProjection(InvalidInput):
    pass


class NotUnitary(InvalidInput):
    pass


class InstabilityError(NcgTorusError):
    """Numerics refused to certify a value."""


class RepresentationTooSmall(InstabilityError):
    """The requested tolerance is unattainable at this matrix size."""


class UnstableIndex(InstabilityError):
    """An index changed between truncation sizes N and N+4."""


class NonIntegerPairing(InstabilityError):
    """A pairing landed further than 0.1 from every integer."""


class MathCheckError(NcgTorusError):
    """An exactness or consistency check failed (possibly on purpose)."""
