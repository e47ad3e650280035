"""Exception types shared across the package."""


class QubitSwapError(Exception):
    """Base class for all package errors."""


class RangeError(QubitSwapError):
    """A parameter violated one of its documented invariants."""


class ZeroNorm(QubitSwapError):
    """Bell-measurement projection has vanishing success probability: X = Y = 0."""


class NonPhysicalInput(QubitSwapError):
    """A matrix failed its density-matrix invariants beyond tolerance."""


class NonFiniteResult(QubitSwapError):
    """A numeric route overflowed: its result holds inf or NaN."""


class ParseError(QubitSwapError):
    """Malformed config file or flag value."""
