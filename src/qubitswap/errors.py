"""Exception types shared across the package."""


class QubitSwapError(Exception):
    """Base class for all package errors."""


class RangeError(QubitSwapError):
    """A parameter violated one of its documented invariants."""


class DegenerateModel(QubitSwapError):
    """The cubic has (near-)repeated roots; the exponential-sum form is
    ill-conditioned and callers must fall back to the matrix-exponential
    propagator."""


class ZeroNorm(QubitSwapError):
    """Bell-measurement projection has vanishing success probability: X = Y = 0
    for the closed-form measures, N below ZERO_NORM_EPS for density_matrix."""


class NonPhysicalInput(QubitSwapError):
    """A matrix failed its density-matrix invariants beyond tolerance."""


class NonFiniteResult(QubitSwapError):
    """A numeric route overflowed: its result holds inf or NaN."""


class UnknownFigure(QubitSwapError):
    """Requested figure preset id does not exist."""


class ParseError(QubitSwapError):
    """Malformed config file or flag value."""
