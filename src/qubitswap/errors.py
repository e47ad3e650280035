"""Exception types shared across the package."""


class QubitSwapError(Exception):
    """Base class for all package errors."""


class RangeError(QubitSwapError):
    """A parameter violated one of its documented invariants."""


class DegenerateModel(QubitSwapError):
    """The cubic has (near-)repeated roots; the exponential-sum form is
    ill-conditioned and callers must fall back to the ODE integrator."""


class StepTooLarge(QubitSwapError):
    """Requested fixed step violates the explicit-integrator stability guard."""


class ZeroNorm(QubitSwapError):
    """Bell-measurement projection has vanishing success probability."""


class NonPhysicalInput(QubitSwapError):
    """A matrix failed its density-matrix invariants beyond tolerance."""


class NonFiniteResult(QubitSwapError):
    """A numeric route overflowed: its result holds inf or NaN."""


class NotConverged(QubitSwapError):
    """Node-doubling refinement did not reach the requested tolerance."""


class UnknownFigure(QubitSwapError):
    """Requested figure preset id does not exist."""


class ParseError(QubitSwapError):
    """Malformed config file or flag value."""
