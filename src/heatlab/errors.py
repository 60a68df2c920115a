"""Exception types shared across the package."""


class HeatLabError(Exception):
    """Base class for all heatlab errors."""


class NonIntegrableTail(HeatLabError):
    """The reciprocal nonlinearity 1/f has no integrable tail at infinity."""


class OutOfRange(HeatLabError):
    """Requested value lies outside the range of the function being inverted."""


class DivisionNearZero(HeatLabError):
    """A denominator fell below the division tolerance."""


class StepUnderflow(HeatLabError):
    """Adaptive ODE step collapsed; carries the last valid state."""

    def __init__(self, message, r=None, state=None):
        super().__init__(message)
        self.r = r
        self.state = state


class PatchMismatch(HeatLabError):
    """Re-seeding the singular solution at a smaller patch radius changed it."""


class LinearSolveFailure(HeatLabError):
    """The implicit diffusion solve failed."""


class ReactionOverflow(HeatLabError):
    """The explicit reaction increment exceeded the overflow guard."""


class TimeMeshMismatch(HeatLabError):
    """A stored trajectory does not cover the requested time interval."""


class OrderingViolation(HeatLabError):
    """Monotone iteration lost its ordering beyond tolerance."""


class NonMonotoneScan(HeatLabError):
    """Amplitude scan classifications are not monotone in the amplitude."""
