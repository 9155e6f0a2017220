"""Exception hierarchy shared across the package.

Each class maps to one CLI exit code, see cli._ERROR_CODES.
"""


class SrbLabError(Exception):
    """Base class for all srblab failures."""


class ConfigError(SrbLabError):
    """Invalid or incomplete experiment configuration."""


class ParameterError(SrbLabError):
    """A function argument violates its precondition."""


class OrbitEscapeError(SrbLabError):
    """An orbit left the basin (non-finite or beyond the escape radius)."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"orbit escaped at step {step}")


class BasinEscapeError(SrbLabError):
    """Too many ensemble members escaped; the initial density is mischosen."""


class NumericalDegeneracyError(SrbLabError):
    """Rank loss or overflow in a tangent-space computation."""

    def __init__(self, message, step=None):
        self.step = step
        super().__init__(message)


class HyperbolicityError(SrbLabError):
    """A Lyapunov exponent is indistinguishable from zero."""


class UnsupportedDimensionError(SrbLabError):
    """Operation requires a one-dimensional unstable (or stable) direction."""


class InsufficientDataError(SrbLabError):
    """Not enough samples for the requested estimate."""


class FrameMisalignmentError(SrbLabError):
    """Transversal frame nearly parallel to too many stable directions."""


class PadeDegeneracyError(SrbLabError):
    """Singular denominator system in a Pade fit; try a smaller order."""
