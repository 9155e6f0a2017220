"""Exception hierarchy shared across the package.

Each class maps to one CLI exit code, see cli._ERROR_CODES.
"""


class SrbLabError(Exception):
    """Base class for all srblab failures."""


class ConfigError(SrbLabError):
    """A config file that cannot be read, an unknown, ill-typed or missing
    schema key, an unknown subcommand or an output directory that cannot be
    made; any other rejected value is a ParameterError."""


class ParameterError(SrbLabError):
    """A function argument violates its precondition, raised by the code
    that takes it, whether a library call or a configured run passed it."""


class BasinEscapeError(SrbLabError):
    """Too many ensemble members escaped: the initial density's support lies
    outside the basin, or the family has no attractor at this alpha."""


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
