"""Exception taxonomy shared by all resokit modules.

Everything derives from :class:`ResokitError` so callers can catch the
package's failures with a single except clause.  Subclasses also inherit
from the closest builtin (ValueError, KeyError, RuntimeError) so generic
handling keeps working.
"""


class ResokitError(Exception):
    """Base class for all errors raised by resokit."""


class ConfigurationError(ResokitError, ValueError):
    """Inconsistent or out-of-contract constructor arguments."""


class DomainError(ResokitError, ValueError):
    """Evaluation requested outside a function's mathematical domain."""


class BranchPointError(DomainError):
    """Evaluation exactly at the E = 0 branch point of the energy surface."""


class PoleProximityError(DomainError):
    """Evaluation at, or numerically indistinguishable from, a pole."""

    def __init__(self, message, pole=None, distance=None):
        super().__init__(message)
        self.pole = pole
        self.distance = distance


class HardyClassError(ResokitError, ValueError):
    """Pole locations incompatible with the declared Hardy class."""


class ResolutionError(ResokitError, ValueError):
    """Grid too coarse or too narrow for the requested spectral test."""


class ArrowOfTimeError(ResokitError, ValueError):
    """Forward-only evolution invoked with a negative or misordered time."""


class GeometryError(ResokitError, ValueError):
    """Contour or pole layout violates the deformation geometry."""


class QuadratureError(ResokitError, RuntimeError):
    """A quadrature failed its internal error check."""


class WindowError(QuadratureError):
    """A search window ended before the sought feature appeared.

    Carries the partial scan so callers can widen the window sensibly.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class RegimeError(QuadratureError):
    """Data does not follow the functional form assumed by a fit."""


class NormalizationError(ResokitError, ValueError):
    """A normalization constant vanished or could not be computed."""


class StateError(ResokitError, ValueError):
    """Operation requires a normalized configuration."""


class OutputError(ResokitError, OSError):
    """Outputs could not be written where the run was asked to put them."""


class ChannelLookupError(ResokitError, KeyError):
    """Unknown decay channel label."""


class ZeroProbabilityError(ResokitError, ValueError):
    """Conditioning on an outcome of (numerically) zero probability."""


class SchemaError(ResokitError, ValueError):
    """Scenario configuration violates the expected schema."""

    def __init__(self, message, path=None):
        if path:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
