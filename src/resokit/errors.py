"""Exception taxonomy shared by all resokit modules.

Everything derives from :class:`ResokitError` so callers can catch the
package's failures with a single except clause.  Subclasses also inherit
from the closest builtin (ValueError, KeyError, RuntimeError) so generic
handling keeps working.

It also holds the one rule for a time, behind `forward_time` (one number)
and `forward_times` (a 1-D grid): a time is a real number and not a bool
(else ConfigurationError), neither NaN nor negative (else ArrowOfTimeError)
and finite (else ConfigurationError).
"""

import math
import numbers

import numpy as np


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


def forward_time(t, message):
    """t as a float under the time rule; a refused NaN or negative t
    raises ArrowOfTimeError with `message`, then the time."""
    if not isinstance(t, float):  # np.float64 is a float
        if isinstance(t, bool) or not isinstance(t, numbers.Real):
            raise ConfigurationError(f"a time must be a real number, got {t!r}")
        try:
            t = float(t)
        except OverflowError:  # an integer past the double range
            t = math.inf if t > 0 else -math.inf
    if not 0.0 <= t < math.inf:
        if not t >= 0.0:
            raise ArrowOfTimeError(f"{message}, got t = {t}")
        raise ConfigurationError(f"the time t = {t} is not finite")
    return t


def forward_times(times, message):
    """times, a real number or a 1-D array of them, as a float array under
    the time rule; the first refused entry is refused as by `forward_time`."""
    try:
        ts = np.asarray(times)
    except ValueError:  # a ragged nest of lists, refused below as an object
        ts = np.asarray(None)
    if ts.ndim > 1 or ts.dtype.kind not in "iuf":
        raise ConfigurationError(f"need a real time or a 1-D grid of them, got {times!r}")
    ts = ts.astype(float)
    bad = ~((0.0 <= ts) & (ts < math.inf))
    if bad.any():
        forward_time(ts.flat[np.argmax(bad)], message)
    return ts


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
