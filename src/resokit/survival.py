"""Survival amplitudes over a semibounded spectrum.

For a state with spectral density rho supported on [0, inf) the survival
amplitude is

    A(t) = integral_0^inf rho(E) e^{-i E t} dE,      t >= 0.

Because the spectrum is bounded below, |A(t)| cannot stay exactly
exponential (Khalfin): the exponential era set by the resonance pole
gives way to a power-law tail whose exponent is fixed by the threshold
behavior of rho (rho ~ E^alpha at E -> 0+ gives |A|^2 ~ t^{-2(alpha+1)}).

The amplitude closes the contour onto the negative imaginary energy
axis: the fourth-quadrant pole of rho contributes
-2 pi i Res[rho(z) e^{-i z t}], taken in closed form since rho is
rational, and the leg along the axis becomes a real Laplace-type
endpoint integral -i integral_0^inf rho(-i u) e^{-u t} du.  Both are
taken in units of E_R, so no factor forms a power of E_R and any E_R
works: every density holds one `quadrature.LaplaceTable` of the leg's
integrand in x = u / E_R, summed at E_R t and gated against 1e-12 of the
larger of the pole term and the leg, and the scale N E_R^(1 + alpha -
power) outside it; the normalization is the same rotation at t = 0.
`exact.survival_amplitude` sums the leg in closed form and serves as the
cross-check; `survival_amplitude` returns its value for method="direct".
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    NormalizationError,
    RegimeError,
    WindowError,
    forward_time,
    forward_times,
)
# circle_residue, complex_quad and decaying_fourier_quad are unused here;
# resobench/tracer.py wraps benchmark spans at these names, and its
# self-tests require every wrapped site to resolve
from .quadrature import circle_residue, complex_quad, decaying_fourier_quad  # noqa: F401
from .quadrature import LaplaceTable
from .surface import ResonancePole

__all__ = [
    "SpectralDensity",
    "survival_amplitude",
    "survival_probability",
    "exponential_law",
    "deviation_onset",
    "fit_log_slope",
    "tail_exponent",
]


@dataclass(frozen=True)
class SpectralDensity:
    """Rational density N z^alpha base(z)^power on [0, inf).

    base(z) = (Gamma / 2 pi) / ((z - E_R)^2 + Gamma^2 / 4) is the
    Lorentzian of the attached resonance.  alpha >= 0 sets the threshold
    power, power in {1, 2} the pole order; the density must have finite
    mass, so alpha < 2 power - 1.  N is fixed at construction so
    integral_0^inf rho dE = 1, and an N outside the normal double range
    raises NormalizationError.  In units of E_R the leg is
    N E_R^(1 + alpha - power) times the Laplace integral of
    rho(-i E_R x) E_R^(power - alpha) / N; that scale and table stay
    outside the dataclass fields.
    """

    resonance: ResonancePole
    alpha: int = 0
    power: int = 1
    norm: float = field(init=False)

    def __init__(self, resonance, alpha=0, power=1):
        if not isinstance(resonance, ResonancePole):
            raise ConfigurationError("SpectralDensity needs a ResonancePole")
        alpha = _integer("threshold power alpha", alpha)
        power = _integer("pole order power", power)
        if alpha < 0:
            raise ConfigurationError("threshold power alpha must be >= 0")
        if power not in (1, 2):
            raise ConfigurationError("pole order power must be 1 or 2")
        if alpha >= 2 * power - 1:
            raise ConfigurationError(
                f"alpha={alpha}, power={power} decays as E^{alpha - 2 * power} "
                "and has no finite mass; need alpha < 2 power - 1"
            )
        object.__setattr__(self, "resonance", resonance)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "power", power)
        energy = resonance.energy
        object.__setattr__(self, "_table", LaplaceTable(
            lambda x: _rational(-1j * x, 1.0, resonance.width / energy, alpha, power)))
        object.__setattr__(self, "_scale", 1.0)
        raw = sum(_pole_and_leg(self, 0.0)).real
        if not raw > 0.0:
            raise NormalizationError("density does not integrate to a positive mass")
        scale = 1.0 / raw
        # N = scale / E_R^(1 + alpha - power), an exponent of -1, 0 or 1
        norm = {1: scale / energy, 0: scale, -1: scale * energy}[1 + alpha - power]
        if not np.finfo(float).tiny <= norm <= np.finfo(float).max:
            raise NormalizationError(f"norm {norm:g} is outside the normal double range")
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "norm", norm)

    @classmethod
    def truncated_lorentzian(cls, resonance):
        """The Breit-Wigner line shape cut at threshold (alpha=0, power=1)."""
        return cls(resonance, alpha=0, power=1)

    @classmethod
    def threshold_weighted(cls, resonance):
        """E times the squared Lorentzian: vanishing at threshold."""
        return cls(resonance, alpha=1, power=2)

    def __call__(self, z):
        res = self.resonance
        out = self.norm * _rational(np.asarray(z, dtype=complex), res.energy, res.width,
                                    self.alpha, self.power)
        return out if out.shape else complex(out)

    @property
    def pole(self):
        """Fourth-quadrant pole of the analytic continuation."""
        return self.resonance.position

    @property
    def tail_power(self):
        """Predicted late-time exponent of |A(t)|^2."""
        return -2.0 * (self.alpha + 1.0)


def _integer(name, value):
    """value as an int, refusing booleans and non-integral numbers."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and value == int(value)):
        return int(value)
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def _rational(z, energy, width, alpha, power):
    """z^alpha base(z)^power at complex z, base the Lorentzian of (energy, width)."""
    base = (width / (2.0 * math.pi)) / ((z - energy) ** 2 + 0.25 * width * width)
    # z**0 and base**1 cost a complex power per node and change nothing
    shape = base if power == 1 else base**power
    return shape if alpha == 0 else z**alpha * shape


def _pole_residues(density, t):
    """-2 pi i residue of rho(z) e^{-i z t} at the fourth-quadrant pole.

    With base(z) = c / ((z - z0)(z - conj(z0))), c = Gamma / 2 pi and
    d = z0 - conj(z0), the simple pole gives N z0^alpha e^{-i z0 t} c / d;
    the double pole differentiates z^alpha e^{-i z t} / (z - conj(z0))^2,
    which multiplies that by (c / d) (alpha / z0 - i t - 2 / d).  The
    powers of E_R are taken out, z0 = E_R w0, and go into the density's
    scale N E_R^(1 + alpha - power), so no factor passes the double range.
    """
    res = density.resonance
    z0 = density.pole
    d = z0 - z0.conjugate()
    ratio = res.width / (2.0 * math.pi) / d
    w0 = complex(1.0, -0.5 * (res.width / res.energy))
    out = density._scale * w0**density.alpha * np.exp(-1j * z0 * t) * ratio
    if density.power == 2:
        out *= ratio * (density.alpha / w0 - 1j * (res.energy * t) - 2.0 * res.energy / d)
    return -2j * np.pi * out


def _pole_and_leg(density, t):
    """Pole term and endpoint leg of the contour rotated at time t."""
    pole = _pole_residues(density, t)
    leg = density._table(density.resonance.energy * t, floor=abs(pole) / density._scale)[0]
    return pole, -1j * density._scale * leg


def survival_amplitude(density, t, method="rotation"):
    """A(t) for t >= 0 by contour rotation, or in closed form.

    method="direct" returns the value of `exact.survival_amplitude`,
    which sums the leg without quadrature and raises QuadratureError
    when its own bound passes 1e-9 of |A|.
    """
    t = forward_time(t, "survival amplitudes exist for t >= 0")
    if method == "rotation":
        return complex(sum(_pole_and_leg(density, t)))
    if method == "direct":
        from . import exact  # exact builds on this module

        return exact.survival_amplitude(density, t).value
    raise ConfigurationError(f"unknown method {method!r}")


def survival_probability(density, t):
    """|A(t)|^2."""
    return abs(survival_amplitude(density, t)) ** 2


def exponential_law(density, t):
    """The pure pole law e^{-Gamma t} the amplitude is compared against."""
    t = forward_time(t, "the exponential law applies for t >= 0")
    return math.exp(-density.resonance.width * t)


def deviation_onset(density, threshold=0.01, t_grid=None):
    """Earliest time the pole-normalized deviation exceeds threshold.

    The deviation compares |A(t)|^2 against its own exponential-era
    magnitude |A_pole(t)|^2 = |c|^2 e^{-Gamma t} with c the pole residue
    contribution, so normalization offsets do not register as deviation.
    Raises WindowError (with the scanned partial data attached) when the
    grid ends before the threshold is crossed.
    """
    g = density.resonance.width
    if t_grid is None:
        t_grid = np.geomspace(0.2 / g, 400.0 / g, 160)
    ts = np.atleast_1d(forward_times(t_grid, "onset scan needs t >= 0"))

    def deviation(t):
        pole_term, leg = _pole_and_leg(density, t)
        ref = abs(pole_term) ** 2
        if ref == 0.0:
            return np.inf
        return abs(abs(pole_term + leg) ** 2 / ref - 1.0)

    # The deviation is not monotone: it can start above threshold while
    # the endpoint term is still comparable to the pole term, dip through
    # the exponential era, then rise for good.  The onset is the upward
    # crossing after the era of agreement, so a below-threshold sample
    # must be seen first.
    scanned = []
    below = None  # the latest sample under threshold
    for t in ts:
        d = deviation(t)
        scanned.append((float(t), float(d)))
        if d < threshold:
            below = t
        elif below is not None:
            lo, hi = below, t
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if deviation(mid) >= threshold:
                    hi = mid
                else:
                    lo = mid
                if hi - lo <= 1e-3 * hi:
                    break
            return float(hi)
    message = (
        f"deviation never reached {threshold:g} after the exponential era"
        if below is not None
        else "the scan never entered the exponential era; widen the grid"
    )
    raise WindowError(message, partial=scanned)


# rms log residual past which `fit_log_slope` calls the data no power law
_FIT_RESIDUAL_TOL = 0.02
# log-spaced times `tail_exponent` fits over its window
_TAIL_POINTS = 25


def fit_log_slope(times, values):
    """Least-squares slope of log(values) against log(times).

    Rejects data that is not a power law: if the rms residual of the
    fit exceeds _FIT_RESIDUAL_TOL the data curves on log-log axes (for
    example a pure exponential) and RegimeError is raised.
    """
    ts = np.asarray(times, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ts.ndim != 1 or ts.shape != vs.shape or ts.size < 3:
        raise ConfigurationError("need matching 1-d arrays with >= 3 samples")
    if not np.all(np.isfinite(ts) & np.isfinite(vs) & (ts > 0.0) & (vs > 0.0)):
        raise ConfigurationError("log-log fit needs finite, positive times and values")
    x = np.log(ts)
    if not x.max() > x.min():
        raise ConfigurationError("log-log fit needs at least two distinct times")
    y = np.log(vs)
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    rms = float(np.sqrt(np.mean(resid**2)))
    if not rms <= _FIT_RESIDUAL_TOL:
        raise RegimeError(
            f"data is not a power law (rms log residual {rms:.3e} "
            f"exceeds {_FIT_RESIDUAL_TOL:g})"
        )
    return float(coeffs[0])


def tail_exponent(density, t_range=None):
    """Late-time exponent of |A(t)|^2 from a log-log fit."""
    g = density.resonance.width
    if t_range is None:
        t_range = (100.0 / g, 1000.0 / g)
    lo, hi = (float(t_range[0]), float(t_range[1]))
    if not 0.0 < lo < hi:
        raise ConfigurationError("t_range must satisfy 0 < lo < hi")
    ts = np.geomspace(lo, hi, _TAIL_POINTS)
    vals = np.array([survival_probability(density, t) for t in ts])
    return fit_log_slope(ts, vals)
