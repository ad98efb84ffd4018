"""Survival amplitudes over a semibounded spectrum.

For a state with spectral density rho supported on [0, inf) the survival
amplitude is

    A(t) = integral_0^inf rho(E) e^{-i E t} dE,      t >= 0.

Because the spectrum is bounded below, |A(t)| cannot stay exactly
exponential (Khalfin): the exponential era set by the resonance pole
gives way to a power-law tail whose exponent is fixed by the threshold
behavior of rho (rho ~ E^alpha at E -> 0+ gives |A|^2 ~ t^{-2(alpha+1)}).

Two independent evaluation methods are provided.  "rotation" closes the
contour onto the negative imaginary energy axis: the fourth-quadrant
pole of rho contributes -2 pi i Res[rho(z) e^{-i z t}], taken in closed
form since rho is rational, and the leg along the axis becomes a real
Laplace-type endpoint integral
-i integral_0^inf rho(-i u) e^{-u t} du, evaluated after rescaling
u = s / (t + 1/scale) so the decaying mass stays resolved at late
times.  "direct" integrates the oscillatory integral with Fourier
(QAWF) quadrature and serves as the cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArrowOfTimeError,
    ConfigurationError,
    NormalizationError,
    RegimeError,
    WindowError,
)
# circle_residue is unused here; resobench/tracer.py wraps the benchmark
# span at this name, and its self-tests require every wrapped site to resolve
from .quadrature import circle_residue  # noqa: F401
from .quadrature import complex_quad, decaying_fourier_quad
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
    power, power in {1, 2} the pole order.  The normalization constant
    is fixed at construction so integral_0^inf rho dE = 1.
    """

    resonance: ResonancePole
    alpha: int = 0
    power: int = 1
    norm: float = 0.0

    def __init__(self, resonance, alpha=0, power=1):
        if not isinstance(resonance, ResonancePole):
            raise ConfigurationError("SpectralDensity needs a ResonancePole")
        alpha = int(alpha)
        power = int(power)
        if alpha < 0:
            raise ConfigurationError("threshold power alpha must be >= 0")
        if power not in (1, 2):
            raise ConfigurationError("pole order power must be 1 or 2")
        object.__setattr__(self, "resonance", resonance)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "norm", 1.0)
        raw, _ = complex_quad(lambda e: self._shape(e).real, 0.0, np.inf)
        if not raw.real > 0.0:
            raise NormalizationError("density does not integrate to a positive mass")
        object.__setattr__(self, "norm", 1.0 / raw.real)

    @classmethod
    def truncated_lorentzian(cls, resonance):
        """The Breit-Wigner line shape cut at threshold (alpha=0, power=1)."""
        return cls(resonance, alpha=0, power=1)

    @classmethod
    def threshold_weighted(cls, resonance):
        """E times the squared Lorentzian: vanishing at threshold."""
        return cls(resonance, alpha=1, power=2)

    def _shape(self, z):
        z = np.asarray(z, dtype=complex)
        g = self.resonance.width
        base = (g / (2.0 * math.pi)) / ((z - self.resonance.energy) ** 2 + 0.25 * g * g)
        return z**self.alpha * base**self.power

    def __call__(self, z):
        out = self.norm * self._shape(z)
        return out if out.shape else complex(out)

    @property
    def pole(self):
        """Fourth-quadrant pole of the analytic continuation."""
        return self.resonance.position

    @property
    def tail_power(self):
        """Predicted late-time exponent of |A(t)|^2."""
        return -2.0 * (self.alpha + 1.0)


def _scale(density):
    res = density.resonance
    return max(res.energy, res.width, 1.0)


def _endpoint(density, t):
    """-i integral_0^inf rho(-i u) e^{-u t} du with late-time rescale."""
    a = t + 1.0 / _scale(density)

    def f(s):
        return density(-1j * s / a) * np.exp(-s * t / a) / a

    value, _ = complex_quad(f, 0.0, np.inf)
    return -1j * value


def _pole_residues(density, t):
    """-2 pi i residue of rho(z) e^{-i z t} at the fourth-quadrant pole.

    With base(z) = c / ((z - z0)(z - conj(z0))), c = Gamma / 2 pi and
    d = z0 - conj(z0), the simple pole gives N z0^alpha e^{-i z0 t} c / d;
    the double pole differentiates z^alpha e^{-i z t} / (z - conj(z0))^2,
    which multiplies that by (c / d) (alpha / z0 - i t - 2 / d).
    """
    z0 = density.pole
    d = z0 - z0.conjugate()
    ratio = density.resonance.width / (2.0 * math.pi) / d
    res = density.norm * z0**density.alpha * np.exp(-1j * z0 * t) * ratio
    if density.power == 2:
        res *= ratio * (density.alpha / z0 - 1j * t - 2.0 / d)
    return -2j * np.pi * res


def survival_amplitude(density, t, method="rotation"):
    """A(t) for t >= 0 by contour rotation or direct Fourier quadrature."""
    if t < 0.0:
        raise ArrowOfTimeError(f"survival amplitudes exist for t >= 0, got {t}")
    if method == "rotation":
        return complex(_pole_residues(density, t) + _endpoint(density, t))
    if method == "direct":
        if t == 0.0:
            value, _ = complex_quad(lambda e: density(e), 0.0, np.inf)
        else:
            value, _ = decaying_fourier_quad(lambda e: density(e), t)
        return complex(value)
    raise ConfigurationError(f"unknown method {method!r}")


def survival_probability(density, t, method="rotation"):
    """|A(t)|^2."""
    return abs(survival_amplitude(density, t, method=method)) ** 2


def exponential_law(density, t):
    """The pure pole law e^{-Gamma t} the amplitude is compared against."""
    if t < 0.0:
        raise ArrowOfTimeError(f"the exponential law applies for t >= 0, got {t}")
    return math.exp(-density.resonance.width * t)


def deviation_onset(density, threshold=0.01, t_grid=None, refine=True):
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
    ts = np.asarray(t_grid, dtype=float)
    if np.any(ts < 0.0):
        raise ArrowOfTimeError("onset scan needs t >= 0")

    def deviation(t):
        pole_term = _pole_residues(density, t)
        full = pole_term + _endpoint(density, t)
        ref = abs(pole_term) ** 2
        if ref == 0.0:
            return np.inf
        return abs(abs(full) ** 2 / ref - 1.0)

    # The deviation is not monotone: it can start above threshold while
    # the endpoint term is still comparable to the pole term, dip through
    # the exponential era, then rise for good.  The onset is the upward
    # crossing after the era of agreement, so a below-threshold sample
    # must be seen first.
    scanned = []
    seen_below = False
    prev_t = None
    for t in ts:
        d = deviation(t)
        scanned.append((float(t), float(d)))
        if d < threshold:
            seen_below = True
        elif seen_below:
            if not refine or prev_t is None:
                return float(t)
            lo, hi = prev_t, t
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if deviation(mid) >= threshold:
                    hi = mid
                else:
                    lo = mid
                if hi - lo <= 1e-3 * hi:
                    break
            return float(hi)
        prev_t = t
    message = (
        f"deviation never reached {threshold:g} after the exponential era"
        if seen_below
        else "the scan never entered the exponential era; widen the grid"
    )
    raise WindowError(message, partial=scanned)


def fit_log_slope(times, values, residual_tol=0.02):
    """Least-squares slope of log(values) against log(times).

    Rejects data that is not a power law: if the rms residual of the
    fit exceeds residual_tol the data curves on log-log axes (for
    example a pure exponential) and RegimeError is raised.
    """
    ts = np.asarray(times, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ts.ndim != 1 or ts.shape != vs.shape or ts.size < 3:
        raise ConfigurationError("need matching 1-d arrays with >= 3 samples")
    if np.any(ts <= 0.0) or np.any(vs <= 0.0):
        raise ConfigurationError("log-log fit needs positive times and values")
    x = np.log(ts)
    y = np.log(vs)
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    rms = float(np.sqrt(np.mean(resid**2)))
    if rms > residual_tol:
        raise RegimeError(
            f"data is not a power law (rms log residual {rms:.3e} "
            f"exceeds {residual_tol:g})"
        )
    return float(coeffs[0])


def tail_exponent(density, t_range=None, points=25, residual_tol=0.02):
    """Late-time exponent of |A(t)|^2 from a log-log fit."""
    g = density.resonance.width
    if t_range is None:
        t_range = (100.0 / g, 1000.0 / g)
    lo, hi = (float(t_range[0]), float(t_range[1]))
    if not 0.0 < lo < hi:
        raise ConfigurationError("t_range must satisfy 0 < lo < hi")
    ts = np.geomspace(lo, hi, points)
    vals = np.array([survival_probability(density, t) for t in ts])
    return fit_log_slope(ts, vals, residual_tol=residual_tol)
