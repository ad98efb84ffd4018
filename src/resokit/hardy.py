"""Rational Hardy-class wave functions and the Paley-Wiener test.

A wave function here is a finite sum of complex poles,

    f(E) = sum_j c_j / (E - p_j)^{n_j},    n_j >= 1,

square integrable on the real axis.  Membership in a Hardy class is a
statement about where the poles sit: analytic in the upper half plane
(class UPPER, traditionally H^2_+) requires every Im p_j < 0, class
LOWER requires every Im p_j > 0.  By Paley-Wiener the Fourier transform
fhat(tau) = integral f(E) e^{-i E tau} dE of an UPPER function is
supported on tau >= 0, of a LOWER function on tau <= 0; `paley_wiener_check`
measures the leakage onto the forbidden side on an FFT grid.

Conjugation flips the class: conjugate coefficients and poles, keep
orders.  For real E the conjugated function equals conj(f(E)) pointwise,
so it is the natural "dagger" partner in pairings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    HardyClassError,
    ResolutionError,
)

__all__ = ["HalfPlane", "HardyFunction", "paley_wiener_check", "fourier_grid"]


class HalfPlane(enum.Enum):
    """Half plane of analyticity (UPPER is the classical H^2_+)."""

    UPPER = "upper"
    LOWER = "lower"

    @property
    def flipped(self):
        return HalfPlane.LOWER if self is HalfPlane.UPPER else HalfPlane.UPPER


@dataclass(frozen=True)
class HardyFunction:
    """Finite rational sum with all poles in one open half plane.

    terms is a tuple of (coefficient, pole, order).  The declared
    half_plane is validated against the pole positions: UPPER functions
    must have every pole strictly below the real axis, LOWER functions
    strictly above.
    """

    terms: tuple
    half_plane: HalfPlane

    def __post_init__(self):
        if not isinstance(self.half_plane, HalfPlane):
            raise ConfigurationError("half_plane must be a HalfPlane member")
        if not self.terms:
            raise ConfigurationError("a wave function needs at least one term")
        cleaned = []
        for term in self.terms:
            c, p, n = term
            c = complex(c)
            p = complex(p)
            n = int(n)
            if n < 1:
                raise ConfigurationError(f"pole order must be >= 1, got {n}")
            if c == 0:
                raise ConfigurationError("zero coefficients are not representable")
            if p.imag == 0:
                raise HardyClassError(f"pole {p} sits on the real axis")
            if self.half_plane is HalfPlane.UPPER and p.imag > 0:
                raise HardyClassError(
                    f"pole {p} in the upper half plane contradicts UPPER analyticity"
                )
            if self.half_plane is HalfPlane.LOWER and p.imag < 0:
                raise HardyClassError(
                    f"pole {p} in the lower half plane contradicts LOWER analyticity"
                )
            cleaned.append((c, p, n))
        object.__setattr__(self, "terms", tuple(cleaned))

    def __call__(self, z):
        z_arr = np.asarray(z, dtype=complex)
        out = np.zeros_like(z_arr)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for c, p, n in self.terms:  # far from every pole, 1 / (z - p) underflows
                out = out + c * (1.0 / (z_arr - p)) ** n
        if not np.isfinite(out).all():
            raise DomainError("evaluation at a pole, or near enough that it overflows")
        return out if out.shape else complex(out)

    def conjugated(self):
        """Schwarz reflection: conj coefficients and poles, flipped class.

        Equals conj(f(E)) for real E and continues it analytically to
        the opposite half plane.
        """
        terms = tuple((np.conj(c), np.conj(p), n) for c, p, n in self.terms)
        return HardyFunction(terms=terms, half_plane=self.half_plane.flipped)

    def __add__(self, other):
        if not isinstance(other, HardyFunction):
            return NotImplemented
        if other.half_plane is not self.half_plane:
            raise HardyClassError("cannot add functions of different classes")
        return HardyFunction(terms=self.terms + other.terms, half_plane=self.half_plane)

    def __mul__(self, scalar):
        scalar = complex(scalar)
        terms = tuple((c * scalar, p, n) for c, p, n in self.terms)
        return HardyFunction(terms=terms, half_plane=self.half_plane)

    __rmul__ = __mul__

    @property
    def decay_order(self):
        """Guaranteed large-E decay exponent (min pole order)."""
        return min(n for _, _, n in self.terms)

    @property
    def inverse_energy_coefficient(self):
        """Coefficient of 1/E in the large-E expansion."""
        return complex(sum(c for c, _, n in self.terms if n == 1))

    def line_moment(self):
        """Full-line integral of f, closed form.

        Absolutely convergent only when every order is >= 2, where it
        vanishes (rational functions with decay >= E^-2 and poles off
        the axis integrate to the sum of residues of an exact
        derivative, i.e. zero).  For order-1 terms this is the
        principal value: closing in the pole-free half plane leaves the
        large-arc contribution -/+ i pi times the 1/E coefficient.
        """
        c1 = self.inverse_energy_coefficient
        if c1 == 0:
            return 0.0 + 0.0j
        sign = -1.0 if self.half_plane is HalfPlane.UPPER else 1.0
        return sign * 1j * np.pi * c1


def _grid_spectrum(wf, e_max, n):
    """(de, tau, fft of f sampled on n points over [-e_max, e_max))."""
    if n & (n - 1):
        raise ConfigurationError("FFT grid size must be a power of two")
    de = 2.0 * e_max / n
    energies = -e_max + de * np.arange(n)
    tau = 2.0 * np.pi * np.fft.fftfreq(n, d=de)
    return de, tau, np.fft.fft(wf(energies))


def fourier_grid(wf, e_max, n):
    """FFT realization of fhat(tau) = integral f(E) e^{-i E tau} dE.

    Samples f on n points over [-e_max, e_max) and returns (tau, fhat).
    tau comes from fftfreq and is unsorted; pair it with fhat as is.
    """
    de, tau, spectrum = _grid_spectrum(wf, e_max, n)
    return tau, de * np.exp(1j * e_max * tau) * spectrum


# `paley_wiener_check` samples _PW_N points over [-_PW_E_MAX, _PW_E_MAX)
# and refuses a wave whose |f| at the grid's edge passes _PW_EDGE of its peak
_PW_E_MAX = 200.0
_PW_N = 2**18
_PW_EDGE = 1e-4


def paley_wiener_check(wf):
    """Fraction of Fourier mass on the class-forbidden half line.

    UPPER functions must transform onto tau >= 0, LOWER onto tau <= 0.
    Returns the forbidden-side l2 fraction on 2^18 points over
    [-200, 200); well constructed rational functions score below 1e-7
    while class-flipped declarations score near 1.

    Raises ResolutionError when |f| at the grid edge exceeds 1e-4 of its
    grid maximum, since truncation ringing would then spoil the verdict.
    """
    de, tau, spectrum = _grid_spectrum(wf, _PW_E_MAX, _PW_N)
    edge = max(abs(wf(-_PW_E_MAX)), abs(wf(_PW_E_MAX - de)))
    peak = float(np.max(np.abs(wf(np.linspace(-_PW_E_MAX, _PW_E_MAX, 4097)[:-1]))))
    if peak == 0.0 or edge > _PW_EDGE * peak:
        raise ResolutionError(
            f"grid edge value {edge:.3e} exceeds {_PW_EDGE:g} of the peak {peak:.3e}; "
            f"the wave decays too slowly for the grid over [-{_PW_E_MAX:g}, {_PW_E_MAX:g})"
        )
    # |fhat|^2: the grid-offset phase of `fourier_grid` has modulus one
    power = de * de * np.abs(spectrum) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        raise ResolutionError("transform vanished on the grid")
    if wf.half_plane is HalfPlane.UPPER:
        forbidden = tau < 0.0
    else:
        forbidden = tau > 0.0
    return float(np.sum(power[forbidden]) / total)
