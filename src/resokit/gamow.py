"""Gamow kets: Breit-Wigner amplitudes with semigroup time evolution.

A Gamow ket attached to the resonance pole z = E_R - i Gamma/2 acts on
test functions through the full-line Breit-Wigner amplitude

    amp(E) = i sqrt(Gamma / 2 pi) / (E - z),

normalized so that integral |amp|^2 dE = 1 over the whole real line.
The overall phase is fixed to +i; expansion coefficients downstream
inherit this convention.

Evolution is a semigroup: the coefficient e^{-i z t} = e^{-i E_R t}
e^{-Gamma t / 2} exists for t >= 0 only, and negative times raise
ArrowOfTimeError.  The time-reversed partner (the growing ket) is only
ever represented as the conjugate mirror with domain t <= 0; it gets no
machinery of its own beyond `mirror_coefficient`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArrowOfTimeError,
    ConfigurationError,
    HardyClassError,
)
from .hardy import HalfPlane, HardyFunction
from .quadrature import complex_quad_full_line
from .surface import ResonancePole

__all__ = [
    "GamowKet",
    "pairing",
    "energy_weighted_pairing",
    "eigen_pairing_check",
    "norm_check",
]


@dataclass(frozen=True)
class GamowKet:
    pole: ResonancePole

    def __post_init__(self):
        if not isinstance(self.pole, ResonancePole):
            raise ConfigurationError("GamowKet needs a ResonancePole")

    @property
    def eigenvalue(self):
        """Complex energy E_R - i Gamma / 2."""
        return self.pole.position

    @property
    def amplitude_scale(self):
        """Constant numerator i sqrt(Gamma / 2 pi)."""
        return 1j * math.sqrt(self.pole.width / (2.0 * math.pi))

    def amplitude(self, energy):
        """Breit-Wigner amplitude at real or complex energy."""
        e_arr = np.asarray(energy, dtype=complex)
        out = self.amplitude_scale / (e_arr - self.eigenvalue)
        return out if out.shape else complex(out)

    def evolution_coefficient(self, t):
        """e^{-i z t} for t >= 0; the arrow of time forbids t < 0."""
        if not t >= 0.0:
            raise ArrowOfTimeError(f"Gamow evolution is a semigroup, got t = {t}")
        return complex(np.exp(-1j * self.eigenvalue * t))

    def mirror_coefficient(self, t):
        """Conjugate-mirror (growing) coefficient, domain t <= 0."""
        if not t <= 0.0:
            raise ArrowOfTimeError(
                f"the mirror ket evolves toward the past only, got t = {t}"
            )
        return complex(np.exp(-1j * np.conj(self.eigenvalue) * t))

    def survival_weight(self, t):
        """|evolution coefficient|^2 = e^{-Gamma t}."""
        return abs(self.evolution_coefficient(t)) ** 2


def _require_upper(psi):
    if not isinstance(psi, HardyFunction):
        raise ConfigurationError("pairing needs a HardyFunction")
    if psi.half_plane is not HalfPlane.UPPER:
        raise HardyClassError(
            "Gamow pairings are defined on UPPER-class (H2+) test functions"
        )


def pairing(psi, ket, method="cauchy"):
    """<psi | ket> = integral conj(psi(E)) amp(E) dE over the full line.

    method "cauchy" closes the contour around the resonance pole:
    the conjugated function is LOWER-analytic, so the only lower-half
    singularity is E = z and the integral is -2 pi i times its residue,
    i.e. -2 pi i * amplitude_scale * conj(psi(conj(z))).  method
    "quadrature" integrates numerically and exists as a cross-check.
    """
    _require_upper(psi)
    dag = psi.conjugated()
    if method == "cauchy":
        return -2j * np.pi * ket.amplitude_scale * dag(ket.eigenvalue)
    if method == "quadrature":
        value, _ = complex_quad_full_line(lambda e: dag(e) * ket.amplitude(e))
        return value
    raise ConfigurationError(f"unknown pairing method {method!r}")


def energy_weighted_pairing(psi, ket):
    """integral conj(psi(E)) E amp(E) dE.

    Absolutely convergent whenever psi decays at least like E^-2, and
    then computed by direct quadrature.  For decay order 1 the integrand
    falls like 1/E and only a principal value exists; the slow part is
    then removed analytically (E amp = scale + z amp splits off a
    constant) and the leftover moment is taken by contour closure.
    """
    _require_upper(psi)
    dag = psi.conjugated()
    if psi.decay_order >= 2:
        value, _ = complex_quad_full_line(
            lambda e: dag(e) * e * ket.amplitude(e)
        )
        return value
    # E amp(E) = scale + z amp(E) exactly; the constant part integrates
    # against psi-dagger to its principal-value line moment.
    regular, _ = complex_quad_full_line(
        lambda e: dag(e) * ket.eigenvalue * ket.amplitude(e)
    )
    return ket.amplitude_scale * dag.line_moment() + regular


def eigen_pairing_check(psi, ket):
    """Relative residual of the eigenvalue relation.

    Compares the energy-weighted pairing against eigenvalue * pairing
    and returns |difference| / |eigenvalue * pairing|.  Small (quadrature
    noise) for decay order >= 2; order-1 functions fail the relation by
    an O(1) moment term, which this check reports honestly.
    """
    base = pairing(psi, ket, method="cauchy")
    target = ket.eigenvalue * base
    weighted = energy_weighted_pairing(psi, ket)
    scale = max(abs(target), 1e-300)
    return float(abs(weighted - target) / scale)


def norm_check(ket):
    """Full-line integral of |amp|^2; exactly 1 in exact arithmetic."""
    value, _ = complex_quad_full_line(lambda e: abs(ket.amplitude(e)) ** 2)
    return float(value.real)
