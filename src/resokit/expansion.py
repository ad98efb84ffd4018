"""Complex basis-vector expansion by contour deformation.

The S-matrix pairing on the physical spectrum,

    I(t) = integral_0^inf conj(psi(E)) S(E) e^{-i E t} phi(E) dE,

is deformed through the fourth quadrant of the momentum plane (E = k^2,
physical rim k > 0, exit ray k = -i u).  Each resonance pole crossed on
the way contributes a residue term b_i e^{-i z_i t}; what remains is the
background integral along the negative real axis of the second sheet,

    bg(t) = integral_0^inf g(u) e^{+i u^2 t} du,
    g(u) = conj(psi)(-u^2) S(-i u) phi(-u^2) (-2 u),

which decays slower than any exponential.  The deformation requires
t >= 0: on the ray the evolution factor e^{+i u^2 t} is bounded only
for forward times, which is how the semigroup arrow enters.

The background is evaluated on its steepest-descent line u = e^{i pi/4} s
(momentum k = e^{-i pi/4} s), where the oscillation e^{i u^2 t} becomes
the decay e^{-s^2 t}: one `quadrature.LaplaceTable` with rates s^2,
shared by all t >= 0, gated against 1e-12 of the larger of the
background and the pole sum at each t, and sampling the line integrand
only on the blocks of the rule that some time's gate reaches.

Pole coefficients are residues taken in closed form: S has simple
poles whose residues `blaschke_residue` gives exactly, and the wave
factors are analytic there, so b_i = -2 pi i 2 k_i conj(psi)(z_i)
phi(z_i) Res S(k_i) with z_i = k_i^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, HardyClassError, forward_time, forward_times
from .hardy import HalfPlane, HardyFunction
# unused here; resobench/tracer.py wraps the benchmark spans at these
# names, and its self-tests require every wrapped site to resolve
from .hardy import paley_wiener_check  # noqa: F401
from .quadrature import circle_residue, complex_quad  # noqa: F401
from .quadrature import LaplaceTable
from .quadrature import decaying_fourier_quad, oscillatory_quad
from .surface import SMatrixModel, blaschke_residue

__all__ = [
    "PreparedState",
    "PairingResult",
    "TruncationError",
    "dirac_pairing",
    "smatrix_pairing_direct",
    "expand",
    "ResonanceExpansion",
    "background_profile",
    "EffectiveMatrix",
    "effective_matrix",
    "truncated_evolve",
]


class PairingResult(NamedTuple):
    value: complex
    error: float


class TruncationError(NamedTuple):
    error: float
    relative: bool

    @classmethod
    def from_parts(cls, trunc, bg):
        """Weight of the background bg against the full value trunc + bg,
        for numbers or element-wise for arrays.

        Falls back to the absolute difference (relative=False) where the
        full value is numerically zero.
        """
        full = np.add(trunc, bg)
        diff = np.abs(full - trunc)
        size = np.abs(full)
        relative = size >= 1e-15 * np.maximum(np.abs(trunc), 1.0)
        error = diff / np.where(relative, size, 1.0)
        if np.ndim(error):
            return cls(error=error, relative=relative)
        return cls(error=float(error), relative=bool(relative))


@dataclass(frozen=True)
class PreparedState:
    """An in-state prepared before registration: a LOWER-class wave.

    For a rational wave the Hardy class is where its poles sit, and
    `HardyFunction` already refuses a pole on the wrong side, so a LOWER
    `HardyFunction` is exactly in H2-: by Paley-Wiener its Fourier
    transform vanishes on tau > 0 with no numerical test needed.
    """

    wave: HardyFunction

    def __post_init__(self):
        if not isinstance(self.wave, HardyFunction):
            raise ConfigurationError("PreparedState needs a HardyFunction")
        if self.wave.half_plane is not HalfPlane.LOWER:
            raise HardyClassError(
                "prepared states live in the LOWER Hardy class (H2-)"
            )


def _as_wave(state):
    return state.wave if isinstance(state, PreparedState) else state


def _require_pair(psi, state):
    if not isinstance(psi, HardyFunction) or psi.half_plane is not HalfPlane.UPPER:
        raise HardyClassError("the registration-side function must be UPPER class")
    wave = _as_wave(state)
    if not isinstance(wave, HardyFunction) or wave.half_plane is not HalfPlane.LOWER:
        raise HardyClassError("the prepared state must be LOWER class")
    return psi.conjugated(), wave


def dirac_pairing(psi, state):
    """<psi|state> over the physical spectrum [0, inf): the t = 0 closed
    form of `exact` with S = 1, which raises QuadratureError where its
    rounding bound passes 1e-9 of the value."""
    from . import exact  # exact builds on this module
    dag, wave = _require_pair(psi, state)
    return exact._parts(dag, wave, [], []).pairing(0.0).value


def smatrix_pairing_direct(psi, state, model, t):
    """The evolved S-matrix pairing, integrated on the physical spectrum.

    QUADPACK integrates to infinity with nothing cut: QAGI at t = 0,
    where the integrand is rational, and the Fourier algorithm QAWF at
    t > 0.  No scenario calls it, and it is no reference for `expand`:
    `exact.principal_parts` pairs pole-only models in closed form, and
    the tests hold background-phase models to frozen mpmath values.
    Neither QUADPACK path resolves narrow lines: at Gamma = 1e-2 both
    are off by up to 3e-8 relative, and at Gamma <= 1e-3 QAWF can miss
    the line entirely (off by 0.92 relative at 3 lifetimes of the
    built-in waves and a background phase, while it reports 3.3e-5).
    """
    if not isinstance(model, SMatrixModel):
        raise ConfigurationError("smatrix_pairing_direct needs an SMatrixModel")
    t = forward_time(t, "the pairing evolves forward only")
    dag, wave = _require_pair(psi, state)

    def f(e):
        return dag(e) * model.on_spectrum(e) * wave(e)

    if t == 0.0:
        return PairingResult(*oscillatory_quad(f, np.inf, 0.0))
    return PairingResult(*decaying_fourier_quad(f, t))


_FORWARD = "expansion terms evolve forward only"
# u = e^{i pi/4} s turns e^{i u^2 t} into e^{-s^2 t}
_LINE = np.exp(0.25j * np.pi)


@dataclass(frozen=True, eq=False)
class ResonanceExpansion:
    """Pole coefficients plus a background table: bg(t) = sum_j w_j v(s_j)
    e^{-s_j^2 t} of the line integrand v, built from psi, state and model,
    over the Laplace rule's nodes s_j and weights w_j."""

    model: SMatrixModel
    psi: HardyFunction
    state: PreparedState
    coefficients: tuple

    def __post_init__(self):
        dag, wave = _require_pair(self.psi, self.state)
        model = self.model

        def line(s):
            # e^{i pi/4} g(e^{i pi/4} s): the ray integrand times du/ds
            u = _LINE * s
            e = -(u * u)
            return _LINE * dag(e) * model.eval(-1j * u) * wave(e) * (-2.0 * u)

        object.__setattr__(self, "_table", LaplaceTable(line, power=2))
        # -i z_i per pole, so the pole terms are e^{t (-i z_i)} b_i
        object.__setattr__(self, "_rates", -1j * np.array(self.eigenvalues, dtype=complex))
        object.__setattr__(self, "_coefficients", np.array(self.coefficients, dtype=complex))

    @property
    def eigenvalues(self):
        return tuple(p.position for p in self.model.poles)

    def pole_sum(self, t):
        """Sum of resonance terms b_i e^{-i z_i t} at a time t >= 0, or at
        each t of a 1-D array of them."""
        ts = forward_times(t, _FORWARD)
        sums = self._pole_sums(ts)
        return sums if ts.ndim else complex(sums)

    def _pole_sums(self, ts):
        """`pole_sum` of times already checked."""
        with np.errstate(over="ignore", invalid="ignore"):
            # a sum along the last axis adds in the same order for a float
            # and for a grid, so both give the same bits
            sums = np.sum(np.exp(np.multiply.outer(ts, self._rates)) * self._coefficients,
                          axis=-1)
        finite = np.isfinite(sums)
        if not finite.all():  # E_i t past the double range leaves the phase undefined
            bad = np.ravel(ts)[np.argmin(finite)]
            raise DomainError(f"pole phase overflows the double range at t = {bad:g}")
        return sums

    def grid(self, times):
        """(pole sums, backgrounds, background errors) at each t of a 1-D
        array: `reconstruct`'s parts on one Laplace product per chunk of
        times, with each pole sum computed once and gated on as the floor."""
        ts = forward_times(times, _FORWARD)
        if ts.ndim != 1:
            raise ConfigurationError(f"need a one-dimensional time grid, got {times!r}")
        poles = self._pole_sums(ts)
        return (poles, *self._table.grid(ts, floors=np.abs(poles)))

    def background_with_error(self, t):
        """Background integral at time t and its error, from the Laplace table
        gated against the larger of it and the pole sum."""
        return self._parts(forward_time(t, _FORWARD))[1:]

    def _parts(self, t):
        """(pole sum, background, background error) at a time already checked."""
        pole = complex(self._pole_sums(t))
        return (pole, *self._table(t, floor=abs(pole)))

    def background(self, t):
        return self.background_with_error(t)[0]

    def reconstruct(self, t):
        """Pole sum plus background: the deformed pairing at time t."""
        pole, background, _ = self._parts(forward_time(t, _FORWARD))
        return pole + background

    def truncation_error(self, t):
        """Relative weight of the background against the full pairing.

        Falls back to the absolute difference (relative=False) when the
        full value is numerically zero.
        """
        pole, background, _ = self._parts(forward_time(t, _FORWARD))
        return TruncationError.from_parts(pole, background)


def expand(psi, state, model):
    """Deform the evolved pairing into pole terms plus a background table.

    Each pole coefficient is -2 pi i times the residue of the momentum
    integrand 2k conj(psi)(k^2) S(k) phi(k^2) at the pole k_i, in closed
    form from `blaschke_residue`.  The background table samples the
    integrand on the steepest-descent line k = e^{-i pi/4} s at nodes of
    the Laplace rule, the same for every model and horizon.  Rotating
    the exit ray k = -i u onto that line sweeps the momentum sector
    arg k in (-pi/2, -pi/4), which holds no singularity of the
    integrand: `ResonancePole` requires width < 2 energy, so every
    resonance pole has arg k > -pi/8; `BackgroundPhase` poles have
    negative real part; and both wave factors are LOWER class (the
    state by `_require_pair`, the dual as the conjugate of an UPPER
    function), so every wave pole p has Im p > 0 and its momentum
    images +-sqrt(p) lie in the open first and third quadrants, never in
    the closed fourth.  On the arc at infinity the integrand decays
    algebraically and e^{i u^2 t} is bounded for t >= 0, so the rotation
    leaves bg(t) unchanged.

    Parameters
    ----------
    psi, state : HardyFunction (UPPER), PreparedState
        Registration-side and preparation-side functions.
    model : SMatrixModel
    """
    if not isinstance(model, SMatrixModel):
        raise ConfigurationError("expand needs an SMatrixModel")
    dag, wave = _require_pair(psi, state)

    coeffs = tuple(
        complex(-2j * np.pi * 2.0 * pole.momentum * dag(pole.position)
                * wave(pole.position) * blaschke_residue(model, i))
        for i, pole in enumerate(model.poles)
    )
    return ResonanceExpansion(model=model, psi=psi, state=state, coefficients=coeffs)


def background_profile(expansion, times):
    """|background| sampled on a nonempty, strictly increasing time grid,
    checked by the time rule and for its order before anything is
    evaluated."""
    ts = forward_times(times, _FORWARD)
    if ts.ndim != 1 or ts.size == 0 or np.any(np.diff(ts) <= 0.0):
        raise ConfigurationError("need a nonempty, strictly increasing time grid")
    return ts, np.abs(expansion.grid(ts)[1])


@dataclass(frozen=True)
class EffectiveMatrix:
    """Diagonal complex-energy matrix of the truncated expansion."""

    eigenvalues: tuple

    def __post_init__(self):
        if not self.eigenvalues:
            raise ConfigurationError("an effective matrix needs at least one level")
        object.__setattr__(self, "eigenvalues", tuple(complex(z) for z in self.eigenvalues))
        for z in self.eigenvalues:
            if z.imag >= 0.0:
                raise ConfigurationError(
                    f"effective eigenvalues must decay (Im z < 0), got {z}"
                )

    @property
    def size(self):
        return len(self.eigenvalues)

    def as_matrix(self):
        return np.diag(np.array(self.eigenvalues, dtype=complex))


def effective_matrix(model):
    """Truncate the expansion of a model to its finite pole sector."""
    if not isinstance(model, SMatrixModel):
        raise ConfigurationError("effective_matrix needs an SMatrixModel")
    return EffectiveMatrix(eigenvalues=tuple(p.position for p in model.poles))


def truncated_evolve(matrix, coefficients, t):
    """Evolve component coefficients under the diagonal effective matrix.

    Exactly-zero components stay exactly zero: the evolution is
    componentwise multiplication and never mixes levels, so a truncated
    theory cannot regenerate a decayed component.
    """
    if not isinstance(matrix, EffectiveMatrix):
        raise ConfigurationError("truncated_evolve needs an EffectiveMatrix")
    t = forward_time(t, "truncated evolution is forward only")
    coeff = np.asarray(coefficients, dtype=complex)
    if coeff.shape != (matrix.size,):
        raise ConfigurationError(
            f"coefficient vector must have length {matrix.size}, got {coeff.shape}"
        )
    return coeff * np.exp(-1j * np.array(matrix.eigenvalues) * t)
