"""Two-sheeted energy surface and unitary S-matrix models.

Conventions
-----------
The scattering energy surface for a semibounded Hamiltonian is the
two-sheeted Riemann surface of sqrt(E), uniformized by the momentum
plane through E = k^2.  The upper half k-plane is the physical sheet
(sheet I), the lower half is the second sheet (sheet II).  The physical
spectrum [0, inf) corresponds to the positive real k-axis; the ray used
by contour deformation, the negative real axis of sheet II, corresponds
to the negative imaginary k-axis (k = -iu, E = -u^2).

S-matrix models are finite Blaschke products in k,

    S(k) = prod_i (k + k_i)(k - conj(k_i)) / ((k - k_i)(k + conj(k_i)))
           * exp(2 i delta(k)),

with resonance poles k_i in the fourth quadrant and an optional rational
background phase delta.  |S| = 1 on the real axis by construction.  For
pure pole models S(-k) = 1/S(k) and S(-conj(k)) = conj(S(k)) hold at
every k where both sides exist.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchPointError,
    ConfigurationError,
    GeometryError,
    PoleProximityError,
)

__all__ = [
    "Sheet",
    "energy_to_momentum",
    "momentum_to_energy",
    "ResonancePole",
    "BackgroundPhase",
    "SMatrixModel",
    "blaschke_residue",
    "unitarity_deviation",
]


class Sheet(enum.Enum):
    """Riemann sheet labels: I is physical, II is the resonance sheet."""

    I = "I"
    II = "II"


def energy_to_momentum(energy, sheet):
    """Map a point of the energy surface to the momentum plane.

    The branch cut sits on the physical spectrum [0, inf).  With
    theta = arg(E) taken in [0, 2 pi), sheet I maps to
    sqrt(|E|) e^{i theta/2} (upper half plane including the positive
    real boundary) and sheet II to its negative.  The root is
    `cmath.sqrt(E)`, negated where it falls in the lower half plane, so
    both parts of k keep their relative accuracy, Im k of a narrow pole
    included; E = -a - 0i still maps to +i sqrt(a) on sheet I.
    """
    energy = complex(energy)
    if energy == 0:
        raise BranchPointError("E = 0 is the branch point; no momentum image")
    if not isinstance(sheet, Sheet):
        raise ConfigurationError(f"sheet must be a Sheet member, got {sheet!r}")
    k = cmath.sqrt(energy)
    if k.imag < 0.0:
        k = -k
    return k if sheet is Sheet.I else -k


def momentum_to_energy(k):
    """Inverse of `energy_to_momentum`: returns (energy, sheet).

    Real k (the boundary between the half planes) is assigned to the
    physical sheet, matching the limit from above the cut.
    """
    k = complex(k)
    if k == 0:
        raise BranchPointError("k = 0 is the branch point image")
    sheet = Sheet.I if k.imag > 0 or (k.imag == 0 and k.real > 0) else Sheet.II
    return k * k, sheet


@dataclass(frozen=True)
class ResonancePole:
    """A resonance with real energy > 0 and width > 0.

    position is the second-sheet energy E - i width/2; momentum is its
    image in the lower half k-plane (fourth quadrant for narrow poles).
    """

    energy: float
    width: float

    def __post_init__(self):
        if not (self.energy > 0.0 and np.isfinite(self.energy)):
            raise ConfigurationError(f"resonance energy must be > 0, got {self.energy}")
        # width / 2 > 0: half the smallest subnormal would put the pole on the axis
        if not (0.5 * self.width > 0.0 and np.isfinite(self.width)):
            raise ConfigurationError(f"resonance width / 2 must be > 0, got {self.width}")
        if self.width >= 2.0 * self.energy:
            raise ConfigurationError(
                "width/2 must stay below the resonance energy so the pole "
                "remains on the fourth-quadrant part of sheet II"
            )

    @property
    def position(self):
        """Second-sheet pole position E - i width / 2."""
        return self.energy - 0.5j * self.width

    @property
    def momentum(self):
        """Pole position in the momentum plane (fourth quadrant)."""
        return energy_to_momentum(self.position, Sheet.II)

    @property
    def lifetime(self):
        return 1.0 / self.width


@dataclass(frozen=True)
class BackgroundPhase:
    """Rational background phase, real on the real axis.

    delta(k) = sum_j c_j * 2 (k - a_j) / ((k - a_j)^2 + b_j^2)

    with poles at a_j +/- i b_j.  Deformation-safe models need every
    a_j < 0 so the fourth quadrant of the momentum plane and the
    negative imaginary ray stay free of background singularities; the
    constructor enforces this.
    """

    terms: tuple = ()

    def __post_init__(self):
        cleaned = []
        for term in self.terms:
            c, a, b = (float(x) for x in term)
            if not b > 0.0:
                raise ConfigurationError("background pole half-width must be > 0")
            if not a < 0.0:
                raise GeometryError(
                    "background poles must sit at negative real part (a < 0) "
                    "to keep the deformation quadrant clean"
                )
            cleaned.append((c, a, b))
        object.__setattr__(self, "terms", tuple(cleaned))

    def phase(self, k):
        k = np.asarray(k, dtype=complex)
        out = np.zeros_like(k)
        for c, a, b in self.terms:
            out = out + c * 2.0 * (k - a) / ((k - a) ** 2 + b * b)
        return out if out.shape else complex(out)

    def pole_positions(self):
        """All poles of delta in the momentum plane."""
        pts = []
        for _, a, b in self.terms:
            pts.extend([a + 1j * b, a - 1j * b])
        return tuple(pts)


# S refuses momenta within this distance of a pole, relative to the
# pole's scale max(|s|, 1)
_PROXIMITY = 1e-12


@dataclass(frozen=True)
class SMatrixModel:
    """Finite Blaschke product with an optional background phase.

    Construction also stores, outside the dataclass fields, the pole
    momenta with their conjugates and one (singularity, rejection radius)
    pair per singularity, so evaluations do not recompute them.
    """

    poles: tuple
    background: BackgroundPhase | None = None

    def __post_init__(self):
        if not self.poles:
            raise ConfigurationError("an S-matrix model needs at least one pole")
        poles = tuple(self.poles)
        for p in poles:
            if not isinstance(p, ResonancePole):
                raise ConfigurationError("poles must be ResonancePole instances")
        ks = [p.momentum for p in poles]
        for i in range(len(ks)):
            for j in range(i + 1, len(ks)):
                if abs(ks[i] - ks[j]) < 1e-9 * max(abs(ks[i]), abs(ks[j])):
                    raise ConfigurationError("coincident resonance poles")
        object.__setattr__(self, "poles", poles)
        factors = tuple((complex(k), complex(k).conjugate()) for k in ks)
        sing = [s for k, kc in factors for s in (k, -kc)]
        if self.background is not None:
            sing.extend(self.background.pole_positions())
        object.__setattr__(self, "_factors", factors)
        object.__setattr__(
            self, "_guards",
            tuple((s, _PROXIMITY * max(abs(s), 1.0)) for s in sing),
        )

    def singularities(self):
        """Momentum-plane poles of S: resonance poles, their mirror
        images -conj(k_i), and any background-phase poles."""
        return tuple(s for s, _ in self._guards)

    def eval(self, k):
        """S(k), elementwise for an array k and a Python complex for a
        scalar; rejects points at pole distance below `_PROXIMITY`
        relative to the pole scale."""
        k_arr = np.asarray(k, dtype=complex)
        for s, radius in self._guards:
            # |k - s| < radius needs |Re k - Re s| < radius, which is cheaper
            d = np.abs(k_arr[np.abs(k_arr.real - s.real) < radius] - s)
            if np.any(d < radius):
                raise PoleProximityError(
                    f"evaluation within {_PROXIMITY:g} of pole {s}",
                    pole=s,
                    distance=float(np.min(d)),
                )
        out = np.ones_like(k_arr)
        for kp, kc in self._factors:
            out = out * (k_arr + kp) * (k_arr - kc)
            out = out / ((k_arr - kp) * (k_arr + kc))
        if self.background is not None:
            out = out * np.exp(2j * self.background.phase(k_arr))
        return out if out.shape else complex(out)

    def eval_energy(self, energy, sheet):
        return self.eval(energy_to_momentum(energy, sheet))

    def on_spectrum(self, energy):
        """S on the physical spectrum (real energy >= 0, sheet I rim).

        The threshold E = 0 itself is regular for Blaschke models (every
        factor evaluates to 1 there), so it is allowed even though the
        surface map is singular at the branch point.
        """
        energy = np.asarray(energy, dtype=float)
        if np.any(energy < 0.0):
            raise BranchPointError("physical spectrum evaluation needs E >= 0")
        return self.eval(np.sqrt(energy))


def blaschke_residue(model, index):
    """Residue of S at the resonance pole `index`, in closed form.

    For the single factor the residue at k_i is
    2 k_i (k_i - conj(k_i)) / (k_i + conj(k_i)); remaining factors and
    the background phase multiply in evaluated at k_i.
    """
    poles = model.poles
    ki = poles[index].momentum
    res = 2.0 * ki * (ki - np.conj(ki)) / (ki + np.conj(ki))
    for j, p in enumerate(poles):
        if j == index:
            continue
        kj = p.momentum
        res *= (ki + kj) * (ki - np.conj(kj)) / ((ki - kj) * (ki + np.conj(kj)))
    if model.background is not None:
        res *= np.exp(2j * model.background.phase(ki))
    return res


def unitarity_deviation(model, k_values):
    """max | |S(k)| - 1 | over real momenta k_values."""
    k = np.asarray(k_values, dtype=float)
    return float(np.max(np.abs(np.abs(model.eval(k)) - 1.0)))
