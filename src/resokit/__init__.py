"""resokit: numerical toolkit for resonances beyond the real spectrum.

Core pieces: the two-sheeted energy surface with Blaschke S-matrix
models (surface), rational Hardy-class wave functions with the
Paley-Wiener support test (hardy), Gamow kets with semigroup evolution
(gamow), the complex basis-vector expansion by contour deformation
(expansion), exact and Born golden rules (goldenrule), Khalfin
survival amplitudes (survival), the closed forms the expansion and the
survival amplitude are checked against (exact), projective history
probabilities (histories), and a deterministic scenario CLI
(scenarios, cli).
"""

from . import errors
from .errors import ResokitError
from .expansion import (
    EffectiveMatrix,
    PreparedState,
    ResonanceExpansion,
    background_profile,
    dirac_pairing,
    effective_matrix,
    expand,
    smatrix_pairing_direct,
    truncated_evolve,
)
from .gamow import GamowKet, eigen_pairing_check, energy_weighted_pairing, pairing
from .goldenrule import (
    Channel,
    DecayConfig,
    Detector,
    FormFactor,
    born_gap,
    born_rate,
    breit_wigner_density,
    bw_delta_limit_check,
    decay_probability,
    decay_rate,
    normalize,
    partial_rate,
    partial_width,
    registered_fraction,
    total_width_check,
)
from .hardy import HalfPlane, HardyFunction, paley_wiener_check
from .histories import (
    History,
    collapse_nonselective,
    collapse_selective,
    entropy,
    history_probability,
    unitary_evolve,
)
from .surface import (
    BackgroundPhase,
    ResonancePole,
    Sheet,
    SMatrixModel,
    energy_to_momentum,
    momentum_to_energy,
    unitarity_deviation,
)
from .survival import (
    SpectralDensity,
    deviation_onset,
    survival_amplitude,
    survival_probability,
    tail_exponent,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "ResokitError",
    "Sheet",
    "energy_to_momentum",
    "momentum_to_energy",
    "ResonancePole",
    "BackgroundPhase",
    "SMatrixModel",
    "unitarity_deviation",
    "HalfPlane",
    "HardyFunction",
    "paley_wiener_check",
    "GamowKet",
    "pairing",
    "energy_weighted_pairing",
    "eigen_pairing_check",
    "PreparedState",
    "ResonanceExpansion",
    "EffectiveMatrix",
    "dirac_pairing",
    "smatrix_pairing_direct",
    "expand",
    "background_profile",
    "effective_matrix",
    "truncated_evolve",
    "FormFactor",
    "Channel",
    "Detector",
    "DecayConfig",
    "breit_wigner_density",
    "normalize",
    "registered_fraction",
    "decay_probability",
    "decay_rate",
    "partial_rate",
    "partial_width",
    "total_width_check",
    "born_rate",
    "born_gap",
    "bw_delta_limit_check",
    "SpectralDensity",
    "survival_amplitude",
    "survival_probability",
    "deviation_onset",
    "tail_exponent",
    "History",
    "unitary_evolve",
    "collapse_nonselective",
    "collapse_selective",
    "entropy",
    "history_probability",
    "__version__",
]
