"""Every public time argument passes the one time rule of `resokit.errors`.

A time is a real number: NaN or a negative time is an ArrowOfTimeError
(the guard is written `not t >= 0.0`, since a guard written `t < 0.0`
lets NaN through), and a bool, str, complex, None, an infinite time, or
an array where one number is due is a ConfigurationError.  No entry may
end in a bare TypeError or ValueError or warn on the way, and numpy's
float32 and int64 are times like any float.
"""

import math
import numbers
from types import SimpleNamespace

import numpy as np
import pytest

from resokit import exact
from resokit import expansion as xp
from resokit import goldenrule as gr
from resokit import histories as hi
from resokit import survival as sv
from resokit.errors import ArrowOfTimeError, ConfigurationError, WindowError
from resokit.gamow import GamowKet


@pytest.fixture(scope="module")
def ctx(pole, model, psi, state):
    channel = gr.Channel(label="main", strength=1.0, form_factor=gr.FormFactor(cutoff=1.0))
    config = gr.normalize(gr.DecayConfig(resonance=pole, channels=(channel,),
                                         detector=gr.Detector.ideal()))
    return SimpleNamespace(
        ket=GamowKet(pole),
        model=model,
        psi=psi,
        state=state,
        expansion=xp.expand(psi, state, model),
        parts=exact.principal_parts(psi, state, model),
        matrix=xp.effective_matrix(model),
        config=config,
        density=sv.SpectralDensity.truncated_lorentzian(pole),
        rho=np.diag([0.5, 0.5]).astype(complex),
        ham=np.diag([0.0, 1.0]).astype(complex),
        projector=np.diag([1.0, 0.0]).astype(complex),
    )


def _reversed(t):
    """The mirror's time for a forward time t: -t for a real number, and
    anything else as it is, for the mirror to refuse."""
    return -t if isinstance(t, numbers.Real) and not isinstance(t, bool) else t


FORWARD = {
    "evolution_coefficient": lambda ctx, t: ctx.ket.evolution_coefficient(t),
    "survival_weight": lambda ctx, t: ctx.ket.survival_weight(t),
    "mirror_coefficient": lambda ctx, t: ctx.ket.mirror_coefficient(_reversed(t)),
    "smatrix_pairing_direct": lambda ctx, t: xp.smatrix_pairing_direct(
        ctx.psi, ctx.state, ctx.model, t),
    "pole_sum": lambda ctx, t: ctx.expansion.pole_sum(t),
    "grid": lambda ctx, t: ctx.expansion.grid([t]),
    "background_with_error": lambda ctx, t: ctx.expansion.background_with_error(t),
    "reconstruct": lambda ctx, t: ctx.expansion.reconstruct(t),
    "background_profile": lambda ctx, t: xp.background_profile(ctx.expansion, [t]),
    "truncated_evolve": lambda ctx, t: xp.truncated_evolve(ctx.matrix, [1.0 + 0.0j], t),
    "principal_parts_pairing": lambda ctx, t: ctx.parts.pairing(t),
    "exact_survival_amplitude": lambda ctx, t: exact.survival_amplitude(ctx.density, t),
    "decay_probability": lambda ctx, t: gr.decay_probability(ctx.config, t),
    "decay_rate": lambda ctx, t: gr.decay_rate(ctx.config, t),
    "partial_rate": lambda ctx, t: gr.partial_rate(ctx.config, "main", t),
    "unitary_evolve": lambda ctx, t: hi.unitary_evolve(ctx.rho, ctx.ham, t),
    "heisenberg_projector": lambda ctx, t: hi.heisenberg_projector(ctx.projector, ctx.ham, t),
    "history_first_step": lambda ctx, t: hi.History(((ctx.projector, t),)),
    "history_later_step": lambda ctx, t: hi.History(((ctx.projector, 1.0), (ctx.projector, t))),
    "two_level_survival": lambda ctx, t: hi.two_level_survival(
        [1.0 + 0.0j], ctx.matrix, [1.0 + 0.0j], t),
    "survival_amplitude": lambda ctx, t: sv.survival_amplitude(ctx.density, t),
    "survival_probability": lambda ctx, t: sv.survival_probability(ctx.density, t),
    "exponential_law": lambda ctx, t: sv.exponential_law(ctx.density, t),
    "deviation_onset": lambda ctx, t: sv.deviation_onset(ctx.density, t_grid=[t]),
}
# entries that take a whole grid of times; every other one takes one number
GRIDS = {"pole_sum", "grid", "background_profile", "principal_parts_pairing",
         "deviation_onset"}

# (id, time, what it raises: None where it is accepted)
TIMES = [("nan", math.nan, ArrowOfTimeError), ("negative", -1.0, ArrowOfTimeError),
         ("str", "1", ConfigurationError), ("bool", True, ConfigurationError),
         ("complex", 1j, ConfigurationError), ("none", None, ConfigurationError),
         ("inf", math.inf, ConfigurationError), ("huge_int", 10**400, ConfigurationError),
         ("array", np.array([1.0, 2.0]), ConfigurationError),
         ("float32", np.float32(2.5), None), ("int64", np.int64(2), None)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "entry, t, failure",
    [pytest.param(entry, t, failure, id=f"{entry}-{name}")
     for entry in sorted(FORWARD) for name, t, failure in TIMES
     if not (name == "array" and entry in GRIDS)],  # there a grid of times
)
def test_forward_only_guard(ctx, entry, t, failure):
    if failure is not None:
        with pytest.raises(failure):
            FORWARD[entry](ctx, t)
        return
    try:
        FORWARD[entry](ctx, t)
    except WindowError:  # a one-point scan finds no onset, but took the time
        assert entry == "deviation_onset"


@pytest.mark.parametrize("bad", [math.nan, 1.0], ids=["nan", "positive"])
def test_mirror_guard(ctx, bad):
    with pytest.raises(ArrowOfTimeError):
        ctx.ket.mirror_coefficient(bad)


def test_refusals_name_the_time(ctx):
    with pytest.raises(ArrowOfTimeError, match="semigroup, got t = -2.0"):
        ctx.ket.evolution_coefficient(-2.0)
    with pytest.raises(ArrowOfTimeError, match="reversed clock, got t = -2.0"):
        ctx.ket.mirror_coefficient(2.0)
    with pytest.raises(ConfigurationError, match="real number, got '1'"):
        ctx.ket.mirror_coefficient("1")
    with pytest.raises(ConfigurationError, match="t = inf is not finite"):
        ctx.ket.mirror_coefficient(-math.inf)
