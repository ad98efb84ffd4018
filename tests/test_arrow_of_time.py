"""Every forward-only guard refuses a NaN time as well as a wrong-signed one.

A guard written `t < 0.0` lets NaN through, since every comparison with
NaN is False; the guards are written `not t >= 0.0` so that only times
that are known to lie on the allowed side pass.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from resokit import expansion as xp
from resokit import goldenrule as gr
from resokit import histories as hi
from resokit import survival as sv
from resokit.errors import ArrowOfTimeError
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
        matrix=xp.effective_matrix(model),
        config=config,
        density=sv.SpectralDensity.truncated_lorentzian(pole),
        rho=np.diag([0.5, 0.5]).astype(complex),
        ham=np.diag([0.0, 1.0]).astype(complex),
        projector=np.diag([1.0, 0.0]).astype(complex),
    )


FORWARD = {
    "evolution_coefficient": lambda ctx, t: ctx.ket.evolution_coefficient(t),
    "survival_weight": lambda ctx, t: ctx.ket.survival_weight(t),
    "smatrix_pairing_direct": lambda ctx, t: xp.smatrix_pairing_direct(
        ctx.psi, ctx.state, ctx.model, t),
    "pole_sum": lambda ctx, t: ctx.expansion.pole_sum(t),
    "background_with_error": lambda ctx, t: ctx.expansion.background_with_error(t),
    "background_profile": lambda ctx, t: xp.background_profile(ctx.expansion, [t]),
    "truncated_evolve": lambda ctx, t: xp.truncated_evolve(ctx.matrix, [1.0 + 0.0j], t),
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
    "exponential_law": lambda ctx, t: sv.exponential_law(ctx.density, t),
    "deviation_onset": lambda ctx, t: sv.deviation_onset(ctx.density, t_grid=[t, 1.0]),
}


@pytest.mark.parametrize("bad", [math.nan, -1.0], ids=["nan", "negative"])
@pytest.mark.parametrize("entry", sorted(FORWARD))
def test_forward_only_guard(ctx, entry, bad):
    with pytest.raises(ArrowOfTimeError):
        FORWARD[entry](ctx, bad)


@pytest.mark.parametrize("bad", [math.nan, 1.0], ids=["nan", "positive"])
def test_mirror_guard(ctx, bad):
    with pytest.raises(ArrowOfTimeError):
        ctx.ket.mirror_coefficient(bad)
