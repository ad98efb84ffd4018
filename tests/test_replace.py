"""`dataclasses.replace` on every public frozen dataclass of resokit.

A replaced object is built by its constructor again, so it must accept
its own fields and recompute whatever it derives from them, also when a
field changes.  That a replaced `DecayConfig` is no longer normalized is
tested in tests/test_goldenrule.py.
"""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import resokit
from resokit import exact
from resokit.errors import ConfigurationError, PoleProximityError
from resokit.expansion import EffectiveMatrix, PreparedState, ResonanceExpansion, expand
from resokit.gamow import GamowKet
from resokit.goldenrule import (
    Channel,
    DecayConfig,
    Detector,
    FormFactor,
    normalize,
    total_width_check,
)
from resokit.hardy import HalfPlane, HardyFunction
from resokit.histories import History
from resokit.quadrature import LaplaceTable
from resokit.surface import BackgroundPhase, ResonancePole, SMatrixModel
from resokit.survival import SpectralDensity, survival_amplitude

POLE = ResonancePole(energy=1.0, width=0.2)
PSI = HardyFunction(terms=((1.0, 2.0 - 1.0j, 2),), half_plane=HalfPlane.UPPER)
STATE = PreparedState(HardyFunction(terms=((1.0, 1.5 + 0.8j, 2),), half_plane=HalfPlane.LOWER))
MODEL = SMatrixModel(poles=(POLE,), background=BackgroundPhase(((0.3, -1.0, 0.5),)))
# a pole-only model, which `exact` pairs in closed form
OTHER = SMatrixModel(poles=(ResonancePole(energy=1.6, width=0.35),))
CHANNEL = Channel(label="a", strength=1.0, form_factor=FormFactor(1.0))
RAW = DecayConfig(resonance=POLE, channels=(CHANNEL,), detector=Detector({"a": 0.5}))

# per class: an instance, and a value it derives from its fields, which
# its replaced copy must reproduce bit for bit
CASES = {
    "ResonancePole": (POLE, lambda p: p.momentum),
    "BackgroundPhase": (MODEL.background, lambda b: b.phase(0.5 - 0.1j)),
    "SMatrixModel": (MODEL, lambda m: np.array(m.singularities() + (m.eval(0.7 - 0.05j),))),
    "HardyFunction": (PSI, lambda h: h(0.3)),
    "PreparedState": (STATE, lambda s: s.wave(0.3)),
    "GamowKet": (GamowKet(POLE), lambda k: k.evolution_coefficient(1.0)),
    "SpectralDensity": (SpectralDensity(POLE, alpha=1, power=2),
                        lambda d: np.array([d.norm, survival_amplitude(d, 3.0)])),
    "ResonanceExpansion": (expand(PSI, STATE, MODEL), lambda e: e.reconstruct(1.0)),
    "EffectiveMatrix": (EffectiveMatrix((POLE.position,)), lambda m: m.as_matrix()),
    "PrincipalParts": (exact.principal_parts(PSI, STATE, SMatrixModel(poles=(POLE,))),
                       lambda p: np.array(p.pairing(1.0))),
    "LaplaceTable": (LaplaceTable(lambda x: 1.0 / (1.0 + x * x)),
                     lambda t: np.array(t(1.0))),
    "FormFactor": (FormFactor(1.0), lambda f: f(0.4)),
    "Channel": (CHANNEL, lambda c: c.form_factor(0.4)),
    "DecayConfig": (normalize(RAW), total_width_check),
    "History": (History(steps=((np.diag([1.0, 0.0]), 1.0), (np.diag([0.0, 1.0]), 2.0))),
                lambda h: np.array([p for p, _ in h.steps])),
}


def _public_frozen_dataclasses():
    names = set()
    for info in pkgutil.iter_modules(resokit.__path__):
        module = importlib.import_module(f"resokit.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__ and not name.startswith("_")
                    and obj.__dataclass_params__.frozen):
                names.add(name)
    return names


def test_every_public_frozen_dataclass_is_covered():
    assert _public_frozen_dataclasses() == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_replace_rebuilds_what_it_derives(name):
    obj, derived = CASES[name]
    copy = dataclasses.replace(obj)
    assert type(copy) is type(obj)
    np.testing.assert_array_equal(derived(copy), derived(obj))


def test_replaced_density_is_normalized_again():
    # norm is derived, so replace builds it for the new shape
    narrow = SpectralDensity(ResonancePole(1.0, 0.05))
    assert dataclasses.replace(narrow, alpha=0) == narrow
    changed = dataclasses.replace(CASES["SpectralDensity"][0], alpha=0)
    fresh = SpectralDensity(POLE, alpha=0, power=2)
    assert changed == fresh and changed.norm == fresh.norm
    assert survival_amplitude(changed, 3.0) == survival_amplitude(fresh, 3.0)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(narrow, norm=2.0)


def test_replaced_expansion_derives_its_coefficients_again():
    # the pole coefficients are residues of psi, state and model, so a
    # changed model gives the coefficients and table of a fresh expansion
    changed = dataclasses.replace(CASES["ResonanceExpansion"][0], model=OTHER)
    fresh = expand(PSI, STATE, OTHER)
    parts = exact.principal_parts(PSI, STATE, OTHER)
    assert changed.coefficients == fresh.coefficients
    for t in (0.0, 1.0, 5.0):
        assert changed.reconstruct(t) == fresh.reconstruct(t)
        closed = parts.pairing(t)
        assert abs(changed.reconstruct(t) - closed.value) <= 1e-13 * abs(closed.value)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(fresh, coefficients=changed.coefficients)


def test_expansion_checks_its_model_first():
    # refused by type before the waves are checked: PSI as the state is
    # of the wrong class too
    for model in ("x", None, MODEL.poles):
        with pytest.raises(ConfigurationError, match="needs an SMatrixModel"):
            ResonanceExpansion(model=model, psi=PSI, state=PSI)


def test_replaced_table_samples_the_new_integrand():
    changed = dataclasses.replace(CASES["LaplaceTable"][0], f=lambda x: np.exp(-x))
    fresh = LaplaceTable(lambda x: np.exp(-x))
    for t in (0.0, 1.0, 5.0):
        assert changed(t) == fresh(t)
        value, error = changed(t)
        assert abs(value - 1.0 / (1.0 + t)) <= error


def test_replaced_model_guards_its_new_poles():
    changed = dataclasses.replace(MODEL, poles=OTHER.poles)
    fresh = SMatrixModel(poles=OTHER.poles, background=MODEL.background)
    assert changed.singularities() == fresh.singularities()
    k = np.array([0.7 - 0.05j, 1.2 - 0.1j, 2.0 + 0.3j])
    np.testing.assert_array_equal(changed.eval(k), fresh.eval(k))
    with pytest.raises(PoleProximityError):
        changed.eval(OTHER.poles[0].momentum)
    old = MODEL.poles[0].momentum
    assert changed.eval(old) == fresh.eval(old)
