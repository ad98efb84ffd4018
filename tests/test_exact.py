import json
from pathlib import Path

import numpy as np
import pytest

from resokit import exact, expansion, surface
from resokit.errors import (
    ArrowOfTimeError,
    ConfigurationError,
    HardyClassError,
    QuadratureError,
)
from resokit.expansion import PreparedState, expand
from resokit.hardy import HalfPlane, HardyFunction
from resokit.surface import BackgroundPhase, ResonancePole, SMatrixModel

# 60-digit mpmath values written by tests/exact_reference.py, which shares
# no code with resokit.exact
REFERENCE = json.loads(Path(__file__).with_name("exact_reference.json").read_text())
BUILTINS = [row for row in REFERENCE if not row["case"].startswith("sweep_")]
SWEEP = [row for row in REFERENCE if row["case"].startswith("sweep_")]


def _case(row):
    n = row["order"]
    psi = HardyFunction(terms=((1.0, complex(*row["dual"]), n),), half_plane=HalfPlane.UPPER)
    state = PreparedState(HardyFunction(terms=((1.0, complex(*row["state"]), n),),
                                        half_plane=HalfPlane.LOWER))
    model = SMatrixModel(poles=tuple(ResonancePole(e, w) for e, w in row["resonances"]))
    return psi, state, model, complex(float(row["value"][0]), float(row["value"][1]))


@pytest.mark.parametrize("row", BUILTINS, ids=lambda r: f"{r['case']}-t{r['t']:g}")
def test_builtins_match_mpmath(row):
    psi, state, model, ref = _case(row)
    res = exact.principal_parts(psi, state, model).pairing(row["t"])
    assert abs(res.value - ref) <= 1e-13 * abs(ref)
    assert abs(res.value - ref) <= res.error


@pytest.mark.parametrize("width", sorted({row["resonances"][0][1] for row in SWEEP}),
                         ids=lambda w: f"width{w:g}")
def test_sweep_raises_or_bounds_its_gap(width):
    # widths 0.2 to 1e-6, wave orders 1 and 2, 0 to 10 lifetimes, and a
    # state pole at conj(z) or 1e-7 from it: a result either raises or
    # reports a bound at least its gap to mpmath
    raised = []
    for row in (r for r in SWEEP if r["resonances"][0][1] == width):
        psi, state, model, ref = _case(row)
        try:
            res = exact.principal_parts(psi, state, model).pairing(row["t"])
        except QuadratureError:
            raised.append(row)
            continue
        assert abs(res.value - ref) <= res.error <= 1e-9 * abs(res.value), row
    # down to 1e-3 only the near-coincident pair of poles cancels past
    # the bound; the other layouts certify at every time
    if width >= 1e-3:
        assert all(row["case"] == "sweep_near_mirror" for row in raised)


def test_expansion_matches_to_fifty_lifetimes(psi, state, model_two):
    exp = expand(psi, state, model_two)
    parts = exact.principal_parts(psi, state, model_two)
    for t in np.linspace(0.0, 50.0 / 0.2, 26):
        res = parts.pairing(float(t))
        assert abs(exp.reconstruct(float(t)) - res.value) <= 1e-9 * abs(res.value)


@pytest.mark.parametrize("nudge", [0, 1], ids=["exact", "one_ulp"])
def test_orders_add_where_poles_coincide(psi, pole, nudge):
    # a state pole at conj(z) puts a wave pole on the mirror -conj(k) of
    # the S-matrix pole and the other root on the S-matrix zero conj(k);
    # roots one rounding apart are the same pole
    model = SMatrixModel(poles=(pole,))
    at = np.conj(pole.position)
    for _ in range(nudge):
        at = complex(at.real, np.nextafter(at.imag, 1.0))
    state = PreparedState(HardyFunction(terms=((1.0, at, 2),), half_plane=HalfPlane.LOWER))
    parts = exact.principal_parts(psi, state, model)
    orders = {complex(q): len(c) for q, c in zip(parts.poles, parts.coefficients)}
    k = complex(np.sqrt(complex(pole.position)))
    mirror = next(n for q, n in orders.items() if abs(q + k.conjugate()) < 1e-12)
    zero = next(n for q, n in orders.items() if abs(q - k.conjugate()) < 1e-12)
    assert (mirror, zero) == (3, 1)
    assert abs(sum(c[0] for c in parts.coefficients)) < 1e-12


def test_no_residue_code_shared_with_expand(psi, state, model_two, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the closed form called a residue routine")

    for module, name in ((expansion, "blaschke_residue"), (surface, "blaschke_residue"),
                         (expansion, "circle_residue")):
        monkeypatch.setattr(module, name, refused)
    monkeypatch.setattr("resokit.quadrature.quad", refused)
    res = exact.principal_parts(psi, state, model_two).pairing(15.0)
    assert abs(res.value) > 0.0


def test_background_phase_refused(psi, state, pole):
    model = SMatrixModel(poles=(pole,), background=BackgroundPhase(terms=((0.3, -0.8, 0.6),)))
    with pytest.raises(ConfigurationError, match="pole-only"):
        exact.principal_parts(psi, state, model)


def test_inputs_checked(psi, phi, state, model):
    with pytest.raises(ConfigurationError):
        exact.principal_parts(psi, state, "model")
    with pytest.raises(HardyClassError):
        exact.principal_parts(phi, state, model)
    parts = exact.principal_parts(psi, state, model)
    for t in (-1e-3, float("nan")):
        with pytest.raises(ArrowOfTimeError):
            parts.pairing(t)
    with pytest.raises(ConfigurationError):
        parts.pairing(float("inf"))


def test_cancellation_raises(psi, pole):
    # a state pole 1e-7 from conj(z): its root and the mirror pole nearly
    # coincide, and their coefficients cancel past 1e-9 of the value
    model = SMatrixModel(poles=(pole,))
    state = PreparedState(HardyFunction(terms=((1.0, np.conj(pole.position) + 1e-7, 2),),
                                        half_plane=HalfPlane.LOWER))
    with pytest.raises(QuadratureError, match="cancels past its bound"):
        exact.principal_parts(psi, state, model).pairing(5.0)


def test_e1_scaled_pointwise_in_mixed_arrays():
    # the power series and the continued fraction, summed to depths set by
    # each point's own argument from small |x| to past |x| = 50; each
    # point of a mixed array gets what it gets alone
    x = np.array([0.3 - 2.0j, -60.0j, 5.0 - 30.0j, 40.0 + 35.0j, -0.7j, 80.0 - 10.0j,
                  -49.9j, -50.0j])
    assert 0 < np.sum(np.abs(x) < 50.0) < x.size
    value, bound = exact._e1_scaled(x)
    for i in range(x.size):
        alone = exact._e1_scaled(x[i:i + 1])
        assert (value[i], bound[i]) == (alone[0][0], alone[1][0])
