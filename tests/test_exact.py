import json
from fractions import Fraction
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
PAIRINGS = [row for row in REFERENCE if "t" in row]
BUILTINS = [row for row in PAIRINGS if not row["case"].startswith("sweep_")]
SWEEP = [row for row in PAIRINGS if row["case"].startswith("sweep_")]
LAURENT = [row for row in REFERENCE if "poles" in row]


def _layout(row, state=None):
    n = row["order"]
    psi = HardyFunction(terms=((1.0, complex(*row["dual"]), n),), half_plane=HalfPlane.UPPER)
    state = PreparedState(HardyFunction(terms=((1.0, state or complex(*row["state"]), n),),
                                        half_plane=HalfPlane.LOWER))
    model = SMatrixModel(poles=tuple(ResonancePole(e, w) for e, w in row["resonances"]))
    return psi, state, model


def _case(row):
    return *_layout(row), complex(float(row["value"][0]), float(row["value"][1]))


def _exact(digits):
    return tuple(Fraction(d) for d in digits)


@pytest.mark.parametrize(
    "row, nudge",
    [(row, 0) for row in LAURENT] + [(row, 1) for row in LAURENT if "mirror" in row["case"]],
    ids=lambda v: v["case"] if isinstance(v, dict) else ["exact", "one_ulp"][v])
def test_coefficient_bounds_cover_mpmath(row, nudge):
    # every Laurent coefficient lies within its reported bound of the
    # 60-digit value, the gap taken exactly; a state pole one rounding
    # from conj(z) merges with the mirror pole and has the conj(z) row
    state = complex(*row["state"])
    for _ in range(nudge):
        state = complex(state.real, np.nextafter(state.imag, 1.0))
    parts = exact.principal_parts(*_layout(row, state)[:3])
    assert len(parts.poles) == len(row["poles"])
    for q, coefficients, errors in zip(parts.poles, parts.coefficients, parts.errors):
        ref = min(row["poles"], key=lambda p: abs(q - complex(*map(float, p["q"]))))
        assert abs(q - complex(*map(float, ref["q"]))) <= 1e-15 * abs(q)
        assert len(coefficients) == len(ref["coefficients"])
        for c, e, digits in zip(coefficients, errors, ref["coefficients"]):
            re, im = _exact(digits)
            gap2 = (Fraction(c.real) - re) ** 2 + (Fraction(c.imag) - im) ** 2
            assert gap2 <= Fraction(e) ** 2, (q, c, e)
            assert e <= 1e-13 * abs(c)


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


def test_wave_sums_are_linear(pole, wide_pole):
    # terms of different orders at the same pole and at two poles: the sum
    # path adds shifted series, and the pairing is linear in both waves
    model = SMatrixModel(poles=(pole, wide_pole))
    duals = [((1.0, 2.0 - 1.0j, 2),), ((0.5 - 0.3j, 2.0 - 1.0j, 1),), ((0.7j, 1.2 - 0.6j, 1),)]
    states = [((1.0, 1.5 + 0.8j, 2),), ((-0.4, 1.5 + 0.8j, 3),), ((0.9, 0.8 + 0.5j, 1),)]
    wave = lambda terms, plane: HardyFunction(terms=terms, half_plane=plane)
    for t in (0.0, 5.0, 15.0):
        whole = exact.principal_parts(wave(sum(duals, ()), HalfPlane.UPPER),
                                      PreparedState(wave(sum(states, ()), HalfPlane.LOWER)),
                                      model).pairing(t)
        parts = [exact.principal_parts(wave(d, HalfPlane.UPPER),
                                       PreparedState(wave(w, HalfPlane.LOWER)), model).pairing(t)
                 for d in duals for w in states]
        gap = abs(whole.value - sum(p.value for p in parts))
        assert gap <= whole.error + sum(p.error for p in parts)
        assert gap <= 1e-13 * abs(whole.value)


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
