import json
from pathlib import Path

import numpy as np
import pytest

from resokit import exact
from resokit.errors import QuadratureError
from resokit.surface import ResonancePole
from resokit.survival import SpectralDensity

# 40-digit mpmath values written by tests/special_reference.py, which
# shares no code with resokit.exact
REFERENCE = json.loads(Path(__file__).with_name("special_reference.json").read_text())


def _table(key, arg):
    rows = REFERENCE[key]
    points = np.array([complex(*row[arg]) for row in rows])
    values = np.array([complex(float(row["value"][0]), float(row["value"][1])) for row in rows])
    return points, values


@pytest.mark.parametrize("key, arg, function", [("e1", "x", exact._e1_scaled),
                                                ("w", "z", exact._faddeeva)],
                         ids=["e1_scaled", "faddeeva"])
def test_bounds_cover_the_reference(key, arg, function):
    # seeded points over the sectors the pairing reaches and both sides
    # of every switch between sums; each point also alone, bit for bit
    points, reference = _table(key, arg)
    value, bound = function(points)
    gap = np.abs(value - reference)
    assert np.all(gap <= bound)
    assert np.all(bound <= 2e-13 * np.abs(reference))
    for i in range(points.size):
        alone = function(points[i:i + 1])
        assert (value[i], bound[i]) == (alone[0][0], alone[1][0])


def test_refused_outside_the_sectors():
    # an argument the references do not cover gets no value and no bound
    value, bound = exact._e1_scaled(np.array([-1.0 + 1e-3j, 3.0 * np.exp(0.8j * np.pi), 0.0,
                                              complex(np.inf, -np.inf), 2.0]))
    assert np.all(np.isnan(value[:4])) and np.all(bound[:4] == np.inf)
    assert np.isfinite(bound[4])
    value, bound = exact._faddeeva(np.array([2.0 + 0.1j, -2.0 + 0.1j, 1.0 - 1j, 1e200j,
                                             2.0j, 1e150j, 0.0]))
    assert np.all(np.isnan(value[:4])) and np.all(bound[:4] == np.inf)
    assert np.all(np.isfinite(bound[4:]))


@pytest.mark.parametrize("name, sector", [("_E1_SECTOR", 0.1),
                                          ("_W_SECTOR", (0.49 * np.pi, 0.51 * np.pi))])
def test_refusal_fails_the_pairing_gate(psi, state, model_two, monkeypatch, name, sector):
    # with a sector shrunk below what the pairing reaches, it refuses and
    # names the time
    parts = exact.principal_parts(psi, state, model_two)
    assert parts.pairing(5.0).error > 0.0
    monkeypatch.setattr(exact, name, sector)
    with pytest.raises(QuadratureError, match="at t = 5 leaves the sectors"):
        parts.pairing(np.array([0.0, 5.0]))


@pytest.mark.parametrize("row", REFERENCE["survival"], ids=lambda row: f"t{row['t']:g}")
def test_wide_double_pole_amplitude_certifies(row):
    # alpha = 2, power = 2 and Gamma = E_R: the flat 64 eps charge on each
    # e^x E1(x) once pushed the bound past 1e-9 of |A| at these times
    density = SpectralDensity(ResonancePole(row["energy"], row["width"]), row["alpha"],
                              row["power"])
    result = exact.survival_amplitude(density, row["t"])
    reference = complex(float(row["value"][0]), float(row["value"][1]))
    assert abs(result.value - reference) <= result.error <= 1e-9 * abs(result.value)
