"""Grid evaluations against their scalar forms.

`LaplaceTable.grid`, `ResonanceExpansion.pole_sum` and `grid` and
`PrincipalParts.pairing` take a whole 1-D array of times at once.  Over a
sweep of times each must agree with the one-t-at-a-time evaluation and
refuse the same t with the same error class.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from resokit import exact
from resokit import expansion as xp
from resokit.cli import main
from resokit.errors import (
    ArrowOfTimeError,
    ConfigurationError,
    DomainError,
    QuadratureError,
)
from resokit.quadrature import LAPLACE_RULE, LAPLACE_TOL, LaplaceTable

# 0, then a geometric sweep past the 256-time chunk of the grid
SWEEP = np.r_[0.0, np.geomspace(1e-3, 1e6, 700)]
# The grid sums each stride by a matrix product and the scalar form by a
# matrix-vector product.  BLAS adds the terms in another order in each, so
# the two agree to a few units in the last place, not bit for bit: 1.13e-15
# of the value at most on these sweeps.
SUM_ORDER = 2e-15
# 60-digit values written by tests/exact_reference.py
EXACT_REFERENCE = json.loads(Path(__file__).with_name("exact_reference.json").read_text())


@pytest.fixture(scope="module")
def exp_two(psi, state, model_two):
    return xp.expand(psi, state, model_two)


@pytest.fixture(scope="module")
def parts_two(psi, state, model_two):
    return exact.principal_parts(psi, state, model_two)


def _exponential_table():
    """The table of f = e^{-x} with rates x: F(t) = 1 / (1 + t)."""
    return LaplaceTable(lambda x: np.exp(-x))


class TestLaplaceGrid:
    def test_exponential_sweep(self):
        table = _exponential_table()
        values, errors = table.grid(SWEEP)
        scalar = np.array([table(t) for t in SWEEP])
        assert values.dtype == float and values.shape == errors.shape == SWEEP.shape
        assert np.all(np.abs(values - scalar[:, 0]) <= SUM_ORDER * scalar[:, 0])
        assert np.all(np.abs(values - 1.0 / (1.0 + SWEEP)) <= LAPLACE_TOL * values)
        assert np.all(errors <= LAPLACE_TOL * values)

    def test_background_sweep_with_floors(self, exp_two):
        # the expansion's table: complex values, power 2, floored by the
        # pole sum as `background_with_error` floors them
        ts = np.linspace(0.0, 60.0, 301)
        floors = np.abs(exp_two.pole_sum(ts))
        values, errors = exp_two._table.grid(ts, floors)
        for t, floor, value, error in zip(ts, floors, values, errors):
            ref, _ = exp_two._table(t, floor)
            assert abs(value - ref) <= SUM_ORDER * abs(ref)
            assert error <= LAPLACE_TOL * max(floor, abs(value))

    def test_empty_grid(self):
        values, errors = _exponential_table().grid([])
        assert values.shape == errors.shape == (0,)

    @pytest.mark.parametrize(
        "times, failure, at",
        [([1.0, 1e30, 2.0], QuadratureError, "1e+30"),
         ([1.0, 1e300, 1e30], DomainError, "1e+300"),
         ([1.0, 1e30, 1e300], QuadratureError, "1e+30"),
         (list(np.linspace(0.0, 1e3, 400)) + [1e300], DomainError, "1e+300")],
        ids=["clipped_mass", "overflow_first", "clipped_first", "overflow_in_second_chunk"],
    )
    def test_refuses_the_first_unresolved_time(self, times, failure, at):
        # F(t) ~ 1 / t puts its mass below the first node past t ~ 1e23;
        # past r_N t = 6e34 t the refusal is a DomainError
        table = _exponential_table()
        with pytest.raises(failure, match=re.escape(f"at t = {at}:")) as grid:
            table.grid(np.array(times))
        with pytest.raises(failure) as scalar:
            for t in times:
                table(t)
        assert type(grid.value) is type(scalar.value)
        assert f"at t = {at}:" in str(scalar.value)

    def test_stride_gate_fires(self):
        # a sign that flips from node to node, zero at both ends: every
        # stride disagrees with the one before while no mass is clipped
        nodes, weights = LAPLACE_RULE
        values = (-1.0) ** np.arange(nodes.size) / weights
        values[[0, -1]] = 0.0
        table = LaplaceTable(lambda x: values[np.searchsorted(nodes, x)])
        with pytest.raises(QuadratureError, match="unresolved at t = 0:"):
            table.grid(np.zeros(3))
        with pytest.raises(QuadratureError, match="unresolved at t = 0:"):
            table(0.0)

    def test_refuses_a_matrix_of_times(self):
        with pytest.raises(ConfigurationError):
            _exponential_table().grid(np.ones((2, 2)))


class TestPoleSum:
    def test_array_matches_scalar(self, exp_two):
        ts = np.linspace(0.0, 200.0, 401)
        sums = exp_two.pole_sum(ts)
        assert sums.shape == ts.shape
        # both forms add the terms in the same order
        assert np.array_equal(sums, [exp_two.pole_sum(t) for t in ts])
        assert isinstance(exp_two.pole_sum(1.0), complex)

    def test_refusals_name_the_first_bad_time(self, exp_two):
        with pytest.raises(ArrowOfTimeError, match="t = -2.0"):
            exp_two.pole_sum(np.array([1.0, -2.0, -3.0]))
        with pytest.raises(ArrowOfTimeError):
            exp_two.pole_sum(np.array([1.0, np.nan]))
        # E t past the double range leaves the phase undefined
        with pytest.raises(DomainError, match="overflows the double range at t = 1.5e\\+308"):
            exp_two.pole_sum(np.array([1.0, 1.5e308, 1.7e308]))
        with pytest.raises(DomainError):
            exp_two.pole_sum(1.5e308)

    @pytest.mark.parametrize("t", ["1.0", np.ones((2, 2)), 1j, [[1.0], [1.0, 2.0]]],
                             ids=["str", "matrix", "complex", "ragged"])
    def test_refuses_what_is_not_a_time(self, exp_two, t):
        with pytest.raises(ConfigurationError):
            exp_two.pole_sum(t)


class TestExpansionGrid:
    def test_parts_match_reconstruct(self, exp_two):
        ts = np.linspace(0.0, 40.0, 81)
        poles, backgrounds, errors = exp_two.grid(ts)
        for t, pole, bg, error in zip(ts, poles, backgrounds, errors):
            assert pole == exp_two.pole_sum(t)
            ref = exp_two.background(t)
            assert abs(bg - ref) <= SUM_ORDER * abs(ref)
            full = exp_two.reconstruct(t)
            assert abs(pole + bg - full) <= SUM_ORDER * abs(full)
            assert error <= LAPLACE_TOL * max(abs(pole), abs(bg))

    def test_background_profile_reads_the_grid(self, exp_two):
        ts, mags = xp.background_profile(exp_two, [1.0, 2.0, 5.0])
        assert np.array_equal(mags, np.abs(exp_two.grid(ts)[1]))

    def test_truncation_error_elementwise(self, exp_two):
        ts = np.linspace(0.0, 30.0, 61)
        poles, backgrounds, _ = exp_two.grid(ts)
        trunc = xp.TruncationError.from_parts(poles, backgrounds)
        for i, t in enumerate(ts):
            one = xp.TruncationError.from_parts(poles[i], backgrounds[i])
            assert (trunc.error[i], trunc.relative[i]) == (one.error, one.relative)
        # where the full value is zero the weight falls back to absolute
        zero = xp.TruncationError.from_parts(np.array([1.0, 1.0]), np.array([-1.0, 1.0]))
        assert zero.relative.tolist() == [False, True]
        assert zero.error.tolist() == [1.0, 0.5]


class TestPairingGrid:
    @pytest.mark.parametrize("wave", ["psi", "psi_order1"])
    def test_mixed_grid_matches_per_time(self, request, state, model_two, wave):
        # t = 0 takes the elementary integrals, t > 0 the ray; one grid
        # mixes both, in no order
        parts = exact.principal_parts(request.getfixturevalue(wave), state, model_two)
        ts = np.array([0.0, 0.5, 0.0, 3.0, 1e-3, 30.0, 10.0, 0.0])
        grid = parts.pairing(ts)
        assert grid.value.shape == grid.error.shape == ts.shape
        for t, value, error in zip(ts, grid.value, grid.error):
            one = parts.pairing(t)
            assert isinstance(one.value, complex) and isinstance(one.error, float)
            assert abs(value - one.value) <= min(error, one.error)
            assert 0.0 < error <= 1e-9 * abs(value)

    def test_grid_matches_the_expansion(self, exp_two, parts_two):
        ts = np.linspace(0.0, 25.0, 11)
        poles, backgrounds, _ = exp_two.grid(ts)
        pairing = parts_two.pairing(ts)
        assert np.all(np.abs(pairing.value - (poles + backgrounds))
                      <= 1e-12 * np.abs(pairing.value))

    def test_gate_names_the_time(self, parts_two):
        # at 300 lifetimes of the narrow pole the bound passes 1e-9 of |I|
        with pytest.raises(QuadratureError, match="at t = 1500 "):
            parts_two.pairing(np.array([5.0, 1500.0, 5.0]))
        with pytest.raises(QuadratureError, match="at t = 1500 "):
            parts_two.pairing(1500.0)

    def test_certifies_at_120_lifetimes(self, parts_two):
        # the rounding of E t, not a flat charge on e^x E1 and w, now sets
        # the horizon; the 60-digit value comes from tests/exact_reference.py
        row = next(row for row in EXACT_REFERENCE if row["case"] == "sweep_kaon_late")
        reference = complex(float(row["value"][0]), float(row["value"][1]))
        result = parts_two.pairing(row["t"])
        assert abs(result.value - reference) <= result.error <= 1e-9 * abs(result.value)

    def test_certifies_at_200_lifetimes(self, parts_two):
        # the coefficients' running bounds moved the horizon past 200
        # lifetimes; the 60-digit value comes from tests/exact_reference.py
        row = next(row for row in EXACT_REFERENCE if row["case"] == "sweep_kaon_200")
        reference = complex(float(row["value"][0]), float(row["value"][1]))
        result = parts_two.pairing(row["t"])
        assert abs(result.value - reference) <= result.error <= 1e-9 * abs(result.value)

    @pytest.mark.parametrize(
        "times, failure",
        [([1.0, -1.0, np.inf], ArrowOfTimeError), ([1.0, np.nan], ArrowOfTimeError),
         ([1.0, np.inf, -1.0], ConfigurationError), (np.ones((2, 2)), ConfigurationError),
         ("1.0", ConfigurationError)],
        ids=["negative", "nan", "infinite", "matrix", "str"],
    )
    def test_refusals(self, parts_two, times, failure):
        with pytest.raises(failure):
            parts_two.pairing(times)


def test_contour_check_at_300_lifetimes_still_refuses(tmp_path, capsys):
    # the closed form's rounding bound, not its value, sets this horizon
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": "contour_check", "parameters": {
        "resonances": [{"energy": 1.0, "width": 0.2}, {"energy": 1.6, "width": 0.35}],
        "times_lifetimes": [1.0, 300.0]}}))
    assert main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "QuadratureError" and "t = 1500 " in error["message"]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json"]
