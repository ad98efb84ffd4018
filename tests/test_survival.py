import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from resokit import exact, survival
from resokit.cli import main
from resokit.errors import (
    ArrowOfTimeError,
    ConfigurationError,
    QuadratureError,
    RegimeError,
    WindowError,
)
from resokit.quadrature import LAPLACE_RULE, circle_residue
from resokit.surface import ResonancePole
from resokit.survival import (
    SpectralDensity,
    deviation_onset,
    exponential_law,
    fit_log_slope,
    survival_amplitude,
    survival_probability,
    tail_exponent,
)


@pytest.fixture(scope="module")
def narrow():
    return ResonancePole(energy=1.0, width=0.05)


@pytest.fixture(scope="module")
def dens(narrow):
    return SpectralDensity.truncated_lorentzian(narrow)


@pytest.fixture(scope="module")
def dens_thresh(narrow):
    return SpectralDensity.threshold_weighted(narrow)


def _no_quadrature(*args, **kwargs):
    raise AssertionError("quadrature ran where none should")


class TestDensity:
    def test_unit_mass(self, dens, dens_thresh):
        for d in (dens, dens_thresh):
            total, _ = quad(lambda e: d(e).real, 0.0, np.inf, limit=200)
            assert total == pytest.approx(1.0, rel=1e-9)

    def test_real_and_positive_on_spectrum(self, dens_thresh):
        e = np.linspace(0.01, 30.0, 50)
        vals = dens_thresh(e)
        assert np.max(np.abs(vals.imag)) == 0.0
        assert np.all(vals.real > 0.0)

    def test_threshold_behavior(self, dens, dens_thresh):
        assert dens(0.0).real > 0.0
        assert dens_thresh(0.0) == 0.0

    def test_tail_power_prediction(self, dens, dens_thresh):
        assert dens.tail_power == -2.0
        assert dens_thresh.tail_power == -4.0

    def test_validation(self, narrow):
        with pytest.raises(ConfigurationError):
            SpectralDensity(narrow, alpha=-1)
        with pytest.raises(ConfigurationError):
            SpectralDensity(narrow, power=3)
        with pytest.raises(ConfigurationError):
            SpectralDensity("pole")

    @pytest.mark.parametrize("alpha, power", [(0.7, 1), (0, 1.6), (True, 2), (0, True),
                                              (0, "1"), (np.nan, 1)])
    def test_refuses_non_integral_shapes(self, narrow, alpha, power):
        # int() used to truncate these: (0.7, 1.6) ran as (0, 1), True as 1
        with pytest.raises(ConfigurationError, match="must be an integer"):
            SpectralDensity(narrow, alpha=alpha, power=power)

    def test_integral_floats_are_integers(self, narrow):
        d = SpectralDensity(narrow, alpha=1.0, power=np.int64(2))
        assert (d.alpha, d.power) == (1, 2)
        assert type(d.alpha) is int and type(d.power) is int

    @pytest.mark.parametrize("alpha, power", [(1, 1), (2, 1), (3, 2), (4, 2)])
    def test_refuses_shapes_without_finite_mass(self, narrow, monkeypatch, alpha, power):
        # E^alpha base^power ~ E^(alpha - 2 power) at large E: no finite mass
        # for alpha >= 2 power - 1, refused before any quadrature runs
        monkeypatch.setattr(survival, "complex_quad", _no_quadrature)
        monkeypatch.setattr(survival, "LaplaceTable", _no_quadrature)
        with pytest.raises(ConfigurationError, match="no finite mass"):
            SpectralDensity(narrow, alpha=alpha, power=power)


class TestAmplitude:
    def test_starts_at_one(self, dens, dens_thresh):
        for d in (dens, dens_thresh):
            assert survival_amplitude(d, 0.0) == pytest.approx(1.0, abs=1e-12)
            assert exact.survival_amplitude(d, 0.0).value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gt", [0.5, 1.0, 2.0])
    def test_methods_agree(self, dens, narrow, gt):
        # the rotated contour against the closed form (was QUADPACK, to 1e-9)
        t = gt / narrow.width
        closed = exact.survival_amplitude(dens, t).value
        assert abs(survival_amplitude(dens, t) - closed) < 1e-12

    def test_direct_is_the_closed_form(self, dens, narrow, monkeypatch):
        monkeypatch.setattr("resokit.quadrature.quad", _no_quadrature)
        monkeypatch.setattr(survival, "_pole_and_leg", _no_quadrature)
        t = 1.0 / narrow.width
        assert survival_amplitude(dens, t, method="direct") == (
            exact.survival_amplitude(dens, t).value)
        with pytest.raises(ArrowOfTimeError):
            survival_amplitude(dens, -0.1, method="direct")

    def test_forward_only(self, dens):
        with pytest.raises(ArrowOfTimeError):
            survival_amplitude(dens, -0.1)
        with pytest.raises(ArrowOfTimeError):
            exponential_law(dens, -0.1)

    def test_unknown_method(self, dens):
        with pytest.raises(ConfigurationError):
            survival_amplitude(dens, 1.0, method="resummation")

    def test_probability_tracks_exponential_at_five_lifetimes(self, dens, narrow):
        t = 5.0 / narrow.width
        p = survival_probability(dens, t)
        law = exponential_law(dens, t)
        assert abs(p - law) == pytest.approx(1.0157e-4, rel=5e-3)
        assert abs(p - law) < 0.01


class TestPoleResidue:
    def test_matches_contour_reference(self, dens, dens_thresh, narrow, monkeypatch):
        def no_circle(*args, **kwargs):
            raise AssertionError("_pole_residues ran a circle integral")

        monkeypatch.setattr(survival, "circle_residue", no_circle)
        z0 = narrow.position
        for d in (dens, dens_thresh):
            for t in np.linspace(0.0, 50.0 / narrow.width, 41):
                # a circle small against 1/t keeps e^{-i z t} tame on it
                radius = 0.5 * min(0.25 * narrow.width, 1.0 / max(t, 1.0))
                ref = -2j * np.pi * circle_residue(
                    lambda z: d(z) * np.exp(-1j * z * t), z0, radius)
                got = survival._pole_residues(d, t)
                assert abs(got - ref) <= 1e-12 * abs(ref), (d.power, t)

    def test_lorentzian_pole_term_is_the_exponential_law(self, dens, narrow):
        # -2 pi i N (Gamma / 2 pi) / (-i Gamma) e^{-i z0 t} has modulus N e^{-Gamma t / 2}
        for t in (0.0, *np.geomspace(1e-3, 1e4, 30)):
            expected = dens.norm * np.exp(-0.5 * narrow.width * t)
            got = abs(survival._pole_residues(dens, t))
            assert got == pytest.approx(expected, rel=1e-13)


# A(t) at t = lifetimes / 0.05 for energy 1, width 0.05, from the partial
# fractions of N z^alpha base^power in exponential integrals (mpmath, 50
# digits), each checked against -2 pi i Res plus the rotated endpoint leg
# integrated by mpmath to 1e-30; CHANGES.md holds the script.
REFERENCE = {
    (0, 1): (
        (0.0, (1+0j)),
        (0.2, (-0.5968515785202025+0.6886818053146745j)),
        (1.0, (0.2494603835784629-0.5585652338321271j)),
        (3.0, (-0.21422082184636546+0.06842450733608879j)),
        (10.0, (0.0033085707475935745+0.005891345043520279j)),
        (20.0, (-2.4139815602635722e-05+1.8900858814118005e-05j)),
        (30.0, (-3.5256163962399974e-07-1.3374330091761592e-05j)),
        (100.0, (-4.0057629551280005e-09-4.0082725555693034e-06j)),
        (300.0, (-4.450859574553138e-10-1.3360926307083033e-06j)),
        (708.0, (-7.991347295163182e-11-5.66141022517982e-07j)),
    ),
    (1, 2): (
        (0.0, (1+0j)),
        (0.2, (-0.6488723811512164+0.754739184733399j)),
        (1.0, (0.3643491817297336-0.8336864660287905j)),
        (3.0, (-0.5287288120000851+0.17800001440802263j)),
        (10.0, (0.020431363151990938+0.03489499700727352j)),
        (20.0, (-0.0002526743092035844+0.0004309098621108826j)),
        (30.0, (-4.894745404311355e-06-1.0164632925294904e-07j)),
        (100.0, (-2.483649086916301e-12+9.92838206574174e-15j)),
        (300.0, (-2.7596468364028403e-13+3.677230847457721e-16j)),
        (708.0, (-4.954845239912683e-14+2.797599093946509e-17j)),
    ),
}


def _khalfin(tmp_path, width, lifetimes_max):
    config = tmp_path / "khalfin.json"
    config.write_text(json.dumps({"kind": "khalfin", "parameters": {
        "energy": 1.0, "width": width, "lifetimes_max": lifetimes_max, "points": 60}}))
    return config, tmp_path / "out"


class TestEndpointTable:
    @pytest.mark.parametrize("shape", sorted(REFERENCE))
    def test_matches_high_precision_reference(self, narrow, shape):
        d = SpectralDensity(narrow, *shape)
        for lifetimes, ref in REFERENCE[shape]:
            got = survival_amplitude(d, lifetimes / narrow.width)
            assert abs(got - ref) <= 1e-12 * abs(ref), (lifetimes, got, ref)

    def test_rotation_makes_no_quadpack_call(self, narrow, monkeypatch):
        monkeypatch.setattr(survival, "complex_quad", _no_quadrature)
        monkeypatch.setattr(survival, "decaying_fourier_quad", _no_quadrature)
        d = SpectralDensity.truncated_lorentzian(narrow)
        assert survival_probability(d, 5.0 / narrow.width) > 0.0
        assert deviation_onset(d) * narrow.width == pytest.approx(10.4113, rel=5e-3)
        assert tail_exponent(d) == pytest.approx(-2.0, abs=1e-3)

    def test_table_is_built_once(self, narrow, monkeypatch):
        points = []
        shape = SpectralDensity._shape

        def counted(self, z):
            points.append(np.size(z))
            return shape(self, z)

        monkeypatch.setattr(SpectralDensity, "_shape", counted)
        d = SpectralDensity.truncated_lorentzian(narrow)
        assert len(points) == 1 and points[0] == LAPLACE_RULE[0].size
        for t in np.geomspace(0.2 / narrow.width, 30.0 / narrow.width, 60):
            survival_probability(d, t)
        deviation_onset(d)
        tail_exponent(d)
        assert len(points) == 1
        # the table stays outside the dataclass fields
        twin = SpectralDensity.truncated_lorentzian(narrow)
        assert d == twin and hash(d) == hash(twin)
        assert "_table" not in repr(d)

    def test_narrow_line(self, tmp_path):
        # QUADPACK put this mass at 1.1e-10 (norm 9.0e9, probabilities 6.6e19)
        pole = ResonancePole(energy=1.0, width=1e-12)
        exact = 1.0 / (0.5 + math.atan(2.0 * pole.energy / pole.width) / math.pi)
        assert SpectralDensity.truncated_lorentzian(pole).norm == pytest.approx(
            exact, rel=1e-14, abs=0.0)
        config, out = _khalfin(tmp_path, pole.width, 30.0)
        assert main(["run", str(config), "--out-dir", str(out)]) == 0
        lines = (out / "khalfin.csv").read_text().splitlines()[1:]
        probabilities = [float(line.split(",")[1]) for line in lines]
        assert len(probabilities) == 60
        assert all(0.0 <= p <= 1.0 for p in probabilities)
        # QUADPACK's direct integral missed this line by 0.779
        achieved = json.loads((out / "khalfin.manifest.json").read_text())["achieved"]
        assert achieved["cross_method_max_diff"] < 1e-9

    def test_late_times_of_a_narrow_line(self, tmp_path):
        # at 700 lifetimes of a 1e-90 line the pole term (about 1e-152)
        # dominates and the leg's mass sits below the table's first node;
        # the clipped mass below it stays inside the gate only with its
        # 1 / (E_R x_0 t) factor
        config, out = _khalfin(tmp_path, 1e-90, 700.0)
        assert main(["run", str(config), "--out-dir", str(out)]) == 0
        last = (out / "khalfin.csv").read_text().splitlines()[-1].split(",")
        assert float(last[3]) == pytest.approx(1.0, abs=1e-12)

    def test_too_narrow_for_the_table(self, tmp_path, capsys):
        # at 708 lifetimes of a 1e-30 line the leg's mass sits below the
        # table's first node, where no stride can resolve it
        pole = ResonancePole(energy=1.0, width=1e-30)
        d = SpectralDensity.truncated_lorentzian(pole)
        with pytest.raises(QuadratureError, match="clipped mass"):
            survival_amplitude(d, 708.0 / pole.width)
        config, out = _khalfin(tmp_path, pole.width, 708.0)
        assert main(["run", str(config), "--out-dir", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "QuadratureError"
        assert not out.exists()


    @pytest.mark.parametrize("energy", [1e137, 1e300])
    def test_energy_past_the_table_exits_2(self, tmp_path, capsys, energy):
        # 2 E_R u_N overflows past E_R = 3.8e136 and turns table entries
        # into nan; numpy's overflow warning used to end the run as a
        # DomainError (exit 1) from about 2.2e119 on
        with pytest.raises(ConfigurationError, match="up to about 3.8e[+]136"):
            SpectralDensity.truncated_lorentzian(ResonancePole(energy, 1.0))
        config = tmp_path / "khalfin.json"
        config.write_text(json.dumps({"kind": "khalfin",
                                      "parameters": {"energy": energy, "width": 1.0}}))
        out = tmp_path / "out"
        assert main(["run", str(config), "--out-dir", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "ConfigurationError"
        assert not out.exists()

    def test_large_energy_runs(self, tmp_path, capsys):
        # at E_R = 1e130 the entries that overflow are negligible and come
        # out 0; with Gamma / E_R = 1e-130 the rows follow the pole law
        config = tmp_path / "khalfin.json"
        config.write_text(json.dumps({"kind": "khalfin",
                                      "parameters": {"energy": 1e130, "width": 1.0}}))
        out = tmp_path / "out"
        assert main(["run", str(config), "--out-dir", str(out)]) == 0
        lines = (out / "khalfin.csv").read_text().splitlines()[1:]
        assert len(lines) == 60
        for line in lines:
            assert float(line.split(",")[3]) == pytest.approx(1.0, abs=1e-12)


# mpmath values written by tests/survival_reference.py, which shares no
# code with resokit: normalized amplitudes of all four shapes at width
# 0.05, and the legs of the unnormalized shapes over a width sweep
FROZEN = json.loads(Path(__file__).with_name("survival_reference.json").read_text())


def _complex(pair):
    return complex(float(pair[0]), float(pair[1]))


def _frozen_amplitudes(shape):
    return [(row["lifetimes"], _complex(row["value"])) for row in FROZEN["amplitudes"]
            if (row["alpha"], row["power"]) == shape]


SHAPES = [(0, 1), (1, 2), (0, 2), (2, 2)]


class TestClosedForm:
    @pytest.mark.parametrize("shape", sorted(REFERENCE))
    def test_references_agree(self, shape):
        # two mpmath scripts, one of them by partial fractions and quadrature
        frozen = _frozen_amplitudes(shape)
        assert [n for n, _ in frozen] == [n for n, _ in REFERENCE[shape]]
        for (_, got), (_, ref) in zip(frozen, REFERENCE[shape]):
            assert abs(got - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_fifty_digit_reference(self, narrow, shape):
        d = SpectralDensity(narrow, *shape)
        for lifetimes, ref in _frozen_amplitudes(shape):
            got = exact.survival_amplitude(d, lifetimes / narrow.width).value
            assert abs(got - ref) <= 1e-13 * abs(ref), (lifetimes, got, ref)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_width_sweep_bounds_its_gap(self, shape):
        # widths 1.9 to 1e-12, 0 to 708 lifetimes: the bound covers the leg
        # and the final sum, so the gap is taken against the same pole term
        rows = [row for row in FROZEN["legs"] if (row["alpha"], row["power"]) == shape]
        assert len(rows) == 100
        for row in rows:
            d = SpectralDensity(ResonancePole(1.0, row["width"]), *shape)
            t = row["lifetimes"] / row["width"]
            res = exact.survival_amplitude(d, t)
            reference = survival._pole_residues(d, t) + d.norm * _complex(row["leg"])
            assert abs(res.value - reference) <= res.error <= 1e-9 * abs(res.value), row

    def test_no_quadrature(self, narrow, monkeypatch):
        d = SpectralDensity.threshold_weighted(narrow)
        monkeypatch.setattr("resokit.quadrature.quad", _no_quadrature)
        monkeypatch.setattr(survival, "_pole_and_leg", _no_quadrature)
        for t in (0.0, 1.0, 1e3, 1e6):
            assert abs(exact.survival_amplitude(d, t).value) > 0.0

    def test_line_narrower_than_the_double_range(self):
        # Gamma / E_R underflows to 0: the leg is 0 to the last bit, and the
        # partial fractions, whose coefficients grow as 1 / gamma, must not run
        d = SpectralDensity.truncated_lorentzian(ResonancePole(1e4, 1e-320))
        t = 5e-4  # E_R t = 5, where the partial fractions would apply
        res = exact.survival_amplitude(d, t)
        assert res.value == survival._pole_residues(d, t)
        assert abs(res.value - survival_amplitude(d, t)) < 1e-15

    def test_inputs_checked(self, dens):
        with pytest.raises(ArrowOfTimeError):
            exact.survival_amplitude(dens, -1e-3)
        with pytest.raises(ArrowOfTimeError):
            exact.survival_amplitude(dens, float("nan"))
        with pytest.raises(ConfigurationError):
            exact.survival_amplitude(dens, float("inf"))
        with pytest.raises(ConfigurationError):
            exact.survival_amplitude(dens.resonance, 1.0)

    def test_run_makes_no_quadpack_call(self, tmp_path, monkeypatch):
        monkeypatch.setattr("resokit.quadrature.quad", _no_quadrature)
        assert main(["run", "khalfin", "--out-dir", str(tmp_path)]) == 0
        achieved = json.loads((tmp_path / "khalfin.manifest.json").read_text())["achieved"]
        assert achieved["cross_method_max_diff"] < 1e-12

    def test_gate_trips_on_a_shifted_closed_form(self, tmp_path, capsys, monkeypatch):
        closed = exact.survival_amplitude

        def shifted(density, t):
            res = closed(density, t)
            return res._replace(value=res.value + 1e-8)

        monkeypatch.setattr(exact, "survival_amplitude", shifted)
        out = tmp_path / "out"
        assert main(["run", "khalfin", "--out-dir", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "QuadratureError"
        assert not out.exists()


class TestTail:
    def test_truncated_lorentzian_tail(self, dens):
        assert tail_exponent(dens) == pytest.approx(-2.0, abs=1e-3)

    def test_threshold_weighted_tail(self, dens_thresh):
        assert tail_exponent(dens_thresh) == pytest.approx(-4.0, abs=1e-3)

    def test_bad_range(self, dens):
        with pytest.raises(ConfigurationError):
            tail_exponent(dens, t_range=(10.0, 1.0))

    def test_no_settable_sampling(self, dens):
        for option in ({"points": 5}, {"residual_tol": 1.0}):
            with pytest.raises(TypeError):
                tail_exponent(dens, **option)


class TestOnset:
    def test_frozen_onsets_and_monotonicity(self):
        onsets = []
        for ratio in (0.1, 0.05, 0.02):
            d = SpectralDensity.truncated_lorentzian(
                ResonancePole(energy=1.0, width=ratio)
            )
            onsets.append(deviation_onset(d) * ratio)
        assert onsets[0] == pytest.approx(7.6010, rel=5e-3)
        assert onsets[1] == pytest.approx(10.4113, rel=5e-3)
        assert onsets[2] == pytest.approx(15.1597, rel=5e-3)
        # narrower resonances hold the exponential era longer
        assert onsets[0] < onsets[1] < onsets[2]

    def test_window_too_short(self, dens, narrow):
        grid = np.geomspace(0.2 / narrow.width, 3.0 / narrow.width, 12)
        with pytest.raises(WindowError) as exc:
            deviation_onset(dens, t_grid=grid)
        assert "never reached" in str(exc.value)
        assert len(exc.value.partial) == 12

    def test_grid_misses_exponential_era(self, dens, narrow):
        grid = np.array([1e-3 / narrow.width])
        with pytest.raises(WindowError) as exc:
            deviation_onset(dens, threshold=1e-12, t_grid=grid)
        assert "never entered" in str(exc.value)

    def test_negative_grid_rejected(self, dens):
        with pytest.raises(ArrowOfTimeError):
            deviation_onset(dens, t_grid=np.array([-1.0, 1.0]))


class TestLogSlope:
    def test_recovers_pure_power_law(self):
        ts = np.geomspace(1.0, 100.0, 20)
        assert fit_log_slope(ts, 5.0 * ts**-2.5) == pytest.approx(-2.5, abs=1e-12)

    def test_rejects_exponential_data(self):
        ts = np.linspace(1.0, 40.0, 30)
        with pytest.raises(RegimeError):
            fit_log_slope(ts, np.exp(-0.5 * ts))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fit_log_slope([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            fit_log_slope([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
        with pytest.raises(ConfigurationError):
            fit_log_slope([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]])
        with pytest.raises(TypeError):
            fit_log_slope([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], residual_tol=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_non_finite_samples(self, bad):
        # unchecked, a nan value gives a nan slope and a nan time a LinAlgError
        ts = np.geomspace(1.0, 100.0, 5)
        with pytest.raises(ConfigurationError, match="finite"):
            fit_log_slope(ts, np.where(ts > 10.0, bad, ts**-2.0))
        with pytest.raises(ConfigurationError, match="finite"):
            fit_log_slope(np.where(ts > 10.0, bad, ts), ts**-2.0)

    def test_nan_residual_is_no_power_law(self, monkeypatch):
        # the rms test is written so that a nan residual cannot pass it
        monkeypatch.setattr(np, "polyfit", lambda x, y, deg: np.array([np.nan, np.nan]))
        ts = np.geomspace(1.0, 100.0, 5)
        with pytest.raises(RegimeError, match="nan"):
            fit_log_slope(ts, ts**-2.0)
