import numpy as np
import pytest
from scipy.integrate import quad

from resokit import survival
from resokit.errors import (
    ArrowOfTimeError,
    ConfigurationError,
    RegimeError,
    WindowError,
)
from resokit.quadrature import circle_residue
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


class TestAmplitude:
    def test_starts_at_one(self, dens, dens_thresh):
        for d in (dens, dens_thresh):
            for method in ("rotation", "direct"):
                assert survival_amplitude(d, 0.0, method=method) == pytest.approx(
                    1.0, abs=1e-9
                )

    @pytest.mark.parametrize("gt", [0.5, 1.0, 2.0])
    def test_methods_agree(self, dens, narrow, gt):
        t = gt / narrow.width
        rot = survival_amplitude(dens, t, method="rotation")
        direct = survival_amplitude(dens, t, method="direct")
        assert abs(rot - direct) < 1e-9

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


class TestTail:
    def test_truncated_lorentzian_tail(self, dens):
        assert tail_exponent(dens) == pytest.approx(-2.0, abs=1e-3)

    def test_threshold_weighted_tail(self, dens_thresh):
        assert tail_exponent(dens_thresh) == pytest.approx(-4.0, abs=1e-3)

    def test_bad_range(self, dens):
        with pytest.raises(ConfigurationError):
            tail_exponent(dens, t_range=(10.0, 1.0))


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
