import numpy as np
import pytest

from resokit.errors import (
    ArrowOfTimeError,
    ConfigurationError,
    HardyClassError,
)
from resokit.expansion import dirac_pairing
from resokit.gamow import (
    GamowKet,
    _line_integral,
    eigen_pairing_check,
    energy_weighted_pairing,
    norm_check,
    pairing,
)
from resokit.surface import ResonancePole


class TestAmplitude:
    def test_peak_value(self, ket, pole):
        # |amp(E_R)|^2 = 2 / (pi Gamma) at the resonance energy
        peak = abs(ket.amplitude(pole.energy)) ** 2
        assert peak == pytest.approx(2.0 / (np.pi * pole.width), rel=1e-14)

    def test_half_width_at_half_maximum(self, ket, pole):
        peak = abs(ket.amplitude(pole.energy)) ** 2
        for side in (-1.0, 1.0):
            val = abs(ket.amplitude(pole.energy + side * pole.width / 2.0)) ** 2
            assert val == pytest.approx(0.5 * peak, rel=1e-14)

    def test_unit_norm(self, ket):
        assert norm_check(ket) == pytest.approx(1.0, abs=1e-10)
        # QUADPACK's full-line integral missed lines this narrow
        narrow = GamowKet(ResonancePole(energy=1.0, width=1e-6))
        assert norm_check(narrow) == pytest.approx(1.0, abs=1e-12)

    def test_amplitude_scale_phase(self, ket, pole):
        s = ket.amplitude_scale
        assert s.real == 0.0
        assert s.imag == pytest.approx(np.sqrt(pole.width / (2.0 * np.pi)))

    def test_needs_resonance_pole(self):
        with pytest.raises(ConfigurationError):
            GamowKet(pole=1.0 - 0.1j)


class TestEvolution:
    def test_exponential_decay_law(self, ket, pole):
        t = np.linspace(0.0, 10.0, 40)
        for ti in t:
            w = ket.survival_weight(float(ti))
            assert abs(w - np.exp(-pole.width * ti)) < 1e-12

    def test_semigroup_composition(self, ket):
        for t1, t2 in [(0.0, 0.7), (1.3, 2.9), (5.0, 5.0)]:
            c = ket.evolution_coefficient(t1) * ket.evolution_coefficient(t2)
            assert c == pytest.approx(ket.evolution_coefficient(t1 + t2), rel=1e-12)

    def test_negative_time_rejected(self, ket):
        with pytest.raises(ArrowOfTimeError):
            ket.evolution_coefficient(-1e-9)

    def test_mirror_domain_is_the_past(self, ket):
        with pytest.raises(ArrowOfTimeError):
            ket.mirror_coefficient(1e-9)

    def test_mirror_conjugates_forward_coefficient(self, ket):
        for t in (0.0, 0.4, 2.2):
            assert ket.mirror_coefficient(-t) == pytest.approx(
                np.conj(ket.evolution_coefficient(t))
            )


def _with_narrow_lines(ket):
    # QUADPACK returned about half the Cauchy value at width 1e-6 while it
    # reported an error of 2e-13
    return [ket] + [GamowKet(ResonancePole(energy=1.0, width=w)) for w in (1e-3, 1e-6)]


class TestPairing:
    def test_cauchy_matches_quadrature(self, psi, ket):
        for k in _with_narrow_lines(ket):
            cauchy = pairing(psi, k)
            brute = _line_integral(psi.conjugated(), k)
            assert cauchy == pytest.approx(brute, rel=1e-9)

    def test_cauchy_matches_quadrature_order_one(self, psi_order1, ket):
        for k in _with_narrow_lines(ket):
            cauchy = pairing(psi_order1, k)
            brute = _line_integral(psi_order1.conjugated(), k)
            assert cauchy == pytest.approx(brute, rel=1e-8)

    def test_frozen_value(self, psi, ket):
        assert pairing(psi, ket) == pytest.approx(
            -0.04819918328631951 - 0.5049438249042992j, rel=1e-12
        )

    def test_lower_class_rejected(self, phi, ket):
        with pytest.raises(HardyClassError):
            pairing(phi, ket)

    def test_non_hardy_rejected(self, ket):
        with pytest.raises(ConfigurationError):
            pairing(lambda e: 1.0 / (e + 1j), ket)


class TestEigenvalueRelation:
    def test_square_integrable_residual_is_noise(self, psi, ket):
        assert eigen_pairing_check(psi, ket) < 1e-7

    def test_order_one_residual_is_the_moment_term(self, psi_order1, ket):
        # the eigenvalue relation fails by exactly the principal-value
        # moment of the dagger function times the amplitude scale
        base = pairing(psi_order1, ket)
        dag = psi_order1.conjugated()
        expected = abs(ket.amplitude_scale * dag.line_moment()) / abs(
            ket.eigenvalue * base
        )
        residual = eigen_pairing_check(psi_order1, ket)
        assert residual == pytest.approx(expected, rel=1e-6)
        assert residual > 0.1

    def test_weighted_pairing_closed_form(self, psi, ket):
        # E amp = scale + z amp and the scale part integrates to zero
        # against an order-2 function, leaving z times the base pairing
        weighted = energy_weighted_pairing(psi, ket)
        assert weighted == pytest.approx(
            ket.eigenvalue * pairing(psi, ket), rel=1e-8
        )


def test_entry_points_run_without_quadpack(psi, psi_order1, phi, ket, monkeypatch):
    def no_quad(*args, **kwargs):
        raise AssertionError("called QUADPACK")

    monkeypatch.setattr("resokit.quadrature.quad", no_quad)
    for dual in (psi, psi_order1):
        _line_integral(dual.conjugated(), ket)
        energy_weighted_pairing(dual, ket)
        eigen_pairing_check(dual, ket)
        dirac_pairing(dual, phi)
    norm_check(ket)
