import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resokit.errors import (
    ConfigurationError,
    DomainError,
    HardyClassError,
    ResolutionError,
)
from resokit.hardy import HalfPlane, HardyFunction, fourier_grid, paley_wiener_check


def brute_line_moment(wf):
    """The symmetric line integral as integral_0^inf (f(E) + f(-E)) dE.

    The 1/E tails cancel in the sum, so E = tan(theta) leaves a bounded
    integrand on [0, pi/2], where 800-node Gauss-Legendre converges
    geometrically.
    """
    x, w = np.polynomial.legendre.leggauss(800)
    theta = 0.25 * np.pi * (x + 1.0)
    e = np.tan(theta)
    return 0.25 * np.pi * np.sum(w * (wf(e) + wf(-e)) / np.cos(theta) ** 2)


class _FlippedDeclaration:
    """Wrapper that lies about the half plane, for detector tests."""

    def __init__(self, wf):
        self._wf = wf
        self.half_plane = wf.half_plane.flipped

    def __call__(self, z):
        return self._wf(z)


upper_terms = st.lists(
    st.tuples(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        st.builds(
            complex,
            st.floats(-4.0, 4.0),
            st.floats(-3.0, -0.2),
        ),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=4,
)


class TestHardyFunction:
    def test_evaluation_matches_formula(self, psi):
        e = np.array([0.0, 1.3, -2.7])
        expected = 1.0 / (e - (2.0 - 1.0j)) ** 2
        assert psi(e) == pytest.approx(expected)

    def test_scalar_call_returns_scalar(self, psi):
        assert np.isscalar(psi(0.5))

    def test_pole_evaluation_rejected(self, psi):
        with pytest.raises(DomainError):
            psi(2.0 - 1.0j)

    def test_class_validation(self):
        with pytest.raises(HardyClassError):
            HardyFunction(terms=((1.0, 2.0 + 1.0j, 2),), half_plane=HalfPlane.UPPER)
        with pytest.raises(HardyClassError):
            HardyFunction(terms=((1.0, 2.0 - 1.0j, 2),), half_plane=HalfPlane.LOWER)
        with pytest.raises(HardyClassError):
            HardyFunction(terms=((1.0, 2.0, 2),), half_plane=HalfPlane.UPPER)

    def test_term_validation(self):
        with pytest.raises(ConfigurationError):
            HardyFunction(terms=(), half_plane=HalfPlane.UPPER)
        with pytest.raises(ConfigurationError):
            HardyFunction(terms=((0.0, 2.0 - 1.0j, 2),), half_plane=HalfPlane.UPPER)
        with pytest.raises(ConfigurationError):
            HardyFunction(terms=((1.0, 2.0 - 1.0j, 0),), half_plane=HalfPlane.UPPER)
        with pytest.raises(ConfigurationError):
            HardyFunction(terms=((1.0, 2.0 - 1.0j, 2),), half_plane="upper")

    def test_add_and_scale(self, psi, psi_order1):
        combo = psi + 2.0j * psi_order1
        e = np.linspace(-3.0, 3.0, 7)
        assert combo(e) == pytest.approx(psi(e) + 2.0j * psi_order1(e))

    def test_add_requires_same_class(self, psi, phi):
        with pytest.raises(HardyClassError):
            psi + phi

    def test_decay_metadata(self, psi, psi_order1):
        mixed = psi + psi_order1
        assert mixed.decay_order == 1
        assert mixed.inverse_energy_coefficient == 0.5 + 0.2j

    @given(terms=upper_terms)
    @settings(max_examples=100, deadline=None)
    def test_conjugation_is_pointwise_conj_on_real_axis(self, terms):
        wf = HardyFunction(terms=tuple(terms), half_plane=HalfPlane.UPPER)
        dag = wf.conjugated()
        assert dag.half_plane is HalfPlane.LOWER
        assert dag.conjugated() == wf
        e = np.linspace(-6.0, 6.0, 13)
        assert dag(e) == pytest.approx(np.conj(wf(e)))


def _outcome(fn, x):
    """fn(x), or the class of the resokit error it raises."""
    try:
        return fn(x)
    except DomainError as exc:
        return type(exc)


line_points = st.one_of(
    st.floats(-50.0, 50.0),
    st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
)


class TestScalarBranch:
    @given(terms=upper_terms, z=line_points, flip=st.booleans())
    # |z - p| = 1.4e-180: 1 / (z - p)^2 overflows, a DomainError on both paths
    @example(terms=[(1.0, 1.3829421962014502e-180 - 1j, 2)], z=-1j, flip=False)
    @settings(max_examples=200, deadline=None)
    def test_matches_array_path(self, terms, z, flip):
        wf = HardyFunction(terms=tuple(terms), half_plane=HalfPlane.UPPER)
        if flip:
            wf = wf.conjugated()
        scalar = _outcome(wf, z)
        array = _outcome(lambda x: wf(np.array([x]))[0], z)
        if isinstance(array, type):
            assert scalar is array
            return
        assert type(scalar) is complex
        assert wf(np.complex128(z)) == scalar

    def test_overflow_gives_the_array_value(self, psi):
        # far from the poles 1 / (z - p) underflows to 0 on both paths, where
        # complex ** would raise OverflowError
        assert psi(1e200) == psi(np.array([1e200]))[0] == 0

    @given(terms=upper_terms, which=st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_pole_rejected_on_both_paths(self, terms, which):
        wf = HardyFunction(terms=tuple(terms), half_plane=HalfPlane.UPPER)
        p = wf.terms[which % len(wf.terms)][1]
        for z in (p, np.complex128(p), np.array([0.0, p])):
            with pytest.raises(DomainError):
                wf(z)


class TestLineMoment:
    def test_simple_pole_upper(self, psi_order1):
        expected = -1j * np.pi * (0.5 + 0.2j)
        assert psi_order1.line_moment() == pytest.approx(expected)
        assert brute_line_moment(psi_order1) == pytest.approx(expected, abs=1e-12)

    def test_simple_pole_lower_flips_sign(self):
        wf = HardyFunction(
            terms=((0.3 - 0.1j, 1.5 + 0.8j, 1), (1.0, 0.5 + 0.5j, 2)),
            half_plane=HalfPlane.LOWER,
        )
        expected = 1j * np.pi * (0.3 - 0.1j)
        assert wf.line_moment() == pytest.approx(expected)
        assert brute_line_moment(wf) == pytest.approx(expected, abs=1e-12)

    def test_square_integrable_moment_vanishes(self, psi):
        assert psi.line_moment() == 0.0
        assert abs(brute_line_moment(psi)) < 1e-12

    def test_cancelling_simple_poles(self):
        wf = HardyFunction(
            terms=((1.0, 1.0 - 1.0j, 1), (-1.0, -1.0 - 2.0j, 1)),
            half_plane=HalfPlane.UPPER,
        )
        assert wf.line_moment() == 0.0
        assert abs(brute_line_moment(wf)) < 1e-12


class TestFourierGrid:
    def test_grid_size_must_be_power_of_two(self, psi):
        with pytest.raises(ConfigurationError):
            fourier_grid(psi, 200.0, 1000)

    def test_single_pole_transform_closed_form(self, psi):
        tau, fhat = fourier_grid(psi, 200.0, 2**18)
        k = 64
        t0 = tau[k]
        assert t0 > 0.0
        expected = -2.0 * np.pi * t0 * np.exp(-1j * (2.0 - 1.0j) * t0)
        assert fhat[k] == pytest.approx(expected, rel=1e-3)

    def test_parseval(self, psi):
        tau, fhat = fourier_grid(psi, 200.0, 2**18)
        de = 400.0 / 2**18
        discrete = float(np.sum(np.abs(fhat) ** 2)) / (2**18 * de)
        # |c|^2 * pi / (2 b^3) for a single order-2 pole at depth b
        assert discrete == pytest.approx(np.pi / 2.0, rel=1e-6)


class TestPaleyWiener:
    def test_upper_function_clean(self, psi):
        assert paley_wiener_check(psi) < 1e-7

    def test_lower_function_clean(self, phi):
        assert paley_wiener_check(phi) < 1e-7

    def test_flipped_declaration_detected(self, psi, phi):
        assert paley_wiener_check(_FlippedDeclaration(psi)) > 0.3
        assert paley_wiener_check(_FlippedDeclaration(phi)) > 0.3

    def test_narrow_grid_rejected(self, psi):
        with pytest.raises(ResolutionError):
            paley_wiener_check(psi, e_max=5.0, n=2**12)

    def test_frozen_leakage_values(self, psi, phi):
        assert paley_wiener_check(psi) == pytest.approx(2.652e-9, rel=5e-3)
        assert paley_wiener_check(phi) == pytest.approx(1.346e-9, rel=5e-3)
