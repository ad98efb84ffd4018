import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resokit import surface
from resokit.errors import (
    BranchPointError,
    ConfigurationError,
    GeometryError,
    PoleProximityError,
)
from resokit.surface import (
    BackgroundPhase,
    ResonancePole,
    Sheet,
    SMatrixModel,
    blaschke_residue,
    energy_to_momentum,
    locate_pole,
    momentum_to_energy,
    poles_of,
    unitarity_deviation,
)

complex_energies = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


class TestSurfaceMap:
    def test_physical_sheet_upper_half_plane(self):
        k = energy_to_momentum(-1.0 + 0.0j, Sheet.I)
        assert k == pytest.approx(1j)

    def test_second_sheet_is_negative_branch(self):
        e = 1.0 - 0.1j
        assert energy_to_momentum(e, Sheet.II) == pytest.approx(
            -energy_to_momentum(e, Sheet.I)
        )

    def test_negative_axis_maps_to_plus_i_for_either_zero(self):
        # cmath.sqrt(-1 - 0j) is -1j; sheet I still owns +1j there
        for e in (complex(-4.0, 0.0), complex(-4.0, -0.0)):
            assert energy_to_momentum(e, Sheet.I) == 2j
            assert energy_to_momentum(e, Sheet.II) == -2j

    def test_positive_energy_rim(self):
        k = energy_to_momentum(4.0, Sheet.I)
        assert k == pytest.approx(2.0)
        assert momentum_to_energy(2.0) == (pytest.approx(4.0), Sheet.I)

    def test_branch_point_rejected(self):
        with pytest.raises(BranchPointError):
            energy_to_momentum(0.0, Sheet.I)
        with pytest.raises(BranchPointError):
            momentum_to_energy(0.0)

    def test_bad_sheet_rejected(self):
        with pytest.raises(ConfigurationError):
            energy_to_momentum(1.0, "I")

    @given(e=complex_energies, sheet=st.sampled_from([Sheet.I, Sheet.II]))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, e, sheet):
        k = energy_to_momentum(e, sheet)
        if sheet is Sheet.I:
            assert k.imag > 0.0 or (k.imag == 0.0 and k.real >= 0.0)
        else:
            assert k.imag < 0.0 or (k.imag == 0.0 and k.real <= 0.0)
        e_back, sheet_back = momentum_to_energy(k)
        assert abs(e_back - e) <= 1e-9 * abs(e)
        # the boundary rays are owned by fixed sheets; off the boundary
        # the sheet must survive the round trip
        if abs(k.imag) > 1e-12 * abs(k):
            assert sheet_back is sheet


class TestResonancePole:
    def test_position_and_momentum_quadrant(self, pole):
        assert pole.position == 1.0 - 0.1j
        k = pole.momentum
        assert k.real > 0.0 and k.imag < 0.0
        assert k * k == pytest.approx(pole.position)

    def test_momentum_frozen_value(self, pole):
        assert pole.momentum == pytest.approx(
            1.0012461141278124 - 0.04993777183700247j, abs=1e-14
        )

    def test_narrow_momentum_keeps_relative_accuracy(self):
        # sqrt(|E|) e^{i theta/2} carried Im k to 2.6e-10 relative here
        pole = ResonancePole(energy=1.0, width=1e-6)
        root = cmath.sqrt(pole.position)  # the fourth-quadrant root
        k = pole.momentum
        assert abs(k.real - root.real) <= 1e-15 * abs(root.real)
        assert abs(k.imag - root.imag) <= 1e-15 * abs(root.imag)
        assert energy_to_momentum(pole.position, Sheet.I) == -root

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResonancePole(energy=-1.0, width=0.1)
        with pytest.raises(ConfigurationError):
            ResonancePole(energy=1.0, width=0.0)
        with pytest.raises(ConfigurationError):
            ResonancePole(energy=0.1, width=0.5)

    def test_width_whose_half_underflows_rejected(self):
        # half the smallest subnormal rounds to 0, which put the pole on the
        # real axis and ended survival in a ZeroDivisionError
        with pytest.raises(ConfigurationError, match="width / 2"):
            ResonancePole(energy=1.0, width=5e-324)
        assert ResonancePole(energy=1.0, width=1e-323).position.imag < 0.0

    def test_json_round_trip(self, pole):
        assert ResonancePole.from_dict(pole.to_dict()) == pole


class TestSMatrixModel:
    def test_needs_poles(self):
        with pytest.raises(ConfigurationError):
            SMatrixModel(poles=())

    def test_coincident_poles_rejected(self, pole):
        with pytest.raises(ConfigurationError):
            SMatrixModel(poles=(pole, ResonancePole(energy=1.0, width=0.2)))

    def test_unitary_on_real_axis(self, model_two):
        k = np.linspace(0.05, 8.0, 320)
        assert unitarity_deviation(model_two, k) < 1e-12

    def test_pure_pole_reflection_identities(self, model_two):
        # S(-k) S(k) = 1 and S(-conj k) = conj(S(k)), everywhere
        rng = np.random.default_rng(11)
        pts = rng.normal(size=16) + 1j * rng.normal(size=16)
        for k in pts:
            s = model_two.eval(k)
            assert model_two.eval(-k) * s == pytest.approx(1.0, rel=1e-10)
            assert model_two.eval(-np.conj(k)) == pytest.approx(np.conj(s), rel=1e-10)

    def test_threshold_value_is_one(self, model_two):
        assert model_two.on_spectrum(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_negative_energy_not_on_spectrum(self, model):
        with pytest.raises(BranchPointError):
            model.on_spectrum(-1.0)

    def test_eval_energy_sheets_differ(self, model, pole):
        e = 1.0 + 0.3j
        s1 = model.eval_energy(e, Sheet.I)
        s2 = model.eval_energy(e, Sheet.II)
        assert abs(s1 - s2) > 1e-3

    def test_pole_proximity_guard(self, model, pole):
        with pytest.raises(PoleProximityError):
            model.eval(pole.momentum)

    def test_json_round_trip(self, model_two):
        clone = SMatrixModel.from_dict(model_two.to_dict())
        k = 0.7 + 0.2j
        assert clone.eval(k) == pytest.approx(model_two.eval(k))


class TestPoleLocation:
    def test_poles_located_to_1e8(self, model_two):
        declared = [p.momentum for p in model_two.poles]
        found = poles_of(model_two)
        for d, f in zip(declared, found):
            assert abs(f - d) / abs(d) < 1e-8

    def test_locator_tolerates_center_offset(self, model, pole):
        k = pole.momentum
        off = k + 0.004 - 0.003j
        found = locate_pole(model, off, 0.02)
        assert abs(found - k) / abs(k) < 1e-10

    def test_residue_closed_form_vs_contour(self, model_two):
        from resokit.quadrature import circle_residue

        for i, p in enumerate(model_two.poles):
            k = p.momentum
            numeric = circle_residue(model_two.eval, k, 0.01)
            assert numeric == pytest.approx(blaschke_residue(model_two, i), rel=1e-9)


class TestBackgroundPhase:
    def test_phase_real_on_real_axis(self):
        bg = BackgroundPhase(terms=((0.3, -1.0, 0.5), (-0.1, -2.0, 1.5)))
        k = np.linspace(-4.0, 4.0, 41)
        assert np.max(np.abs(np.imag(bg.phase(k)))) < 1e-15

    def test_positive_pole_center_rejected(self):
        with pytest.raises(GeometryError):
            BackgroundPhase(terms=((0.3, 1.0, 0.5),))

    def test_zero_half_width_rejected(self):
        with pytest.raises(ConfigurationError):
            BackgroundPhase(terms=((0.3, -1.0, 0.0),))

    def test_model_with_background_still_unitary(self, pole):
        bg = BackgroundPhase(terms=((0.4, -0.8, 0.6),))
        model = SMatrixModel(poles=(pole,), background=bg)
        k = np.linspace(0.05, 6.0, 200)
        assert unitarity_deviation(model, k) < 1e-12

    def test_background_shifts_pole_residue_not_location(self, pole):
        bg = BackgroundPhase(terms=((0.4, -0.8, 0.6),))
        model = SMatrixModel(poles=(pole,), background=bg)
        found = poles_of(model)
        assert abs(found[0] - pole.momentum) / abs(pole.momentum) < 1e-8
        bare = SMatrixModel(poles=(pole,))
        assert blaschke_residue(model, 0) != pytest.approx(
            blaschke_residue(bare, 0), rel=1e-3
        )


resonances = st.builds(
    lambda energy, fraction: ResonancePole(energy=energy, width=fraction * energy),
    st.floats(0.1, 5.0),
    st.floats(0.01, 1.9),
)
backgrounds = st.one_of(
    st.none(),
    st.builds(
        lambda terms: BackgroundPhase(terms=tuple(terms)),
        st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.floats(-3.0, -0.1), st.floats(0.1, 2.0)),
            min_size=1,
            max_size=2,
        ),
    ),
)


def _model(poles, background):
    try:
        return SMatrixModel(poles=tuple(poles), background=background)
    except ConfigurationError:
        assume(False)


def _outcome(fn, x):
    """fn(x), or the class of the resokit error it raises."""
    try:
        return fn(x)
    except (PoleProximityError, BranchPointError) as exc:
        return type(exc)


def _same(scalar, array):
    if isinstance(array, type):
        assert scalar is array
    else:
        assert type(scalar) is complex


class TestScalarBranch:
    @given(
        poles=st.lists(resonances, min_size=1, max_size=2),
        background=backgrounds,
        k=st.complex_numbers(max_magnitude=8.0, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_eval_matches_array_path(self, poles, background, k):
        model = _model(poles, background)
        scalar = _outcome(model.eval, k)
        _same(scalar, _outcome(lambda x: model.eval(np.array([x]))[0], k))
        assert _outcome(model.eval, np.complex128(k)) == scalar

    @given(
        poles=st.lists(resonances, min_size=1, max_size=2),
        background=backgrounds,
        energy=st.one_of(st.floats(-10.0, 60.0), st.integers(-3, 60)),
    )
    @settings(max_examples=200, deadline=None)
    def test_on_spectrum_matches_array_path(self, poles, background, energy):
        model = _model(poles, background)
        scalar = _outcome(model.on_spectrum, energy)
        array = _outcome(lambda e: model.on_spectrum(np.array([e], dtype=float))[0], energy)
        _same(scalar, array)
        assert (scalar is BranchPointError) == (energy < 0)

    @given(
        poles=st.lists(resonances, min_size=1, max_size=2),
        background=backgrounds,
        offset=st.floats(0.0, 0.9),
        angle=st.floats(0.0, 2.0 * np.pi),
    )
    @settings(max_examples=100, deadline=None)
    def test_guards_fire_on_both_paths(self, poles, background, offset, angle):
        model = _model(poles, background)
        for s in model.singularities():
            radius = surface._PROXIMITY * max(abs(s), 1.0)
            inside = s + offset * radius * np.exp(1j * angle)
            for k in (s, inside):
                with pytest.raises(PoleProximityError):
                    model.eval(complex(k))
                with pytest.raises(PoleProximityError):
                    model.eval(np.array([1.0, k]))
