import cmath
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resokit import exact, expansion
from resokit.errors import (
    ArrowOfTimeError,
    ConfigurationError,
    HardyClassError,
    QuadratureError,
)
from resokit.expansion import (
    EffectiveMatrix,
    PreparedState,
    ResonanceExpansion,
    TruncationError,
    background_profile,
    dirac_pairing,
    effective_matrix,
    expand,
    smatrix_pairing_direct,
    truncated_evolve,
)
from resokit.hardy import HalfPlane, HardyFunction
from resokit.quadrature import LAPLACE_RULE, LaplaceTable, circle_residue, exp_sinh_rule
from resokit.surface import BackgroundPhase, ResonancePole, SMatrixModel, blaschke_residue
from test_hardy import _FlippedDeclaration

CHECK_TIMES = (0.0, 5.0, 15.0)
# 20-digit mpmath values of the pairing on the physical spectrum for a
# resonance with a background phase, written by
# tests/background_reference.py, which shares no code with resokit
BACKGROUND_REFERENCE = json.loads(
    Path(__file__).with_name("background_reference.json").read_text())


@pytest.fixture(scope="module")
def exp_one(psi, state, model):
    return expand(psi, state, model)


@pytest.fixture(scope="module")
def exp_two(psi, state, model_two):
    return expand(psi, state, model_two)


def _contour_coefficient(psi, state, model, i):
    """-2 pi i times the residue at pole i of the momentum integrand, by a
    circle integral: independent of `blaschke_residue`."""
    dag = psi.conjugated()
    k = model.poles[i].momentum

    def integrand(q):
        return dag(q * q) * model.eval(q) * state.wave(q * q) * 2.0 * q

    return -2j * np.pi * circle_residue(integrand, k, 0.25 * abs(k.imag))


def _closed_form_coefficient(psi, state, model, i):
    # residue of dag(k^2) S(k) wave(k^2) 2k at the pole factorizes
    # into function values times the S-matrix residue
    pole = model.poles[i]
    z = pole.position
    return (-2j * np.pi * psi.conjugated()(z) * state.wave(z) * 2.0 * pole.momentum
            * blaschke_residue(model, i))


def _flipped_pairs(psi, phi, state):
    """(dual, state) pairs where one side is a class-flipped declaration
    that claims the class its slot needs."""
    return [(_FlippedDeclaration(phi), state), (psi, _FlippedDeclaration(psi))]


class TestPreparedState:
    def test_one_field(self, phi, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("PreparedState ran an FFT")

        monkeypatch.setattr(np.fft, "fft", no_fft)
        st = PreparedState(phi)
        assert st.wave is phi
        assert [f.name for f in dataclasses.fields(st)] == ["wave"]

    def test_upper_wave_rejected(self, psi):
        with pytest.raises(HardyClassError):
            PreparedState(psi)

    def test_non_hardy_rejected(self, psi, phi):
        # a class-flipped declaration is a callable, not a HardyFunction
        for wave in (lambda e: 0.0, _FlippedDeclaration(psi), _FlippedDeclaration(phi)):
            with pytest.raises(ConfigurationError):
                PreparedState(wave)


class TestDirectPairing:
    def test_dirac_pairing_cross_method(self, psi, state):
        value = dirac_pairing(psi, state)
        dag = psi.conjugated()
        u, w = exp_sinh_rule(0.02)
        alt = np.sum(w * dag(u) * state.wave(u))
        assert value == pytest.approx(alt, rel=1e-12)

    def test_narrow_wave_pole_against_mpmath(self, psi):
        # a wave pole 1e-6 above the axis, where QUADPACK was off by 1.09
        # relative; the reference is mpmath.quad at 40 digits with
        # breakpoints down to 1e-8 around E = 1
        wave = HardyFunction(((1, 1 + 1e-6j, 1), (0.5, 2 + 1j, 2)), HalfPlane.LOWER)
        ref = 0.1291570720169725396229783611840 - 0.0876928819774842993646248528895j
        assert abs(dirac_pairing(psi, wave) - ref) <= 1e-12 * abs(ref)

    def test_cancelling_poles_raise(self):
        # dual and state poles 1e-6 apart: their principal parts cancel past
        # the 1e-9 bound, as in the closed-form S-matrix pairing
        dual = HardyFunction(((1.0, 1.0 - 0.1j, 1),), HalfPlane.UPPER)
        wave = HardyFunction(((1.0, 1.0 + 1e-6 + 0.1j, 1),), HalfPlane.LOWER)
        with pytest.raises(QuadratureError):
            dirac_pairing(dual, wave)

    def test_wrong_classes_rejected(self, psi, phi, state, model):
        with pytest.raises(HardyClassError):
            dirac_pairing(phi, state)
        with pytest.raises(HardyClassError):
            dirac_pairing(psi, psi)
        with pytest.raises(HardyClassError):
            smatrix_pairing_direct(phi, state, model, 0.0)
        for dual, wave in _flipped_pairs(psi, phi, state):
            with pytest.raises(HardyClassError):
                dirac_pairing(dual, wave)
            with pytest.raises(HardyClassError):
                smatrix_pairing_direct(dual, wave, model, 0.0)

    def test_negative_time_rejected(self, psi, state, model):
        with pytest.raises(ArrowOfTimeError):
            smatrix_pairing_direct(psi, state, model, -0.1)

    def test_model_type_checked(self, psi, state):
        with pytest.raises(ConfigurationError):
            smatrix_pairing_direct(psi, state, "model", 0.0)

    @pytest.mark.parametrize("t", [1.0, 15.0])
    def test_error_bound_covers_the_closed_form(self, psi, state, model, t):
        # QAWF runs to infinity, so QUADPACK's bound is the whole error
        # estimate, and it covers the gap to the closed form
        res = smatrix_pairing_direct(psi, state, model, t)
        ref = exact.principal_parts(psi, state, model).pairing(t).value
        assert abs(res.value - ref) <= res.error < 1e-7

    @pytest.mark.parametrize(
        "two_poles, ref",
        [(False, 0.3859048475277142267679027 - 0.3190577678130126560805839j),
         (True, -1.078212414937062590117209 - 0.04999209633486069905113854j)],
        ids=["contour_check", "kaon_pair"],
    )
    def test_t0_pairing_is_not_cut(self, psi, state, model, model_two, two_poles, ref):
        # 30-digit mpmath values of the rational integral to infinity; the
        # former cut at the 1e-9 tail bound was off by up to 2e-9 relative
        res = smatrix_pairing_direct(psi, state, model_two if two_poles else model, 0.0)
        assert abs(res.value - ref) <= 1e-12 * abs(ref)

    def test_one_integrand_call_per_abscissa(self, psi, state, model_two, monkeypatch):
        # the kaon_pair model and waves at its latest check time, 3 lifetimes
        # of the narrower pole: four QAWF passes over about 1,000 abscissae
        calls = []
        real_quad = expansion.decaying_fourier_quad

        def counting_quad(f, omega, **kwargs):
            def counted(e):
                calls.append(e)
                return f(e)

            return real_quad(counted, omega, **kwargs)

        monkeypatch.setattr(expansion, "decaying_fourier_quad", counting_quad)
        t = 3.0 / min(p.width for p in model_two.poles)
        smatrix_pairing_direct(psi, state, model_two, t)
        assert len(calls) == len(set(calls))
        assert len(calls) <= 1100


class TestExpansion:
    def test_coefficient_closed_form(self, exp_one, psi, state, model):
        expected = _contour_coefficient(psi, state, model, 0)
        assert exp_one.coefficients[0] == pytest.approx(expected, rel=1e-9)

    def test_frozen_single_pole_coefficient(self, exp_one):
        assert exp_one.coefficients[0] == pytest.approx(
            0.3929489098854384 - 0.367123877186695j, rel=1e-9
        )

    def test_two_pole_coefficients_closed_form(self, exp_two, psi, state, model_two):
        for i in range(len(model_two.poles)):
            expected = _contour_coefficient(psi, state, model_two, i)
            assert exp_two.coefficients[i] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "poles",
        [((1.0, 1e-7),), ((1.0, 0.2), (1.0 + 1e-7, 0.2)), ((1e6, 0.2),)],
        ids=["narrow", "near_pair", "high_energy"],
    )
    def test_coefficients_are_closed_form_at_the_edges(self, psi, state, poles):
        # layouts where a circle integral around the pole loses digits (up to
        # 1.4e-9 relative): a narrow pole, a near pair and a high energy
        model = SMatrixModel(poles=tuple(ResonancePole(e, w) for e, w in poles))
        exp = expand(psi, state, model)
        for i, b in enumerate(exp.coefficients):
            expected = _closed_form_coefficient(psi, state, model, i)
            assert abs(b - expected) <= 1e-13 * abs(expected)

    def test_no_circle_integral(self, psi, state, model_two, monkeypatch):
        def no_circle(*args, **kwargs):
            raise AssertionError("expand ran a circle integral")

        monkeypatch.setattr(expansion, "circle_residue", no_circle)
        exp = expand(psi, state, model_two)
        assert len(exp.coefficients) == 2

    @settings(max_examples=200, deadline=None)
    @given(
        dual_poles=st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, -1e-6)),
                            min_size=1, max_size=3),
        wave_poles=st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(1e-6, 50.0)),
                            min_size=1, max_size=3),
    )
    def test_wave_poles_avoid_the_deformation_quadrant(self, dual_poles, wave_poles):
        # the pair `expand` accepts is LOWER on both sides, so no momentum
        # image +-sqrt(p) of a wave pole lies in the closed fourth quadrant
        def wave(poles, half_plane):
            terms = tuple((1.0, complex(re, im), 1) for re, im in poles)
            return HardyFunction(terms=terms, half_plane=half_plane)

        dag, phi = expansion._require_pair(
            wave(dual_poles, HalfPlane.UPPER),
            PreparedState(wave(wave_poles, HalfPlane.LOWER)),
        )
        for f in (dag, phi):
            assert f.half_plane is HalfPlane.LOWER
            for _, p, _ in f.terms:
                root = cmath.sqrt(p)
                for k in (root, -root):
                    assert not (k.real >= 0.0 and k.imag <= 0.0), (p, k)

    @pytest.mark.parametrize("t", CHECK_TIMES)
    def test_deformation_identity_single_pole(self, exp_one, psi, state, model, t):
        direct = exact.principal_parts(psi, state, model).pairing(t).value
        recon = exp_one.reconstruct(t)
        assert abs(direct - recon) / abs(direct) < 1e-12

    @pytest.mark.parametrize("t", CHECK_TIMES)
    def test_deformation_identity_two_pole(self, exp_two, psi, state, model_two, t):
        direct = exact.principal_parts(psi, state, model_two).pairing(t).value
        recon = exp_two.reconstruct(t)
        assert abs(direct - recon) / abs(direct) < 1e-12

    def test_deformation_identity_with_background_phase(self, psi, state):
        # widths 0.2, 1e-2 and 1e-3 at 0, 1 and 3 lifetimes, through the
        # one-time and the grid paths; at width 1e-3 and 3 lifetimes the
        # QUADPACK pairing to infinity missed the line by 0.92 relative
        assert len(BACKGROUND_REFERENCE) == 9
        for width in sorted({r["resonances"][0][1] for r in BACKGROUND_REFERENCE}):
            rows = [r for r in BACKGROUND_REFERENCE if r["resonances"][0][1] == width]
            (energy, _), = rows[0]["resonances"]
            bg = BackgroundPhase(terms=tuple(map(tuple, rows[0]["background"])))
            model = SMatrixModel(poles=(ResonancePole(energy, width),), background=bg)
            exp = expand(psi, state, model)
            ts = np.array([r["t"] for r in rows])
            refs = np.array([complex(*map(float, r["value"])) for r in rows])
            poles, backgrounds, _ = exp.grid(ts)
            for got in (np.array([exp.reconstruct(t) for t in ts]), poles + backgrounds):
                gaps = np.abs(got - refs) / np.abs(refs)
                assert np.all(gaps <= 1e-12), (width, gaps)

    def test_eigenvalues_follow_poles(self, exp_two, model_two):
        assert exp_two.eigenvalues == tuple(p.position for p in model_two.poles)

    def test_forward_only(self, exp_one):
        with pytest.raises(ArrowOfTimeError):
            exp_one.pole_sum(-0.1)
        with pytest.raises(ArrowOfTimeError):
            exp_one.background(-0.1)

    def test_one_table_serves_every_time(self, exp_one, psi, state, model):
        # at times far past the scenario horizons the shared table still
        # passes the gate, agrees with the 8x finer exp-sinh rule, and
        # reports an error no smaller than its gap to that rule
        s, w = exp_sinh_rule(2.0**-12, 4.625)
        u = np.exp(0.25j * np.pi) * s
        dag = psi.conjugated()
        fine = np.exp(0.25j * np.pi) * dag(-u * u) * model.eval(-1j * u)
        fine = fine * state.wave(-u * u) * (-2.0 * u)
        for t in (0.0, 1e2, 1e4, 1e6):
            ref = np.sum(w * fine * np.exp(-s * s * t))
            value, error = exp_one.background_with_error(t)
            assert abs(value - ref) <= error <= 1e-12 * abs(value)
            assert abs(value - ref) < 1e-13

    def test_long_time_asymptote(self, exp_one, psi, state):
        # g(u) ~ -2u conj(psi)(0) S(0) phi(0) near u = 0 with S(0) = 1, so
        # t bg(t) -> -i conj(psi)(0) phi(0) as t grows
        limit = -1j * psi.conjugated()(0.0) * state.wave(0.0)
        gaps = [
            abs(t * exp_one.background(t) - limit) / abs(limit)
            for t in (1e4, 1e5, 1e6)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_background_decays(self, exp_one):
        ts, mags = background_profile(exp_one, np.linspace(1.0, 15.0, 8))
        assert mags[-1] < mags[0]

    def test_truncation_error_is_background_fraction(self, exp_one):
        err = exp_one.truncation_error(0.0)
        assert err.relative
        expected = abs(exp_one.background(0.0)) / abs(exp_one.reconstruct(0.0))
        assert err.error == pytest.approx(expected, rel=1e-12)

    def test_ray_table_is_frozen(self, exp_one):
        exp_one.background(0.0)
        with pytest.raises(ValueError):
            exp_one._table._rows[0][0, 0] = 0.0

    def test_table_is_derived(self, exp_one, psi, state, model):
        # the expansion takes no table: it samples its own line integrand,
        # so a copy built from the same fields sums the same bits
        assert [f.name for f in dataclasses.fields(ResonanceExpansion)] == [
            "model", "psi", "state", "coefficients"]
        for name in ("ray_values", "ray_nodes"):
            with pytest.raises(TypeError):
                dataclasses.replace(exp_one, **{name: LAPLACE_RULE[0]})
        twin = ResonanceExpansion(model=model, psi=psi, state=state,
                                  coefficients=exp_one.coefficients)
        for t in CHECK_TIMES:
            assert twin.background_with_error(t) == exp_one.background_with_error(t)

    def test_table_is_small(self, psi, state, model, model_two, laplace_samples):
        # construction samples the 297 nodes of the stride-16 block, and the
        # check times resolve there, so nothing more is sampled
        samples = laplace_samples(expansion)
        for m in (model, model_two):
            exp = expand(psi, state, m)
            for t in CHECK_TIMES:
                exp.background(t)
            exp.grid(np.array(CHECK_TIMES))
        assert [nodes.size for nodes, _ in samples] == [297, 297]

    def test_no_horizon_parameter(self, psi, state, model):
        with pytest.raises(TypeError):
            expand(psi, state, model, t_max=16.0)

    def test_class_checks(self, psi, phi, state, model):
        with pytest.raises(HardyClassError):
            expand(phi, state, model)
        with pytest.raises(HardyClassError):
            expand(psi, psi, model)
        for dual, wave in _flipped_pairs(psi, phi, state):
            with pytest.raises(HardyClassError):
                expand(dual, wave, model)


class TestZeroPairing:
    def test_zero_reports_absolute_error(self):
        # a zero pole sum and background: no full value to be relative to
        err = TruncationError.from_parts(0j, 0j)
        assert not err.relative
        assert err.error == 0.0


class TestSyntheticTables:
    def test_stride_gate_fires(self, model, psi, state):
        # a zero pole sum, so nothing floors the gate, over a line integrand
        # whose sign flips from node to node, zero at both ends: every
        # stride disagrees with the one before while no mass is clipped
        exp = ResonanceExpansion(model=model, psi=psi, state=state, coefficients=(0j,))
        nodes, weights = LAPLACE_RULE
        values = (-1.0) ** np.arange(nodes.size) / weights
        values[[0, -1]] = 0.0
        object.__setattr__(exp, "_table", LaplaceTable(
            lambda s: values[np.searchsorted(nodes, s)], power=2))
        with pytest.raises(QuadratureError, match="unresolved at t = 0:"):
            exp.background(0.0)
        with pytest.raises(QuadratureError, match="unresolved at t = 0:"):
            exp.reconstruct(0.0)
        with pytest.raises(QuadratureError, match="unresolved at t = 0:"):
            exp.grid(np.zeros(3))


class TestBackgroundProfile:
    def test_grid_validation(self, exp_one):
        with pytest.raises(ArrowOfTimeError):
            background_profile(exp_one, [-1.0, 1.0])
        # a string or complex time ended in numpy's bare ValueError or TypeError
        for times in ([], [[1.0, 2.0]], [1.0, 1.0, 2.0], ["a"], [1j]):
            with pytest.raises(ConfigurationError):
                background_profile(exp_one, times)

    def test_refuses_before_evaluating(self, exp_one, monkeypatch):
        # a decreasing grid is refused before the background is summed on it
        def refused(self, times):
            raise AssertionError("the grid was evaluated before it was checked")

        monkeypatch.setattr(type(exp_one), "grid", refused)
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            background_profile(exp_one, [2.0, 1.0])


class TestPointEvaluation:
    def test_one_check_and_one_pole_sum(self, exp_two, monkeypatch):
        # reconstruct and truncation_error check t once and sum the poles
        # once, and give the bits of pole_sum plus background
        calls = {"forward_time": 0, "_pole_sums": 0}
        checked, summed = expansion.forward_time, type(exp_two)._pole_sums

        def forward_time(*args):
            calls["forward_time"] += 1
            return checked(*args)

        def pole_sums(self, ts):
            calls["_pole_sums"] += 1
            return summed(self, ts)

        for t in (0.0, 0.7, 12.0, 60.0):
            pole, background = exp_two.pole_sum(t), exp_two.background(t)
            expected = TruncationError.from_parts(pole, background)
            monkeypatch.setattr(expansion, "forward_time", forward_time)
            monkeypatch.setattr(type(exp_two), "_pole_sums", pole_sums)
            assert exp_two.reconstruct(t) == pole + background
            assert exp_two.truncation_error(t) == expected
            assert calls == {"forward_time": 2, "_pole_sums": 2}
            monkeypatch.undo()
            calls.update(forward_time=0, _pole_sums=0)


class TestEffectiveMatrix:
    def test_from_model(self, model_two):
        mat = effective_matrix(model_two)
        assert mat.size == 2
        assert mat.eigenvalues == tuple(p.position for p in model_two.poles)
        as_m = mat.as_matrix()
        assert as_m.shape == (2, 2)
        assert as_m[0, 1] == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EffectiveMatrix(eigenvalues=())
        with pytest.raises(ConfigurationError):
            EffectiveMatrix(eigenvalues=(1.0 + 0.1j,))
        with pytest.raises(ConfigurationError):
            effective_matrix("not a model")

    def test_truncated_evolve_decays(self, model, pole):
        mat = effective_matrix(model)
        out = truncated_evolve(mat, [1.0 + 0.0j], 3.0)
        assert abs(out[0]) == pytest.approx(np.exp(-0.5 * pole.width * 3.0))

    def test_decayed_component_never_regenerates(self, model_two):
        mat = effective_matrix(model_two)
        coeff = np.array([0.7 - 0.2j, 0.0 + 0.0j])
        for t in (0.0, 1.0, 40.0):
            out = truncated_evolve(mat, coeff, t)
            assert out[1] == 0.0

    def test_truncated_evolve_validation(self, model_two):
        mat = effective_matrix(model_two)
        with pytest.raises(ConfigurationError):
            truncated_evolve(mat, [1.0], 0.0)
        with pytest.raises(ArrowOfTimeError):
            truncated_evolve(mat, [1.0, 0.0], -1.0)
        with pytest.raises(ConfigurationError):
            truncated_evolve("diag", [1.0], 0.0)
