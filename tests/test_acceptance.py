"""Acceptance suite: nine primary criteria, one test per criterion.

Each test states its tolerance inline and asserts its runtime budget.
Run with -v to get one pass/fail line per criterion.
"""

import time

import numpy as np
import pytest

from resokit import exact
from resokit.errors import ArrowOfTimeError
from resokit.expansion import (
    PreparedState,
    effective_matrix,
    expand,
    truncated_evolve,
)
from resokit.gamow import GamowKet
from resokit.goldenrule import (
    Channel,
    DecayConfig,
    Detector,
    FormFactor,
    born_gap,
    decay_probability,
    normalize,
    total_width_check,
)
from resokit.hardy import HalfPlane, HardyFunction, paley_wiener_check
from resokit.histories import (
    History,
    collapse_nonselective,
    collapse_selective,
    entropy,
    history_probability,
    random_density,
    random_projector_family,
    unitary_evolve,
)
from resokit.scenarios import load_config, run_scenario
from resokit.surface import ResonancePole, SMatrixModel
from resokit.survival import (
    SpectralDensity,
    _pole_residues,
    exponential_law,
    survival_amplitude,
    survival_probability,
    tail_exponent,
)

POLE = ResonancePole(energy=1.0, width=0.2)
WIDE = ResonancePole(energy=1.6, width=0.35)
PSI = HardyFunction(terms=((1.0, 2.0 - 1.0j, 2),), half_plane=HalfPlane.UPPER)
PHI = HardyFunction(terms=((1.0, 1.5 + 0.8j, 2),), half_plane=HalfPlane.LOWER)


class _FlippedDeclaration:
    def __init__(self, wf):
        self._wf = wf
        self.half_plane = wf.half_plane.flipped

    def __call__(self, z):
        return self._wf(z)


def _golden_rule_fixture(energy=1.5, width=0.2):
    channels = (
        Channel(label="a", strength=1.0, form_factor=FormFactor(1.0)),
        Channel(label="b", strength=0.6, form_factor=FormFactor(2.0)),
        Channel(label="c", strength=2.2, form_factor=FormFactor(0.7)),
    )
    return normalize(
        DecayConfig(
            resonance=ResonancePole(energy=energy, width=width),
            channels=channels,
            detector=Detector.ideal(),
        )
    )


def test_criterion_1_semigroup_contract():
    started = time.perf_counter()
    ket = GamowKet(POLE)
    config = _golden_rule_fixture()
    matrix = effective_matrix(SMatrixModel(poles=(POLE,)))
    rho = np.diag([0.6, 0.4, 0.0, 0.0]).astype(complex)
    ham = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    state = PreparedState(PHI)

    # every evolving module rejects t < 0
    with pytest.raises(ArrowOfTimeError):
        ket.evolution_coefficient(-1e-12)
    with pytest.raises(ArrowOfTimeError):
        truncated_evolve(matrix, [1.0 + 0.0j], -1.0)
    with pytest.raises(ArrowOfTimeError):
        exact.principal_parts(PSI, state, SMatrixModel(poles=(POLE,))).pairing(-0.5)
    with pytest.raises(ArrowOfTimeError):
        decay_probability(config, -1e-9)
    with pytest.raises(ArrowOfTimeError):
        unitary_evolve(rho, ham, -0.1)

    # forward evolution follows the exponential law to 1e-12
    worst = 0.0
    for t in np.linspace(0.0, 10.0 / POLE.width, 40):
        c = ket.evolution_coefficient(float(t))
        worst = max(worst, abs(abs(c) ** 2 - np.exp(-POLE.width * t)))
    assert worst < 1e-12
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("poles", [(POLE,), (POLE, WIDE)], ids=["one_pole", "two_pole"])
def test_criterion_2_contour_deformation_identity(poles):
    started = time.perf_counter()
    model = SMatrixModel(poles=poles)
    state = PreparedState(PHI)
    g_min = min(p.width for p in poles)
    times = (0.0, 1.0 / g_min, 3.0 / g_min)
    exp = expand(PSI, state, model)
    # the closed form of resokit.exact pairs on the physical spectrum
    # without deforming any contour
    parts = exact.principal_parts(PSI, state, model)
    for t in times:
        direct = parts.pairing(t).value
        recon = exp.reconstruct(t)
        assert abs(direct - recon) / abs(direct) < 1e-10, f"t = {t}"
    assert time.perf_counter() - started < 30.0


def test_criterion_3_exact_golden_rule():
    started = time.perf_counter()
    config = _golden_rule_fixture()
    g = config.resonance.width

    assert abs(decay_probability(config, 0.0)) <= 1e-8

    h = 1e-3 / g
    samples = [decay_probability(config, i * h) for i in range(4)]
    rate0 = (-11.0 * samples[0] + 18.0 * samples[1]
             - 9.0 * samples[2] + 2.0 * samples[3]) / (6.0 * h)
    assert abs(rate0 - g) <= 1e-8 * g

    for t in np.linspace(0.0, 20.0 / g, 41):
        expected = 1.0 - np.exp(-g * t)
        assert abs(decay_probability(config, float(t)) - expected) <= 1e-8

    assert abs(total_width_check(config) - g) <= 1e-10
    assert time.perf_counter() - started < 10.0


def test_criterion_4_born_limit():
    started = time.perf_counter()
    ratios = (0.1, 0.01, 0.001)
    gaps = []
    for r in ratios:
        pole = ResonancePole(energy=2.0, width=r * 2.0)
        config = normalize(
            DecayConfig(
                resonance=pole,
                channels=(
                    Channel(label="main", strength=1.0, form_factor=FormFactor(1.0)),
                ),
                detector=Detector.ideal(),
            )
        )
        gaps.append(born_gap(config))
    assert gaps[0] > gaps[1] > gaps[2]
    slope = float(np.polyfit(np.log(ratios), np.log(gaps), 1)[0])
    assert abs(slope - 1.0) <= 0.15
    assert time.perf_counter() - started < 30.0


def test_criterion_5_khalfin_deviation():
    started = time.perf_counter()
    pole = ResonancePole(energy=1.0, width=0.05)
    density = SpectralDensity.truncated_lorentzian(pole)
    g = pole.width

    t5 = 5.0 / g
    p = survival_probability(density, t5)
    law = exponential_law(density, t5)
    assert abs(p - law) < 0.01
    pole_term = _pole_residues(density, t5)
    amp = survival_amplitude(density, t5)
    pole_normalized = abs(abs(amp) ** 2 / abs(pole_term) ** 2 - 1.0)
    assert pole_normalized < 0.01
    print(f"raw relative deviation at 5 lifetimes: {abs(p - law) / law:.3%}")

    assert tail_exponent(density) == pytest.approx(-2.0, abs=0.1)

    # the rotated contour against the closed form of resokit.exact
    for gt in (0.5, 1.0, 2.0):
        a = survival_amplitude(density, gt / g)
        b = exact.survival_amplitude(density, gt / g).value
        assert abs(a - b) < 1e-9
    assert time.perf_counter() - started < 60.0


def test_criterion_6_paley_wiener_support():
    started = time.perf_counter()
    assert paley_wiener_check(PSI) < 1e-5
    assert paley_wiener_check(PHI) < 1e-5
    assert paley_wiener_check(_FlippedDeclaration(PSI)) > 0.3
    assert paley_wiener_check(_FlippedDeclaration(PHI)) > 0.3
    assert time.perf_counter() - started < 10.0


def test_criterion_7_background_behavior():
    started = time.perf_counter()
    model = SMatrixModel(poles=(POLE, WIDE))
    state = PreparedState(PHI)
    t_end = 75.0
    exp = expand(PSI, state, model)
    g_min = min(p.width for p in model.poles)

    ts = np.geomspace(0.75, t_end, 30)
    mags = np.array([abs(exp.background(float(t))) for t in ts])
    assert np.all(np.diff(mags) < 0.0)
    assert mags[-1] < 0.1 * mags[0]

    # slower-than-exponential decay over the final decade of sampled t
    final = ts >= t_end / 10.0
    compensated = mags[final] * np.exp(g_min * ts[final])
    assert np.all(np.diff(compensated) > 0.0)

    # a zeroed component of the truncated theory never regenerates
    matrix = effective_matrix(model)
    coeff = np.array([0.8 + 0.1j, 0.0 + 0.0j])
    for t in (0.0, 1.0, 50.0):
        assert truncated_evolve(matrix, coeff, t)[1] == 0.0
    assert time.perf_counter() - started < 60.0


def test_criterion_8_histories_contract():
    started = time.perf_counter()
    rng = np.random.default_rng(2026)

    for _ in range(1000):
        rho = random_density(4, rng)
        fam = random_projector_family(4, rng, blocks=2)
        assert entropy(collapse_nonselective(rho, fam)) >= entropy(rho) - 1e-10

    p = np.zeros((4, 4), dtype=complex)
    p[0, 0] = 1.0
    with pytest.raises(ArrowOfTimeError):
        History(steps=((p, 1.0), (p, 0.5)))
    with pytest.raises(ArrowOfTimeError):
        History(steps=((p, -1.0),))

    worst = 0.0
    for _ in range(25):
        rho = random_density(4, rng)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        ham = a + a.conj().T
        fam1 = random_projector_family(4, rng, blocks=2)
        fam2 = random_projector_family(4, rng, blocks=2)
        t1, t2 = 0.6, 1.7
        chained = history_probability(
            rho, ham, History(steps=((fam1[0], t1), (fam2[0], t2)))
        )
        rho_t1 = unitary_evolve(rho, ham, t1)
        reduced, p1 = collapse_selective(rho_t1, fam1[0])
        rho_t2 = unitary_evolve(reduced, ham, t2 - t1)
        p2 = float(np.trace(fam2[0] @ rho_t2).real)
        worst = max(worst, abs(chained - p1 * p2))
    assert worst < 1e-12
    assert time.perf_counter() - started < 10.0


def test_criterion_9_cli_determinism(tmp_path):
    builtins = (
        "single_resonance",
        "kaon_pair",
        "golden_rule_sweep",
        "khalfin",
        "contour_check",
        "histories_demo",
    )
    for name in builtins:
        first = tmp_path / "first" / name
        second = tmp_path / "second" / name
        run_scenario(load_config(name), out_dir=first)
        run_scenario(load_config(name), out_dir=second)
        a = (first / f"{name}.csv").read_bytes()
        b = (second / f"{name}.csv").read_bytes()
        assert a == b, f"{name} CSV differs between identical runs"
