import numpy as np
import pytest
from scipy.linalg import eigh

from resokit.errors import (
    ArrowOfTimeError,
    ConfigurationError,
    ZeroProbabilityError,
)
from resokit.expansion import EffectiveMatrix
from resokit import histories
from resokit.histories import (
    History,
    collapse_nonselective,
    collapse_selective,
    entropy,
    heisenberg_projector,
    history_probability,
    random_density,
    random_projector_family,
    two_level_survival,
    unitary_evolve,
    validate_density,
    validate_projector,
    validate_projector_family,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


@pytest.fixture()
def ham(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return a + a.conj().T


@pytest.fixture()
def rho4():
    return np.diag([0.75, 0.25, 0.0, 0.0]).astype(complex)


def projector_onto(index, dim=4):
    p = np.zeros((dim, dim), dtype=complex)
    p[index, index] = 1.0
    return p


class TestValidators:
    def test_density_must_be_square(self):
        with pytest.raises(ConfigurationError):
            validate_density(np.ones((2, 3)))

    def test_density_must_be_hermitian(self):
        bad = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ConfigurationError):
            validate_density(bad)

    def test_density_trace(self):
        with pytest.raises(ConfigurationError):
            validate_density(np.eye(2, dtype=complex))

    def test_density_positivity(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ConfigurationError):
            validate_density(bad)

    def test_projector_idempotent(self):
        with pytest.raises(ConfigurationError):
            validate_projector(0.5 * np.eye(2))

    def test_family_must_resolve_identity(self):
        p = projector_onto(0, dim=3)
        with pytest.raises(ConfigurationError):
            validate_projector_family([p])

    def test_family_must_be_orthogonal(self):
        v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        p_overlap = np.outer(v, v.conj())
        with pytest.raises(ConfigurationError):
            validate_projector_family(
                [projector_onto(0, dim=3), p_overlap, projector_onto(2, dim=3)]
            )

    def test_family_dim_check(self):
        fam = [projector_onto(0, dim=2), projector_onto(1, dim=2)]
        with pytest.raises(ConfigurationError):
            validate_projector_family(fam, dim=3)

    def test_empty_family(self):
        with pytest.raises(ConfigurationError):
            validate_projector_family([])


    @pytest.mark.parametrize(
        "validate",
        [validate_density, validate_projector, histories._require_hermitian],
        ids=["density", "projector", "hamiltonian"],
    )
    @pytest.mark.parametrize(
        "matrix",
        [np.zeros((0, 0)), np.diag([np.inf, 1.0]), np.diag([np.nan, 1.0]),
         np.array([[0.5, np.inf], [np.inf, 0.5]]), np.diag([0.5 + 1j * np.inf, 0.5])],
        ids=["empty", "inf_diagonal", "nan_diagonal", "inf_off_diagonal", "inf_imaginary"],
    )
    def test_empty_and_non_finite_refused(self, validate, matrix):
        with pytest.raises(ConfigurationError):
            validate(matrix)

    def test_non_finite_hamiltonian_refused_before_evolution(self):
        # scipy's eigh used to end this with "array must not contain infs or NaNs"
        with pytest.raises(ConfigurationError, match="finite"):
            unitary_evolve(np.diag([0.75, 0.25]), np.diag([np.inf, 1.0]), 1.0)

    def test_tolerances_unchanged(self):
        # hermiticity within 1e-12 and idempotence within 1e-10, as before
        p = projector_onto(0, dim=2)
        validate_projector(p + np.array([[0.0, 0.9e-12], [0.0, 0.0]]))
        with pytest.raises(ConfigurationError):
            validate_projector(p + np.array([[0.0, 1.1e-12], [0.0, 0.0]]))
        validate_projector(p * (1.0 + 0.9e-10))
        with pytest.raises(ConfigurationError):
            validate_projector(p * (1.0 + 1.1e-10))


class TestRandomGenerators:
    def test_random_density_is_valid(self, rng):
        for dim in (2, 3, 5):
            validate_density(random_density(dim, rng))

    def test_random_family_is_valid(self, rng):
        for blocks in (2, 3):
            fam = random_projector_family(5, rng, blocks=blocks)
            assert len(fam) == blocks
            validate_projector_family(fam, dim=5)


class TestEvolution:
    def test_forward_only(self, rho4, ham):
        with pytest.raises(ArrowOfTimeError):
            unitary_evolve(rho4, ham, -0.5)
        with pytest.raises(ArrowOfTimeError):
            heisenberg_projector(projector_onto(0), ham, -0.5)

    def test_hamiltonian_must_be_hermitian(self, rho4):
        with pytest.raises(ConfigurationError):
            unitary_evolve(rho4, 1j * np.eye(4), 1.0)

    def test_preserves_density(self, rho4, ham):
        out = unitary_evolve(rho4, ham, 2.3)
        validate_density(out)

    def test_entropy_is_unitary_invariant(self, rho4, ham):
        before = entropy(rho4)
        after = entropy(unitary_evolve(rho4, ham, 1.7))
        assert after == pytest.approx(before, abs=1e-10)

    def test_heisenberg_projector_is_projector(self, ham):
        pt = heisenberg_projector(projector_onto(1), ham, 1.2)
        validate_projector(pt)

    def test_heisenberg_vs_schrodinger_picture(self, rho4, ham):
        p = projector_onto(0)
        t = 0.9
        heis = np.trace(heisenberg_projector(p, ham, t) @ rho4).real
        rho_t = unitary_evolve(rho4, ham, t)
        schro = np.trace(p @ rho_t).real
        assert heis == pytest.approx(schro, rel=1e-12)


class TestEntropy:
    def test_frozen_two_outcome_value(self, rho4):
        assert entropy(rho4) == pytest.approx(0.5623351446194618, rel=1e-12)

    def test_closed_form(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        expected = -(0.6 * np.log(0.6) + 0.4 * np.log(0.4))
        assert entropy(rho) == pytest.approx(expected, abs=1e-10)

    def test_pure_state_entropy_is_zero(self):
        assert entropy(projector_onto(0)) == pytest.approx(0.0, abs=1e-10)

    def test_nonselective_collapse_never_decreases_entropy(self, rng):
        for _ in range(50):
            rho = random_density(4, rng)
            fam = random_projector_family(4, rng, blocks=2)
            collapsed = collapse_nonselective(rho, fam)
            validate_density(collapsed)
            assert entropy(collapsed) >= entropy(rho) - 1e-10


class TestCollapse:
    def test_selective_probability(self, rho4):
        reduced, prob = collapse_selective(rho4, projector_onto(0))
        assert prob == pytest.approx(0.75)
        assert entropy(reduced) == pytest.approx(0.0, abs=1e-10)

    def test_null_outcome_rejected(self, rho4):
        with pytest.raises(ZeroProbabilityError):
            collapse_selective(rho4, projector_onto(3))

    def test_nonselective_preserves_trace(self, rho4):
        fam = [projector_onto(i) for i in range(4)]
        out = collapse_nonselective(rho4, fam)
        assert np.trace(out).real == pytest.approx(1.0, rel=1e-12)


class TestHistories:
    def test_times_must_increase(self):
        p = projector_onto(0)
        with pytest.raises(ArrowOfTimeError):
            History(steps=((p, 1.0), (p, 1.0)))
        with pytest.raises(ArrowOfTimeError):
            History(steps=((p, 2.0), (p, 1.0)))
        with pytest.raises(ArrowOfTimeError):
            History(steps=((p, 0.0),))

    def test_needs_a_step(self):
        with pytest.raises(ConfigurationError):
            History(steps=())

    def test_single_step_matches_measurement(self, rho4, ham):
        p = projector_onto(0)
        t = 0.8
        hist = History(steps=((p, t),))
        expected = np.trace(p @ unitary_evolve(rho4, ham, t)).real
        assert history_probability(rho4, ham, hist) == pytest.approx(
            expected, rel=1e-12
        )

    def test_two_step_equals_sequential_collapse(self, rho4, ham):
        p1 = projector_onto(0) + projector_onto(1)
        p2 = projector_onto(0)
        t1, t2 = 0.6, 1.4
        hist = History(steps=((p1, t1), (p2, t2)))
        chained = history_probability(rho4, ham, hist)

        rho_t1 = unitary_evolve(rho4, ham, t1)
        reduced, prob1 = collapse_selective(rho_t1, p1)
        rho_t2 = unitary_evolve(reduced, ham, t2 - t1)
        prob2 = np.trace(p2 @ rho_t2).real
        assert abs(chained - prob1 * prob2) < 1e-12

    def test_refinement_sum_rule(self, rho4, ham, rng):
        # summing a complete family at the last step recovers the
        # shorter history's probability
        p1 = projector_onto(0) + projector_onto(2)
        fam = random_projector_family(4, rng, blocks=3)
        short = history_probability(rho4, ham, History(steps=((p1, 0.7),)))
        refined = sum(
            history_probability(rho4, ham, History(steps=((p1, 0.7), (p, 1.5))))
            for p in fam
        )
        assert abs(refined - short) < 1e-12

    def test_one_eigendecomposition_per_history(self, rho4, ham, monkeypatch):
        calls = []

        def counted(h):
            calls.append(h)
            return eigh(h)

        monkeypatch.setattr(histories, "eigh", counted)
        p1 = projector_onto(0) + projector_onto(1)
        hist = History(steps=((p1, 0.6), (projector_onto(0), 1.4)))
        expected = histories.heisenberg_projector(projector_onto(0), ham, 1.4) @ \
            histories.heisenberg_projector(p1, ham, 0.6)
        calls.clear()
        prob = history_probability(rho4, ham, hist)
        assert len(calls) == 1
        assert prob == pytest.approx(np.trace(expected @ rho4 @ expected.conj().T).real,
                                     rel=1e-13)

    def test_accepts_raw_step_sequence(self, rho4, ham):
        p = projector_onto(0)
        direct = history_probability(rho4, ham, [(p, 0.5)])
        via_history = history_probability(rho4, ham, History(steps=((p, 0.5),)))
        assert direct == via_history


class TestTwoLevelSurvival:
    def test_interference_formula(self):
        mat = EffectiveMatrix(eigenvalues=(1.0 - 0.05j, 1.3 - 0.1j))
        b = np.array([0.6, 0.4], dtype=complex)
        w = np.array([1.0, 1.0], dtype=complex)
        t = 2.0
        expected = abs(np.sum(w * b * np.exp(-1j * np.array(mat.eigenvalues) * t))) ** 2
        assert two_level_survival(b, mat, w, t) == pytest.approx(expected, rel=1e-14)

    def test_oscillation_beats_at_level_splitting(self):
        mat = EffectiveMatrix(eigenvalues=(1.0 - 0.01j, 1.5 - 0.01j))
        b = np.array([0.5, 0.5], dtype=complex)
        w = np.array([1.0, 1.0], dtype=complex)
        period = 2.0 * np.pi / 0.5
        p0 = two_level_survival(b, mat, w, 0.0)
        trough = two_level_survival(b, mat, w, period / 2.0)
        assert trough < 0.05 * p0

    def test_validation(self):
        mat = EffectiveMatrix(eigenvalues=(1.0 - 0.05j, 1.3 - 0.1j))
        with pytest.raises(ConfigurationError):
            two_level_survival([1.0], mat, [1.0, 1.0], 0.0)
        with pytest.raises(ArrowOfTimeError):
            two_level_survival([1.0, 0.0], mat, [1.0, 1.0], -1.0)
