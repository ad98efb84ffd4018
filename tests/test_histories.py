import csv

import numpy as np
import pytest
from numpy.linalg import eigh

from resokit.errors import (
    ArrowOfTimeError,
    ConfigurationError,
    ZeroProbabilityError,
)
from resokit.expansion import EffectiveMatrix
from resokit import histories, scenarios
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


class TestNonFiniteTimes:
    # each used to return NaN entries, with a RuntimeWarning under
    # warnings-as-errors
    @pytest.mark.filterwarnings("error")
    def test_unitary_evolve(self, rho4, ham):
        with pytest.raises(ConfigurationError, match="not finite"):
            unitary_evolve(rho4, ham, np.inf)

    @pytest.mark.filterwarnings("error")
    def test_history_probability(self, rho4, ham):
        with pytest.raises(ConfigurationError, match="finite"):
            history_probability(rho4, ham, [(projector_onto(0), np.inf)])

    @pytest.mark.filterwarnings("error")
    def test_heisenberg_projector_phase_overflow(self):
        # finite t, but max|E| t passes the double range
        h = np.diag([1e300, -1e300, 0.0, 0.0]).astype(complex)
        with pytest.raises(ConfigurationError, match="not finite"):
            heisenberg_projector(projector_onto(0), h, 1e10)

    @pytest.mark.filterwarnings("error")
    def test_history_probability_phase_overflow(self, rho4):
        h = np.diag([1e300, -1e300, 0.0, 0.0]).astype(complex)
        with pytest.raises(ConfigurationError, match="not finite"):
            history_probability(rho4, h, [(projector_onto(0), 1e10)])


class TestShapesAndTypes:
    @pytest.mark.parametrize(
        "call",
        [lambda: history_probability(projector_onto(0, 3), np.eye(2), [(projector_onto(0, 2), 1.0)]),
         lambda: history_probability(projector_onto(0, 2), np.eye(3), [(projector_onto(0, 2), 1.0)]),
         lambda: history_probability(projector_onto(0, 2), np.eye(2), [(projector_onto(0, 3), 1.0)]),
         lambda: unitary_evolve(projector_onto(0, 3), np.eye(2), 1.0),
         lambda: heisenberg_projector(projector_onto(0, 3), np.eye(2), 1.0),
         lambda: collapse_selective(projector_onto(0, 3), projector_onto(0, 2))],
        ids=["history_rho", "history_hamiltonian", "history_projector", "unitary_evolve",
             "heisenberg_projector", "collapse_selective"],
    )
    def test_dimension_mismatch_refused(self, call):
        # numpy's matmul used to raise its bare ValueError
        with pytest.raises(ConfigurationError, match="dimensions differ"):
            call()

    @pytest.mark.parametrize("t", [True, "1.0", None, 1j], ids=["bool", "str", "none", "complex"])
    def test_history_time_must_be_real(self, t):
        with pytest.raises(ConfigurationError, match="real number"):
            History(steps=((projector_onto(0), t),))

    def test_numpy_times_accepted(self):
        p = projector_onto(0)
        hist = History(steps=((p, np.float32(0.5)), (p, np.int64(2))))
        assert [t for _, t in hist.steps] == [0.5, 2.0]

    @pytest.mark.parametrize("step", [(projector_onto(0),), (projector_onto(0), 1.0, 2.0), 1.0],
                             ids=["one", "three", "number"])
    def test_step_must_be_a_pair(self, step):
        with pytest.raises(ConfigurationError, match="pair"):
            History(steps=(step,))

    def test_infinite_history_time_refused(self):
        with pytest.raises(ConfigurationError, match="finite"):
            History(steps=((projector_onto(0), np.inf),))

    @pytest.mark.filterwarnings("error")
    def test_numpy_scalar_times_accepted(self, rho4, ham):
        assert np.allclose(unitary_evolve(rho4, ham, np.float32(0.5)),
                           unitary_evolve(rho4, ham, 0.5))
        assert unitary_evolve(rho4, ham, np.int64(0)) == pytest.approx(rho4)


class TestScale:
    # entries this large used to overflow in the checks' own arithmetic,
    # a RuntimeWarning under warnings-as-errors, before they were refused
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "call",
        [lambda: validate_projector(np.diag([1e300, 0.0])),
         lambda: unitary_evolve(np.diag([0.5, 0.5]), np.array([[0.0, 1e308], [-1e308, 0.0]]),
                                1.0),
         lambda: validate_density(np.diag([1e308, 1e308])),
         lambda: histories._family(np.stack([np.diag([1e300, 0.0])] * 3)[None], stacked=True)],
        ids=["projector", "hamiltonian", "density", "projector_stack"],
    )
    def test_huge_entries_refused(self, call):
        with pytest.raises(ConfigurationError, match="past the"):
            call()

    @pytest.mark.filterwarnings("error")
    def test_large_hamiltonian_reaches_the_phase_check(self):
        # a Hamiltonian is checked only by linear arithmetic, so 1e300
        # passes the scale check and the propagator refuses its phase
        h = np.diag([1e300, -1e300, 0.0, 0.0])
        with pytest.raises(ConfigurationError, match="not finite"):
            unitary_evolve(projector_onto(0), h, 1e10)
        assert np.allclose(unitary_evolve(projector_onto(0), h, 0.0), projector_onto(0))


def per_case_rows(levels, cases, time_scale, seed):
    """histories_demo's rows case by case through the public functions, on
    the draws the runner makes."""
    rng = np.random.default_rng(seed)
    rows = []
    for case in range(cases):
        rho = random_density(levels, rng)
        a = rng.normal(size=(levels, levels)) + 1j * rng.normal(size=(levels, levels))
        h = 0.5 * (a + a.conj().T)
        fam1 = random_projector_family(levels, rng)
        fam2 = random_projector_family(levels, rng)
        t1 = time_scale * float(rng.uniform(0.2, 1.0))
        t2 = t1 + time_scale * float(rng.uniform(0.2, 1.0))
        prob = history_probability(rho, h, History(steps=((fam1[0], t1), (fam2[0], t2))))
        try:
            mid, p1 = collapse_selective(unitary_evolve(rho, h, t1), fam1[0])
            _, p2 = collapse_selective(unitary_evolve(mid, h, t2 - t1), fam2[0])
            seq = p1 * p2
        except ZeroProbabilityError:
            seq = 0.0
        rows.append([case, t1, t2, prob, seq, abs(prob - seq), entropy(rho),
                     entropy(collapse_nonselective(rho, fam1))])
    return rows


def run_demo(tmp_path, levels, cases, time_scale=1.0, seed=7):
    config = {"kind": "histories_demo", "seed": seed,
              "parameters": {"levels": levels, "cases": cases, "time_scale": time_scale}}
    manifest = scenarios.run_scenario(config, out_dir=tmp_path)
    with open(tmp_path / "histories_demo.csv", newline="") as fh:
        rows = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
    return manifest, rows


class TestStackedRunner:
    @pytest.mark.parametrize("levels, time_scale", [(2, 1.0), (5, 3.7), (32, 0.4)])
    def test_matches_public_route(self, tmp_path, levels, time_scale):
        # one case past a block boundary
        cases = scenarios._HISTORY_BLOCK + 1
        manifest, rows = run_demo(tmp_path, levels, cases, time_scale)
        want = per_case_rows(levels, cases, time_scale, seed=7)
        assert len(rows) == len(want) == cases
        for got, ref in zip(rows, want):
            assert got[:3] == ref[:3]
            assert np.abs(np.subtract(got[3:], ref[3:])).max() <= 1e-13, (got, ref)
        achieved = manifest["achieved"]
        assert achieved["history_vs_sequential_max_diff"] == max(r[5] for r in rows)
        assert abs(achieved["entropy_min_gain"] - min(r[7] - r[6] for r in want)) <= 1e-13

    def test_one_eigendecomposition_per_block(self, tmp_path, monkeypatch):
        calls = []

        def counted(h):
            calls.append(h.shape)
            return eigh(h)

        monkeypatch.setattr(histories, "eigh", counted)
        block = scenarios._HISTORY_BLOCK
        run_demo(tmp_path, 3, 2 * block + 1)
        assert calls == [(block, 3, 3), (block, 3, 3), (1, 3, 3)]

    @pytest.mark.filterwarnings("error")
    def test_null_outcome_gives_zero(self):
        # case 0: the pure state |0> stays orthogonal to P1 = |1><1| under a
        # diagonal H, so the sequential route conditions on a null outcome;
        # case 1 conditions on P1 = |0><0| and is the public route's value
        rho = np.stack([projector_onto(0, 3), np.eye(3) / 3.0])
        h = np.stack([np.diag([0.3, -1.2, 2.0]), np.diag([0.1, 0.5, 0.9])]).astype(complex)
        first = np.stack([projector_onto(1, 3), projector_onto(0, 3)])
        v = np.ones(3) / np.sqrt(3.0)
        second = np.stack([np.outer(v, v)] * 2).astype(complex)
        t1, t2 = np.array([0.4, 0.7]), np.array([1.1, 1.5])
        u1, u2, u21 = histories._propagator(eigh(h), np.stack([t1, t2, t2 - t1]))
        seq = histories._sequential(rho, first, u1, second, u21)
        chained = histories._history(rho, histories._chain(((first, u1), (second, u2))))
        assert seq[0] == 0.0
        assert chained[0] <= 1e-30
        with pytest.raises(ZeroProbabilityError):
            collapse_selective(unitary_evolve(rho[0], h[0], t1[0]), first[0])
        mid, p1 = collapse_selective(unitary_evolve(rho[1], h[1], t1[1]), first[1])
        _, p2 = collapse_selective(unitary_evolve(mid, h[1], t2[1] - t1[1]), second[1])
        assert seq[1] == pytest.approx(p1 * p2, abs=1e-15)
        assert chained[1] == pytest.approx(p1 * p2, abs=1e-15)

    def test_stacked_checks_refuse_one_bad_case(self):
        # one check per stack still refuses a stack with one bad member
        good = projector_onto(0)
        with pytest.raises(ConfigurationError, match="idempotent"):
            histories._projector(np.stack([good, 0.5 * good]), stacked=True)
        with pytest.raises(ConfigurationError, match="trace"):
            histories._density_spectrum(np.stack([good, 2.0 * good]), stacked=True)
        with pytest.raises(ConfigurationError, match="square"):
            histories._projector(good, stacked=True)


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
