import numpy as np
import pytest
from scipy.integrate import quad

from resokit.errors import QuadratureError
from resokit.quadrature import (
    circle_residue,
    complex_quad,
    complex_quad_full_line,
    decaying_fourier_quad,
    exp_sinh_rule,
    exp_sinh_table,
    integrate_exp_sinh,
    oscillatory_quad,
)


def test_exp_sinh_gaussian():
    x, w = exp_sinh_rule(1e-3)
    assert np.sum(w * np.exp(-x * x)) == pytest.approx(np.sqrt(np.pi) / 2.0, abs=1e-13)


@pytest.mark.parametrize("h", [0.1, 0.3])
def test_exp_sinh_stride_subset_on_doubled_grid(h):
    # clip / h rounds up to an odd count at these steps; the even-index
    # subset must still sit on the 2h grid for the stride check to hold
    assert int(np.ceil(3.7 / h)) % 2 == 1
    x, w = exp_sinh_rule(h)
    half = (x.size - 1) // 4
    k = np.arange(-half, half + 1)
    np.testing.assert_array_equal(x[::2], np.exp(0.5 * np.pi * np.sinh(2.0 * h * k)))
    coarse = 0.5 * np.pi * np.cosh(2.0 * h * k) * x[::2] * (2.0 * h)
    assert 2.0 * w[::2] == pytest.approx(coarse, rel=1e-15)


def test_integrate_exp_sinh_adaptive_lorentzian():
    val, err = integrate_exp_sinh(lambda x: 1.0 / (1.0 + x * x))
    assert val == pytest.approx(np.pi / 2.0, abs=1e-11)
    assert err < 1e-10


def test_integrate_exp_sinh_reports_failure():
    rng = np.random.default_rng(0)

    def noisy(x):
        return rng.normal(size=x.shape)

    with pytest.raises(QuadratureError):
        integrate_exp_sinh(noisy)


def test_ladder_levels_nest_bit_for_bit():
    # level k (step 2^-(3+k), clip 3.75) is the even-index subset of
    # level k+1 with doubled weights, exactly, so refining reuses values
    for level in range(13):
        x, w = exp_sinh_rule(2.0 ** -(3 + level), 3.75)
        xf, wf = exp_sinh_rule(2.0 ** -(4 + level), 3.75)
        assert x.size == 60 * 2**level + 1
        np.testing.assert_array_equal(xf[::2], x)
        np.testing.assert_array_equal(2.0 * wf[::2], w)


def _channel(ratio, energy=2.0, cutoff=1.0):
    """The golden_rule_sweep channel integrand at width = ratio * energy."""
    g = ratio * energy

    def f(e):
        lorentzian = (g / (2.0 * np.pi)) / ((e - energy) ** 2 + 0.25 * g * g)
        return e / (e / cutoff + 1.0) ** 4 * lorentzian

    return f


def test_each_node_evaluated_once():
    f = _Counting(_channel(0.001))
    x, w, v, gap = exp_sinh_table(f)
    seen = np.concatenate(f.calls)
    assert seen.size == x.size == 245_761
    assert np.unique(seen).size == seen.size
    np.testing.assert_array_equal(np.sort(seen), x)
    assert gap <= 1e-12 * (1.0 + abs(np.sum(w * v)))


# 30-digit mpmath values of the golden_rule_sweep channel integral at
# energy 2 and cutoff 1; the script that produced them is in CHANGES.md
_CHANNEL_REFERENCE = {
    0.1: 0.02523520535187803017947096,
    0.01: 0.0247553106516515468202742,
    0.001: 0.02469785175673573774184871,
}


@pytest.mark.parametrize("ratio", sorted(_CHANNEL_REFERENCE))
def test_narrow_lorentzian_channel_against_mpmath(ratio):
    value, err = integrate_exp_sinh(_channel(ratio))
    want = _CHANNEL_REFERENCE[ratio]
    assert abs(value - want) <= 3e-14 * want
    assert err <= 1e-12 * (1.0 + value)


def test_complex_quad_matches_parts():
    val, _ = complex_quad(lambda x: np.exp(1j * x), 0.0, np.pi / 2.0)
    assert val == pytest.approx(1.0 + 1j * 1.0, abs=1e-12)


def test_complex_quad_full_line_lorentzian():
    val, _ = complex_quad_full_line(lambda x: 1.0 / (x * x + 4.0))
    assert val == pytest.approx(np.pi / 2.0, abs=1e-11)


def test_oscillatory_quad_against_plain():
    f = lambda x: 1.0 / (1.0 + x) + 1j * np.exp(-x)
    omega = 7.0
    ref_r = quad(lambda x: (f(x) * np.exp(-1j * omega * x)).real, 0.0, 20.0, limit=400)[0]
    ref_i = quad(lambda x: (f(x) * np.exp(-1j * omega * x)).imag, 0.0, 20.0, limit=400)[0]
    val, _ = oscillatory_quad(f, 20.0, omega)
    assert val == pytest.approx(ref_r + 1j * ref_i, abs=1e-10)


def test_oscillatory_quad_zero_frequency():
    val, _ = oscillatory_quad(lambda x: x * (1.0 + 0j), 2.0, 0.0)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_decaying_fourier_quad_closed_form():
    # integral_0^inf e^{-x} e^{-i w x} dx = 1 / (1 + i w)
    omega = 3.0
    val, _ = decaying_fourier_quad(lambda x: np.exp(-x) * (1.0 + 0j), omega)
    assert val == pytest.approx(1.0 / (1.0 + 1j * omega), abs=1e-11)


def test_decaying_fourier_quad_rejects_zero_frequency():
    with pytest.raises(QuadratureError):
        decaying_fourier_quad(lambda x: np.exp(-x), 0.0)


class _Counting:
    """Integrand wrapper that records every abscissa it is called at."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, x):
        self.calls.append(x)
        return self.f(x)


def _lorentzian_pair(x):
    return 1.0 / (x - (1.0 - 0.5j)) ** 2 + 0.3j / (x + 2.0 + 0.1j) ** 3


def _unshared(f, a, b, weights, **kwargs):
    """The (Re, w), (Im, w) quad passes, each evaluating f on its own."""
    passes = []
    for part in (np.real, np.imag):
        for weight in weights:
            extra = {} if weight is None else {"weight": weight}
            passes.append(quad(lambda x: part(f(x)), a, b, **extra, **kwargs))
    return passes


@pytest.mark.parametrize(
    "wrapper, args, a, b, weights, kwargs",
    [
        (complex_quad, (0.0, np.inf), 0.0, np.inf, (None,), {"limit": 400}),
        (oscillatory_quad, (40.0, 3.0), 0.0, 40.0, ("cos", "sin"),
         {"wvar": 3.0, "limit": 3000, "maxp1": 200}),
        (decaying_fourier_quad, (2.0,), 0.0, np.inf, ("cos", "sin"),
         {"wvar": 2.0, "limit": 600, "maxp1": 200}),
    ],
    ids=["complex_quad", "oscillatory_quad", "decaying_fourier_quad"],
)
def test_one_evaluation_per_abscissa(wrapper, args, a, b, weights, kwargs):
    shared = _Counting(_lorentzian_pair)
    value, err = wrapper(shared, *args)
    assert len(shared.calls) == len(set(shared.calls))

    unshared = _Counting(_lorentzian_pair)
    passes = _unshared(unshared, a, b, weights, **kwargs)
    assert set(shared.calls) == set(unshared.calls)
    assert len(unshared.calls) > len(shared.calls)
    if len(passes) == 2:
        (re, e1), (im, e2) = passes
        expected = re + 1j * im, e1 + e2
    else:
        (rc, e1), (rs, e2), (ic, e3), (is_, e4) = passes
        expected = (rc + is_) + 1j * (ic - rs), e1 + e2 + e3 + e4
    assert (value, err) == expected


def test_circle_residue_simple_pole():
    res = circle_residue(lambda z: (3.0 - 2.0j) / (z - (1.0 + 1.0j)), 1.0 + 1.0j, 0.3)
    assert res == pytest.approx(3.0 - 2.0j, abs=1e-13)


def test_circle_residue_higher_order_pole():
    # f = 1/(z-a)^2 + 5/(z-a): residue picks only the order-1 part
    a = 0.5 - 0.25j
    res = circle_residue(lambda z: 1.0 / (z - a) ** 2 + 5.0 / (z - a), a, 0.2)
    assert res == pytest.approx(5.0 + 0.0j, abs=1e-12)


def test_circle_sum_first_moment_locates_pole():
    a = -0.7 + 0.4j
    f = lambda z: 1.0 / (z - a)
    m0 = circle_residue(f, a + 0.05, 0.3)
    m1 = circle_residue(lambda z: f(z) * z, a + 0.05, 0.3)
    assert m1 / m0 == pytest.approx(a, abs=1e-12)
