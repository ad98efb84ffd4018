import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import resokit
from resokit.errors import ConfigurationError, DomainError, QuadratureError
from resokit.quadrature import (
    LAPLACE_RULE,
    LaplaceTable,
    circle_residue,
    complex_quad,
    decaying_fourier_quad,
    exp_sinh_rule,
    integrate_exp_sinh,
    integrate_lorentzian,
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
    # the Laplace rule (step 2^-9, clip 4.625) restricted to every 2^k-th
    # node, k <= 5, is the rule of step 2^(k-9) with weights over 2^k,
    # exactly, so each stride checks the next finer with no new evaluation
    x, w = LAPLACE_RULE
    assert x.size == 4737
    for k in range(1, 6):
        xc, wc = exp_sinh_rule(2.0 ** (k - 9), 4.625)
        np.testing.assert_array_equal(x[:: 2**k], xc)
        np.testing.assert_array_equal(2**k * w[:: 2**k], wc)


def _exponential_table():
    """The Laplace table of f = e^{-x} with rates x: F(t) = 1 / (1 + t)."""
    return LaplaceTable(lambda x: np.exp(-x))


@pytest.mark.parametrize("t", [0.0, 1.0, 10.0, 1e3, 1e6])
def test_laplace_table_against_closed_form(t):
    value, err = _exponential_table()(t)
    want = 1.0 / (1.0 + t)
    assert abs(value - want) <= err <= 1e-12 * want


def test_laplace_table_error_covers_its_gap():
    # the gap to 1 / (1 + t) is taken exactly; it reaches the rounding level,
    # where the reported error needs the rounding of the final sum
    table = _exponential_table()
    short = []
    for t in np.geomspace(1e-3, 1e6, 700):
        value, err = table(float(t))
        if abs(Fraction(value) - 1 / (1 + Fraction(float(t)))) > Fraction(err):
            short.append(float(t))
    assert short == []


def test_laplace_table_refuses_what_it_cannot_sum():
    # an end whose mass overflows, or a value count that is not one per
    # node, is refused at construction
    with pytest.raises(DomainError):
        LaplaceTable(lambda x: np.full_like(x, 1e300))
    with pytest.raises(ConfigurationError):
        LaplaceTable(lambda x: np.ones(x[::2].size))
    with pytest.raises(ConfigurationError):
        LaplaceTable(lambda x: 1.0)


def test_non_finite_end_refuses_at_construction():
    # an infinite end, and a finite term w_N f(x_N) whose clipped-mass
    # factor x_N |f(x_N)| overflows (w_N is about 0.16 x_N)
    x, _ = LAPLACE_RULE
    for end, value in ((x[0], np.inf), (x[-1], np.inf), (x[-1], 1e274)):
        with pytest.raises(DomainError):
            LaplaceTable(lambda s, end=end, value=value: np.where(s == end, value, np.exp(-s)))


# t = 1 resolves at stride 16 and t = 1e20 only at stride 1
_COARSE_T, _FINE_T = 1.0, 1e20


def test_nan_refused_where_the_gate_reaches_it():
    # node 7 is new at stride 1: a table sampled only where the gate reads
    # it meets the nan at the first t that reaches stride 1, and no sooner
    x, _ = LAPLACE_RULE
    table = LaplaceTable(lambda s: np.where(s == x[7], np.nan, np.exp(-s)))
    assert table(_COARSE_T)[0] == pytest.approx(0.5, rel=1e-15)
    assert table.grid([0.0, _COARSE_T])[0] == pytest.approx([1.0, 0.5], rel=1e-15)
    with pytest.raises(DomainError, match="stride 1 "):
        table(_FINE_T)
    with pytest.raises(DomainError, match="stride 1 "):
        table.grid([_COARSE_T, _FINE_T])


def test_each_node_evaluated_once():
    f = _Counting(lambda x: np.exp(-x))
    table = LaplaceTable(f)
    assert [a.size for a in f.calls] == [297]
    table(_COARSE_T)
    assert len(f.calls) == 1
    value, _ = table(_FINE_T)
    assert value == pytest.approx(1e-20, rel=1e-12)
    # one call per block, 4,737 nodes in all, none twice
    assert [a.size for a in f.calls] == [297, 296, 592, 1184, 2368]
    seen = np.concatenate(f.calls)
    np.testing.assert_array_equal(np.sort(seen), LAPLACE_RULE[0])
    # a second evaluation, scalar or on a grid, samples nothing
    table(_FINE_T)
    table.grid([_COARSE_T, _FINE_T])
    assert len(f.calls) == 5


def test_sampling_does_not_change_the_sums():
    # a table that sampled every block gives the bits of a fresh one
    warm = _exponential_table()
    warm(_FINE_T)
    for t in (0.0, _COARSE_T, 1e6, _FINE_T):
        assert warm(t) == _exponential_table()(t)


def test_laplace_table_outruns_its_range():
    # F(t) ~ 1 / t puts the mass below the first node x_0 = 1.6e-35 once
    # t passes about 1e23: the clipped mass fails the gate, and past the
    # double range of r_N t = 6e34 t the failure is a DomainError
    table = _exponential_table()
    with pytest.raises(QuadratureError, match="clipped mass"):
        table(1e30)
    with pytest.raises(DomainError, match="past the double range"):
        table(1e300)


def _channel(ratio, energy=2.0, cutoff=1.0):
    """The golden_rule_sweep channel integrand at width = ratio * energy."""
    g = ratio * energy

    def f(e):
        lorentzian = (g / (2.0 * np.pi)) / ((e - energy) ** 2 + 0.25 * g * g)
        return e / (e / cutoff + 1.0) ** 4 * lorentzian

    return f


# 30-digit mpmath values of the golden_rule_sweep channel integral at
# energy 2 and cutoff 1; the script that produced them is in CHANGES.md
_CHANNEL_REFERENCE = {
    0.1: 0.02523520535187803017947096,
    0.01: 0.0247553106516515468202742,
    0.001: 0.02469785175673573774184871,
}


@pytest.mark.parametrize("ratio", sorted(_CHANNEL_REFERENCE))
def test_narrow_lorentzian_channel_against_mpmath(ratio):
    # the Laplace rule resolves a line of width 0.1 E_R; narrower lines
    # go to integrate_lorentzian, which meets the same references below
    if ratio < 0.1:
        with pytest.raises(QuadratureError):
            integrate_exp_sinh(_channel(ratio))
        return
    value, err = integrate_exp_sinh(_channel(ratio))
    want = _CHANNEL_REFERENCE[ratio]
    assert abs(value - want) <= 3e-14 * want
    assert abs(value - want) <= err <= 1e-12 * value


# 30-digit mpmath values of the same integral for lines too narrow for the
# Laplace rule; the script that produced them is in CHANGES.md
_NARROW_CHANNEL_REFERENCE = {
    1e-5: 0.02469142307062401006509746,
    1e-8: 0.02469135808973838697005257,
}


def _form_factor(e, cutoff=1.0):
    """The golden_rule_sweep channel weight, without the Lorentzian."""
    return e / (e / cutoff + 1.0) ** 4


@pytest.mark.parametrize("ratio", [0.1, 0.01, 0.001, 1e-5, 1e-8])
def test_lorentzian_channel_against_mpmath(ratio):
    value, err = integrate_lorentzian(_form_factor, 2.0, ratio * 2.0)
    want = (_CHANNEL_REFERENCE | _NARROW_CHANNEL_REFERENCE)[ratio]
    assert abs(value - want) <= 1e-14 * want
    assert err <= 1e-12 * (1.0 + value)
    # the error covers the gap, taken exactly to the stored double, which is
    # within half an ulp of its 30 digits; the last level move alone is
    # exactly 0 at 0.1, where two levels round alike
    assert err > 0.0
    assert Fraction(err) >= abs(Fraction(value) - Fraction(want)) + Fraction(math.ulp(want)) / 2


@pytest.mark.parametrize("ratio", [1.9, 0.5, 0.1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8])
def test_lorentzian_cost_does_not_grow_with_narrowness(ratio):
    # an exp-sinh ladder needed 245,761 evaluations at 1e-3 and failed
    # past 983,041 at 1e-4
    f = _Counting(_form_factor)
    integrate_lorentzian(f, 2.0, ratio * 2.0)
    seen = np.concatenate(f.calls)
    assert seen.size <= 1000
    assert np.unique(seen).size == seen.size
    assert np.all((seen > 0.0) & np.isfinite(seen))


def test_lorentzian_unit_mass_on_the_half_line():
    # f = 1 gives the Lorentzian's mass above E = 0: 1/2 + atan(2 E_R / G) / pi
    for energy, width in [(2.0, 3.8), (2.0, 0.02), (1.0, 1e-9)]:
        value, _ = integrate_lorentzian(np.ones_like, energy, width)
        want = 0.5 + np.arctan(2.0 * energy / width) / np.pi
        assert value == pytest.approx(want, rel=1e-15)


def test_integrate_lorentzian_reports_failure():
    rng = np.random.default_rng(0)

    def noisy(x):
        return rng.normal(size=x.shape)

    with pytest.raises(QuadratureError):
        integrate_lorentzian(noisy, 2.0, 0.2)


@pytest.mark.filterwarnings("error")
def test_integrate_lorentzian_refuses_a_non_finite_level():
    # e^{-E} overflows at the outer nodes of the whole line; the ladder used
    # to multiply the infinities by the weights, warn, and run all nine
    # levels (3,585 nodes) before it failed on a NaN level gap
    def overflowing(e):
        with np.errstate(over="ignore"):
            return np.exp(-e) * (1 + 2j)

    f = _Counting(overflowing)
    with pytest.raises(QuadratureError, match=r"not finite at level 0 \(15 nodes\)"):
        integrate_lorentzian(f, 2.0, 0.02, full_line=True)
    assert len(f.calls) == 1


@pytest.mark.parametrize("energy, width", [(0.0, 1.0), (1.0, 0.0), (np.nan, 1.0),
                                           (1.0, np.inf)])
def test_integrate_lorentzian_needs_a_line(energy, width):
    with pytest.raises(QuadratureError):
        integrate_lorentzian(np.ones_like, energy, width)


def test_quadpack_calls_go_through_the_module_quad(monkeypatch):
    # the tests that stub resokit.quadrature.quad to show a path makes no
    # QUADPACK call hold only while every wrapper reaches QUADPACK there,
    # and every caller gets the same fixed subinterval and moment limits
    calls = []

    def stub(func, a, b, **kwargs):
        calls.append((a, b, kwargs.get("weight"), kwargs["limit"], kwargs.get("maxp1")))
        return 0.0, 0.0

    monkeypatch.setattr("resokit.quadrature.quad", stub)
    f = lambda x: np.exp(-x) + 0j
    for wrapper, args, upper in [(complex_quad, (0.0, 1.0), 1.0),
                                 (oscillatory_quad, (20.0, 0.0), 20.0)]:
        calls.clear()
        assert wrapper(f, *args) == (0.0, 0.0)
        assert calls == [(0.0, upper, None, 400, None)] * 2
    for wrapper, args, upper, limit in [(oscillatory_quad, (20.0, 7.0), 20.0, 3000),
                                        (decaying_fourier_quad, (7.0,), np.inf, 600)]:
        calls.clear()
        assert wrapper(f, *args) == (0.0, 0.0)
        assert calls == [(0.0, upper, "cos", limit, 200), (0.0, upper, "sin", limit, 200)] * 2
        with pytest.raises(TypeError):
            wrapper(f, *args, limit=10)


def test_runs_never_load_scipy_integrate(tmp_path):
    # a fresh interpreter, since pytest's warning filter for
    # scipy.integrate.IntegrationWarning has loaded it into this one; the
    # CLI and the six built-in runs load no scipy module at all, and only
    # the QUADPACK oracle brings in scipy.integrate
    script = textwrap.dedent("""
        import json, sys

        def loaded():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        import resokit.cli
        on_import = loaded()
        from resokit import cli, quadrature, scenarios

        names = [row["name"] for row in scenarios.list_scenarios()]
        codes = [cli.main(["run", name, "--out-dir", sys.argv[1]]) for name in names]
        before = loaded()
        value, err = quadrature.complex_quad(lambda x: x + 1j * x, 0.0, 1.0)
        print(json.dumps({"names": names, "codes": codes, "on_import": on_import,
                          "before": before, "value": [value.real, value.imag], "err": err,
                          "after": loaded()}))
    """)
    src = str(Path(resokit.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert len(out["names"]) == 6 and out["codes"] == [0] * 6
    assert all((tmp_path / f"{name}.csv").is_file() for name in out["names"])
    assert out["on_import"] == [] and out["before"] == []
    assert abs(complex(*out["value"]) - (0.5 + 0.5j)) <= out["err"]
    assert "scipy.integrate" in out["after"]


def test_complex_quad_matches_parts():
    val, _ = complex_quad(lambda x: np.exp(1j * x), 0.0, np.pi / 2.0)
    assert val == pytest.approx(1.0 + 1j * 1.0, abs=1e-12)


@pytest.mark.parametrize("width", [1.9, 0.2, 1e-3, 1e-6])
def test_lorentzian_full_line_against_closed_form(width):
    # f analytic and bounded below the axis: closing there leaves only the
    # pole z = E_R - i G / 2 of bw, so the line integral of f bw is f(z)
    w = 0.3 + 0.7j
    z = 1.0 - 0.5j * width
    for f, want in [(np.ones_like, 1.0),
                    (lambda e: 1.0 / (e - w), 1.0 / (z - w)),
                    (lambda e: e * e / (e - w) ** 2, z * z / (z - w) ** 2)]:
        value, err = integrate_lorentzian(f, 1.0, width, full_line=True)
        assert abs(value - want) <= 1e-13 * abs(want)
        assert err <= 1e-12 * (1.0 + abs(value))


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


def test_circle_residue_takes_no_node_count():
    with pytest.raises(TypeError):
        circle_residue(lambda z: 1.0 / z, 0.0, 0.3, nodes=16)
