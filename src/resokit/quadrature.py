"""Quadrature kernels used across the package.

`integrate_lorentzian` integrates a smooth factor against a unit
Lorentzian on (0, inf) or the whole line by a nested tanh-sinh ladder on
the Lorentzian's angle, at a cost that does not grow as the line narrows.
`LaplaceTable` sums a Laplace integral of f(x) e^{-x^p t} on one nested
exp-sinh rule at any t >= 0, or over a whole grid of t at once, under
one error bound and one gate, and samples f only on the blocks of the
rule that the gate reads; the survival leg, the expansion background
and `integrate_exp_sinh` share it.  The scipy
wrappers adapt ``scipy.integrate.quad`` to complex integrands on
intervals and half lines and to oscillatory Fourier weights; their
real/imaginary (and cos/sin) passes share one evaluation of the
integrand per abscissa.  The midpoint rule on a circle gives contour
residues.  ``scipy.integrate`` is imported at the first QUADPACK call,
so no scenario run loads it.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .errors import ConfigurationError, DomainError, QuadratureError

__all__ = [
    "exp_sinh_rule",
    "LAPLACE_RULE",
    "LaplaceTable",
    "integrate_exp_sinh",
    "integrate_lorentzian",
    "complex_quad",
    "oscillatory_quad",
    "decaying_fourier_quad",
    "circle_residue",
]


@lru_cache(maxsize=64)
def exp_sinh_rule(h, clip=3.7):
    """Exp-sinh nodes and weights for (0, inf), decaying integrands.

    The map x = exp(pi/2 sinh t) spreads nodes from 0 to infinity double
    exponentially.  The even-index subset of the table is the rule with
    step 2h, which the stride-doubling error checks rely on.  Tables are
    cached and read-only; copy before mutating.
    """
    if h <= 0:
        raise QuadratureError("step must be positive")
    m = int(np.ceil(clip / h))
    if m % 2:
        m += 1  # even m keeps the [::2] subset exactly on the 2h grid
    t = np.arange(-m, m + 1) * h
    x = np.exp(0.5 * np.pi * np.sinh(t))
    w = 0.5 * np.pi * np.cosh(t) * x * h
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# The Laplace rule every `LaplaceTable` is built on: step 2^-9 clipped at
# 4.625, 4,737 nodes from about 1.6e-35 to 6e34.  m = 2368 is a multiple of
# 32, so every stride-2^k subset (k <= 5) is exactly the rule of step
# 2^(k-9), weights times 2^k.
LAPLACE_RULE = exp_sinh_rule(2.0**-9, 4.625)
LAPLACE_TOL = 1e-12
_EPS = np.finfo(float).eps
# times per product in `LaplaceTable.grid`: a stride-16 chunk of
# e^{-x_j^power t} is 297 x 256 doubles, about 0.6 MB
_GRID_CHUNK = 256
# midpoint nodes on the circle of `circle_residue`
_CIRCLE_NODES = 256


@cache
def _summation_order(power):
    """(x_j, w_j, -x_j^power) per block (the stride-16 rule, its stride-32
    subset first, then each halving's new nodes: 297, 296, 592, 1,184 and
    2,368 nodes), x_0^power, x_N^power and Gamma(1 + 1/power)."""
    x, w = LAPLACE_RULE
    blocks = [np.r_[0:x.size:32, 16:x.size:32]] + [np.arange(h, x.size, 2 * h)
                                                   for h in (8, 4, 2, 1)]
    rates = x**power
    return ([(x[b], w[b], -rates[b]) for b in blocks], float(rates[0]), float(rates[-1]),
            math.gamma(1.0 + 1.0 / power))


_STRIDES = (16, 8, 4, 2, 1)
# x_N's place in the first block, where it closes the stride-32 subset
_LAST = (LAPLACE_RULE[0].size - 1) // 32


@dataclass(frozen=True, eq=False)
class LaplaceTable:
    """F(t) = integral_0^inf f(x) e^{-x^power t} dx on `LAPLACE_RULE`.

    F(t) = sum_j w_j f(x_j) e^{-x_j^power t} over the rule's nodes x_j for
    a positive integer power; f maps an array of nodes to one value each.
    Construction samples f on the stride-16 block (297 nodes, both ends
    among them), and each finer block is sampled when a gate first reaches
    it, then kept: no node is evaluated twice, and none the gate does not
    read.  Non-finite terms w_j f(x_j), or ends, raise DomainError when
    sampled.  With |f| at most |f(x_0)| below x_0 and decaying at least as
    x^-2 past x_N, the rule clips at most
    x_0 |f(x_0)| min(1, G (x_0^power t)^(-1/power)) + x_N |f(x_N)| e^{-x_N^power t},
    G = Gamma(1 + 1/power).
    """

    f: object
    power: int = 1

    def __post_init__(self):
        object.__setattr__(self, "_rows", {})
        self._block(0)

    def _block(self, block):
        """The read-only rows Re, Im and |.| of w_j f(x_j) on a block,
        sampling f there if no evaluation reached it yet.  The first block
        adds Re and Im over its stride-32 subset, so one product sums both,
        and keeps the ends' masses."""
        if block in self._rows:
            return self._rows[block]
        nodes, weights, _ = _summation_order(self.power)[0][block]
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(self.f(nodes))
            values = values.astype(np.result_type(values, 1.0), copy=False)
            if values.shape != nodes.shape:
                raise ConfigurationError(
                    f"need one value per Laplace node, got {values.shape} for {nodes.shape}")
            terms = weights * values
            ends = nodes[[0, _LAST]] * np.abs(values[[0, _LAST]])  # read in the first block
        if not (np.isfinite(terms).all() and (block or np.isfinite(ends).all())):
            raise DomainError(f"Laplace table entries at stride {_STRIDES[block]} "
                              "overflow the double range")
        rows = [terms.real, terms.imag, np.abs(terms)]
        if not block:
            rows += [r * (np.arange(values.size) <= _LAST) for r in rows[:2]]
            object.__setattr__(self, "_ends", (float(ends[0]), float(ends[1])))
            object.__setattr__(self, "_real", values.dtype.kind == "f")
        rows = np.array(rows)
        rows.setflags(write=False)
        # a table shared by threads may sample a block twice; the rows agree
        return self._rows.setdefault(block, rows)

    def _refuse(self, t, error, clipped, bound):
        """The refusal of an unresolved t: DomainError where x_N^power t
        overflows, QuadratureError otherwise."""
        rate_n = _summation_order(self.power)[2]
        failure = DomainError if math.isinf(rate_n * t) else QuadratureError
        past = "; x_N^power t is past the double range" if failure is DomainError else ""
        return failure(f"Laplace table unresolved at t = {t:g}: error {error:.3e} with "
                       f"clipped mass {clipped:.3e} against bound {bound:.3e}{past}")

    def __call__(self, t, floor=0.0):
        """(F(t), error) on the coarsest stride that meets the gate.

        From stride 16 (checked against its stride-32 subset) down, each
        halving adds only its new nodes, so each exponential is taken
        once.  The error is the gap to the stride before, the clipped mass,
        eps times the terms' moduli summed, for rounding the gap misses
        when two strides round alike, and eps |F(t)| for the rounding of
        the final sum.  It must be within LAPLACE_TOL of max(floor, |F(t)|);
        past the full rule, raises QuadratureError, or DomainError where
        x_N^power t overflows.  `grid` does the same over an array of t.
        """
        t = float(t)
        blocks, rate_0, rate_n, gamma = _summation_order(self.power)
        overflow = math.isinf(rate_n * t)
        head, tail = self._ends
        clipped = (head / max(1.0, (rate_0 * t) ** (1.0 / self.power) / gamma)
                   + tail * math.exp(-rate_n * t))
        # e^{-r t} = 0 where r t overflows (errstate costs 1 us, so only then)
        with np.errstate(over="ignore") if overflow else nullcontext():
            acc = self._rows[0] @ np.exp(blocks[0][2] * t)
            coarse, acc = 32 * complex(acc[3], acc[4]), acc[:3]
            for block, stride in enumerate(_STRIDES):
                if block:  # add the nodes new at this stride
                    coarse = 2 * stride * complex(acc[0], acc[1])
                    acc = acc + self._block(block) @ np.exp(blocks[block][2] * t)
                value = stride * complex(acc[0], acc[1])
                error = float(abs(value - coarse) + clipped + _EPS * (stride * acc[2] + abs(value)))
                bound = LAPLACE_TOL * max(floor, abs(value))
                if error <= bound:
                    return (value.real if self._real else value), error
        raise self._refuse(t, error, clipped, bound)

    def grid(self, times, floors=0.0):
        """`__call__` over a 1-D array of t: arrays of F(t) and errors.

        Each stride level is one product of the table's rows with
        e^{-x_j^power t} over nodes x t, and only the t the level leaves
        unresolved go on to the next.  The t are taken _GRID_CHUNK at a
        time, so memory does not grow with their number.  floors is a
        float or one floor per t; the gate and the refusals are those of
        `__call__`, raised at the first unresolved t.
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise ConfigurationError(f"need a one-dimensional time grid, got {times.shape}")
        floors = np.broadcast_to(np.asarray(floors, dtype=float), times.shape)
        values = np.empty(times.shape, dtype=complex)
        errors = np.empty(times.shape)
        for start in range(0, times.size, _GRID_CHUNK):
            part = slice(start, start + _GRID_CHUNK)
            self._grid_chunk(times[part], floors[part], values[part], errors[part])
        return (values.real if self._real else values), errors

    def _grid_chunk(self, t, floor, values, errors):
        """Fill values and errors at the times t (one chunk)."""
        blocks, rate_0, rate_n, gamma = _summation_order(self.power)
        head, tail = self._ends
        pending = np.arange(t.size)  # indices not yet resolved
        # e^{-r t} = 0 where r t overflows
        with np.errstate(over="ignore"):
            clipped = (head / np.maximum(1.0, (rate_0 * t) ** (1.0 / self.power) / gamma)
                       + tail * np.exp(-rate_n * t))
            acc = self._rows[0] @ _decay(blocks[0][2], t)
            coarse, acc = 32 * (acc[3] + 1j * acc[4]), acc[:3]
            for block, stride in enumerate(_STRIDES):
                if block:  # add the nodes new at this stride
                    coarse = 2 * stride * (acc[0] + 1j * acc[1])
                    acc = acc + self._block(block) @ _decay(blocks[block][2], t)
                value = stride * (acc[0] + 1j * acc[1])
                error = np.abs(value - coarse) + clipped + _EPS * (stride * acc[2] + np.abs(value))
                bound = LAPLACE_TOL * np.maximum(floor, np.abs(value))
                done = error <= bound
                values[pending[done]] = value[done]
                errors[pending[done]] = error[done]
                if done.all():
                    return
                left = ~done
                pending, t, floor, clipped = pending[left], t[left], floor[left], clipped[left]
                acc, coarse = acc[:, left], coarse[left]
        raise self._refuse(float(t[0]), float(error[left][0]), float(clipped[0]),
                           float(bound[left][0]))


def _decay(neg_rates, t):
    """e^{-r_j t} over nodes x times, exponentiated in place."""
    out = np.multiply.outer(neg_rates, t)
    return np.exp(out, out=out)


def integrate_exp_sinh(f):
    """Integral of f over (0, inf) and its error: a `LaplaceTable` at t = 0."""
    return LaplaceTable(f)(0.0)


# The Lorentzian ladder: tanh-sinh in t on [-3.5, 3.5], level k of step
# 2^-(1+k) (m = 7 2^k), so level k is exactly the even-index subset of
# level k+1.  At the clip the nodes sit about 5e-23 half-lengths of the
# angle interval from its ends.  Level 8 has 3,585 nodes; the golden-rule channel
# integrals converge by level 4 (225 nodes) for Gamma / E_R from 1.9 down
# to 1e-8.
_TS_STEP = 0.5
_TS_CLIP = 3.5
_TS_DEPTH = 8
_TS_TOL = 1e-12


@cache
def _tanh_sinh_level(level):
    """The nodes that level `level` adds to the tanh-sinh ladder.

    Returns (upper, rho, omega) per node x: whether x >= 0, the distance
    1 - tanh|pi/2 sinh x| to the nearer end of [-1, 1], computed without
    cancellation, and the weight (pi/2) cosh x / cosh^2(pi/2 sinh x)
    before the step and the half-length.
    """
    m = round(_TS_CLIP / _TS_STEP) * 2**level
    k = np.arange(-m, m + 1) if level == 0 else np.arange(1 - m, m, 2)
    x = k * (_TS_STEP / 2**level)
    u = 0.5 * np.pi * np.sinh(x)
    rho = 2.0 / (1.0 + np.exp(2.0 * np.abs(u)))
    omega = 0.5 * np.pi * np.cosh(x) / np.cosh(u) ** 2
    out = (x >= 0.0, rho, omega)
    for a in out:
        a.setflags(write=False)
    return out


def integrate_lorentzian(f, energy, width, full_line=False):
    """Integral over (0, inf), or over the whole line with full_line, of
    f(E) bw(E) dE and its error, for the unit Lorentzian
    bw(E) = (width / 2 pi) / ((E - energy)^2 + width^2 / 4) and a smooth
    factor f.

    E = energy + (width / 2) tan(theta) turns bw dE into dtheta / pi on
    (-atan(2 energy / width), pi / 2), or on (-pi / 2, pi / 2) for the
    whole line, where f varies only near the two ends; a nested tanh-sinh
    ladder on theta resolves those at a cost of log(energy / width).  Each
    node's E comes from its distance delta to the nearer end:
    E = energy +- (width / 2) / tan(delta) near +-pi / 2, and
    E = (energy + b width / 2) / (1 + b / tan(delta)) with
    b = width / (2 energy) near the lower end of the half line, so E keeps
    its relative accuracy at both.

    f must accept an ndarray of real energies, positive ones on the half
    line.  Each level evaluates f only at its new nodes; refinement stops
    when the sum moves by at most 1e-12 (1 + |sum|) from the level before;
    past level 8, or at a level where f is not finite, it raises
    QuadratureError.  Returns (value, error) with error that last move plus
    eps times the scaled sum of the terms' moduli |omega_j f(E_j)| over the
    levels used and eps |sum|, for the rounding the move misses when two
    levels round alike.
    """
    if not (0.0 < energy < np.inf and 0.0 < width < np.inf):
        raise QuadratureError(
            f"Lorentzian needs finite positive energy and width, got {energy}, {width}")
    # b = 0 puts the lower end of the theta interval at -pi / 2
    b = 0.0 if full_line else 0.5 * width / energy
    half = 0.5 * (np.pi - np.arctan(b))  # half the length of the theta interval
    acc = 0.0
    moduli = 0.0  # sum of |omega_j f(E_j)| over the levels so far
    nodes = 0
    total = None
    for level in range(_TS_DEPTH + 1):
        upper, rho, omega = _tanh_sinh_level(level)
        nodes += rho.size
        cot = 1.0 / np.tan(half * rho)
        lower = (energy - 0.5 * width * cot if full_line
                 else (energy + 0.5 * width * b) / (1.0 + b * cot))
        e = np.where(upper, energy + 0.5 * width * cot, lower)
        values = f(e)
        if not np.isfinite(values).all():
            raise QuadratureError(
                f"Lorentzian integrand not finite at level {level} ({nodes} nodes)")
        terms = omega * values
        acc += terms.sum()
        moduli += np.abs(terms).sum()
        prev, total = total, acc * half * (_TS_STEP / 2**level) / np.pi
        if prev is not None:
            gap = abs(total - prev)
            if gap <= _TS_TOL * (1.0 + abs(total)):
                scale = half * (_TS_STEP / 2**level) / np.pi
                return total, gap + _EPS * (scale * moduli + abs(total))
    raise QuadratureError(
        f"Lorentzian ladder unresolved after {nodes} nodes "
        f"(level gap {gap:.3e} against sum {abs(total):.3e})"
    )


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported at its first call.

    scipy.integrate brings scipy.optimize, scipy.sparse.linalg and
    scipy.linalg with it, and no scenario run calls QUADPACK, so a run
    never loads them.  `_part_quads` looks this function up as a module
    global at each call, so replacing ``resokit.quadrature.quad``
    intercepts every QUADPACK call.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _part_quads(f, a, b, weights=(None,), **kwargs):
    """quad of Re f, then Im f, against each quad weight in turn.

    Returns the (value, error) pairs in the order (Re, w1), (Re, w2), ...,
    (Im, w1), ...  f is memoised by abscissa for this call only, so every
    pass after the first reuses the values the earlier passes computed;
    the results are those of independent passes, bit for bit.
    """
    f = cache(f)
    out = []
    for part in (np.real, np.imag):
        for weight in weights:
            extra = {} if weight is None else {"weight": weight}
            out.append(quad(lambda x: part(f(x)), a, b, **extra, **kwargs))
    return out


def complex_quad(f, a, b, **kwargs):
    """scipy quad for complex-valued f; returns (value, error bound).

    Accepts the usual quad keywords (limit, epsabs, epsrel).  Infinite
    limits are allowed and use quad's internal variable transform, which
    is essential for slowly decaying rational tails.
    """
    kwargs.setdefault("limit", 400)
    (re, re_err), (im, im_err) = _part_quads(f, a, b, **kwargs)
    return re + 1j * im, re_err + im_err


def _fourier_parts(f, upper, omega, **kwargs):
    """Integral of f(x) e^{-i omega x} over [0, upper] from quad's cos
    and sin weights; returns (value, error bound)."""
    kwargs.setdefault("maxp1", 200)
    (rc, e1), (rs, e2), (ic, e3), (is_, e4) = _part_quads(
        f, 0.0, upper, ("cos", "sin"), wvar=omega, **kwargs)
    # (re + i im)(cos - i sin) collected into real and imaginary parts
    value = (rc + is_) + 1j * (ic - rs)
    return value, e1 + e2 + e3 + e4


def oscillatory_quad(f, upper, omega, **kwargs):
    """Integral of f(x) e^{-i omega x} over [0, upper] for complex f.

    Uses quad's Clenshaw-Curtis oscillatory weights (QAWO), which stay
    accurate when omega * upper spans thousands of cycles.  For omega
    exactly zero this reduces to a plain adaptive integral.
    """
    if omega == 0.0:
        return complex_quad(f, 0.0, upper, **kwargs)
    kwargs.setdefault("limit", 3000)
    return _fourier_parts(f, upper, omega, **kwargs)


def decaying_fourier_quad(f, omega, **kwargs):
    """Integral of f(x) e^{-i omega x} over [0, inf) for complex f.

    quad's QAWF Fourier algorithm handles the infinite oscillatory tail;
    f must decay at infinity.  omega must be nonzero (use complex_quad
    with an infinite limit otherwise).
    """
    if omega == 0.0:
        raise QuadratureError("QAWF needs a nonzero frequency")
    kwargs.setdefault("limit", 600)
    return _fourier_parts(f, np.inf, omega, **kwargs)


def circle_residue(f, center, radius):
    """(1/2 pi i) contour integral of f on a circle: the residue of an
    isolated singularity inside it.

    Midpoint rule of _CIRCLE_NODES points on the circle; spectrally
    accurate for integrands analytic in an annulus around the contour.
    """
    theta = 2.0 * np.pi * (np.arange(_CIRCLE_NODES) + 0.5) / _CIRCLE_NODES
    z = center + radius * np.exp(1j * theta)
    # dz = i r e^{i theta} dtheta folds the 1/(2 pi i) away
    return np.mean(f(z) * radius * np.exp(1j * theta))
