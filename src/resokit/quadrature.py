"""Quadrature kernels used across the package.

Three kinds of rule live here.  The exp-sinh rule on (0, inf) produces
an explicit node/weight table.  `exp_sinh_table` is the one place such a
table is refined: it walks a dyadic ladder of steps on which each level
is exactly the even-index subset of the next, evaluates the integrand
once per node, and stops when the stride-doubling gap is at the 1e-12
level; it takes no step or tolerance argument.  The golden-rule channel
integrals sum that table, and the contour-deformation code stores it
immutably and reuses it for every evolution time.  The scipy wrappers
adapt ``scipy.integrate.quad`` to complex integrands, full-line
integrals and oscillatory Fourier weights; their separate real/imaginary
(and cos/sin) passes share one evaluation of the integrand per abscissa.
The midpoint rule on a circle gives contour residues.
"""

from __future__ import annotations

from functools import cache, lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import QuadratureError

__all__ = [
    "exp_sinh_rule",
    "exp_sinh_table",
    "integrate_exp_sinh",
    "complex_quad",
    "complex_quad_full_line",
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


# The refinement ladder: level k is the rule of step 2^-(3+k) clipped at
# 3.75, so m = 30 2^k and level k is exactly the even-index subset of
# level k+1, nodes and halved weights bit for bit.  Level 14 has
# 983,041 nodes.
_LADDER_STEP = 2.0**-3
_LADDER_CLIP = 3.75
_LADDER_DEPTH = 14
_LADDER_TOL = 1e-12


def exp_sinh_table(f):
    """The exp-sinh table of f on (0, inf), refined until it converges.

    f must accept an ndarray of positive abscissas and return values of
    one dtype (real or complex) for every call.  Each halving of the
    step evaluates f only at the new odd-index nodes and reuses every
    value it has, so each node is evaluated once.  Refinement stops when
    the table's sum moves by at most 1e-12 (1 + |sum|) from the sum of
    the level before; past level 14 it raises QuadratureError.

    Returns (nodes, weights, values, gap) with gap that last move.
    """
    x, w = exp_sinh_rule(_LADDER_STEP, _LADDER_CLIP)
    v = np.asarray(f(x))
    v = v.astype(np.result_type(v, 1.0), copy=False)
    total = np.sum(w * v)
    for level in range(1, _LADDER_DEPTH + 1):
        x, w = exp_sinh_rule(_LADDER_STEP / 2**level, _LADDER_CLIP)
        finer = np.empty(x.size, dtype=v.dtype)
        finer[::2] = v
        v = finer  # the coarse values are dropped before f allocates
        v[1::2] = f(x[1::2])
        prev, total = total, np.sum(w * v)
        gap = abs(total - prev)
        if gap <= _LADDER_TOL * (1.0 + abs(total)):
            return x, w, v, gap
    raise QuadratureError(
        f"exp-sinh table unresolved after {x.size} nodes "
        f"(stride gap {gap:.3e} against sum {abs(total):.3e})"
    )


def integrate_exp_sinh(f):
    """Integral of f over (0, inf) and its error from `exp_sinh_table`."""
    x, w, v, gap = exp_sinh_table(f)
    return np.sum(w * v), gap


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


def complex_quad_full_line(f, **kwargs):
    """Integral of complex f over the whole real line."""
    kwargs.setdefault("limit", 800)
    kwargs.setdefault("epsabs", 1e-12)
    kwargs.setdefault("epsrel", 1e-12)
    return complex_quad(f, -np.inf, np.inf, **kwargs)


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


def circle_residue(f, center, radius, nodes=256):
    """(1/2 pi i) contour integral of f on a circle: the residue of an
    isolated singularity inside it.

    Midpoint rule on the circle; spectrally accurate for integrands
    analytic in an annulus around the contour.
    """
    theta = 2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes
    z = center + radius * np.exp(1j * theta)
    # dz = i r e^{i theta} dtheta folds the 1/(2 pi i) away
    return np.mean(f(z) * radius * np.exp(1j * theta))
