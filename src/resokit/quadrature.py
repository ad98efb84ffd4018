"""Quadrature kernels used across the package.

Three kinds of rule live here.  The exp-sinh rule on (0, inf) produces
an explicit node/weight table; the contour-deformation code stores that
table immutably and reuses it for every evolution time, checking
convergence by comparing against the embedded step-doubled rule (the
even-index subset of a table with step h is exactly the table with step
2h).  The scipy wrappers adapt ``scipy.integrate.quad`` to complex
integrands, full-line integrals and oscillatory Fourier weights; their
separate real/imaginary (and cos/sin) passes share one evaluation of the
integrand per abscissa.  The midpoint rule on a circle gives contour
residues.
"""

from __future__ import annotations

from functools import cache, lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import QuadratureError

__all__ = [
    "exp_sinh_rule",
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


def integrate_exp_sinh(f, h0=2e-3, tol=1e-11, max_halvings=8):
    """Integrate f over (0, inf) with step-halved exp-sinh rules.

    f must accept an ndarray of positive abscissas.  Halves the step
    until two successive estimates agree to ``tol`` (absolute, plus a
    matching relative term), then returns the finer estimate and the
    last difference as the error measure.
    """
    h = h0
    x, w = exp_sinh_rule(h)
    prev = np.sum(w * f(x))
    for _ in range(max_halvings):
        h *= 0.5
        x, w = exp_sinh_rule(h)
        cur = np.sum(w * f(x))
        if abs(cur - prev) <= tol * (1.0 + abs(cur)):
            return cur, abs(cur - prev)
        prev = cur
    raise QuadratureError(
        f"exp-sinh integral did not reach tol={tol:g} after {max_halvings} halvings"
    )


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


def oscillatory_quad(f, upper, omega, **kwargs):
    """Integral of f(x) e^{-i omega x} over [0, upper] for complex f.

    Uses quad's Clenshaw-Curtis oscillatory weights (QAWO), which stay
    accurate when omega * upper spans thousands of cycles.  For omega
    exactly zero this reduces to a plain adaptive integral.
    """
    if omega == 0.0:
        return complex_quad(f, 0.0, upper, **kwargs)
    kwargs.setdefault("limit", 3000)
    kwargs.setdefault("maxp1", 200)
    (rc, e1), (rs, e2), (ic, e3), (is_, e4) = _part_quads(
        f, 0.0, upper, ("cos", "sin"), wvar=omega, **kwargs)
    # (re + i im)(cos - i sin) collected into real and imaginary parts
    value = (rc + is_) + 1j * (ic - rs)
    return value, e1 + e2 + e3 + e4


def decaying_fourier_quad(f, omega, **kwargs):
    """Integral of f(x) e^{-i omega x} over [0, inf) for complex f.

    quad's QAWF Fourier algorithm handles the infinite oscillatory tail;
    f must decay at infinity.  omega must be nonzero (use complex_quad
    with an infinite limit otherwise).
    """
    if omega == 0.0:
        raise QuadratureError("QAWF needs a nonzero frequency")
    kwargs.setdefault("limit", 600)
    kwargs.setdefault("maxp1", 200)
    (rc, e1), (rs, e2), (ic, e3), (is_, e4) = _part_quads(
        f, 0.0, np.inf, ("cos", "sin"), wvar=omega, **kwargs)
    value = (rc + is_) + 1j * (ic - rs)
    return value, e1 + e2 + e3 + e4


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
