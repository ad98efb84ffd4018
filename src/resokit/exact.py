"""Closed-form evolved pairing of a pole-only S-matrix model.

The pairing that `expand` splits into pole terms plus a background,

    I(t) = integral_0^inf conj(psi)(E) S(E) phi(E) e^{-i E t} dE,

becomes, with E = k^2, the half-line integral of G(k) e^{-i k^2 t} for

    G(k) = 2k conj(psi)(k^2) phi(k^2) S(k).

When S is a finite Blaschke product with no background phase, G is
rational in k and vanishes like k^-3 at infinity, so it is the sum of
its principal parts at its momentum poles q: the roots +-sqrt(p) of
every wave pole p, each resonance pole k_i and its mirror -conj(k_i),

    G(k) = sum_q sum_n c_{q,n} (k - q)^-n,

and I(t) = sum c_{q,n} K_n(q, t) with
K_n(q, t) = integral_0^inf e^{-i k^2 t} (k - q)^-n dk.  This is the
Moshinsky "diffraction in time" basis (Moshinsky, Phys. Rev. 88, 625,
1952; Garcia-Calderon, Mateos and Moshinsky, PRL 74, 337, 1995).

The principal parts come from running power series: around k = q + h
every factor of G is a binomial (d + h)^s, or a power h^s where its root
is q, so orders add where poles coincide.  Each term's series is updated
in place, one unit of s at a time, and carries a running bound on its
rounding.  They are computed once per `principal_parts`, not once per
time, and so are the K_n(q, 0).

Rotating [0, inf) onto the ray k = e^{-i pi/4} s splits K_n into a
pole term and a ray integral B_n.  The rotation sweeps the sector
arg k in (-pi/4, 0), so only a pole there contributes
-2 pi i Res[e^{-i k^2 t} (k - q)^-n], and

    B_1(q) = [e^x E1(x) + F(q)] / 2,    x = -i q^2 t,

with F(q) = i pi w(z) for Im z > 0, -i pi w(-z) otherwise,
z = e^{i pi/4} sqrt(t) q and w the Faddeeva function.  B_1 is analytic
in q off the ray, so B_n = B_1^{(n-1)} / (n-1)! is a trapezoid sum of
B_1 on a circle around q of a third of the distance to the ray.  The forward
recurrence in n would instead lose digits in proportion to t.  At
t = 0 the integrals are elementary: -c_1 log(-q), since the c_1 sum to
zero, and c_n (-q)^{1-n} / (n-1).

e^x E1(x) and w(z) are evaluated here, in numpy, each with its own
bound (`_e1_scaled`, `_faddeeva`): e^x E1(x) by its power series for
small (|x| + Re x) / 2 and its continued fraction beyond (DLMF 6.6.2,
6.9.1); w(z) by its Taylor series below |z| = 1.5 and the Laplace
continued fraction beyond (Gautschi, SIAM J. Numer. Anal. 7, 187, 1970;
Poppe and Wijers, ACM TOMS 16, 38, 1990).  Both fractions are Laguerre
fractions in x = -z^2, whose approximants are Gauss rules of
t^alpha e^-t (`_laguerre`), and the pairing sums both in one pass.  A
bound is the truncation (a series' remainder, a fraction's gap between
two depths) plus the rounding, and is checked against 40-digit mpmath on
the sectors the pairing reaches, |arg x| <= 3 pi / 4 and
pi / 8 <= arg z <= 7 pi / 8 (tests/special_reference.py); outside them
the bound is infinite and the pairing refuses.  No scipy is imported.

Each value carries a running bound on its rounding error: of every
series coefficient, of every special-function value and argument, and
of the final sum, so cancellation between poles shows in the bound.
Where the bound exceeds 1e-9 of |I| the pairing raises QuadratureError:
for poles a few 1e-8 apart, whose coefficients cancel, from about 250
lifetimes of the kaon_pair layout, and for a line of width 1e-6 from
about one lifetime on, where the rounding of E t alone is 2e-10 per
lifetime.

`survival_amplitude(density, t)` is the same kind of oracle for the
survival amplitude of a `survival.SpectralDensity`,
rho(z) = N c^power z^alpha / ((z - z0)(z - conj z0))^power with
c = Gamma / 2 pi.  Rotated onto the negative imaginary axis, A(t) is the
pole term of `survival._pole_residues` plus the leg
integral_0^{-i inf} rho(z) e^{-izt} dz, and since rho is rational the
leg is a finite sum of L_1(P) = e^x E1(x), x = -iPt, and
L_2(P) = dL_1/dP = -it L_1(P) - 1/P over the partial fractions of rho
at P = z0 and conj z0 (DLMF 6.2).  That sum cancels twice: between the
two poles, whose coefficients grow as Gamma^(1 - 2 power) while the
values L(z0) and L(conj z0) agree but for Gamma / E_R, and at the
threshold, where rho ~ z^alpha makes the leg fall as t^-(alpha + 1)
while each term falls as 1/t.  From |x| = 30 on the leg is also summed
from the large-t series of L_1, e^x E1(x) ~ sum_k (-1)^k k! / x^{k+1}
(DLMF 6.12.1), with the divided differences over the poles taken term by
term in closed form, where both cancellations are exact; from |x| = 50
the series alone is used, and between 30 and 50 the smaller bound wins.
The leg so keeps its relative accuracy from Gamma / E_R = 1.9 down to
1e-12 and out to 708 lifetimes.  Below |x| = 30 the partial fractions
lose at most |x|^alpha E_R / Gamma times the rounding of the leg, small
against the pole term of the early times where they apply.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigurationError, QuadratureError, forward_time, forward_times
from .expansion import PairingResult, _require_pair
from .surface import SMatrixModel
from .survival import SpectralDensity, _pole_residues

__all__ = ["PrincipalParts", "principal_parts", "survival_amplitude"]

_EPS = float(np.finfo(float).eps)
# roots closer than this, relative to their size, are one pole
_COINCIDE = 16.0 * _EPS
# e^x E1(x) is summed from its power series where (|x| + Re x) / 2 is
# below this, which loses at most e^3 to cancellation, and is checked on
# |arg x| <= 3 pi / 4, the sector `expand`'s geometry and the survival
# leg reach (tests/special_reference.py)
_E1_SERIES = 1.5
_E1_SECTOR = 0.75 * math.pi
# w(z) is summed from its Taylor series below |z| = 1.5, which loses at
# most 2 sqrt(pi) |z| e^{|z|^2}, about 50, and is checked on
# pi / 8 <= arg z <= 7 pi / 8, which the pairing's points and derivative
# circles reach
_W_TAYLOR = 1.5
_W_SECTOR = (0.125 * math.pi, 0.875 * math.pi)
# |z| up to which x = -z^2 and the fraction's terms stay normal doubles
_W_REACH = 1e150
_EULER = 0.57721566490153286
# the depths at which the Laguerre fraction is summed, each an n-point
# Gauss rule in laguerre_rules.npy, written by tests/laguerre_rules.py
_LEVELS = (16, 23, 32, 45, 64, 91, 128, 181, 256, 362, 512)
# terms per table of a Gauss sum (64 KiB)
_TERMS = 4096
# trapezoid nodes on a derivative circle; the aliasing error falls as
# 3^-nodes because B_1 is analytic out to three times the radius
_CIRCLE_NODES = 32
# |x| from which the survival leg is summed from its large-t series
# alone, whose smallest term there is below e^-50
_ASYMPTOTIC = 50.0
# terms of the survival leg's large-t series, which alone gives the leg
# from |x| = 50 on: there the last, against the first, is below
# 48!/50^48 binom(51, 3) < 1e-16.  From |x| = 30 it competes with the
# partial fractions, which lose up to |x|^alpha to the threshold.
_LEG_TERMS = 48
_LEG_SERIES_FROM = 30.0
# the largest error bound a pairing or amplitude may report, relative to
# its value
_LIMIT = 1e-9
_ROT = cmath.exp(0.25j * math.pi)


def _times(coef, err, steps):
    """Series coefficients coef in h and their bounds err, in place, times
    (d + h)^s for each step (d, 1 / d, |d|, rel, s), one unit of s at a time.

    The bounds run with the steps (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, section 3.3): each carries the
    bounds it combines, rel times the term d moves and its own rounding.
    Times (d + h), c_m becomes d c_m + c_{m-1}: sqrt(5) u for the complex
    product (Brent, Percival and Zimmermann, Math. Comp. 76, 1469, 2007)
    and u for the sum.  Over (d + h), c_m becomes (c_m - c'_{m-1}) / d, a
    product with 1 / d: u, sqrt(5) u and 5 u for the reciprocal (`_parts`).
    """
    n = len(coef)
    for d, inv, size, rel, s in steps:
        if s < 0:
            grow = rel + 4.2 * _EPS
            for _ in range(-s):
                prev = prev_err = 0.0
                for m in range(n):
                    prev = (coef[m] - prev) * inv
                    prev_err = (err[m] + prev_err) / size + grow * abs(prev)
                    coef[m], err[m] = prev, prev_err
            continue
        grow = rel + 1.2 * _EPS
        for _ in range(s):
            for m in range(n - 1, 0, -1):
                a = d * coef[m]
                coef[m] = a + coef[m - 1]
                err[m] = size * err[m] + err[m - 1] + grow * abs(a) + 0.5 * _EPS * abs(coef[m])
            coef[0] *= d
            err[0] = size * err[0] + grow * abs(coef[0])


def _principal_part(dag, wave, blaschke, at, offsets):
    """Laurent coefficients c_1..c_N of G at a candidate pole q and their
    bounds, or None where G is regular at q.  Factors name their roots by
    index into the rows at and offsets of `_parts`.  About k = q + h each
    factor of G is (d + h)^s or, where its root is q, h^s, so orders add
    where poles coincide.  The wave sum is built term by term from 2c (2 of
    2k is exact), times k and the Blaschke factors, and the dual sum term
    by term from that, each by in-place steps (`_times`)."""
    # per term: its coefficient, valuation at q and other factors' steps
    dag, wave, ((_, valuation, steps),) = (
        [(c, sum(s for i, s in f if at[i]), [(*offsets[i], s) for i, s in f if not at[i]])
         for c, f in terms] for terms in (dag, wave, [(1.0, blaschke)]))
    order = -(min(v for _, v, _ in dag) + min(v for _, v, _ in wave) + valuation)
    if order <= 0:
        return None

    def wave_sum(terms, base):
        # sum_j c_j h^(v_j - low) prod (d + h)^s times base: each term
        # scales a copy of base, c_j is exact, its product rounds by
        # sqrt(5) u and each addition to the sum by u
        low = min(v for _, v, _ in terms)
        total, total_err = [0j] * order, [0.0] * order
        for c, v, steps in terms:
            length = order - v + low
            if length <= 0:
                continue
            part = [c * x for x in base[0][:length]]
            part_err = [abs(c) * e + 1.2 * _EPS * abs(x) for e, x in zip(base[1], part)]
            _times(part, part_err, steps)
            if len(terms) == 1:
                return part, part_err
            for m in range(length):
                total[m + v - low] += part[m]
                total_err[m + v - low] += part_err[m] + 0.5 * _EPS * abs(total[m + v - low])
        return total, total_err

    coef, err = wave_sum(wave, ([2.0] + [0.0] * (order - 1), [0.0] * order))
    _times(coef, err, steps)
    coef, err = wave_sum(dag, (coef, err))
    # c_n is the coefficient of h^-n, at index order - n
    return np.array(coef[::-1]), np.array(err[::-1])


def _circle_radius(q):
    """A third of the distance from q to the ray e^{-i pi/4} [0, inf),
    where B_1 is not analytic."""
    tilt = q * _ROT
    return (abs(tilt.imag) if tilt.real > 0.0 else abs(q)) / 3.0


# unit nodes of the derivative circles
_CIRCLE = np.exp(2j * math.pi * (np.arange(_CIRCLE_NODES) + 0.5) / _CIRCLE_NODES)


@dataclass(frozen=True, eq=False)
class PrincipalParts:
    """The momentum poles of G with their Laurent coefficients.

    poles[j] is a pole q, energies[j] the energy-plane pole q^2 it comes
    from as given (a wave pole p or a resonance position z_i, so that
    e^{-i q^2 t} carries only the rounding of the product with t),
    coefficients[j] its c_1..c_N and errors[j] their rounding bounds.
    The points where `pairing` evaluates B_1 (each pole, then a circle
    around each pole of order two or more) are fixed here, since they
    do not depend on t, and so are the linear maps from B_1 at those
    points to every K_n and its error bound.  `pairing` holds the K_n of
    all poles as one row per t, in the order of the coefficients: c_1..c_N
    of the first pole, then of the next.
    """

    poles: tuple
    energies: tuple
    coefficients: tuple
    errors: tuple

    def __post_init__(self):
        # B_1(-q) = [e^x E1(x) - F(q)] / 2 at the same x, so a pole whose
        # mirror -q is also a pole shares its evaluations, circle included;
        # the points are the poles evaluated, then the nodes of the circles
        orders = [len(c) for c in self.coefficients]
        order = dict(zip(self.poles, orders))
        ends = list(itertools.accumulate(orders, initial=0))
        base, energies, centres, radii, plans, first = [], [], [], [], [], {}
        for q, e in zip(self.poles, self.energies):
            if -q in first:
                plans.append((*first[-q], True))
                continue
            circle = None
            if max(order[q], order.get(-q, 0)) > 1:
                circle = len(centres)
                centres.append(q)
                radii.append(min(_circle_radius(p) for p in (q, -q) if p in order))
            first[q] = (len(base), circle)
            plans.append((len(base), circle, False))
            base.append(q)
            energies.append(e)
        nodes = (np.array(centres, dtype=complex)[:, None]
                 + np.array(radii)[:, None] * _CIRCLE).ravel()
        points = len(base) + nodes.size
        # B_1(sign q') over the points q' is column at' of the signed halves
        # [B_1(q'), B_1(-q')], at' = at for sign 1 and points + at for -1
        lead = np.array([at + mirror * points for at, _, mirror in plans])
        # B_n = mean over the circle of B_1(q + r u) (r u)^{1-n}, n >= 2;
        # the nodes around -q are the negated nodes around q.  Per column
        # n >= 2: the columns of its circle's signed halves and their
        # weights, the bound's columns, (n + 1) eps / nodes and r^{1-n}
        higher = [(lo + n - 1, len(base) + circle * _CIRCLE_NODES + mirror * points,
                   (-1.0) ** mirror, n, radii[circle])
                  for (_, circle, mirror), lo, n_max in zip(plans, ends, orders)
                  for n in range(2, n_max + 1)]
        if higher:
            cols, rows, sign, n, radius = map(np.array, zip(*higher))
            rows = rows[:, None] + np.arange(_CIRCLE_NODES)
            higher = (cols, rows, rows % points,
                      (sign[:, None] * _CIRCLE) ** (1 - n[:, None]) / _CIRCLE_NODES,
                      (n + 1) * _EPS / _CIRCLE_NODES, radius ** (1.0 - n))
        # K_n(q, 0) per column, n = 1 without its log divergence, which
        # cancels because the c_1 sum to zero
        neg = -np.repeat(np.array(self.poles, dtype=complex), orders)
        power = np.array([n for n_max in orders for n in range(1, n_max + 1)])
        at_zero = np.where(power == 1, -np.log(neg), neg ** (1 - power) / np.maximum(power - 1, 1))
        # the poles in the rotated sector, whose residue K_1 adds: the
        # resonance momenta k_i, simple since SMatrixModel refuses
        # coincident poles; their energies and columns
        sector = [(e, lo, n) for q, e, lo, n in zip(self.poles, self.energies, ends, orders)
                  if q.imag < 0.0 < q.real + q.imag]
        if any(n > 1 for _, _, n in sector):
            raise ConfigurationError("a pole in the rotated sector must be simple")
        sector = np.array([e for e, _, _ in sector]), [lo for _, lo, _ in sector]
        for name, value in (
                ("_points", np.concatenate([np.array(base, dtype=complex), nodes])),
                ("_energies", np.concatenate([np.array(energies, dtype=complex), nodes * nodes])),
                ("_lead", (ends[:-1], lead, lead % points)),
                ("_higher", higher),
                ("_zero", (at_zero, _EPS * (np.abs(at_zero) * (power + 1) + (power == 1)))),
                ("_sector", sector),
                ("_coef", (np.concatenate(self.coefficients), np.concatenate(self.errors)))):
            object.__setattr__(self, name, value)

    def pairing(self, t):
        """I(t) = sum_q sum_n c_{q,n} K_n(q, t) and its error bound, at a
        time t or at each t of a 1-D array of them (then as arrays).

        All t > 0 share one evaluation of e^x E1(x) and F over the
        points and times, and t = 0 takes the elementary integrals.  A
        bound past 1e-9 of |I| raises QuadratureError at the first such t.
        """
        ts = forward_times(t, "the pairing evolves forward only")
        times = np.atleast_1d(ts)
        coef, cerr = self._coef
        k = np.empty((times.size, coef.size), dtype=complex)
        kerr = np.empty(k.shape)
        later = times > 0.0
        if not later.all():
            k[~later], kerr[~later] = self._zero
        if later.any():
            k[later], kerr[later] = self._k_integrals(times[later])
        terms = coef * k
        size = np.sum(np.abs(terms), axis=-1)
        value = np.sum(terms, axis=-1)
        error = np.sum(np.abs(coef) * kerr + cerr * np.abs(k), axis=-1) + 2.0 * _EPS * size
        gated = error <= _LIMIT * np.abs(value)
        if not gated.all():
            i = np.argmin(gated)
            raise QuadratureError(
                f"closed-form pairing at t = {times[i]:g} cancels past its bound "
                f"({error[i]:.3e} against |I| = {abs(value[i]):.3e})"
            )
        if ts.ndim:
            return PairingResult(value=value, error=error)
        return PairingResult(value=complex(value[0]), error=float(error[0]))

    def _k_integrals(self, t):
        """K_n of every pole at each t > 0 of an array, one row per t, and
        their error bounds, from one evaluation of B_1 at every point."""
        e1x, f, e1_err, f_err = _ray_parts(self._points, self._energies, t)
        half_err = 0.5 * (e1_err + f_err)
        refused = ~np.isfinite(half_err).all(axis=-1)
        if refused.any():
            raise QuadratureError(
                f"closed-form pairing at t = {t[np.argmax(refused)]:g} leaves the sectors "
                "where e^x E1(x) and w(z) are checked")
        halves = 0.5 * np.concatenate([e1x + f, e1x - f], axis=-1)
        k = np.empty((t.size, self._coef[0].size), dtype=complex)
        err = np.empty(k.shape)
        cols, lead, lead_err = self._lead
        k[:, cols] = first = halves[:, lead]
        err[:, cols] = half_err[:, lead_err] + _EPS * np.abs(first)
        if self._higher:
            cols, rows, err_rows, weights, mag, scale = self._higher
            on = halves[:, rows]
            k[:, cols] = np.sum(on * weights, axis=-1) * scale
            err[:, cols] = (np.sum(half_err[:, err_rows], axis=-1) / _CIRCLE_NODES
                            + np.sum(np.abs(on), axis=-1) * mag) * scale
        # -2 pi i Res[e^{-i k^2 t} / (k - q)] = -2 pi i e^{-i q^2 t}, which
        # carries the rounding of the exponent and 6 eps of its own
        energy, cols = self._sector
        phase = np.multiply.outer(t, energy)
        res = -2j * math.pi * np.exp(-1j * phase)
        k[:, cols] += res
        err[:, cols] += np.abs(res) * _EPS * (2.0 * np.abs(phase) + 6.0)
        return k, err


def principal_parts(psi, state, model):
    """Principal parts of G(k) = 2k conj(psi)(k^2) phi(k^2) S(k).

    psi is the UPPER registration-side function and state the LOWER
    prepared state, as for `expansion.expand`; model must be a pole-only
    `SMatrixModel`.  A background phase makes G transcendental and is
    refused with ConfigurationError.
    """
    if not isinstance(model, SMatrixModel):
        raise ConfigurationError("principal_parts needs an SMatrixModel")
    if model.background is not None:
        raise ConfigurationError(
            "the closed-form pairing needs a pole-only model; a background "
            "phase makes the integrand transcendental"
        )
    dag_fn, wave_fn = _require_pair(psi, state)
    blaschke, candidates = [], []
    for pole in model.poles:
        # the principal root of the fourth-quadrant position is k_i;
        # cmath keeps Im k_i to its relative accuracy for narrow lines
        z = complex(pole.position)
        k = cmath.sqrt(z)
        blaschke += [(-k, 1), (k.conjugate(), 1), (k, -1), (-k.conjugate(), -1)]
        candidates += [(k, z), (-k.conjugate(), z.conjugate())]
    return _parts(dag_fn, wave_fn, blaschke, candidates)


def _parts(dag_fn, wave_fn, blaschke, candidates):
    """`PrincipalParts` of G with the factors `blaschke` (none: S = 1) at
    the (momentum, energy) `candidates` and the roots of the wave poles."""
    waves = [[(c, cmath.sqrt(p), n) for c, p, n in hardy.terms] for hardy in (dag_fn, wave_fn)]
    for hardy, terms in zip((dag_fn, wave_fn), waves):
        for (_, p, _), (_, r, _) in zip(hardy.terms, terms):
            candidates += [(r, p), (-r, p)]
    # every root of a factor of G, 2k's first; a candidate is one of them
    roots = list(dict.fromkeys([0.0, *(r for r, _ in blaschke),
                                *(x for terms in waves for _, r, _ in terms for x in (r, -r))]))
    index = {r: i for i, r in enumerate(roots)}
    dag, wave = ([(c, ((index[r], -n), (index[-r], -n))) for c, r, n in terms]
                 for terms in waves)
    factors = [(index[r], s) for r, s in ((0.0, 1), *blaschke)]
    # per candidate q and root: whether the root is q, its factor then h^s,
    # and (d, 1 / d, |d|, rel), d = q - root with the rounding of both
    # momenta rel: a pole moves against another, to which I(t) is as
    # sensitive as 1/|d|.  A root -q, conj(q) or -conj(q) moves with q, and
    # d is exact.  numpy's quotient 1 / d (Smith's) is within 5 u.
    qs, roots = np.array([q for q, _ in candidates])[:, None], np.array(roots)
    d = qs - roots
    gap, size_q, size_r = np.abs(d), np.abs(qs), np.abs(roots)
    at = (gap <= _COINCIDE * np.maximum(size_q, size_r)).tolist()
    image = (roots == -qs) | (roots == qs.conjugate()) | (roots == -qs.conjugate())
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(image, 0.0, _EPS * (size_q + size_r) / gap)
        inv = 1.0 / d
    offsets = [list(zip(*row)) for row in zip(*(a.tolist() for a in (d, inv, gap, rel)))]
    found, taken = [], []
    for (q, e), row in zip(candidates, zip(at, offsets)):
        if any(row[0][i] for i in taken):
            continue
        part = _principal_part(dag, wave, factors, *row)
        if part is not None:
            taken.append(index[q])
            found.append((q, e, *part))
    poles, energies, coefficients, errors = zip(*found) if found else ((),) * 4
    return PrincipalParts(poles, energies, coefficients, errors)


def _e1_scaled(x):
    """e^x E1(x) at each point of an array of complex x, and its bound.

    Each point takes one sum by where it lies, so it gets the same bits
    alone as in any array: with c2 = (|x| + Re x) / 2 = (Re sqrt x)^2, the
    power series of E1 (DLMF 6.6.2) for c2 < 1.5, where it loses at most
    e^{2 c2} to cancellation, and beyond the continued fraction
    1 / (x + 1 - 1^2 / (x + 3 - 2^2 / (x + 5 - ...))) (DLMF 6.9.1,
    contracted), `_laguerre` at alpha = 0, which takes its two smallest
    depths, 16 and 23 terms, from c2 = 12.5 on and so serves large |x|.
    The bound adds the truncation (the series' remainder, the fraction's
    gap between two depths), the rounding and 4 eps |x d/dx e^x E1(x)|
    for the caller's rounding of x.  Outside |arg x| <= 3 pi / 4, where
    tests/special_reference.json checks it, and at x = 0 or infinite x
    the value is nan and the bound infinite.
    """
    x, c2, finish = _e1_split(x)
    return finish(*_laguerre(x, c2, 0))


def _faddeeva(z):
    """w(z) = e^{-z^2} erfc(-iz) at each point of an array of complex z,
    and its bound.

    Below |z| = 1.5 it is the Taylor series of w, where it loses at most
    2 sqrt(pi) |z| e^{|z|^2}; beyond, the Laplace continued fraction
    (i / sqrt(pi)) / (z - (1/2) / (z - 1 / (z - (3/2) / (z - ...))))
    (Gautschi, SIAM J. Numer. Anal. 7, 187, 1970; Poppe and Wijers, ACM
    TOMS 16, 38, 1990), which contracts in x = -z^2 to -iz / sqrt(pi) /
    (x + 1/2 - (1/2) / (x + 5/2 - 3 / (x + 9/2 - ...))), `_laguerre` at
    alpha = -1/2 with c2 = Im(z)^2.  Each point is evaluated on its own.
    The bound adds the truncation, the rounding and eps |z w'(z)| for the
    rounding of z^2 here; the caller adds its own rounding of z.  Outside
    pi / 8 <= arg z <= 7 pi / 8, where tests/special_reference.json checks
    it, the value is nan and the bound infinite; z = 0 is taken.
    """
    x, c2, finish = _w_split(z, 0)
    return finish(*_laguerre(x, c2, 1))


def _e1_split(x):
    """e^x E1(x) by its series, the points x and c2 left to the fraction,
    and the function of its (value, gap, rel) there that returns all."""
    x = np.asarray(x, dtype=complex)
    value, error = np.full(x.shape, np.nan + 0j), np.full(x.shape, np.inf)
    size = np.abs(x)
    c2 = 0.5 * (size + x.real)
    valid = (np.abs(np.arctan2(x.imag, x.real)) <= _E1_SECTOR) & (size > 0.0) & (size < np.inf)
    series = valid & (c2 < _E1_SERIES)
    near = valid & ~series

    def fill(where, v, e):
        # x f'(x) = x f - 1 for f = e^x E1(x) carries the caller's rounding of x
        value[where], error[where] = v, e + 4.0 * _EPS * np.abs(x[where] * v - 1.0)
        return value, error

    if series.any():
        fill(series, *_e1_series(x[series]))
    return x[near], c2[near], lambda v, gap, rel: fill(near, v, gap + np.abs(v) * rel)


def _w_split(z, caller):
    """w(z) as `_e1_split`, x = -z^2 and c2 = Im(z)^2; -iz / sqrt(pi)
    rounds by eps, its product by 1.2 eps, and (1 + caller) eps |z w'|
    covers z^2 and `caller` roundings of z."""
    z = np.asarray(z, dtype=complex)
    value, error = np.full(z.shape, np.nan + 0j), np.full(z.shape, np.inf)
    arg = np.arctan2(z.imag, z.real)
    inside = ((arg >= _W_SECTOR[0]) & (arg <= _W_SECTOR[1])) | (z == 0.0)
    valid = inside & (np.abs(z) <= _W_REACH)
    taylor = valid & (np.abs(z) < _W_TAYLOR)
    near = valid & ~taylor
    zn = z[near]
    top = -1j / math.sqrt(math.pi) * zn

    def fill(where, v, e):
        # z w'(z) = 2z (i / sqrt(pi) - z w)
        zs = z[where]
        dw = np.abs(2.0 * zs * (1j / math.sqrt(math.pi) - zs * v))
        value[where], error[where] = v, e + (1.0 + caller) * _EPS * dw
        return value, error

    if taylor.any():
        fill(taylor, *_w_taylor(z[taylor]))
    return -(zn * zn), zn.imag**2, lambda v, gap, rel: fill(
        near, top * v, np.abs(top) * (gap + np.abs(v) * (rel + 2.2 * _EPS)))


def _e1_rest(r, terms):
    """A bound on sum_{k > terms} r^k / (k k!), for r < terms + 2."""
    k = terms + 1
    return r**k / (k * math.factorial(k)) / (1.0 - r / (k + 1))


def _w_rest(r, terms):
    """A bound on sum_{m > terms} (2r^2)^m / (2m+1)!!, for 2r^2 < 2 terms + 5."""
    u, m = 2.0 * r * r, terms + 1
    return u**m / math.prod(range(1, 2 * m + 2, 2)) / (1.0 - u / (2 * m + 3))


# the series' terms, fixed so that a point's bits do not depend on the
# others: the remainder at the regime's largest argument is below eps / 16
# of e^-r / (r + 2), a floor of |E1| there, for e^x E1 (|x| up to
# 3 / (1 - cos(pi / 4)) on the sector), and below eps / 64 for w, which
# keeps under eps / 16 of 0.3, a floor of |w| on the half disc, after
# the factor 2 |z| / sqrt(pi)
_E1_REACH = 2.0 * _E1_SERIES / (1.0 + math.cos(_E1_SECTOR))
_E1_COEF = [0.0] + [1.0 / (k * math.factorial(k)) for k in range(1, next(
    n for n in itertools.count(1)
    if n + 2 > _E1_REACH
    and _e1_rest(_E1_REACH, n) <= _EPS / 16.0 * math.exp(-_E1_REACH) / (_E1_REACH + 2.0)) + 1)]
_W_COEF = [1.0 / math.prod(range(1, 2 * m + 2, 2)) for m in range(next(
    n for n in itertools.count(1)
    if 2.0 * _W_TAYLOR**2 < 2 * n + 5 and _w_rest(_W_TAYLOR, n) <= _EPS / 64.0) + 1)]


def _e1_series(x):
    """e^x E1(x) = e^x (-gamma - log x - sum_k (-x)^k / (k k!)) and its
    bound, for c2 < 1.5."""
    r = np.abs(x)
    total, total_err = _horner(_E1_COEF, -x)
    log = np.log(x)
    e1 = -_EULER - log - total
    scale = np.exp(x)
    value = scale * e1
    # the sum's rounding and remainder; the log's, the constant's and the
    # two differences'; the exponential's and the product's
    e1_err = (total_err + _e1_rest(r, len(_E1_COEF) - 1)
              + _EPS * (2.0 * np.abs(log) + 3.0 + 2.0 * np.abs(total) + np.abs(e1)))
    return value, np.abs(scale) * e1_err + 3.0 * _EPS * np.abs(value)


def _w_taylor(z):
    """w(z) = e^{-z^2} + (2i / sqrt(pi)) z sum_m (-2z^2)^m / (2m+1)!! and
    its bound, for |z| < 1.5."""
    r = np.abs(z)
    square = z * z
    odd, odd_err = _horner(_W_COEF, -2.0 * square)
    even = np.exp(-square)
    odd = 2j / math.sqrt(math.pi) * z * odd
    value = even + odd
    # the exponential's and the odd part's products, and the sum
    return value, (2.0 / math.sqrt(math.pi) * r * (odd_err + _w_rest(r, len(_W_COEF) - 1))
                   + 3.0 * _EPS * (np.abs(even) + np.abs(odd)) + _EPS * np.abs(value))


def _horner(coef, y):
    """sum_j coef[j] y^j over an array y by Horner's rule, and a running
    bound on its rounding (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, Algorithm 5.1): with complex products and
    real coefficients that round themselves, step j errs by at most
    (sqrt(5) + 1) u |p_{j+1} y| + 2 u |p_j|, u = eps / 2, so the sum errs
    by at most 3 eps sum_j |y|^j |p_j|."""
    r = np.abs(y)
    p = np.full(y.shape, coef[-1], dtype=complex)
    mu = np.abs(p)
    for c in coef[-2::-1]:
        p = p * y + c
        mu = mu * r + np.abs(p)
    return p, 3.0 * _EPS * mu


@functools.lru_cache(maxsize=None)
def _rules():
    """_LEVELS as an array; per shallow depth but the last, (table, size):
    the Gauss rules of t^alpha e^-t at the next depth (size nodes) and the
    shallow one, end to end, in falling node order, indexed (alpha 0 or
    -1/2, node, node or weight); and per (alpha, shallow depth) the next
    depth's sum_j (j + 1) w_j with the nodes in rising order."""
    with (resources.files(__package__) / "laguerre_rules.npy").open("rb") as stream:
        table = np.load(stream)
    ends = np.cumsum((0, *_LEVELS))
    rules = [[family[lo:hi][::-1] for lo, hi in zip(ends[:-1], ends[1:])] for family in table]
    pairs = [(np.array([np.concatenate([family[level + 1], family[level]]) for family in rules],
                       dtype=complex), size)
             for level, size in enumerate(_LEVELS[1:])]
    spread = np.array([[np.arange(len(deep), 0, -1) @ deep[:, 1] for deep in family[1:]]
                       for family in rules])
    return np.array(_LEVELS), pairs, spread


def _laguerre(x, c2, family):
    """The Laguerre continued fraction 1 / (x + 1 + alpha - 1 (1 + alpha) /
    (x + 3 + alpha - 2 (2 + alpha) / (x + 5 + alpha - ...))) at the points x,
    alpha = 0 (family 0) or -1/2 (family 1), for all points or as an int
    array one per point, with c2 = (Re sqrt x)^2: its value, its truncation
    gap and its relative rounding bound.

    The n-th approximant is the n-point Gauss rule of the probability
    measure t^alpha e^-t dt / Gamma(1 + alpha) applied to 1 / (x + t), so
    it is summed as sum_j w_j / (x + t_j) with the rules of
    laguerre_rules.npy.  The error falls as e^{-4 sqrt(n c2)}, and over
    both sectors 92 / c2 + 8 terms reach eps: a point's shallow depth is
    the first of _LEVELS past 100 / c2 + 8, its value is taken at the next
    one, and the gap between the two is the truncation estimate.  Both
    depths depend on the point alone, so it gets the same bits alone as in
    any array, and points of both families at one depth share a table.

    Each term rounds by at most 10.4 u of w_j / |x + t_j|, u = eps / 2:
    the sum x + t_j and the complex quotient (7 u), and the rule's node
    and weight, each rounded once, the node moving the term by at most
    sqrt(2) u since |x + t| >= t / sqrt(2) on the sector.  The terms are
    added one by one from the largest node, whose terms are the smallest,
    and each addition rounds by u times a partial sum of the terms added,
    so the value errs by at most u (10.4 + sum_j (j + 1) w_j) / d(x), with
    the weights in rising node order and d(x) the distance of x from
    (-inf, 0], since sum_j w_j = 1.  The shallow sum, only an estimate,
    runs on after the value and is read as a difference.
    """
    levels, rules, spread = _rules()
    shallow = np.minimum(np.searchsorted(levels, 100.0 / c2 + 8.0), len(rules) - 1)
    family = np.asarray(family)
    value, rest = np.empty(x.shape, dtype=complex), np.empty(x.shape, dtype=complex)
    for level in sorted(set(shallow.tolist())):
        table, size = rules[level]
        group = np.flatnonzero(shallow == level)
        # tables of at most _TERMS terms keep a long time grid's memory flat
        step = max(1, _TERMS // table.shape[1])
        for lo in range(0, group.size, step):
            at = group[lo:lo + step]
            rule = table[family[at] if family.ndim else family]
            sums = np.cumsum(rule[..., 1] / (x[at][:, None] + rule[..., 0]), axis=1)
            value[at], rest[at] = sums[:, size - 1], sums[:, -1]
    distance = np.where(x.real >= 0.0, np.abs(x), np.abs(x.imag))
    rel = 0.5 * _EPS * (10.4 + spread[family, shallow]) / (distance * np.abs(value))
    return value, np.abs(2.0 * value - rest), rel


def _ray_parts(q, energy, t):
    """e^x E1(x) and F(q) at the momenta q (an array) with q^2 = energy,
    x = -i energy t, for each t of an array (one row per t), and their
    bounds; B_1(+-q) = [e^x E1(x) +- F(q)] / 2.  The continued fractions
    of both functions run in one `_laguerre` pass."""
    z = np.multiply.outer(_ROT * np.sqrt(t), q)
    upper = z.imag > 0.0
    zu = np.where(upper, z, -z)
    # z carries four roundings of its own
    (x, c2, e1), (y, d2, w) = _e1_split(np.multiply.outer(-1j * t, energy)), _w_split(zu, 4)
    value, gap, rel = _laguerre(np.concatenate([x, y]), np.concatenate([c2, d2]),
                                np.repeat([0, 1], [x.size, y.size]))
    e1x, e1_err = e1(value[:x.size], gap[:x.size], rel[:x.size])
    wz, w_err = w(value[x.size:], gap[x.size:], rel[x.size:])
    return e1x, np.where(upper, 1j, -1j) * math.pi * wz, e1_err, math.pi * w_err


def survival_amplitude(density, t):
    """A(t) of a `survival.SpectralDensity` in closed form, and its bound.

    The value is the pole term of `survival._pole_residues`, the same
    bits the rotation adds, plus the leg in closed form; the bound covers
    the leg and the final sum, not the rounding of e^{-i z0 t} in the
    pole term, which both methods share.  A bound past 1e-9 of |A| raises
    QuadratureError.
    """
    if not isinstance(density, SpectralDensity):
        raise ConfigurationError("survival_amplitude needs a SpectralDensity")
    t = forward_time(t, "survival amplitudes exist for t >= 0")
    leg, error = _survival_leg(density, t)
    value = complex(_pole_residues(density, t)) + leg
    error += 2.0 * _EPS * abs(value)
    if not error <= _LIMIT * abs(value):
        raise QuadratureError(
            f"closed-form survival amplitude at t = {t:g} cancels past its bound "
            f"({error:.3e} against |A| = {abs(value):.3e})"
        )
    return PairingResult(value=value, error=error)


def _survival_leg(density, t):
    """The leg integral_0^{-i inf} rho(z) e^{-izt} dz and its bound.

    In units of E_R the pole is z0 = 1 - i gamma / 2, gamma = Gamma / E_R,
    and t becomes tau = E_R t; the leg is
    N c^power E_R^(alpha + 1 - 2 power) times the leg of
    zeta^alpha / ((zeta - z0)(zeta - conj z0))^power at tau.  The partial
    fractions' coefficients grow as gamma^(1 - 2 power), so they come
    times gamma^(2 power - 1) and their scale without it, which keeps
    both finite for any gamma.
    """
    res = density.resonance
    alpha, power = density.alpha, density.power
    gamma = res.width / res.energy
    if not gamma:
        # Gamma / E_R below the double range: the leg, of relative size
        # gamma, rounds to 0 against the pole term
        return 0j, 0.0
    z0 = complex(1.0, -0.5 * gamma)
    tau = res.energy * t
    # N c^power E_R^(alpha + 1 - 2 power) / gamma^(2 power - 1), from the
    # density's scale N E_R^(alpha + 1 - power)
    scale = density._scale / gamma ** (power - 1) / (2.0 * math.pi) ** power
    # between the two regimes both sums run and the smaller bound wins
    x = abs(z0) * tau
    sums = []
    if x >= _LEG_SERIES_FROM:
        leg, error = _leg_series(z0, tau, alpha, power)
        sums.append((scale * gamma ** (2 * power - 1) * leg,
                     abs(scale) * gamma ** (2 * power - 1) * error))
    if x < _ASYMPTOTIC:
        leg, error = _leg_fractions(z0, gamma, tau, alpha, power)
        sums.append((scale * leg, abs(scale) * error))
    leg, error = min(sums, key=lambda pair: pair[1])
    # the rounding of gamma, scale and the series' leading factor
    return leg, error + 8.0 * _EPS * abs(leg)


_POWERS_OF_MINUS_I = np.array([1.0, -1j, -1.0, 1j])


def _leg_series(z0, tau, alpha, power):
    """The unit leg from the large-t series of e^x E1(x), for |z0| tau >= 30.

    zeta^alpha e^x E1(x) ~ sum_j (-1)^j j! (i / tau)^(j + 1) zeta^(alpha-j-1),
    and the leg is the divided difference of that over the nodes z0 and
    conj z0, each `power` times.  For j < alpha the term is a polynomial
    of too low a degree and drops out; for m = j + 1 - alpha >= 1,
    zeta^-m has the divided difference -|z0|^(-2 power) h_(m-1) with h_k
    the complete symmetric polynomials of the reciprocal nodes.  Over
    1/z0 = r e^{i theta} and its conjugate, h_k = r^k sin((k+1) theta) /
    sin(theta), real and at most (k + 1) r^k; doubled nodes convolve h
    with itself.  The series is asymptotic and is summed up to its
    smallest term, past which the remainder is bounded by that term
    times |z0| (the cosecant of arg x, DLMF 6.12), doubled.
    """
    k = np.arange(_LEG_TERMS + 1)
    theta = math.atan2(-z0.imag, z0.real)
    rk = abs(z0) ** -k.astype(float)
    h = rk * (np.sin((k + 1) * theta) / math.sin(theta) if theta else k + 1.0)
    mag = rk * (k + 1.0)
    if power == 2:
        h = np.convolve(h, h)[: k.size]
        mag = np.convolve(mag, mag)[: k.size]
    # (k + alpha)! / alpha! / tau^k, times (-i)^k
    ratio = np.cumprod(np.r_[1.0, (k[1:] + alpha) / tau])
    terms = ratio * h * _POWERS_OF_MINUS_I[k % 4]
    size = ratio * mag
    last = int(np.argmin(size))
    total = complex(terms[:last].sum())
    # each term carries the rounding of tau, of its factorial ratio and of h_k
    error = _EPS * float(np.sum(size[:last] * (4 * k[:last] + alpha + 20)))
    error += 2.0 * abs(z0) * size[last]
    lead = -(-1) ** alpha * math.factorial(alpha) * (1j / tau) ** (alpha + 1)
    lead /= abs(z0) ** (2 * power)
    return lead * total, abs(lead) * error


def _leg_fractions(z0, gamma, tau, alpha, power):
    """gamma^(2 power - 1) times the unit leg, from the partial fractions
    of zeta^alpha / ((zeta - z0)(zeta - conj z0))^power against L_1 and
    L_2, for |z0| tau < 50.

    At a node P the other node is P - gamma s with s = -i at z0 and +i at
    conj z0.  The coefficients, times gamma^(2 power - 1), are P^alpha / s
    for a simple pole; for a double pole gamma P^alpha / s^2 of L_2 and
    (alpha P^(alpha-1) gamma - 2 P^alpha / s) / s^2 of L_1.  At t = 0,
    L_1(P) = -log(-iP): the constant and the log t of e^x E1(x) drop out
    because the coefficients of L_1 sum to zero.
    """
    nodes = (z0, z0.conjugate())
    if tau == 0.0:
        g = np.array([-cmath.log(-1j * p) for p in nodes])
        g_err = _EPS * (np.abs(g) + 1.0)
    else:
        g, g_err = _e1_scaled(-1j * tau * np.array(nodes))
    leg, error, size = 0j, 0.0, 0.0
    for p, s, l1, l1_err in zip(nodes, (-1j, 1j), g, g_err):
        top = p**alpha
        if power == 1:
            c1, mag1 = top / s, abs(top)
        else:
            c1 = (alpha * p ** (alpha - 1) * gamma - 2.0 * top / s) / s**2
            mag1 = alpha * abs(p) ** (alpha - 1) * gamma + 2.0 * abs(top)
            c2 = gamma * top / s**2
            l2 = -1j * tau * l1 - 1.0 / p
            leg += c2 * l2
            size += abs(c2) * (abs(tau * l1) + abs(1.0 / p))
            error += abs(c2) * tau * l1_err
        leg += c1 * l1
        size += mag1 * abs(l1)
        error += mag1 * l1_err
    return leg, error + 8.0 * _EPS * size
