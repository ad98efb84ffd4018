"""Density matrices, projective measurements and history probabilities.

Finite-dimensional companion to the resonance machinery: states are
density matrices, measurements are orthogonal projector families, and a
history is a time-ordered chain of projections whose probability is

    P = Tr( M rho M* ),   M = P_n(t_n) ... P_1(t_1),

with Heisenberg projectors P(t) = e^{iHt} P e^{-iHt} and strictly
increasing positive times.  Evolution respects the same forward arrow
as the rest of the package.

The public functions take one matrix each and check it once.  They share
private kernels that also work over leading axes, so a stack of cases
(one leading axis, `stacked=True` in the checks) runs the same
arithmetic as one case at a time.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh

from .errors import (
    ArrowOfTimeError,
    ConfigurationError,
    ZeroProbabilityError,
    forward_time,
)

__all__ = [
    "validate_density",
    "validate_projector",
    "validate_projector_family",
    "random_density",
    "random_projector_family",
    "unitary_evolve",
    "heisenberg_projector",
    "collapse_nonselective",
    "collapse_selective",
    "entropy",
    "History",
    "history_probability",
    "two_level_survival",
]

_ATOL = 1e-12
# an outcome of probability at or below this is null: collapse_selective
# raises on it, and the stacked sequential route gives it probability 0
_NULL = 1e-14


def _square(m, what, stacked=False, degree=1):
    """m as a complex array, refused unless square, nonempty, finite and
    of entries small enough that the checks' arithmetic stays finite; a
    stack has one leading axis.

    One pass over the real and imaginary parts bounds every part by
    (max / 4n)^(1 / degree): then sums of n entries and differences of
    two (degree 1) or sums of n products of two (degree 2, the
    projector checks) cannot overflow.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 + stacked or m.shape[-1] != m.shape[-2] or not m.size:
        raise ConfigurationError(f"{what} must be a nonempty square matrix")
    top = np.maximum(np.abs(m.real).max(), np.abs(m.imag).max())
    if not np.isfinite(top):
        raise ConfigurationError(f"{what} must be finite")
    limit = (sys.float_info.max / (4 * m.shape[-1])) ** (1.0 / degree)
    if top > limit:
        raise ConfigurationError(
            f"{what} has an entry of size {top:.3e}, past the {limit:.3e} its checks allow")
    return m


def _same_size(*matrices):
    """Refuse operands of different dimension."""
    sizes = sorted({m.shape[-1] for m in matrices})
    if len(sizes) > 1:
        raise ConfigurationError(f"matrix dimensions differ: {sizes}")


def _dagger(m):
    return m.conj().swapaxes(-1, -2)


def _trace(m):
    return np.trace(m, axis1=-2, axis2=-1)


def _close(a, b, atol):
    """Every entry of a within atol of b; NaN is never close."""
    return np.abs(a - b).max() <= atol


def _density_spectrum(rho, stacked=False):
    """rho checked as a density matrix, with its eigenvalues."""
    rho = _square(rho, "a density matrix", stacked)
    if not _close(rho, _dagger(rho), _ATOL):
        raise ConfigurationError("density matrix is not hermitian")
    trace = _trace(rho)
    unit = (np.abs(trace.real - 1.0) <= 1e-10) & (np.abs(trace.imag) <= _ATOL)
    if not unit.all():
        raise ConfigurationError(f"density trace must be 1, got {trace[~unit][0]}")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -1e-10:
        raise ConfigurationError(f"density matrix has eigenvalue {w.min():.3e} < 0")
    return rho, w


def validate_density(rho):
    """Hermitian, unit trace, positive semidefinite (within 1e-12)."""
    return _density_spectrum(rho)[0]


def _projector(p, stacked=False):
    p = _square(p, "a projector", stacked, degree=2)
    if not _close(p, _dagger(p), _ATOL):
        raise ConfigurationError("projector is not hermitian")
    if not _close(p @ p, p, 1e-10):
        raise ConfigurationError("projector is not idempotent")
    return p


def validate_projector(p):
    """Hermitian idempotent (within 1e-12)."""
    return _projector(p)


def _family(projectors, dim=None, stacked=False):
    ps = [_projector(p, stacked) for p in projectors]
    if not ps:
        raise ConfigurationError("empty projector family")
    n = ps[0].shape[-1]
    if dim is not None and n != dim:
        raise ConfigurationError(f"projector dimension {n} does not match {dim}")
    for i, a in enumerate(ps):
        if a.shape != ps[0].shape:
            raise ConfigurationError("projector dimensions differ")
        for b in ps[i + 1:]:
            if not _close(a @ b, 0.0, 1e-10):
                raise ConfigurationError("projectors are not mutually orthogonal")
    if not _close(sum(ps), np.eye(n), 1e-10):
        raise ConfigurationError("projector family does not resolve the identity")
    return ps


def validate_projector_family(projectors, dim=None):
    """Mutually orthogonal projectors resolving the identity."""
    return _family(projectors, dim)


def _require_hermitian(h, stacked=False):
    h = _square(h, "a hamiltonian", stacked)
    if not _close(h, _dagger(h), _ATOL):
        raise ConfigurationError("hamiltonian is not hermitian")
    return h


def _gaussian(rng, count, dim):
    """count complex Gaussian dim x dim draws, each real part first; the
    stream is that of 2 count consecutive dim x dim normal draws."""
    d = rng.normal(size=(2 * count, dim, dim))
    return d[0::2] + 1j * d[1::2]


def _density_from(a):
    """a a* / Tr(a a*): a full-rank density matrix from a Gaussian draw."""
    rho = a @ _dagger(a)
    return rho / _trace(rho).real[..., None, None]


def _family_from(a, blocks):
    """Projectors onto consecutive column blocks of the QR basis of a draw."""
    dim = a.shape[-1]
    q, _ = np.linalg.qr(a)
    sizes = np.full(blocks, dim // blocks)
    sizes[: dim % blocks] += 1
    ps = []
    start = 0
    for s in sizes:
        cols = q[..., start:start + s]
        ps.append(cols @ _dagger(cols))
        start += s
    return ps


def random_density(dim, rng):
    """Haar-ish random full-rank density matrix."""
    return _density_from(_gaussian(rng, 1, dim)[0])


def random_projector_family(dim, rng, blocks=2):
    """Random orthogonal projector family from a Haar-ish eigenbasis."""
    return _family_from(_gaussian(rng, 1, dim)[0], blocks)


def _propagator(eig, t):
    """e^{-iHt} from the eigendecomposition eig = eigh(H), over the
    leading axes of eig and t; a phase max|w| t that is not finite is refused."""
    w, v = eig
    t = np.asarray(t, dtype=float)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(np.abs(w).max(axis=-1, keepdims=True) * t).all()
    if not finite:
        raise ConfigurationError("the phase max|E| t of the evolution is not finite")
    return (v * np.exp(-1j * w * t)[..., None, :]) @ _dagger(v)


def _evolve(rho, u):
    return u @ rho @ _dagger(u)


def _heisenberg(p, u):
    """P(t) = U(t)* P U(t) with U(t) = e^{-iHt}."""
    return _dagger(u) @ p @ u


def _chain(steps):
    """M = P_n(t_n) ... P_1(t_1) from (projector, U(t)) steps in time order."""
    m = None
    for p, u in steps:
        pt = _heisenberg(p, u)
        m = pt if m is None else pt @ m
    return m


def _history(rho, m):
    """Tr(M rho M*), clipped at 0 from below."""
    return np.maximum(_trace(m @ rho @ _dagger(m)).real, 0.0)


def _select(rho, p):
    """(P rho P / prob, prob); a null outcome (prob <= _NULL) stays unscaled."""
    reduced = p @ rho @ p
    prob = _trace(reduced).real
    return reduced / np.where(prob > _NULL, prob, 1.0)[..., None, None], prob


def _sequential(rho, first, u1, second, u21):
    """Probability of first at t1 and then second at t2 by collapse: evolve
    by U(t1), condition on first, evolve by U(t2 - t1), condition on
    second; 0 where either outcome is null."""
    mid, p1 = _select(_evolve(rho, u1), first)
    _, p2 = _select(_evolve(mid, u21), second)
    return np.where((p1 > _NULL) & (p2 > _NULL), p1 * p2, 0.0)


def _dephase(rho, ps):
    """sum_i P_i rho P_i."""
    return sum(p @ rho @ p for p in ps)


def _entropy(w):
    """-sum lambda ln lambda of a density spectrum (last axis)."""
    w = np.clip(w.real, 1e-14, None)
    w = w / np.sum(w, axis=-1, keepdims=True)
    return -np.sum(w * np.log(w), axis=-1)


def unitary_evolve(rho, hamiltonian, t):
    """e^{-iHt} rho e^{iHt} for t >= 0 (forward arrow as everywhere)."""
    t = forward_time(t, "evolution is forward only")
    rho = validate_density(rho)
    h = _require_hermitian(hamiltonian)
    _same_size(rho, h)
    return _evolve(rho, _propagator(eigh(h), t))


def heisenberg_projector(p, hamiltonian, t):
    """P(t) = e^{iHt} P e^{-iHt} for t >= 0."""
    t = forward_time(t, "Heisenberg projectors need t >= 0")
    p = validate_projector(p)
    h = _require_hermitian(hamiltonian)
    _same_size(p, h)
    return _heisenberg(p, _propagator(eigh(h), t))


def collapse_nonselective(rho, projectors):
    """sum_i P_i rho P_i for an orthogonal family resolving identity."""
    rho = validate_density(rho)
    return _dephase(rho, validate_projector_family(projectors, dim=rho.shape[0]))


def collapse_selective(rho, projector):
    """(P rho P / prob, prob); conditioning on a null outcome raises."""
    rho = validate_density(rho)
    p = validate_projector(projector)
    _same_size(rho, p)
    reduced, prob = _select(rho, p)
    if prob <= _NULL:
        raise ZeroProbabilityError(
            f"outcome probability {prob:.3e} is numerically zero"
        )
    return reduced, float(prob)


def entropy(rho):
    """von Neumann entropy -sum lambda ln lambda (natural log)."""
    return float(_entropy(_density_spectrum(rho)[1]))


@dataclass(frozen=True)
class History:
    """Chain of (projector, time) steps at strictly increasing, finite t > 0."""

    steps: tuple

    def __post_init__(self):
        if not self.steps:
            raise ConfigurationError("a history needs at least one step")
        cleaned = []
        last_t = 0.0
        for step in self.steps:
            try:
                p, t = step
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"a history step must be a (projector, time) pair, got {step!r}"
                ) from None
            t = forward_time(t, "history times must be positive")
            if not t > last_t:
                raise ArrowOfTimeError(
                    f"history times must be strictly increasing and positive, "
                    f"got {t} after {last_t}"
                )
            cleaned.append((validate_projector(p), t))
            last_t = t
        object.__setattr__(self, "steps", tuple(cleaned))


def history_probability(rho, hamiltonian, history):
    """Tr(M rho M*) with M the ordered Heisenberg projector product."""
    rho = validate_density(rho)
    h = _require_hermitian(hamiltonian)
    if not isinstance(history, History):
        history = History(steps=tuple(history))
    _same_size(rho, h, *(p for p, _ in history.steps))
    eig = eigh(h)
    return float(_history(rho, _chain((p, _propagator(eig, t)) for p, t in history.steps)))


def two_level_survival(coefficients, matrix, projector_weights, t):
    """Survival-style probability for the truncated two-level sector.

    |sum_i w_i b_i e^{-i z_i t}|^2 for effective eigenvalues z_i; the
    kaon-style interference formula of the diagonal effective theory.
    """
    t = forward_time(t, "effective evolution is forward only")
    b = np.asarray(coefficients, dtype=complex)
    w = np.asarray(projector_weights, dtype=complex)
    z = np.asarray(matrix.eigenvalues, dtype=complex)
    if b.shape != z.shape or w.shape != z.shape:
        raise ConfigurationError("coefficient, weight and eigenvalue shapes differ")
    return float(abs(np.sum(w * b * np.exp(-1j * z * t))) ** 2)
