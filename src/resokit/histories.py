"""Density matrices, projective measurements and history probabilities.

Finite-dimensional companion to the resonance machinery: states are
density matrices, measurements are orthogonal projector families, and a
history is a time-ordered chain of projections whose probability is

    P = Tr( M rho M* ),   M = P_n(t_n) ... P_1(t_1),

with Heisenberg projectors P(t) = e^{iHt} P e^{-iHt} and strictly
increasing positive times.  Evolution respects the same forward arrow
as the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .errors import (
    ArrowOfTimeError,
    ConfigurationError,
    ZeroProbabilityError,
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


def _square(m, what):
    """m as a complex array, refused unless square, nonempty and finite."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ConfigurationError(f"{what} must be a nonempty square matrix")
    if not np.isfinite(m).all():
        raise ConfigurationError(f"{what} must be finite")
    return m


def _close(a, b, atol):
    """Every entry of a within atol of b; NaN is never close."""
    return np.abs(a - b).max() <= atol


def validate_density(rho):
    """Hermitian, unit trace, positive semidefinite (within 1e-12)."""
    rho = _square(rho, "a density matrix")
    if not _close(rho, rho.conj().T, _ATOL):
        raise ConfigurationError("density matrix is not hermitian")
    trace = np.trace(rho)
    if abs(trace.real - 1.0) > 1e-10 or abs(trace.imag) > _ATOL:
        raise ConfigurationError(f"density trace must be 1, got {trace}")
    w = np.linalg.eigvalsh(rho)
    if np.min(w) < -1e-10:
        raise ConfigurationError(f"density matrix has eigenvalue {np.min(w):.3e} < 0")
    return rho


def validate_projector(p):
    """Hermitian idempotent (within 1e-12)."""
    p = _square(p, "a projector")
    if not _close(p, p.conj().T, _ATOL):
        raise ConfigurationError("projector is not hermitian")
    if not _close(p @ p, p, 1e-10):
        raise ConfigurationError("projector is not idempotent")
    return p


def validate_projector_family(projectors, dim=None):
    """Mutually orthogonal projectors resolving the identity."""
    ps = [validate_projector(p) for p in projectors]
    if not ps:
        raise ConfigurationError("empty projector family")
    n = ps[0].shape[0]
    if dim is not None and n != dim:
        raise ConfigurationError(f"projector dimension {n} does not match {dim}")
    for i, a in enumerate(ps):
        if a.shape[0] != n:
            raise ConfigurationError("projector dimensions differ")
        for b in ps[i + 1:]:
            if not _close(a @ b, 0.0, 1e-10):
                raise ConfigurationError("projectors are not mutually orthogonal")
    if not _close(sum(ps), np.eye(n), 1e-10):
        raise ConfigurationError("projector family does not resolve the identity")
    return ps


def random_density(dim, rng):
    """Haar-ish random full-rank density matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_projector_family(dim, rng, blocks=2):
    """Random orthogonal projector family from a Haar-ish eigenbasis."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    sizes = np.full(blocks, dim // blocks)
    sizes[: dim % blocks] += 1
    ps = []
    start = 0
    for s in sizes:
        cols = q[:, start:start + s]
        ps.append(cols @ cols.conj().T)
        start += s
    return ps


def _require_hermitian(h):
    h = _square(h, "a hamiltonian")
    if not _close(h, h.conj().T, _ATOL):
        raise ConfigurationError("hamiltonian is not hermitian")
    return h


def _propagator(h, t):
    w, v = eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def unitary_evolve(rho, hamiltonian, t):
    """e^{-iHt} rho e^{iHt} for t >= 0 (forward arrow as everywhere)."""
    if not t >= 0.0:
        raise ArrowOfTimeError(f"evolution is forward only, got t = {t}")
    rho = validate_density(rho)
    h = _require_hermitian(hamiltonian)
    u = _propagator(h, t)
    return u @ rho @ u.conj().T


def heisenberg_projector(p, hamiltonian, t):
    """P(t) = e^{iHt} P e^{-iHt} for t >= 0."""
    if not t >= 0.0:
        raise ArrowOfTimeError(f"Heisenberg projectors need t >= 0, got {t}")
    p = validate_projector(p)
    h = _require_hermitian(hamiltonian)
    u = _propagator(h, t)
    return u.conj().T @ p @ u


def collapse_nonselective(rho, projectors):
    """sum_i P_i rho P_i for an orthogonal family resolving identity."""
    rho = validate_density(rho)
    ps = validate_projector_family(projectors, dim=rho.shape[0])
    out = np.zeros_like(rho)
    for p in ps:
        out += p @ rho @ p
    return out


def collapse_selective(rho, projector):
    """(P rho P / prob, prob); conditioning on a null outcome raises."""
    rho = validate_density(rho)
    p = validate_projector(projector)
    reduced = p @ rho @ p
    prob = float(np.trace(reduced).real)
    if prob <= 1e-14:
        raise ZeroProbabilityError(
            f"outcome probability {prob:.3e} is numerically zero"
        )
    return reduced / prob, prob


def entropy(rho):
    """von Neumann entropy -sum lambda ln lambda (natural log)."""
    rho = validate_density(rho)
    w = np.linalg.eigvalsh(rho)
    w = np.clip(w.real, 1e-14, None)
    w = w / np.sum(w)
    return float(-np.sum(w * np.log(w)))


@dataclass(frozen=True)
class History:
    """Chain of (projector, time) steps at strictly increasing t > 0."""

    steps: tuple

    def __post_init__(self):
        if not self.steps:
            raise ConfigurationError("a history needs at least one step")
        cleaned = []
        last_t = 0.0
        for p, t in self.steps:
            t = float(t)
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
    m = np.eye(rho.shape[0], dtype=complex)
    for p, t in history.steps:
        m = heisenberg_projector(p, h, t) @ m
    val = np.trace(m @ rho @ m.conj().T).real
    return float(max(val, 0.0))


def two_level_survival(coefficients, matrix, projector_weights, t):
    """Survival-style probability for the truncated two-level sector.

    |sum_i w_i b_i e^{-i z_i t}|^2 for effective eigenvalues z_i; the
    kaon-style interference formula of the diagonal effective theory.
    """
    if not t >= 0.0:
        raise ArrowOfTimeError(f"effective evolution is forward only, got t = {t}")
    b = np.asarray(coefficients, dtype=complex)
    w = np.asarray(projector_weights, dtype=complex)
    z = np.asarray(matrix.eigenvalues, dtype=complex)
    if b.shape != z.shape or w.shape != z.shape:
        raise ConfigurationError("coefficient, weight and eigenvalue shapes differ")
    return float(abs(np.sum(w * b * np.exp(-1j * z * t))) ** 2)
