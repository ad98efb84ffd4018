"""Decay rates into detected channels: exact and Born golden rules.

A decay configuration couples one resonance to a finite set of channels.
Channel eta carries a coupling strength v2 (the squared matrix element
scale) and a spectral weight w(E) >= 0 on [0, inf) decaying at least
like E^-2.  With the Breit-Wigner density

    bw(E) = (Gamma / 2 pi) / ((E - E_R)^2 + Gamma^2 / 4)

the exact channel integral is I_eta = integral_0^inf w_eta bw dE and the
partial width is Gamma_eta = 2 pi v2_eta I_eta.  The Born approximation
replaces bw by a point evaluation: Gamma_eta^Born = 2 pi v2_eta w(E_R).
The relative gap between the two closes linearly in Gamma / E_R, which
is the Born-limit statement tested by the acceptance suite.

After `normalize` (a common rescale of all strengths so the partial
widths sum to Gamma) the registered decay probability follows

    P(t) = R * (1 - e^{-Gamma t}),

with R the detector-weighted registered fraction; R = 1 for an ideal
detector.  P is defined for t >= 0 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ChannelLookupError,
    ConfigurationError,
    NormalizationError,
    StateError,
    forward_time,
)
# integrate_exp_sinh is unused here; resobench/tracer.py wraps the benchmark
# span at this name, and its self-tests require every wrapped site to resolve
from .quadrature import integrate_exp_sinh  # noqa: F401
from .quadrature import integrate_lorentzian
from .surface import ResonancePole

__all__ = [
    "FormFactor",
    "Channel",
    "Detector",
    "DecayConfig",
    "breit_wigner_density",
    "normalize",
    "partial_width",
    "total_width_check",
    "registered_fraction",
    "decay_probability",
    "decay_rate",
    "partial_rate",
    "born_rate",
    "born_gap",
    "bw_delta_limit_check",
]


# where a channel's weight and a callable efficiency are probed; read-only,
# since each is passed to a user callable
_WEIGHT_PROBE = np.geomspace(1e-6, 1e6, 25)
_EFFICIENCY_PROBE = np.geomspace(1e-3, 1e3, 17)
_WEIGHT_PROBE.setflags(write=False)
_EFFICIENCY_PROBE.setflags(write=False)


def breit_wigner_density(resonance, energy):
    """Unit-normalized full-line Lorentzian at the resonance."""
    e = np.asarray(energy, dtype=float)
    g = resonance.width
    out = (g / (2.0 * math.pi)) / ((e - resonance.energy) ** 2 + 0.25 * g * g)
    return out if out.shape else float(out)


@dataclass(frozen=True)
class FormFactor:
    """Spectral weight w(E) = E / (E / cutoff + 1)^4.

    Vanishes at threshold, peaks near cutoff / 3 and decays like E^-3,
    comfortably inside the E^-2 integrability contract.
    """

    cutoff: float

    def __post_init__(self):
        if not (self.cutoff > 0.0 and np.isfinite(self.cutoff)):
            raise ConfigurationError(f"cutoff must be > 0, got {self.cutoff}")

    def __call__(self, energy):
        e = np.asarray(energy, dtype=float)
        out = e / (e / self.cutoff + 1.0) ** 4
        return out if out.shape else float(out)


@dataclass(frozen=True)
class Channel:
    """One decay channel: label, coupling strength, spectral weight."""

    label: str
    strength: float
    form_factor: object

    def __post_init__(self):
        if not self.label:
            raise ConfigurationError("channel label must be nonempty")
        if not (self.strength >= 0.0 and np.isfinite(self.strength)):
            raise ConfigurationError(f"strength must be >= 0, got {self.strength}")
        if not callable(self.form_factor):
            raise ConfigurationError("form_factor must be callable")
        vals = np.asarray(self.form_factor(_WEIGHT_PROBE), dtype=float)
        if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
            raise ConfigurationError(
                f"channel {self.label!r}: weight must be finite and >= 0"
            )
        if vals[-1] * _WEIGHT_PROBE[-1] ** 2 > 1e3 * np.max(vals):
            raise ConfigurationError(
                f"channel {self.label!r}: weight must decay at least like E^-2"
            )


class Detector:
    """Per-channel registration efficiencies in [0, 1].

    Efficiencies may be constants or callables of energy.  The ideal
    detector registers everything.
    """

    def __init__(self, efficiencies=None):
        self._eff = dict(efficiencies or {})
        for label, eff in self._eff.items():
            if callable(eff):
                probe = np.asarray(eff(_EFFICIENCY_PROBE), dtype=float)
                bad = not np.all((probe >= 0.0) & (probe <= 1.0))  # nan fails too
            else:
                bad = not (0.0 <= float(eff) <= 1.0)
            if bad:
                raise ConfigurationError(
                    f"efficiency for channel {label!r} must lie in [0, 1]"
                )

    @classmethod
    def ideal(cls):
        return cls()

    def efficiency(self, label, energy):
        eff = self._eff.get(label, 1.0)
        if callable(eff):
            return np.asarray(eff(energy), dtype=float)
        return np.full_like(np.asarray(energy, dtype=float), float(eff))

    def labels(self):
        return tuple(self._eff)

    def _key(self):
        # constants by value, callables by identity
        return frozenset((label, ("callable", id(eff)) if callable(eff) else float(eff))
                         for label, eff in self._eff.items())

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Detector) else NotImplemented

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class DecayConfig:
    """Resonance, channels and detector; only `normalize` normalizes it."""

    resonance: ResonancePole
    channels: tuple
    detector: Detector
    # the channel integrals by label, plain and weighted, set by `normalize`
    _integrals: dict = field(default=None, init=False, repr=False, compare=False)
    _weighted: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.channels:
            raise ConfigurationError("a decay needs at least one channel")
        labels = [c.label for c in self.channels]
        if len(set(labels)) != len(labels):
            raise ConfigurationError("duplicate channel labels")
        unknown = [label for label in self.detector.labels() if label not in labels]
        if unknown:
            raise ConfigurationError(f"detector efficiencies for unknown channels {unknown}")
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def normalized(self):
        return self._integrals is not None

    def channel(self, label):
        for c in self.channels:
            if c.label == label:
                return c
        raise ChannelLookupError(label)


def _channel_integral(config, channel, weighted=False):
    """integral_0^inf [efficiency] w_eta bw dE on the Lorentzian-mapped rule."""
    res = config.resonance

    def f(e):
        out = np.asarray(channel.form_factor(e), dtype=float)
        if weighted:
            out = out * config.detector.efficiency(channel.label, e)
        return out

    value, _ = integrate_lorentzian(f, res.energy, res.width)
    return float(value)


def normalize(config):
    """Rescale all strengths by one common factor so partial widths sum
    to the resonance width.  Relative branching ratios are untouched.

    The channel integrals do not depend on the strengths, so the
    returned configuration keeps them for `partial_width` and
    `total_width_check`, and their detector-weighted counterparts for
    the rates; `dataclasses.replace` drops both again.
    """
    integrals = {c.label: _channel_integral(config, c) for c in config.channels}
    total = sum(
        2.0 * math.pi * c.strength * integrals[c.label]
        for c in config.channels
    )
    if total <= 0.0:
        raise NormalizationError("total coupling vanishes; cannot normalize")
    factor = config.resonance.width / total
    channels = tuple(replace(c, strength=c.strength * factor) for c in config.channels)
    out = replace(config, channels=channels)
    # an unlisted channel registers with efficiency 1: its weighted
    # integral is the plain one, bit for bit
    weighted = {c.label: _channel_integral(config, c, weighted=True)
                if c.label in config.detector.labels() else integrals[c.label]
                for c in config.channels}
    object.__setattr__(out, "_integrals", integrals)
    object.__setattr__(out, "_weighted", weighted)
    return out


def partial_width(config, label):
    """Gamma_eta = 2 pi v2_eta integral w_eta bw dE (ideal weighting)."""
    c = config.channel(label)
    integral = config._integrals[label] if config.normalized else _channel_integral(config, c)
    return 2.0 * math.pi * c.strength * integral


def total_width_check(config):
    """Sum of partial widths; equals the resonance width when normalized."""
    return sum(partial_width(config, c.label) for c in config.channels)


def registered_fraction(config):
    """Detector-weighted share of the total width, in [0, 1]."""
    _require_normalized(config)
    g = config.resonance.width
    acc = 0.0
    for c in config.channels:
        acc += 2.0 * math.pi * c.strength * config._weighted[c.label]
    return acc / g


def _require_normalized(config):
    if not config.normalized:
        raise StateError("normalize the configuration before computing rates")


def decay_probability(config, t):
    """P(t) = R (1 - e^{-Gamma t}) for t >= 0."""
    _require_normalized(config)
    t = forward_time(t, "decay probability is defined for t >= 0")
    g = config.resonance.width
    return registered_fraction(config) * (1.0 - math.exp(-g * t))


def decay_rate(config, t):
    """dP/dt = R Gamma e^{-Gamma t} for t >= 0."""
    _require_normalized(config)
    t = forward_time(t, "decay rate is defined for t >= 0")
    g = config.resonance.width
    return registered_fraction(config) * g * math.exp(-g * t)


def partial_rate(config, label, t):
    """Channel share of the rate at time t (detector weighted)."""
    _require_normalized(config)
    t = forward_time(t, "partial rate is defined for t >= 0")
    c = config.channel(label)
    g = config.resonance.width
    return (
        2.0 * math.pi * c.strength * config._weighted[label]
        * math.exp(-g * t)
    )


def born_rate(config):
    """Born golden rule: bw replaced by evaluation at the peak."""
    _require_normalized(config)
    e_r = config.resonance.energy
    return sum(
        2.0 * math.pi * c.strength * float(np.asarray(c.form_factor(e_r), dtype=float))
        for c in config.channels
    )


def born_gap(config):
    """Relative gap |born - exact| / exact of the total width."""
    _require_normalized(config)
    exact = total_width_check(config)
    return abs(born_rate(config) - exact) / exact


def bw_delta_limit_check(energy, widths, test_fn):
    """Weak-limit errors |integral f bw dE - f(E_R)| for shrinking widths.

    widths must decrease strictly; the returned errors shrink linearly
    in the width (the Lorentzian is a nascent delta), with a constant
    set by the local curvature of f around E_R.
    """
    widths = [float(g) for g in widths]
    if any(b >= a for a, b in zip(widths, widths[1:])) or not widths:
        raise ConfigurationError("widths must be strictly decreasing")
    errors = []
    for g in widths:
        res = ResonancePole(energy=energy, width=g)
        value, _ = integrate_lorentzian(test_fn, res.energy, res.width)
        errors.append(abs(float(value) - float(test_fn(energy))))
    return errors
