"""Write tests/survival_reference.json: mpmath values of the survival amplitude.

    python3 tests/survival_reference.py

Needs mpmath, which resokit does not depend on.  For the density
rho(E) = z^alpha (c / ((z - z0)(z - conj z0)))^power, z0 = E_R - i Gamma/2,
c = Gamma / 2 pi, the amplitude A(t) = integral_0^inf rho(E) e^{-iEt} dE
is the pole term -2 pi i Res[rho(z) e^{-izt}, z0] plus the leg
-i integral_0^inf rho(-iu) e^{-ut} du of the contour rotated onto the
negative imaginary axis.  Every value is computed twice, in ways that
share no code with resokit:

* the leg by `mp.quad` along the axis at 100 digits, in s = u t, split at
  s = 1, 10, 100, E_R t and 10 E_R t; the pole term by `mp.diff` of the
  regular factor;
* the leg again from the partial fractions of rho at 130 digits (Laurent
  coefficients by `mp.taylor`) against e^x E1(x), x = -iPt, from
  `mp.e1`, and -log(-iP) at t = 0.

The two legs must agree to 1e-30 of the leg before a value is stored
(to 20 digits).  Inputs are the doubles resokit sees: the energy, the
width and t = lifetimes / width as floats.

Two tables:

* "amplitudes": the normalized A(t) at energy 1 and width 0.05 for all
  four shapes, at the lifetimes of tests/test_survival.REFERENCE, which
  holds (0, 1) and (1, 2) from an earlier script; the mass comes from
  `mp.quad` along the real axis and must equal A(0) before normalizing;
* "legs": the leg of the unnormalized shape for all four shapes over
  widths 1.9 to 1e-12 and lifetimes 0 to 708, for the width sweep.
"""

import json
from pathlib import Path

import mpmath as mp

SHAPES = ((0, 1), (1, 2), (0, 2), (2, 2))
LIFETIMES = (0.0, 0.2, 1.0, 3.0, 10.0, 20.0, 30.0, 100.0, 300.0, 708.0)
SWEEP_WIDTHS = (1.9, 1.0, 0.3, 0.05, 1e-2, 1e-3, 1e-4, 1e-6, 1e-9, 1e-12)
SWEEP_LIFETIMES = (0.0, 0.2, 0.5, 1.0, 2.0, 3.0, 10.0, 30.0, 100.0, 708.0)


class Shape:
    """The unnormalized density; z0 and c are formed at the working
    precision of each call."""

    def __init__(self, energy, width, alpha, power):
        self.e, self.g = mp.mpf(energy), mp.mpf(width)
        self.alpha, self.power = alpha, power

    @property
    def z0(self):
        return mp.mpc(self.e, -self.g / 2)

    @property
    def c(self):
        return self.g / (2 * mp.pi)

    def __call__(self, z):
        base = self.c / ((z - self.z0) * (z - mp.conj(self.z0)))
        return z**self.alpha * base**self.power

    def mass(self):
        e, g = self.e, self.g
        pts = [mp.mpf(0)] + [e + k * g for k in (-100, -10, -1, 0, 1, 10, 100)
                             if e + k * g > 0] + [2 * e + 100 * g, mp.inf]
        return mp.quad(lambda x: self(x).real, sorted(set(pts)))

    def pole(self, t):
        zb = mp.conj(self.z0)
        regular = lambda z: (z**self.alpha * self.c**self.power / (z - zb)**self.power
                             * mp.exp(-1j * z * t))
        return -2j * mp.pi * mp.diff(regular, self.z0, self.power - 1) / mp.factorial(
            self.power - 1)

    def leg_quad(self, t):
        if t == 0:
            return mp.quad(lambda u: -1j * self(-1j * u), [0, self.e, 10 * self.e, mp.inf])
        # u = s / t puts the exponential on the unit scale and rho's on E_R t
        f = lambda s: -1j * self(-1j * s / t) * mp.exp(-s) / t
        scale = self.e * t
        pts = {mp.mpf(0), mp.mpf(1), mp.mpf(10), mp.mpf(100), scale, 10 * scale, mp.inf}
        return mp.quad(f, sorted(pts))

    def leg_partial_fractions(self, t):
        total = mp.mpc(0)
        zb = mp.conj(self.z0)
        for pole, other in ((self.z0, zb), (zb, self.z0)):
            regular = lambda z: z**self.alpha * self.c**self.power / (z - other)**self.power
            taylor = mp.taylor(regular, pole, self.power - 1)
            for n in range(1, self.power + 1):
                coef = taylor[self.power - n]
                total += coef * _leg_of_power(pole, n, t)
        return total


def _leg_of_power(p, n, t):
    """integral_0^{-i inf} (z - p)^-n e^{-izt} dz, the first without its
    t-independent log, which cancels because the residues sum to zero."""
    if t == 0:
        return -mp.log(-1j * p) if n == 1 else (-p) ** (1 - n) / (n - 1)
    x = -1j * p * t
    g = mp.exp(x) * mp.e1(x)
    return g if n == 1 else -1j * t * g - 1 / p


def _legs(shape, t):
    with mp.workdps(100):
        quad = shape.leg_quad(t)
    with mp.workdps(130):
        fractions = shape.leg_partial_fractions(t)
        assert abs(quad - fractions) <= mp.mpf(10) ** -30 * abs(fractions), (quad, fractions)
        return fractions


def _pair(value):
    return [mp.nstr(value.real, 20), mp.nstr(value.imag, 20)]


def amplitudes():
    out = []
    for alpha, power in SHAPES:
        shape = Shape(1.0, 0.05, alpha, power)
        with mp.workdps(70):
            mass = shape.mass()
            assert abs(shape.pole(0) + _legs(shape, 0) - mass) <= mp.mpf(10) ** -30 * mass
        for n in LIFETIMES:
            t = mp.mpf(n / 0.05)
            with mp.workdps(70):
                value = (shape.pole(t) + _legs(shape, t)) / mass
            out.append({"alpha": alpha, "power": power, "lifetimes": n,
                        "value": _pair(value)})
    return out


def legs():
    out = []
    for alpha, power in SHAPES:
        for width in SWEEP_WIDTHS:
            shape = Shape(1.0, width, alpha, power)
            for n in SWEEP_LIFETIMES:
                leg = _legs(shape, mp.mpf(n / width))
                out.append({"alpha": alpha, "power": power, "width": width,
                            "lifetimes": n, "leg": _pair(leg)})
    return out


def main():
    data = {"amplitudes": amplitudes(), "legs": legs()}
    path = Path(__file__).with_name("survival_reference.json")
    rows = [f'"{key}": [\n' + ",\n".join(json.dumps(row) for row in value) + "\n]"
            for key, value in data.items()]
    path.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {sum(map(len, data.values()))} values to {path}")


if __name__ == "__main__":
    main()
