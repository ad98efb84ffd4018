"""Write tests/special_reference.json: mpmath values of e^x E1(x) and w(z).

    python3 tests/special_reference.py           # write the JSON
    python3 tests/special_reference.py --check   # recompute and compare

Needs mpmath, which resokit does not depend on.  The values are
e^x E1(x) from `mp.e1` and w(z) = e^{-z^2} erfc(-iz) from `mp.erfc`, at
40 digits and stored to 20; they share no code with resokit.exact.  The
points are the doubles stored beside them, over the sectors the closed
form reaches:

* e^x E1(x) on |arg x| <= 3 pi / 4: seeded points with |x| log-uniform in
  [1e-8, 1e4], points on each side of resokit's switch from the power
  series to the continued fraction at c2 = (|x| + Re x) / 2 = 1.5, points
  around |x| = 50, where the survival leg's large-t series takes over,
  and points near the sector's edge;
* w(z) on pi / 8 <= arg z <= 7 pi / 8: seeded points with |z|
  log-uniform in [1e-8, 1e4], and points on each side of the switch from
  the Taylor series to the continued fraction at |z| = 1.5;
* for both, points on each side of every switch of the fraction's depth,
  at 100 / c2 + 8 = 23, 32, ..., 362 (c2 = Im(z)^2 for w);
* "survival": the normalized survival amplitude of the shape alpha = 2,
  power = 2 at energy 1 and width 1 at t = 31.7, 33 and 35, where a flat
  special-function charge once made `exact.survival_amplitude` refuse.
  It is the pole term plus the leg, computed twice as in
  tests/survival_reference.py (whose `Shape` it uses).

`--check` recomputes every row and fails if any differs from the
committed JSON, down to the last stored digit.
"""

import cmath
import math
import random
import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).parent))
from survival_reference import Shape, _legs, write_or_check  # noqa: E402

mp.mp.dps = 40
SEED = "special-functions"
POINTS = 240
E1_SECTOR = 0.75 * math.pi
W_SECTOR = (0.125 * math.pi, 0.875 * math.pi)
SURVIVAL_TIMES = (31.7, 33.0, 35.0)
# resokit.exact._LEVELS past the first: the fraction's depth steps up where
# 100 / c2 + 8 passes one of them
DEPTHS = (23, 32, 45, 64, 91, 128, 181, 256, 362)


def depth_switches():
    """c2 just below and just above each switch of the fraction's depth."""
    return [100.0 / (n - 8) * (1.0 + side) for n in DEPTHS for side in (-1e-9, 1e-9)]


def e1_points():
    rng = random.Random(SEED + ":e1")
    out = [cmath.rect(10.0 ** rng.uniform(-8.0, 4.0), rng.uniform(-E1_SECTOR, E1_SECTOR))
           for _ in range(POINTS)]
    for theta in (0.0, 0.25 * math.pi, 0.5 * math.pi, 0.625 * math.pi, 0.74 * math.pi):
        for sign in (1.0, -1.0):
            # (|x| + Re x) / 2 = c2 at |x| = 2 c2 / (1 + cos theta)
            for c2 in (1.5 * (1.0 - 1e-6), 1.5 * (1.0 + 1e-6), 1.2, 1.8):
                out.append(cmath.rect(2.0 * c2 / (1.0 + math.cos(theta)), sign * theta))
            for size in (49.99, 50.0 * (1.0 - 1e-12), 50.0, 50.01, 75.0):
                out.append(cmath.rect(size, sign * theta))
    for size in (1e-30, 0.5, 3.0, 6.0, 10.0, 12.0, 40.0, 60.0, 1e6):
        out += [cmath.rect(size, 0.745 * math.pi), cmath.rect(size, -0.745 * math.pi)]
    for c2 in depth_switches():
        for theta in (0.0, 0.5 * math.pi, -0.7 * math.pi):
            if c2 >= 1.5:
                out.append(cmath.rect(2.0 * c2 / (1.0 + math.cos(theta)), theta))
    return out


def w_points():
    rng = random.Random(SEED + ":w")
    out = [cmath.rect(10.0 ** rng.uniform(-8.0, 4.0), rng.uniform(*W_SECTOR))
           for _ in range(POINTS)]
    for theta in (0.13 * math.pi, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi, 0.87 * math.pi):
        for size in (1.5 * (1.0 - 1e-6), 1.5 * (1.0 + 1e-6), 1.2, 2.0, 3.0, 1e6):
            out.append(cmath.rect(size, theta))
    for c2 in depth_switches():
        for theta in (0.13 * math.pi, 0.5 * math.pi, 0.8 * math.pi):
            size = math.sqrt(c2) / math.sin(theta)
            if size >= 1.5:
                out.append(cmath.rect(size, theta))
    return out


def e1_scaled(x):
    x = mp.mpc(x)
    return mp.exp(x) * mp.e1(x)


def faddeeva(z):
    z = mp.mpc(z)
    return mp.exp(-z * z) * mp.erfc(-1j * z)


def _pair(value):
    return [mp.nstr(value.real, 20), mp.nstr(value.imag, 20)]


def survival():
    shape = Shape(1.0, 1.0, 2, 2)
    out = []
    with mp.workdps(70):
        mass = shape.mass()
    for t in SURVIVAL_TIMES:
        with mp.workdps(70):
            value = (shape.pole(mp.mpf(t)) + _legs(shape, mp.mpf(t))) / mass
        out.append({"alpha": 2, "power": 2, "energy": 1.0, "width": 1.0, "t": t,
                    "value": _pair(value)})
    return out


def tables():
    return {
        "e1": [{"x": [x.real, x.imag], "value": _pair(e1_scaled(x))} for x in e1_points()],
        "w": [{"z": [z.real, z.imag], "value": _pair(faddeeva(z))} for z in w_points()],
        "survival": survival(),
    }


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit(__doc__)
    write_or_check(Path(__file__).with_name("special_reference.json"), tables(),
                   sys.argv[1:] == ["--check"])
