"""Write tests/background_reference.json: mpmath values of the evolved
pairing for a model with a background phase.

    python3 tests/background_reference.py           # write the JSON
    python3 tests/background_reference.py --check   # recompute and compare

Needs mpmath, which resokit does not depend on.  Each value is

    I(t) = integral_0^inf conj(psi)(E) S(sqrt E) phi(E) e^{-i E t} dE

for the built-in waves psi = 1/(E - 2 + i)^2 (UPPER) and
phi = 1/(E - 1.5 - 0.8i)^2 (LOWER), and the S-matrix of one resonance at
E_R = 1 with the background phase delta(k) = 0.3 * 2 (k + 0.8) /
((k + 0.8)^2 + 0.6^2):

    S(k) = (k + k1)(k - conj k1) / ((k - k1)(k + conj k1)) e^{2 i delta(k)},

k1 = sqrt(E_R - i Gamma / 2) in the fourth quadrant.  It shares no code
with resokit and does not use the rotated line that `expand` samples:

* the head, E in [0, CUT], is integrated on the real line with
  `mp.quad`, with a breakpoint every period 2 pi / t and at E_R,
  E_R +- Gamma / 2 and E_R +- 2 Gamma;
* the tail, E in [CUT, inf), is moved onto the vertical ray
  E = CUT - i s, s in [0, inf), where e^{-iEt} = e^{-i CUT t} e^{-st}
  decays instead of oscillating.  The quarter plane Re E > CUT,
  Im E < 0 holds no singularity (the resonance pole sits at Re E = E_R
  < CUT, the background poles at Re k < 0), and the integrand decays as
  E^-4 on its arc, so the move is exact for every t >= 0.

`mp.quadosc` on the real line is no substitute for the ray: on the
pole-only model at t = 15 it is off from the closed form by 7.8e-8 with
its tail from E = 8 and by 3.2e-4 with its tail from E = 30.

Before any value is written (or compared), the same head and tail on the
pole-only model of the `contour_check` built-in (Gamma = 0.2 at t = 0, 5
and 15) must reproduce the closed form frozen in exact_reference.json to
1e-14 relative.  Values are computed at 20 digits and stored to 20.
`--check` recomputes the Gamma = 0.2 rows and fails if any differs from
the committed JSON by more than 1e-15 relative; the narrower widths take
about 4 s (Gamma = 1e-2) and a minute (Gamma = 1e-3) more.
"""

import json
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 20
HERE = Path(__file__).parent
DUAL = mp.mpc(2.0, -1.0)
STATE = mp.mpc(1.5, 0.8)
ENERGY = 1.0
BACKGROUND = [(0.3, -0.8, 0.6)]
CUT = 2.0
WIDTHS = (0.2, 1e-2, 1e-3)
LIFETIMES = (0.0, 1.0, 3.0)
SELF_CHECK_TOL = 1e-14
CHECK_TOL = 1e-15


def s_matrix(k, energy, width, background):
    k1 = mp.sqrt(mp.mpc(energy, -mp.mpf(width) / 2))
    out = (k + k1) * (k - mp.conj(k1)) / ((k - k1) * (k + mp.conj(k1)))
    delta = sum(2 * c * (k - a) / ((k - a) ** 2 + b * b) for c, a, b in background)
    return out * mp.exp(2j * delta)


def pairing(energy, width, background, t):
    """I(t) as head on [0, CUT] plus tail on E = CUT - i s."""
    t = mp.mpf(t)

    def f(e):
        waves = 1 / ((e - mp.conj(DUAL)) ** 2 * (e - STATE) ** 2)
        return waves * s_matrix(mp.sqrt(e), energy, width, background) * mp.exp(-1j * e * t)

    width = mp.mpf(width)
    points = {mp.mpf(0), mp.mpf(CUT)}
    points |= {energy + d for d in (-2 * width, -width / 2, 0, width / 2, 2 * width)}
    if t > 0:
        period = 2 * mp.pi / t
        points |= {n * period for n in range(1, int(CUT / period) + 1)}
    head = mp.quad(f, sorted(p for p in points if 0 <= p <= CUT))
    tail = -1j * mp.quad(lambda s: f(CUT - 1j * s), [0, mp.inf])
    return head + tail


def self_check():
    """The head and tail on the pole-only contour_check model against the
    closed form of exact_reference.json; exits past SELF_CHECK_TOL."""
    rows = json.loads((HERE / "exact_reference.json").read_text())
    worst = 0.0
    for row in rows:
        if row["case"] != "contour_check":
            continue
        (energy, width), = row["resonances"]
        ref = mp.mpc(*row["value"])
        gap = abs(pairing(energy, width, [], row["t"]) - ref) / abs(ref)
        print(f"pole-only closed form at t = {row['t']:g}: {mp.nstr(gap, 3)}")
        worst = max(worst, gap)
    if not worst <= SELF_CHECK_TOL:
        sys.exit(f"the head and tail miss the pole-only closed form by {mp.nstr(worst, 3)}")


def cases():
    return [{"resonances": [[ENERGY, width]], "background": [list(b) for b in BACKGROUND],
             "dual": [float(DUAL.real), float(DUAL.imag)],
             "state": [float(STATE.real), float(STATE.imag)], "order": 2, "t": n / width}
            for width in WIDTHS for n in LIFETIMES]


def value(case):
    (energy, width), = case["resonances"]
    out = pairing(energy, width, case["background"], case["t"])
    return [mp.nstr(out.real, 20), mp.nstr(out.imag, 20)]


def main(argv):
    if argv not in ([], ["--check"]):
        sys.exit(__doc__)
    self_check()
    path = HERE / "background_reference.json"
    if argv:
        rows = [row for row in json.loads(path.read_text())
                if row["resonances"][0][1] == WIDTHS[0]]
        worst = max(abs(mp.mpc(*value(row)) / mp.mpc(*row["value"]) - 1) for row in rows)
        print(f"{len(rows)} Gamma = {WIDTHS[0]} rows against the committed JSON: "
              f"{mp.nstr(worst, 3)}")
        sys.exit(0 if len(rows) == len(LIFETIMES) and worst <= CHECK_TOL else 1)
    rows = [{**case, "value": value(case)} for case in cases()]
    path.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    print(f"wrote {len(rows)} values to {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
