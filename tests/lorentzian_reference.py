"""Write tests/lorentzian_reference.json: mpmath values of the golden-rule
channel integrals of the `golden_rule_sweep` built-in.

    python3 tests/lorentzian_reference.py           # write the JSON
    python3 tests/lorentzian_reference.py --check   # recompute and compare

Needs mpmath, which resokit does not depend on.  Each value is

    I = integral_0^inf w(E) bw(E) dE,
    w(E) = E / (E / cutoff + 1)^4,
    bw(E) = (Gamma / 2 pi) / ((E - E_R)^2 + Gamma^2 / 4),

at the built-in's E_R and cutoff and Gamma = ratio E_R for each of its
ratios.  The inputs are the doubles resokit sees.  Every value is
computed twice, in ways that share no code with resokit and do not use
the Lorentzian's angle, which `quadrature.integrate_lorentzian` maps to:

* from the partial fractions of w bw, A / (E - a) and its conjugate at
  the poles of bw (a = E_R + i Gamma / 2) and B_n / (E + cutoff)^n,
  n = 1..4, with B_n from `mp.taylor`: the 1 / E parts cancel at
  infinity, so I = -2 Re(A log(-a)) - B_1 log(cutoff) plus
  B_n cutoff^(1 - n) / (n - 1) over n = 2..4;
* by `mp.quad` on the real line, split at E_R and at E_R +- Gamma,
  E_R +- 10 Gamma and E_R +- 100 Gamma where they are positive.

The two must agree to 1e-35 of the value before it is stored.  Values
are computed at 50 digits and stored to 40.  `--check` recomputes every
row and fails if any differs from the committed JSON, down to the last
stored digit.
"""

import json
import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).parent))
from survival_reference import write_or_check  # noqa: E402

mp.mp.dps = 50
BUILTIN = Path(__file__).parents[1] / "src" / "resokit" / "scenarios" / "golden_rule_sweep.json"
AGREE_TOL = mp.mpf(10) ** -35


def form_factor(e, cutoff):
    return e / (e / cutoff + 1) ** 4


def fractions(energy, width, cutoff):
    """I from the partial fractions of w bw."""
    a = mp.mpc(energy, width / 2)
    c = width / (2 * mp.pi)
    residue = form_factor(a, cutoff) * c / (a - mp.conj(a))
    # w bw = cutoff^4 g(E) / (E + cutoff)^4 with g(E) = E bw(E)
    g = mp.taylor(lambda e: cutoff**4 * e * c / ((e - a) * (e - mp.conj(a))), -cutoff, 3)
    # B_n = g^(4 - n)(-cutoff) / (4 - n)!, the coefficient of (E + cutoff)^-n
    poles = sum(g[4 - n] * cutoff ** (1 - n) / (n - 1) for n in (2, 3, 4))
    return mp.re(-2 * residue * mp.log(-a) - g[3] * mp.log(cutoff) + poles)


def line(energy, width, cutoff):
    """I by `mp.quad` on the real line."""
    points = {mp.mpf(0), energy}
    points |= {energy + s * n * width for s in (-1, 1) for n in (1, 10, 100)}
    points = sorted(p for p in points if p >= 0) + [mp.inf]
    return mp.quad(lambda e: form_factor(e, cutoff) * (width / (2 * mp.pi))
                   / ((e - energy) ** 2 + width**2 / 4), points)


def rows():
    params = json.loads(BUILTIN.read_text())["parameters"]
    out = []
    for ratio in params["ratios"]:
        energy, cutoff = float(params["energy"]), float(params["cutoff"])
        width = ratio * energy  # the double `golden_rule_sweep` builds
        args = mp.mpf(energy), mp.mpf(width), mp.mpf(cutoff)
        value, quad = fractions(*args), line(*args)
        if not abs(value - quad) <= AGREE_TOL * abs(value):
            sys.exit(f"ratio {ratio}: partial fractions {value} and quadrature {quad} disagree")
        out.append({"energy": energy, "width": width, "cutoff": cutoff,
                    "value": mp.nstr(value, 40)})
    return out


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit(__doc__)
    write_or_check(Path(__file__).with_name("lorentzian_reference.json"),
                   {"channel_integrals": rows()}, sys.argv[1:] == ["--check"])
