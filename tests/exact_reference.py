"""Write tests/exact_reference.json: mpmath values of the evolved pairing.

    python3 tests/exact_reference.py           # write the JSON
    python3 tests/exact_reference.py --check   # recompute and compare

Needs mpmath, which resokit does not depend on.  Each value is the sum of
the principal parts of G(k) = 2k conj(psi)(k^2) phi(k^2) S(k) against
K_n(q, t) = integral_0^inf e^{-i k^2 t} (k - q)^-n dk, evaluated at 60
digits and stored to 20.  It shares no code with resokit.exact:

* the Laurent coefficients are Taylor coefficients of (k - q)^N G(k) at
  q from `mp.taylor` (numerical differentiation at 60 digits), not a
  power-series product;
* K_1 is [J(q^2) + F(q)] / 2 with J(P) = e^{-iPt} E1(-iPt), minus
  2 pi i e^{-iPt} for P in the open fourth quadrant, and
  F(q) = i pi w(z) for Im z > 0, -i pi w(-z) otherwise, z = e^{i pi/4}
  sqrt(t) q, w(z) = e^{-z^2} erfc(-iz), plus -+2 pi i e^{-i q^2 t} for
  arg q in (-pi/4, 0) or (3 pi/4, pi), from `mp.e1` and `mp.erfc`;
* K_n for n >= 2 comes from the forward recurrence
  K_{n+1} = [(-q)^-n - 2it (K_{n-1} + q K_n)] / n, K_0 = sqrt(pi/(it))/2,
  which loses about n log10(t |q|^2) of the 60 digits;
* at t = 0, -c_1 log(-q) + sum_{n >= 2} c_n (-q)^{1-n} / (n - 1).

Cases: the kaon_pair and contour_check built-ins at 0, 1 and 3 lifetimes
of the narrowest pole, and a sweep of one pole at E_R = 1 over widths,
wave orders, times and three states (the default pole 1.5 + 0.8i, a pole
exactly at conj(z), and one 1e-7 from it); then the kaon_pair layout at
120 lifetimes (case sweep_kaon_late), which the closed form certifies
only since its special functions report their own bounds, and at 200
(case sweep_kaon_200), certified since its Laurent coefficients carry
running bounds.  Last, rows without a time (cases laurent_*) hold the
poles and Laurent coefficients c_1..c_N themselves, for the kaon_pair
and contour_check layouts and for a state pole at conj(z), whose wave
roots fall on the mirror pole -conj(k) and the zero conj(k).  A state
pole one rounding from conj(z) has the same row: resokit takes roots
that close as one pole.

`--check` recomputes every row and fails if any differs from the
committed JSON, down to the last stored digit.
"""

import json
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 60
DUAL = 2.0 - 1.0j   # the registration-side pole; its conjugate is in the wave
STATE = 1.5 + 0.8j


def laurent(resonances, dual_pole, state_pole, order):
    """The poles q of G for psi = 1/(E - dual_pole)^order (UPPER), phi =
    1/(E - state_pole)^order (LOWER) and the Blaschke product of the
    resonances (energy, width), each with its Laurent coefficients
    c_1..c_N."""
    waves = [(mp.conj(mp.mpc(dual_pole)), order), (mp.mpc(state_pole), order)]
    ks = [mp.sqrt(mp.mpc(e, -mp.mpf(g) / 2)) for e, g in resonances]
    # linear factors (k - a)^s of G besides 2k
    factors = []
    for p, n in waves:
        r = mp.sqrt(p)
        factors += [(r, -n), (-r, -n)]
    for k in ks:
        factors += [(-k, 1), (mp.conj(k), 1), (k, -1), (-mp.conj(k), -1)]
    poles = []
    for a, s in factors:
        if s < 0 and all(abs(a - b) > mp.mpf(10) ** -40 for b in poles):
            poles.append(a)
    parts = []
    for q in poles:
        near = [abs(a - q) < mp.mpf(10) ** -40 for a, _ in factors]
        order_q = -sum(s for (a, s), hit in zip(factors, near) if hit)
        if order_q <= 0:
            continue

        def regular(k, q=q, near=near):
            out = 2 * k
            for (a, s), hit in zip(factors, near):
                if not hit:
                    out *= (k - a) ** s
            return out

        taylor = mp.taylor(regular, q, order_q - 1)
        parts.append((q, [taylor[order_q - n] for n in range(1, order_q + 1)]))
    return parts


def pairing(resonances, dual_pole, state_pole, order, t):
    """I(t) for the layout of `laurent`."""
    t = mp.mpf(t)
    total = mp.mpc(0)
    for q, coef in laurent(resonances, dual_pole, state_pole, order):
        total += sum(c * k for c, k in zip(coef, k_integrals(q, t, len(coef))))
    return total


def k_integrals(q, t, order):
    if t == 0:
        return [-mp.log(-q)] + [(-q) ** (1 - n) / (n - 1) for n in range(2, order + 1)]
    p = q * q
    j = mp.exp(-1j * p * t) * mp.e1(-1j * p * t)
    if p.real > 0 and p.imag < 0:
        j -= 2j * mp.pi * mp.exp(-1j * p * t)
    z = mp.expjpi(mp.mpf(1) / 4) * mp.sqrt(t) * q
    w = lambda z: mp.exp(-z * z) * mp.erfc(-1j * z)
    f = 1j * mp.pi * w(z) if z.imag > 0 else -1j * mp.pi * w(-z)
    arg = mp.arg(q)
    if -mp.pi / 4 < arg < 0:
        f -= 2j * mp.pi * mp.exp(-1j * p * t)
    elif 3 * mp.pi / 4 < arg < mp.pi:
        f += 2j * mp.pi * mp.exp(-1j * p * t)
    ks = [mp.sqrt(mp.pi / (1j * t)) / 2, (j + f) / 2]
    for n in range(1, order):
        ks.append(((-q) ** -n - 2j * t * (ks[n - 1] + q * ks[n])) / n)
    return ks[1:]


def cases():
    out = []
    kaon = [(1.0, 0.2), (1.6, 0.35)]
    for name, resonances in (("kaon_pair", kaon), ("contour_check", kaon[:1])):
        for n in (0.0, 1.0, 3.0):
            out.append({"case": name, "resonances": resonances, "dual": DUAL,
                        "state": STATE, "order": 2, "t": n / 0.2})
    for width in (0.2, 1e-2, 1e-3, 1e-4, 1e-6):
        at = complex(1.0, width / 2)
        for label, state in (("base", STATE), ("at_mirror", at),
                             ("near_mirror", at + 1e-7)):
            for order in (1, 2):
                for n in (0.0, 1e-12, 1.0, 3.0, 10.0):
                    out.append({"case": f"sweep_{label}", "resonances": [(1.0, width)],
                                "dual": DUAL, "state": state, "order": order,
                                "t": n / width})
    out.append({"case": "sweep_kaon_late", "resonances": kaon, "dual": DUAL, "state": STATE,
                "order": 2, "t": 120.0 / 0.2})
    out.append({"case": "sweep_kaon_200", "resonances": kaon, "dual": DUAL, "state": STATE,
                "order": 2, "t": 200.0 / 0.2})
    return out


def laurent_cases():
    """Layouts whose Laurent coefficients are frozen: the built-ins, and a
    state pole at conj(z), where a wave pole falls on the mirror -conj(k)
    of the S-matrix pole and the other root on its zero conj(k)."""
    kaon = [(1.0, 0.2), (1.6, 0.35)]
    return [{"case": "laurent_kaon_pair", "resonances": kaon, "dual": DUAL, "state": STATE,
             "order": 2},
            {"case": "laurent_contour_check", "resonances": kaon[:1], "dual": DUAL,
             "state": STATE, "order": 2},
            {"case": "laurent_at_mirror", "resonances": kaon[:1], "dual": DUAL,
             "state": complex(1.0, 0.1), "order": 2}]


def _digits(z):
    return [mp.nstr(z.real, 20), mp.nstr(z.imag, 20)]


def main(argv):
    if argv not in ([], ["--check"]):
        sys.exit(__doc__)
    rows = []
    for case in cases():
        value = pairing(case["resonances"], case["dual"], case["state"], case["order"],
                        case["t"])
        rows.append({**case, "dual": [case["dual"].real, case["dual"].imag],
                     "state": [case["state"].real, case["state"].imag],
                     "value": _digits(value)})
    for case in laurent_cases():
        parts = laurent(case["resonances"], case["dual"], case["state"], case["order"])
        rows.append({**case, "dual": [case["dual"].real, case["dual"].imag],
                     "state": [case["state"].real, case["state"].imag],
                     "poles": [{"q": _digits(q), "coefficients": [_digits(c) for c in coef]}
                               for q, coef in parts]})
    lines = [json.dumps(row) for row in rows]
    path = Path(__file__).with_name("exact_reference.json")
    if argv:
        stored = path.read_text().splitlines()[1:-1]
        changed = [i for i, (new, old) in enumerate(zip(lines, stored))
                   if new != old.rstrip(",")]
        print(f"{len(lines)} rows recomputed against {len(stored)} committed: "
              f"{len(changed)} differ {changed}")
        sys.exit(0 if len(stored) == len(lines) and not changed else 1)
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {len(rows)} values to {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
