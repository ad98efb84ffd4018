"""Write src/resokit/laguerre_rules.npy: Gauss rules for t^alpha e^-t.

    python3 tests/laguerre_rules.py           # write the rules
    python3 tests/laguerre_rules.py --check   # recompute and compare

Needs mpmath, which resokit does not depend on.  For alpha = 0 and
alpha = -1/2 and each n of LEVELS this finds the n-point Gauss rule of
the probability measure t^alpha e^-t dt / Gamma(alpha + 1) on [0, inf):
its nodes are the zeros of the degree-n orthonormal polynomial, from the
three-term recurrence with a_k = 2k + 1 + alpha and b_k = k (k + alpha),
polished by Newton's method at 50 digits from numpy's eigenvalues of the
Jacobi matrix; its weights are 1 / sum_k p_k(node)^2.  The rule's sum
sum_j w_j / (x + t_j) is the n-th approximant of the Laguerre continued
fraction that resokit.exact evaluates: e^x E1(x) for alpha = 0 and
w(z) sqrt(pi) / (-iz) at x = -z^2 for alpha = -1/2.  Every rule is checked
against that fraction, summed backward at 50 digits, at a few x.

The file holds one float64 array of shape (2, sum(LEVELS), 2): per alpha,
the rules in the order of LEVELS, each as rows (node, weight) rounded
once from 50 digits.  `--check` recomputes it and fails on any differing
bit.
"""

import sys
from pathlib import Path

import mpmath as mp
import numpy as np

# must match resokit.exact._LEVELS
LEVELS = (16, 23, 32, 45, 64, 91, 128, 181, 256, 362, 512)
ALPHAS = (0.0, -0.5)
PATH = Path(__file__).resolve().parents[1] / "src" / "resokit" / "laguerre_rules.npy"
mp.mp.dps = 50


def _orthonormal(t, n, alpha):
    """p_0(t)..p_n(t) and p_n'(t) of the orthonormal polynomials."""
    ps, prev, cur = [mp.mpf(1)], mp.mpf(0), mp.mpf(1)
    dprev, dcur = mp.mpf(0), mp.mpf(0)
    for k in range(n):
        a = 2 * k + 1 + alpha
        b_next = mp.sqrt((k + 1) * (k + 1 + alpha))
        b = mp.sqrt(k * (k + alpha)) if k else mp.mpf(0)
        nxt = ((t - a) * cur - b * prev) / b_next
        dnxt = (cur + (t - a) * dcur - b * dprev) / b_next
        prev, cur, dprev, dcur = cur, nxt, dcur, dnxt
        ps.append(cur)
    return ps, dcur


def rule(n, alpha):
    alpha_mp = mp.mpf(alpha)
    k = np.arange(n)
    jacobi = (np.diag(2.0 * k + 1.0 + alpha)
              + np.diag(np.sqrt((k[1:]) * (k[1:] + alpha)), 1)
              + np.diag(np.sqrt((k[1:]) * (k[1:] + alpha)), -1))
    nodes, weights = [], []
    for guess in np.linalg.eigvalsh(jacobi):
        t = mp.mpf(guess)
        for _ in range(60):
            ps, dp = _orthonormal(t, n, alpha_mp)
            step = ps[n] / dp
            t -= step
            if abs(step) <= abs(t) * mp.mpf(10) ** -45:
                break
        else:
            raise RuntimeError(f"Newton did not settle at n = {n}, alpha = {alpha}")
        ps, _ = _orthonormal(t, n, alpha_mp)
        nodes.append(t)
        weights.append(1 / mp.fsum(p * p for p in ps[:n]))
    assert abs(mp.fsum(weights) - 1) < mp.mpf(10) ** -40, (n, alpha)
    assert all(b > a for a, b in zip(nodes, nodes[1:])), (n, alpha)
    for x in (mp.mpf(2), mp.mpc(-3, 4), mp.mpc(1, -30)):
        total = mp.fsum(wj / (x + tj) for tj, wj in zip(nodes, weights))
        s = x + 2 * n - 1 + alpha_mp
        for j in range(n - 1, 0, -1):
            s = x + 2 * j - 1 + alpha_mp - j * (j + alpha_mp) / s
        assert abs(total - 1 / s) <= mp.mpf(10) ** -40 * abs(total), (n, alpha, x)
    return np.array([[float(t), float(w)] for t, w in zip(nodes, weights)])


def table():
    return np.stack([np.concatenate([rule(n, alpha) for n in LEVELS]) for alpha in ALPHAS])


def main(argv):
    if argv not in ([], ["--check"]):
        sys.exit(__doc__)
    rules = table()
    if argv:
        stored = np.load(PATH)
        same = stored.shape == rules.shape and np.array_equal(stored.view(np.uint64),
                                                              rules.view(np.uint64))
        print(f"{rules.shape[1]} nodes per alpha recomputed: "
              f"{'identical' if same else 'DIFFERENT'} to {PATH.name}")
        sys.exit(0 if same else 1)
    np.save(PATH, rules)
    print(f"wrote {rules.shape} to {PATH}")


if __name__ == "__main__":
    main(sys.argv[1:])
