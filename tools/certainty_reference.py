"""Write the 50-digit certainty references that ``tests/test_core.py``
checks the kernel against, at the top of the evidence domain.

The table covers evidence totals from 1e6 to 1e9 (``MAX_EVIDENCE_TOTAL``)
at α = 0.5, 0.7, 0.9 and 0.99, plus near-one-sided pairs: ⟨n − 1, 1⟩,
⟨1, n − 1⟩ and ⟨n − 2⁻¹⁰, 2⁻¹⁰⟩.  Each reference is

    c = (x_lo − I_{x_lo}(r+1, s+1)) + (w − I_w(s+1, r+1)),   w = 1 − x_hi,

with both unit crossings of the density solved by Newton at 50 digits (in
t = log x and u = log(1 − x), started from the kernel's crossings), and
each incomplete-beta tail summed as its continued fraction (DLMF 8.17.22)
at 50 digits, with its prefactor x^a·y^b/B(a, b) evaluated in full rather
than taken as x·y.  The table holds r, s and c as ``float.hex``.

Needs mpmath (1.3.0 was used); tier-1 reads only the table.  Run from the
repository root, only when the table is meant to change:

    PYTHONPATH=src python3 tools/certainty_reference.py
"""

from __future__ import annotations

from pathlib import Path

import mpmath as mp

from evitrust.core import _log_crossings

mp.mp.dps = 50
_EPS = mp.mpf(10) ** -45
TABLE = Path(__file__).resolve().parent.parent / "tests" / "data" / "certainty_reference.csv"
TOTALS = (1e6, 3e6, 1e7, 3e7, 1e8, 3e8, 1e9)
ALPHAS = (0.5, 0.7, 0.9, 0.99)


def pairs():
    """Every (r, s) of the table; each sums to its total exactly."""
    for n in TOTALS:
        for alpha in ALPHAS:
            r = alpha * n
            yield r, n - r  # exact: r >= n/2
        yield n - 1.0, 1.0
        yield 1.0, n - 1.0
        yield n - 2.0**-10, 2.0**-10


def crossing(a, b, lbeta, t):
    """The t where a·t + b·log(1 − eᵗ) = lbeta, by Newton from t."""
    for _ in range(100):
        x = mp.exp(t)
        g = a * t + b * mp.log(-mp.expm1(t)) - lbeta
        step = g / (a - b * x / (-mp.expm1(t)))
        t -= step
        if abs(step) <= _EPS * max(1, abs(t)):
            return t
    raise RuntimeError(f"no crossing for a={a}, b={b}")


def beta_cf(x, a, b):
    """The incomplete-beta continued fraction, by modified Lentz (Numerical
    Recipes §6.4), for x below (a+1)/(a+b+2)."""
    c, d = mp.mpf(1), 1 - (a + b) * x / (a + 1)
    d = 1 / d
    h = d
    for m in range(1, 100_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 / (1 + num * d)
            c = 1 + num / c
            h *= d * c
        if abs(d * c - 1) <= _EPS:
            return h
    raise RuntimeError(f"no continued fraction for x={x}, a={a}, b={b}")


def tail(t, a, b):
    """I_x(a, b) at x = eᵗ, with y = 1 − x taken from t."""
    x, y = mp.exp(t), -mp.expm1(t)
    if x >= (a + 1) / (a + b + 2):
        return 1 - tail(mp.log(y), b, a)
    front = mp.exp(a * mp.log(x) + b * mp.log(y) - mp.log(mp.beta(a, b)))
    return front * beta_cf(x, a, b) / a


def reference(r, s):
    """c(r, s) at 50 digits, for r, s > 0."""
    r, s = mp.mpf(r), mp.mpf(s)
    lbeta = mp.log(mp.beta(r + 1, s + 1))
    t0, u0 = _log_crossings(float(r), float(s))
    t, u = crossing(r, s, lbeta, mp.mpf(t0)), crossing(s, r, lbeta, mp.mpf(u0))
    return (mp.exp(t) - tail(t, r + 1, s + 1)) + (mp.exp(u) - tail(u, s + 1, r + 1))


def main() -> None:
    lines = [f"# c(r, s) at 50 digits by tools/certainty_reference.py (mpmath {mp.__version__})",
             "r,s,certainty"]
    lines += [f"{r.hex()},{s.hex()},{float(reference(r, s)).hex()}" for r, s in pairs()]
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines) - 2} references to {TABLE}")


if __name__ == "__main__":
    main()
