"""Special functions.

Everything here works on plain floats and is pure, so the functions are safe
to call from any thread.  Density work elsewhere in the package is done in
log space on top of :func:`log_beta`, which keeps evidence totals up to 1e6
representable without overflow.

The incomplete beta function is the continued fraction of Numerical Recipes
§6.4 (DLMF 8.17.22),

    I_x(a, b) = xᵃ(1−x)ᵇ / (a·B(a, b)) · 1/(1+ d₁/(1+ d₂/(1+ ⋯))),
    d₂ₘ₊₁ = −(a+m)(a+b+m)·x / ((a+2m)(a+2m+1)),
    d₂ₘ   =  m(b−m)·x / ((a+2m−1)(a+2m)),

which converges fast for x below (a+1)/(a+b+2); above it the mirror
I_x(a, b) = 1 − I_{1−x}(b, a) is taken.  :func:`_incomplete_beta` takes the
prefactor xᵃ(1−x)ᵇ/B(a, b) from its caller, because at a unit crossing of
the evidence density (see :mod:`evitrust.core`) it is x(1−x) and needs no
lgamma and no exp.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError

__all__ = [
    "log_beta",
    "regularized_incomplete_beta",
]

# Relative change of the fraction at which it has converged, and a step cap:
# near the switch point convergence takes about 550 steps for a = b = 1e6
# and about 55 000 for a = b = 1e12.
_CF_EPS = 1e-15
_MAX_CF_STEPS = 100_000


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Γ(a) + ln Γ(b) − ln Γ(a+b) for a, b > 0.

    exp(log_beta(r+1, s+1)) is the normalizer ∫₀¹ xʳ(1−x)ˢ dx of the
    evidence density; for integer r, s it reduces to r!·s!/(r+s+1)!.
    Raises ValueError unless a and b are positive and finite, and when
    ln Γ overflows (an argument above about 2.5e305).
    """
    # math.lgamma directly, behind one check: certainty calls this on every
    # evaluation.
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"log_beta requires positive finite arguments, got a={a}, b={b}")
    try:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    except OverflowError:
        raise ValueError(f"log_beta overflows at a={a}, b={b}") from None


def _beta_cf(x: float, a: float, b: float) -> float:
    """1/(1+ d₁/(1+ d₂/(1+ ⋯))) for 0 <= x < (a+1)/(a+b+2), a, b > 0.

    Modified Lentz on the even contraction

        1/(1 + d₁ − d₁d₂/(1 + d₂ + d₃ − d₃d₄/(1 + d₄ + d₅ − ⋯))),

    one step per pair of terms.  Lentz's guards against a vanishing ratio
    are left out because no ratio can vanish here.  The ratios of
    successive denominators of the uncontracted fraction, hⱼ = 1 + dⱼ/hⱼ₋₁
    with h₀ = 1, obey by induction on m

        h₂ₘ₊₁ >= 1 − (a+b+m)·x/(a+2m+1),    h₂ₘ >= 1 − m·x/(a+2m),

    (the even step needs only x <= 1, the odd step only m·x <= m), and both
    bounds are positive below the switch point; the ratios of numerators
    are those of the fraction started at d₂, which obey the same bounds.
    Lentz's C and D are ratios two apart of these, so they stay positive
    and bounded away from 0.
    """
    apb = a + b
    neg_odd = apb * x / (a + 1.0)  # −d₁, then −d₂ₘ₊₁ after step m
    g = c = 1.0 - neg_odd
    d = 0.0
    q = a  # a + 2m after step m
    m = 0.0
    lo, hi = 1.0 - _CF_EPS, 1.0 + _CF_EPS
    for _ in range(_MAX_CF_STEPS):
        m += 1.0
        q += 2.0
        t = x / q
        even = m * (b - m) * t / (q - 1.0)
        num = neg_odd * even
        neg_odd = (a + m) * (apb + m) * t / (q + 1.0)
        den = 1.0 + even - neg_odd
        d = 1.0 / (den + num * d)
        c = den + num / c
        delta = c * d
        g *= delta
        if lo < delta < hi:
            return 1.0 / g
    raise ConvergenceError(
        f"the incomplete-beta continued fraction did not converge in {_MAX_CF_STEPS} steps "
        f"for x={x!r}, a={a!r}, b={b!r}",
        best_estimate=1.0 / g,
    )


def _incomplete_beta(x: float, y: float, a: float, b: float, scale: float) -> float:
    """I_x(a, b) given y = 1 − x and scale = xᵃyᵇ/B(a, b), for 0 <= x <= 1.

    Passing y separately keeps a 1 − x that lies closer to 0 than a float
    near 1 can resolve.
    """
    if x * (a + b + 2.0) < a + 1.0:
        return scale / a * _beta_cf(x, a, b)
    return 1.0 - scale / b * _beta_cf(y, b, a)


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Monotone non-decreasing in x with I_0 = 0 and I_1 = 1.  Used to evaluate
    the mass of an evidence density over a sub-interval of [0, 1].  The
    prefactor is exp(a·log x + b·log(1−x) − log B(a, b)), so its relative
    error grows with the shapes, to about 1e-9 at a + b = 1e6, where the
    terms are near 1e6 and math.lgamma rounds them.  Raises
    :class:`ConvergenceError` for shape parameters beyond about 1e12, where
    the continued fraction needs more than its step cap.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must be in [0, 1], got {x}")
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive and finite, got a={a}, b={b}")
    if x == 0.0 or x == 1.0:
        return x
    scale = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b))
    return _incomplete_beta(x, 1.0 - x, a, b, scale)
