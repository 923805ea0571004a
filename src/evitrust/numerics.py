"""Special functions.

Everything here works on plain floats and is pure, so the functions are safe
to call from any thread.  Density work elsewhere in the package is done in
log space on top of :func:`log_beta`, which keeps evidence totals up to 1e6
representable without overflow.
"""

from __future__ import annotations

import math

from scipy import special

__all__ = [
    "log_gamma",
    "log_beta",
    "regularized_incomplete_beta",
]


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Raises ValueError for non-positive or non-finite arguments.
    """
    if not math.isfinite(x) or x <= 0:
        raise ValueError(f"log_gamma requires a positive finite argument, got {x}")
    return math.lgamma(x)


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Γ(a) + ln Γ(b) − ln Γ(a+b) for a, b > 0.

    exp(log_beta(r+1, s+1)) is the normalizer ∫₀¹ xʳ(1−x)ˢ dx of the
    evidence density; for integer r, s it reduces to r!·s!/(r+s+1)!.
    Raises ValueError unless a and b are positive and finite.
    """
    # math.lgamma directly, behind one check: certainty calls this on every
    # evaluation.
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"log_beta requires positive finite arguments, got a={a}, b={b}")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Monotone non-decreasing in x with I_0 = 0 and I_1 = 1.  Used to evaluate
    the mass of an evidence density over a sub-interval of [0, 1].
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must be in [0, 1], got {x}")
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive and finite, got a={a}, b={b}")
    return float(special.betainc(a, b, x))
