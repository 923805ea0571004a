"""Special functions and quadrature primitives.

Everything here works on plain floats and is pure, so the functions are safe
to call from any thread.  Density work elsewhere in the package is done in
log space on top of :func:`log_beta`, which keeps evidence totals up to 1e6
representable without overflow.

``integrate`` is a self-contained adaptive Simpson rule.  It deliberately does
not share code with the incomplete-beta path so the two can be used as
independent cross-checks of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from scipy import special

from .errors import ConvergenceError

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "log_gamma",
    "log_beta",
    "regularized_incomplete_beta",
    "integrate",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute error bound plus a subdivision budget for :func:`integrate`."""

    abs_tol: float = 1e-9
    max_subdivisions: int = 30

    def __post_init__(self):
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise ValueError(f"abs_tol must be a positive finite number, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


DEFAULT_TOLERANCE = Tolerance()


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


def _simpson(f: Callable[[float], float], a: float, fa: float, b: float, fb: float) -> Tuple[float, float, float]:
    """One Simpson panel over [a, b]; returns (midpoint, f(midpoint), estimate)."""
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """Adaptive Simpson quadrature of f over [lo, hi].

    Each interval whose two-panel refinement disagrees with the single-panel
    estimate by more than its share of ``tol.abs_tol`` is split in half, so
    the number of subdivisions doubles until the local estimates converge.
    Intervals still unresolved after ``tol.max_subdivisions`` splitting
    levels raise :class:`ConvergenceError` carrying the best estimate.
    """
    if lo > hi:
        raise ValueError(f"lo must be <= hi, got lo={lo}, hi={hi}")
    if lo == hi:
        return 0.0

    flo, fhi = f(lo), f(hi)
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise ValueError("integrand is not finite at an endpoint")
    m, fm, whole = _simpson(f, lo, flo, hi, fhi)

    exhausted = False
    # Halving the per-interval tolerance forever stalls on integrands with
    # fractional-power endpoint behavior (x^p, p < 1), so it bottoms out at a
    # floor; the handful of intervals resolved at the floor keep the summed
    # error within a small multiple of abs_tol.
    eps_floor = tol.abs_tol / 64.0

    def recurse(a: float, fa: float, b: float, fb: float, mid: float, fmid: float,
                estimate: float, eps: float, depth: int) -> float:
        nonlocal exhausted
        lm, flm, left = _simpson(f, a, fa, mid, fmid)
        rm, frm, right = _simpson(f, mid, fmid, b, fb)
        delta = left + right - estimate
        # 15 = 2^4 - 1, the Richardson factor for Simpson's rule.
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        if depth >= tol.max_subdivisions:
            exhausted = True
            return left + right
        child_eps = max(eps / 2.0, eps_floor)
        return (
            recurse(a, fa, mid, fmid, lm, flm, left, child_eps, depth + 1)
            + recurse(mid, fmid, b, fb, rm, frm, right, child_eps, depth + 1)
        )

    result = recurse(lo, flo, hi, fhi, m, fm, whole, tol.abs_tol, 0)
    if exhausted:
        raise ConvergenceError(
            f"quadrature did not converge to {tol.abs_tol} within "
            f"{tol.max_subdivisions} subdivision levels",
            best_estimate=result,
        )
    return result
