"""Test-only quadrature oracles.

An adaptive Simpson rule and the two oracles built on it:
``certainty_by_quadrature`` and ``accuracy_average_integral``.  They share
no code with the closed forms and the incomplete-beta route they check.
Tests import them with ``from conftest import ...``.
"""

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from evitrust.core import _log_pcdf
from evitrust.errors import ConvergenceError


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


def flank_cuts(log_rel: Callable[[float], float], peak: float) -> list:
    """Sorted cut points for quadrature of a density peaked at ``peak``.

    ``log_rel(x)`` is the log weight minus its log peak.  Large totals
    concentrate the weight in a spike, so besides 0, 1 and the peak the cuts
    include, on each side, the points where ``log_rel`` has dropped to −3 and
    −45 (found by bisection; the endpoint itself when it never drops that
    far).  Without them the first Simpson samples all see ~0.
    """

    def flank(endpoint: float, drop: float) -> float:
        if log_rel(endpoint) >= -drop:
            return endpoint
        lo, hi = (endpoint, peak) if endpoint < peak else (peak, endpoint)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            # Below the drop means mid is still on the endpoint's side.
            if (log_rel(mid) < -drop) == (endpoint < peak):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return sorted({0.0, 1.0, peak} | {flank(side, d) for side in (0.0, 1.0) for d in (3.0, 45.0)})


def certainty_by_quadrature(r: float, s: float, abs_tol: float = 1e-9) -> float:
    """Independent certainty oracle: direct quadrature of ½∫|f(x) − 1|dx.

    Splits the integral at :func:`flank_cuts` around the density peak so the
    adaptive rule sees a narrow spike; shares no code with the
    incomplete-beta route it checks.
    """
    total = r + s
    if total == 0:
        return 0.0
    peak = r / total
    log_peak = _log_pcdf(r, s, peak)
    cuts = flank_cuts(lambda x: _log_pcdf(r, s, x) - log_peak, peak)

    def integrand(x: float) -> float:
        lf = _log_pcdf(r, s, x)
        f = math.exp(lf) if lf > -745.0 else 0.0
        return abs(f - 1.0)

    tol = Tolerance(abs_tol=abs_tol, max_subdivisions=40)
    value = sum(integrate(integrand, a, b, tol) for a, b in zip(cuts, cuts[1:]) if b > a)
    return 0.5 * value


def accuracy_average_integral(alpha: float, report, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Average accuracy evaluated by quadrature instead of the closed form.

    q = 1 − sqrt(∫ w(x)(x−α)² dx / ∫ w(x) dx) with w(x) = xʳ′(1−x)ˢ′.  The
    weight is peak-scaled instead of beta-normalized, so no special functions
    are involved, and the integration is split at :func:`flank_cuts` so the
    adaptive rule cannot step over a narrow spike.
    """
    rp, sp = report.r, report.s
    total = rp + sp
    peak = rp / total if total > 0 else 0.5

    def log_w(x: float) -> float:
        acc = 0.0
        if rp > 0.0:
            acc += rp * (math.log(x) if x > 0.0 else -math.inf)
        if sp > 0.0:
            acc += sp * (math.log1p(-x) if x < 1.0 else -math.inf)
        return acc

    log_scale = log_w(peak)

    def w(x: float) -> float:
        lw = log_w(x) - log_scale
        return math.exp(lw) if lw > -745.0 else 0.0

    cuts = flank_cuts(lambda x: log_w(x) - log_scale, peak)

    def piecewise(f) -> float:
        # Amplitude-scale so the absolute tolerance acts relatively; the
        # squared-error integrand can sit orders of magnitude below the
        # weight when the report is sharp and accurate.
        probes = list(cuts) + [0.5 * (a + b) for a, b in zip(cuts, cuts[1:])]
        amp = max(abs(f(x)) for x in probes) or 1.0
        return amp * sum(
            integrate(lambda x: f(x) / amp, a, b, tol) for a, b in zip(cuts, cuts[1:]) if b > a
        )

    num = piecewise(lambda x: w(x) * (x - alpha) ** 2)
    den = piecewise(w)
    e = math.sqrt(num / den)
    return min(max(1.0 - e, 0.0), 1.0)
