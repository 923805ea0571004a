"""Evidence- and belief-space trust values and the certainty functional.

A trust value in evidence space is a pair ⟨r, s⟩ of non-negative real counts
of positive and negative outcomes.  Conditioning a uniform prior on that
evidence gives the density

    f(x) = xʳ(1−x)ˢ / B(r+1, s+1)      for x in [0, 1],

the probability that the subject's true quality is x.  The certainty of the
evidence is half the L1 distance between f and the uniform density:

    c(r, s) = ½ ∫₀¹ |f(x) − 1| dx,

which is 0 for ⟨0, 0⟩ (uniform), grows with the amount of evidence at a fixed
conflict ratio, and shrinks as conflict grows at a fixed total.  Because f is
normalized, c equals the mass of f above 1 minus the width of the region
where f exceeds 1.  :func:`certainty` evaluates it from the two unit
crossings x_lo < x_hi of f and two incomplete-beta tails:

    c = (x_lo − I_{x_lo}(r+1, s+1)) + (w − I_w(s+1, r+1)),   w = 1 − x_hi,

using I_x(a, b) = 1 − I_{1−x}(b, a) for the right tail.  The left crossing
is solved in t = log x and the right one in u = log(1−x), so a crossing at
1 − 10⁻²⁸⁹ (near-one-sided evidence) keeps its full precision instead of
rounding onto 1.

The belief-space view is a triple ⟨b, d, u⟩ (belief, disbelief, uncertainty)
summing to 1.  The two views are linked by α = r/(r+s) and c:

    b = α·c,   d = (1−α)·c,   u = 1 − c.

The inverse direction fixes α and searches for the evidence total that
reproduces the certainty 1−u.  Certainty is strictly increasing in the total
at fixed α, so Brent's method on the log of the total finds it to machine
precision in about ten certainty evaluations.

All types are immutable and all functions are pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import ConvergenceError
from .numerics import log_beta, regularized_incomplete_beta

__all__ = [
    "Evidence",
    "Belief",
    "expected_quality",
    "pcdf",
    "certainty",
    "to_belief",
    "from_belief",
    "MAX_EVIDENCE_TOTAL",
]

# from_belief searches totals in [0, MAX_EVIDENCE_TOTAL]; larger totals are
# out of supported range (their certainty is indistinguishable from 1 anyway).
MAX_EVIDENCE_TOTAL = 1e6

# Iteration caps; convergence takes about 5 Newton steps per crossing and
# 10 Brent steps per inverse.
_MAX_NEWTON_STEPS = 60
_MAX_BRENT_STEPS = 100

_BELIEF_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Evidence:
    """Trust as evidence: ⟨r, s⟩ positive/negative outcome counts.

    Counts are real-valued: discounting and certainty weighting produce
    fractional evidence as a matter of course.
    """

    r: float
    s: float

    def __post_init__(self):
        r, s = float(self.r), float(self.s)
        if not (math.isfinite(r) and math.isfinite(s)):
            raise ValueError(f"evidence counts must be finite, got r={self.r}, s={self.s}")
        if r < 0 or s < 0:
            raise ValueError(f"evidence counts must be non-negative, got r={self.r}, s={self.s}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

    @property
    def total(self) -> float:
        return self.r + self.s

    def scaled(self, factor: float) -> "Evidence":
        """Componentwise scaling; factor must be non-negative."""
        return Evidence(self.r * factor, self.s * factor)

    def __add__(self, other: "Evidence") -> "Evidence":
        return Evidence(self.r + other.r, self.s + other.s)

    def to_dict(self) -> dict:
        return {"r": self.r, "s": self.s}


@dataclass(frozen=True)
class Belief:
    """Trust as a belief mass triple ⟨b, d, u⟩ with b + d + u = 1.

    Components may be exactly 0 (discounting by a fully distrusted source
    produces them); the sum constraint is enforced to 1e-9.
    """

    b: float
    d: float
    u: float

    def __post_init__(self):
        b, d, u = float(self.b), float(self.d), float(self.u)
        for name, v in (("b", b), ("d", d), ("u", u)):
            if not math.isfinite(v):
                raise ValueError(f"belief component {name} must be finite, got {v}")
            if v < -_BELIEF_SUM_TOL:
                raise ValueError(f"belief component {name} must be non-negative, got {v}")
        if abs(b + d + u - 1.0) > _BELIEF_SUM_TOL:
            raise ValueError(f"belief components must sum to 1, got {b + d + u}")
        object.__setattr__(self, "b", max(b, 0.0))
        object.__setattr__(self, "d", max(d, 0.0))
        object.__setattr__(self, "u", max(u, 0.0))

    @property
    def certainty(self) -> float:
        return 1.0 - self.u

    def to_dict(self) -> dict:
        return {"b": self.b, "d": self.d, "u": self.u}


def expected_quality(e: Evidence) -> float:
    """Expected probability of a positive outcome: r/(r+s), or 0.5 with no evidence."""
    return _quality(e.r, e.s)


def _quality(r: float, s: float) -> float:
    """:func:`expected_quality` of plain counts, for folds that skip Evidence."""
    total = r + s
    return 0.5 if total == 0 else r / total


def _log_pcdf(r: float, s: float, x: float) -> float:
    """log f(x) for the evidence density, with the 0·log(0) := 0 convention.

    Well-defined on the closed interval [0, 1]; returns -inf where the
    density vanishes (endpoints with a positive exponent on that side).
    """
    acc = -log_beta(r + 1.0, s + 1.0)
    if r > 0.0:
        acc += r * math.log(x) if x > 0.0 else -math.inf
    if s > 0.0:
        acc += s * math.log1p(-x) if x < 1.0 else -math.inf
    return acc


def pcdf(e: Evidence, x: float) -> float:
    """The evidence density f(x) = xʳ(1−x)ˢ / B(r+1, s+1), for x in (0, 1).

    Computed in log space so totals up to 1e6 neither overflow nor underflow
    prematurely.  Integrates to 1 over [0, 1]; uniform when there is no
    evidence.
    """
    if not (0.0 < x < 1.0):
        raise ValueError(f"pcdf is defined on the open interval (0, 1), got x={x}")
    return math.exp(_log_pcdf(e.r, e.s, x))


def _log_crossing(a: float, b: float, lbeta: float, t_peak: float, height: float) -> float:
    """The t < t_peak where a·t + b·log(1 − eᵗ) = lbeta, for a > 0.

    This is the unit crossing of the density x^a (1−x)^b / exp(lbeta) left
    of its peak at x = exp(t_peak), in t = log x; ``height`` is the log
    density at the peak (> 0).  g(t) = a·t + b·log(1 − eᵗ) − lbeta is
    concave and increasing up to t_peak, and g(lbeta/a) = b·log(1 − eᵗ) ≤ 0,
    so [lbeta/a, t_peak] brackets the root.  Newton starts from the
    Gaussian-width estimate of the crossing; a step that leaves the bracket
    on the left is clamped to its left end, from where Newton on a concave
    function climbs monotonically.  Returns -inf when the crossing lies
    below the smallest float.
    """
    lo, hi = lbeta / a, t_peak
    if lo == -math.inf:
        return lo
    t = lo
    if b > 0.0:
        # g ≈ height − ½·(a·n/b)·(t − t_peak)² near the peak.  Starting
        # here bounds the solve at 5 steps; from lbeta/a it can take 12.
        guess = t_peak - math.sqrt(2.0 * height * b / (a * (a + b)))
        if lo < guess < hi:
            t = guess
    for _ in range(_MAX_NEWTON_STEPS):
        one_minus_x = -math.expm1(t)
        g = a * t + b * math.log(one_minus_x) - lbeta
        if g < 0.0:
            lo = t
        elif g > 0.0:
            hi = t
        else:
            return t
        slope = a - b * math.exp(t) / one_minus_x
        step_to = t - g / slope if slope > 0.0 else lo
        if step_to >= hi:
            step_to = 0.5 * (t + hi)
        elif step_to < lo:
            step_to = lo
        if abs(step_to - t) <= 1e-10 * max(1.0, abs(t)):
            # Quadratic convergence: step_to is already exact to ~1e-20.
            return step_to
        t = step_to
    return t


def certainty(e: Evidence) -> float:
    """Certainty c(r, s) = ½ ∫₀¹ |f(x) − 1| dx, in [0, 1).

    Evaluated as (x_lo − I_{x_lo}(r+1, s+1)) + (w − I_w(s+1, r+1)): for each
    unit crossing of f, the width outside it minus the mass outside it.  The
    left crossing x_lo is solved in log x and the right one through
    w = 1 − x_hi in log(1 − x), each by safeguarded Newton; the right tail
    uses the symmetry I_x(a, b) = 1 − I_{1−x}(b, a), so 1 − x is never
    rounded away.  One-sided evidence has a single crossing (r = 0 has no
    left one, s = 0 no right one).  A crossing's error enters c only at
    second order, because f = 1 there.
    """
    r, s = e.r, e.s
    n = r + s
    if n == 0.0:
        return 0.0
    lbeta = log_beta(r + 1.0, s + 1.0)
    # log x and log(1 − x) at the peak x = r/n, from the logs of the counts:
    # r/n or s/n rounds to 0 when one count is subnormal.
    log_n = math.log(n)
    height = -lbeta
    if r > 0.0:
        t_peak = math.log(r) - log_n
        height += r * t_peak
    if s > 0.0:
        u_peak = math.log(s) - log_n
        height += s * u_peak
    if height <= 0.0:
        # Density never rises above uniform (only by rounding, at tiny totals).
        return 0.0
    c = 0.0
    if r > 0.0:
        x_lo = math.exp(_log_crossing(r, s, lbeta, t_peak, height))
        c += x_lo - regularized_incomplete_beta(x_lo, r + 1.0, s + 1.0)
    if s > 0.0:
        w = math.exp(_log_crossing(s, r, lbeta, u_peak, height))
        c += w - regularized_incomplete_beta(w, s + 1.0, r + 1.0)
    return min(max(c, 0.0), 1.0 - 1e-15)


def to_belief(e: Evidence) -> Belief:
    """Evidence → belief: ⟨α·c, (1−α)·c, 1−c⟩ with α the expected quality."""
    c = certainty(e)
    if c == 0.0:
        return Belief(0.0, 0.0, 1.0)
    # s/n rather than 1 − r/n keeps the minority share exact when α ≈ 1.
    return Belief(e.r / e.total * c, e.s / e.total * c, 1.0 - c)


def _brent_root(f: Callable[[float], float], a: float, b: float, fa: float, fb: float,
                xtol: float, what: str) -> float:
    """A root of f in [a, b] by Brent's method; fa = f(a) and fb = f(b) must
    differ in sign (Brent 1973, ch. 4, procedure zero).

    Inverse quadratic or secant interpolation is taken when it stays well
    inside the bracket and shrinks fast enough, bisection otherwise.  Stops
    when the bracket is narrower than about xtol.  ``what`` names the solve
    in the :class:`ConvergenceError` raised if the step budget runs out.
    """
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_BRENT_STEPS):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * sys.float_info.epsilon * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
    raise ConvergenceError(
        f"Brent's method did not converge in {_MAX_BRENT_STEPS} steps for {what}",
        best_estimate=b,
    )


def from_belief(t: Belief) -> Evidence:
    """Belief → evidence: invert :func:`to_belief` for the evidence total.

    The returned evidence has expected quality α = b/(b+d) and certainty
    1−u; the total is found by Brent's method on its logarithm, to a
    relative precision of about 1e-12.  A belief with no belief or
    disbelief mass (u = 1) maps to ⟨0, 0⟩.

    The domain is u > 0 with the target certainty reachable by a total of at
    most :data:`MAX_EVIDENCE_TOTAL`: a dogmatic belief (u = 0) has no finite
    evidence.  Raises :class:`ConvergenceError`, naming the belief and α,
    when the certainty at MAX_EVIDENCE_TOTAL falls short of 1−u by more than
    1e-9; within 1e-9 the total is MAX_EVIDENCE_TOTAL.
    """
    target = t.certainty
    mass = t.b + t.d
    if target <= 0.0 or mass <= 0.0:
        return Evidence(0.0, 0.0)
    share_r, share_s = t.b / mass, t.d / mass
    what = f"belief {t} (alpha={share_r!r})"

    def shortfall(log_total: float) -> float:
        total = math.exp(log_total)
        return certainty(Evidence(share_r * total, share_s * total)) - target

    hi = math.log(MAX_EVIDENCE_TOTAL)
    f_hi = shortfall(hi)
    if f_hi < -1e-9:
        raise ConvergenceError(
            f"no evidence total in [0, {MAX_EVIDENCE_TOTAL:g}] reaches certainty {target!r} "
            f"for {what}",
            best_estimate=f_hi + target,
        )
    if f_hi <= 0.0:
        log_total = hi
    else:
        # c(n) <= n/e at every α (the slope of c at n = 0 is at most 1/e),
        # so a total of e·(1−u) cannot overshoot the target.
        lo = math.log(math.e * target)
        f_lo = shortfall(lo)
        log_total = (lo if f_lo >= 0.0
                     else _brent_root(shortfall, lo, hi, f_lo, f_hi, 1e-12, what))
    total = math.exp(log_total)
    return Evidence(share_r * total, share_s * total)
