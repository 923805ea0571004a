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
rounding onto 1.  At a crossing f(x) = 1, so each tail is

    I_x(a, b) = x(1−x)/a · CF(x; a, b),

no lgamma and no exp, with CF the incomplete-beta continued fraction of
Numerical Recipes §6.4 (DLMF 8.17.22),

    CF = 1/(1+ d₁/(1+ d₂/(1+ ⋯))),
    d₂ₘ₊₁ = −(a+m)(a+b+m)·x / ((a+2m)(a+2m+1)),
    d₂ₘ   =  m(b−m)·x / ((a+2m−1)(a+2m)),

which converges fast for x below (a+1)/(a+b+2); above it the mirror
I_x(a, b) = 1 − I_{1−x}(b, a) is taken.  Density work is done in log space
on top of :func:`log_beta`.  Every evidence total lies in the one domain
[0, :data:`MAX_EVIDENCE_TOTAL`]: :class:`Evidence` refuses a larger one.

The belief-space view is a triple ⟨b, d, u⟩ (belief, disbelief, uncertainty)
summing to 1.  The two views are linked by α = r/(r+s) and c:

    b = α·c,   d = (1−α)·c,   u = 1 − c.

The inverse direction fixes α and searches for the evidence total that
reproduces the certainty 1−u.  Certainty is strictly increasing in the total
at fixed α.  One-sided evidence has the closed form
c(n) = n/(n+1)·(n+1)^(−1/n), which the inverse solves with no certainty
evaluation; otherwise it starts from the total at which a normal density of
the same mean and variance reaches the target and takes secant steps on the
log of the total, to machine precision in about four certainty evaluations
(4.4 per inverse on the benchmark's ``combine`` run).  The forward
certainty of one-sided evidence is that closed form too, and a two-sided
crossing takes 3.2 Newton steps on average there.

All types are immutable and all functions are pure; :func:`certainty`
memoizes its results in a bounded cache.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .errors import ConvergenceError

__all__ = [
    "Evidence",
    "Belief",
    "expected_quality",
    "log_beta",
    "pcdf",
    "certainty",
    "to_belief",
    "from_belief",
    "MAX_EVIDENCE_TOTAL",
]

# The one bound on evidence: Evidence refuses a total r + s above it, and
# from_belief searches totals in [0, MAX_EVIDENCE_TOTAL].  Up to it, certainty
# is within 1e-10 of 50-digit references (1.1e-11 at 1e9; see
# tools/certainty_reference.py), and no rounding of log_beta can cancel a
# peak density (see _log_crossings).  Past it the lgamma cancellation grows
# (2.1e-10 at 1e12, 3.9e-9 at 1e13, at α = 0.5..0.99), and near 1e16 it
# loses the peak.  The plain-float totals of the drivers stay under it too:
# - referrer and combine reports go through Evidence;
# - a trust grows by at most 1 per step (c′ <= 1), and the CLI runs at most
#   10⁶ steps;
# - a history run carries at most tx_per_step × timesteps, which
#   ExperimentConfig bounds by this constant;
# - a discounted path never carries more than its report: discounting lowers
#   the certainty and keeps α;
# - a feedback fold carries at most 10 per feedback.
MAX_EVIDENCE_TOTAL = 1e9

# Iteration caps; convergence takes at most 4 Newton steps per crossing and
# about 4 certainty evaluations per inverse.
_MAX_NEWTON_STEPS = 60
_MAX_SOLVE_STEPS = 100

# Relative change of the continued fraction at which it has converged, and a
# step cap.  At unit crossings, with α = 0.5, 0.9 and 0.999, a tail takes
# 1–9 steps at a total of 1, 2–23 at 1e3, 18–34 at 1e6 and 18–26 from 1e9 to
# 1e15.
_CF_EPS = 1e-15
_MAX_CF_STEPS = 100_000

_TWO_PI = 2.0 * math.pi
_INV_SQRT_2 = math.sqrt(0.5)
_INV_SQRT_2PI = 1.0 / math.sqrt(_TWO_PI)

_BELIEF_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Evidence:
    """Trust as evidence: ⟨r, s⟩ positive/negative outcome counts.

    Counts are real-valued: discounting and certainty weighting produce
    fractional evidence as a matter of course.  They must be non-negative,
    with a total of at most :data:`MAX_EVIDENCE_TOTAL`; anything else,
    including a count that is nan or infinite, is a ValueError.
    """

    r: float
    s: float

    def __post_init__(self):
        r, s = float(self.r), float(self.s)
        if r < 0 or s < 0:
            raise ValueError(f"evidence counts must be non-negative, got r={self.r}, s={self.s}")
        if not r + s <= MAX_EVIDENCE_TOTAL:
            raise ValueError(f"evidence total r + s must be at most {MAX_EVIDENCE_TOTAL:g}, "
                             f"got r={self.r}, s={self.s}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

    @property
    def total(self) -> float:
        return self.r + self.s

    def scaled(self, factor: float) -> "Evidence":
        """Componentwise scaling; factor must be non-negative."""
        return Evidence(self.r * factor, self.s * factor)

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
    if total == 0:
        return 0.5
    return r / total


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

    Computed in log space, so that no total up to :data:`MAX_EVIDENCE_TOTAL`
    overflows or underflows prematurely.  Integrates to 1 over [0, 1];
    uniform when there is no evidence.
    """
    if not (0.0 < x < 1.0):
        raise ValueError(f"pcdf is defined on the open interval (0, 1), got x={x}")
    return math.exp(_log_pcdf(e.r, e.s, x))


def _log_crossing(a: float, b: float, lbeta: float, t_peak: float, height: float) -> float:
    """The t < t_peak where a·t + b·log(1 − eᵗ) = lbeta, for a, b > 0.

    This is the unit crossing of the density x^a (1−x)^b / exp(lbeta) left
    of its peak at x = exp(t_peak), in t = log x; ``height`` is the log
    density at the peak (> 0).  g(t) = a·t + b·log(1 − eᵗ) − lbeta is
    concave and increasing up to t_peak, and g(lbeta/a) = b·log(1 − eᵗ) ≤ 0,
    so [lbeta/a, t_peak] brackets the root.

    Newton starts from one of two estimates.  The first is one fixed-point
    step of t = (lbeta − b·log(1 − eᵗ))/a from the bracket's left end.  The
    map is increasing, so the step stays a lower bound on the root, and
    where the b-term's share of the slope, b·x/(1 − x) with x = eᵗ, is
    below 0.2·a (deep in the tail), it lands close to the root.  Elsewhere
    the start is the crossing that a cubic expansion of g at the peak
    gives.  That one is good near the peak but not at small totals: on the
    minority side of ⟨0.9, 0.1⟩ it misses by 0.97 in t, where the tail
    start misses by 1.3e-5.

    A step that leaves the bracket on the left is clamped to its left end,
    from where Newton on a concave function climbs monotonically.  Newton
    stops once a step is below 1e-10 on the scale max(1, |t|) and returns
    that step's target without evaluating it: quadratic convergence makes
    it exact to ~1e-20.  That takes at most 4 evaluations of g over totals
    1e-6..1e6, and on average 3.2 per crossing on the benchmark's
    ``combine`` and ``amazon`` runs.  Returns -inf when the crossing lies
    below the smallest float, and raises :class:`ConvergenceError`, naming
    a and b, if Newton has not stopped within its step budget.
    """
    lo, hi = lbeta / a, t_peak
    if lo == -math.inf:
        return lo
    t = lo - b * math.log1p(-math.exp(lo)) / a
    x = math.exp(t)
    if not b * x < 0.2 * a * (1.0 - x):
        # g ≈ height − ½A·δ² + ⅙B·δ³ in δ = t − t_peak, with A = a·n/b and
        # B = −A·(b + 2a)/b.  The quadratic's root δ₀, corrected for the
        # cubic term (or alone, if the correction leaves the bracket), bounds
        # the solve at 4 steps; from lbeta/a it can take 12.  When a·n
        # underflows (a subnormal count), δ₀ is -inf and Newton starts at lo.
        t = lo
        an = a * (a + b)
        d0 = -math.sqrt(2.0 * height * b / an) if an > 0.0 else -math.inf
        for guess in (t_peak + d0 * (1.0 - (b + 2.0 * a) * d0 / (6.0 * b)), t_peak + d0):
            if lo < guess < hi:
                t = guess
                break
    for _ in range(_MAX_NEWTON_STEPS):
        one_minus_x = -math.expm1(t)
        g = a * t + b * math.log(one_minus_x) - lbeta
        if g < 0.0:
            lo = t
        elif g > 0.0:
            hi = t
        else:
            return t
        # g'(t) = a − b·x/(1 − x), with x = eᵗ = 1 − (1 − x).
        slope = a - b * (1.0 - one_minus_x) / one_minus_x
        step_to = t - g / slope if slope > 0.0 else lo
        if step_to >= hi:
            step_to = 0.5 * (t + hi)
        elif step_to < lo:
            step_to = lo
        # t <= t_peak <= 0, so the scale max(1, |t|) is max(1, −t).
        tol = -1e-10 * t if t < -1.0 else 1e-10
        if -tol <= step_to - t <= tol:
            # Quadratic convergence: step_to is already exact to ~1e-20.
            return step_to
        t = step_to
    raise ConvergenceError(
        f"the unit crossing of x**a * (1 - x)**b did not converge in {_MAX_NEWTON_STEPS} "
        f"Newton steps for a={a!r}, b={b!r}",
        best_estimate=math.exp(t),
    )


def certainty(e: Evidence) -> float:
    """Certainty c(r, s) = ½ ∫₀¹ |f(x) − 1| dx, in [0, 1).

    Evaluated as (x_lo − I_{x_lo}(r+1, s+1)) + (w − I_w(s+1, r+1)): for each
    unit crossing of f, the width outside it minus the mass outside it.  The
    left crossing x_lo is solved in log x and the right one through
    w = 1 − x_hi in log(1 − x), each by safeguarded Newton; the right tail
    uses the symmetry I_x(a, b) = 1 − I_{1−x}(b, a), so 1 − x is never
    rounded away.  At a crossing f = 1, so the tail's prefactor
    xʳ⁺¹(1−x)ˢ⁺¹/B(r+1, s+1) is x(1−x).  One-sided evidence ⟨n, 0⟩ or
    ⟨0, n⟩ has the closed form c = n/(n+1)·(n+1)^(−1/n), with no crossing
    solve and no continued fraction.  A crossing's error enters the width
    minus the mass only at second order, because f = 1 there, but the
    prefactor takes f's residual at the solved crossing at first order:
    near totals of 1e6, where log_beta rounds by about 2e-9, c is off by up
    to about 6e-13.

    Results are memoized on ⟨r, s⟩ (a bounded cache), so repeated evidence,
    such as the few rating values of a feedback stream, is evaluated once.
    """
    return _certainty(e.r, e.s)


@functools.lru_cache(maxsize=4096)
def _certainty(r: float, s: float) -> float:
    if r == 0.0 or s == 0.0:
        return 0.0 if r == s else _one_sided(r + s)[0]
    crossings = _log_crossings(r, s)
    if crossings is None:
        return 0.0
    t, u = crossings
    c = _excess(t, r + 1.0, s + 1.0) + _excess(u, s + 1.0, r + 1.0)
    return min(max(c, 0.0), 1.0 - 1e-15)


def _excess(t: float, a: float, b: float) -> float:
    """x − I_x(a, b) at the unit crossing x = eᵗ, the tail with shapes (a, b).

    y = 1 − x comes from t, so a y near 0 keeps its digits.  At a crossing
    f(x) = 1, so the tail's prefactor x^a·y^b/B(a, b) is x·y.  Below the
    switch point (a+1)/(a+b+2) the continued fraction runs on I_x(a, b),
    past it on the mirror 1 − I_y(b, a).  A crossing lies below its
    density's peak, and for the tail of the smaller count the peak is at or
    below the switch point.  The tail of the larger count has never been
    seen past it (the benchmark runs; 20 000 log-uniform pairs with totals
    up to 1e6), but no proof excludes it, so the mirror stays.
    """
    x, y = math.exp(t), -math.expm1(t)
    if x * (a + b + 2.0) < a + 1.0:
        return x - x * y / a * _beta_cf(x, a, b)
    return x - (1.0 - x * y / b * _beta_cf(y, b, a))


def _log_crossings(r: float, s: float) -> Optional[Tuple[float, float]]:
    """(log x_lo, log(1 − x_hi)) for the unit crossings of the density of
    ⟨r, s⟩ with r, s > 0; None when the density never rises above uniform
    (only by rounding, at totals far below 1).

    From a total of 1 on, the peak density is at least 4/π ≈ 1.27 (at
    ⟨½, ½⟩), so its log, the height below, is at least 0.24.  Up to
    :data:`MAX_EVIDENCE_TOTAL` rounding cannot cancel that: at 1e9 the
    lgamma terms of lbeta are about 2e10, so they round by about 1e-5.
    """
    n = r + s
    lbeta = log_beta(r + 1.0, s + 1.0)
    # log x and log(1 − x) at the peak x = r/n, from the logs of the counts:
    # r/n or s/n rounds to 0 when one count is subnormal.
    log_n = math.log(n)
    t_peak = math.log(r) - log_n
    u_peak = math.log(s) - log_n
    height = -lbeta + r * t_peak + s * u_peak
    if height <= 0.0:
        return None
    return (_log_crossing(r, s, lbeta, t_peak, height),
            _log_crossing(s, r, lbeta, u_peak, height))


def to_belief(e: Evidence) -> Belief:
    """Evidence → belief: ⟨α·c, (1−α)·c, 1−c⟩ with α the expected quality."""
    b, d, c = _belief(e.r, e.s)
    return Belief(b, d, 1.0 - c)


def _belief(r: float, s: float) -> Tuple[float, float, float]:
    """:func:`to_belief` of plain counts, as (b, d, c) with c = 1 − u."""
    c = _certainty(r, s)
    if c == 0.0:
        return 0.0, 0.0, 0.0
    # s/n rather than 1 − r/n keeps the minority share exact when α ≈ 1.
    total = r + s
    return r / total * c, s / total * c, c


def _one_sided(n: float) -> Tuple[float, float]:
    """c(⟨n, 0⟩) = n/(n+1)·(n+1)^(−1/n) for n > 0, and its slope dc/d(log n).

    f = (n+1)xⁿ crosses 1 at x₀ = (n+1)^(−1/n), and c = x₀ − x₀ⁿ⁺¹ there;
    d(log c)/d(log n) = log(n+1)/n.
    """
    log_n1_per_n = math.log1p(n) / n
    c = n / (n + 1.0) * math.exp(-log_n1_per_n)
    return c, c * log_n1_per_n


def _gaussian_log_total(spread: float, target: float) -> Optional[Tuple[float, float]]:
    """The log total at which a normal density with variance spread/n has
    certainty ``target``, and the slope dc/d(log n) there; None when its
    crossings would lie less than one standard deviation from the mean.

    ``spread`` is α(1−α), so the normal density has the mean and variance
    of the evidence density for large n.  With σ² = spread/n it crosses 1
    at z standard deviations from the mean, where φ(z) = σ, and then
    c = erf(z/√2) − 2zσ.  That is increasing in z with dc/dz = 2z²φ(z), so
    Newton on z solves it, and n = spread/φ(z)².  On log n the slope is
    dc/d(log n) = z·φ(z).
    """
    z = 2.0
    for _ in range(_MAX_NEWTON_STEPS):
        phi = math.exp(-0.5 * z * z) * _INV_SQRT_2PI
        step = (math.erf(z * _INV_SQRT_2) - 2.0 * z * phi - target) / (2.0 * z * z * phi)
        z = z - step if step < z else 0.5 * z
        if abs(step) <= 1e-9 * z:
            break
    if not z >= 1.0:
        return None
    return math.log(spread * _TWO_PI) + z * z, z * math.exp(-0.5 * z * z) * _INV_SQRT_2PI


def _solve_log_total(f: Callable[[float], float], x: float, slope: float, target: float,
                     what: Callable[[], str]) -> Optional[float]:
    """The log total L in [log(e·target), log MAX_EVIDENCE_TOTAL] where the
    increasing function f(L) = c(e^L) − target vanishes, or None when
    f(log MAX_EVIDENCE_TOTAL) < −1e-9.

    Starts at ``x`` with the estimated slope ``slope`` and takes secant
    steps, falling back to bisection when a step leaves the bracket known so
    far.  c(n) <= n/e at every α, so f < 0 at the left end without an
    evaluation; the right end is evaluated only when a step reaches it, and
    within 1e-9 of the target it is the answer.  The solve stops when |f| is
    within the rounding of c (2ε) plus the slope times 1e-12, so the
    total is found to a relative 1e-12 or as far as c resolves it.  It also
    stops, returning the next secant iterate without evaluating it, once
    that iterate is predictably exact.  A secant iterate's error is about
    f″/(2f′) times the errors of the two points it came from, which are
    about the next step and the previous one.  With f″/2 taken as the
    second divided difference f[x₀, x₁, x₂] of the last three points, the
    solve returns the iterate when the step is below 1e-6 and
    |f[x₀, x₁, x₂]/f[x₁, x₂]|·|step|·|previous step| <= 2e-13.  On the
    benchmark's ``combine`` run that estimate is within 5% of the iterate's
    true error in nine cases out of ten.
    ``what()`` names the solve in the :class:`ConvergenceError` raised if the
    step budget runs out.
    """
    lo, hi = math.log(math.e * target), math.log(MAX_EVIDENCE_TOTAL)
    hi_known = False  # whether f(hi) > 0 has been seen
    x = min(max(x, lo), hi)
    x_prev = f_prev = secant_to = None  # secant_to: the point the last secant slope reached
    for _ in range(_MAX_SOLVE_STEPS):
        fx = f(x)
        if x == hi and not hi_known:
            if fx < -1e-9:
                return None
            if fx <= 0.0:
                return hi
        if fx > 0.0:
            hi, hi_known = x, True
        elif fx < 0.0:
            lo = x
        else:
            return x
        # |f″/2| times the last step, while the last two steps were secants.
        curved_step = math.inf
        if x_prev is not None and fx != f_prev:
            last_slope, slope = slope, (fx - f_prev) / (x - x_prev)
            if x_prev == secant_to:
                # f[x₀, x₁, x₂] = (f[x₁, x₂] − f[x₀, x₁]) / (x₂ − x₀) ≈ f″/2
                curved_step = abs((slope - last_slope) / (x - x_before) * (x - x_prev))
            secant_to = x
        x_before, x_prev, f_prev = x_prev, x, fx
        if slope > 0.0:
            step_to = x - fx / slope
            if abs(fx) <= slope * 1e-12 + 2.0 * sys.float_info.epsilon:
                return min(max(step_to, lo), hi)
            if lo < step_to < hi:
                step = abs(step_to - x)
                if step <= 1e-6 and curved_step * step <= 2e-13 * slope:
                    return step_to
                x = step_to
                continue
            if step_to >= hi and not hi_known:
                x = hi
                continue
        if not hi_known:
            x = hi
        elif hi - lo <= 1e-12:
            return 0.5 * (lo + hi)
        else:
            x = 0.5 * (lo + hi)
    raise ConvergenceError(
        f"the evidence-total solve did not converge in {_MAX_SOLVE_STEPS} steps for {what()}",
        best_estimate=math.exp(x),
    )


def from_belief(t: Belief) -> Evidence:
    """Belief → evidence: invert :func:`to_belief` for the evidence total.

    The returned evidence has expected quality α = b/(b+d) and certainty
    1−u; the total is found on its logarithm to a relative precision of
    about 1e-12.  A belief with no belief or disbelief mass (u = 1) maps to
    ⟨0, 0⟩.

    One-sided beliefs (α = 0 or 1) are solved on the closed form
    c₁(n) = n/(n+1)·(n+1)^(−1/n), with no certainty evaluation.  Otherwise
    the solve starts from the larger of the one-sided root (conflict only
    lowers certainty, so it is never too large) and n_G, the total at which
    a normal density of the same mean and variance reaches the target, and
    takes secant steps on the memoized certainty kernel.  When
    c₁(n_G) >= 1−u the one-sided root is at most n_G, so one closed-form
    evaluation picks n_G with no one-sided solve; only otherwise is the
    one-sided root solved for.  The secant stops one evaluation early once
    its next iterate is predictably exact (see :func:`_solve_log_total`):
    about four certainty evaluations per inverse, 3.9 over log-uniform
    evidence and 4.4 on the benchmark's ``combine`` run.

    The domain is u > 0 with the target certainty reachable by a total of at
    most :data:`MAX_EVIDENCE_TOTAL`: a dogmatic belief (u = 0) has no finite
    evidence.  Raises :class:`ConvergenceError`, naming the belief and α,
    when the certainty at MAX_EVIDENCE_TOTAL falls short of 1−u by more than
    1e-9.  Within 1e-9 the total is the search's right end,
    exp(log MAX_EVIDENCE_TOTAL), which rounds 6 ulps below the bound: the
    shares of α may round up by an ulp, and the counts' sum stays within it.
    """
    return Evidence(*_from_belief(t.b, t.d, t.u))


def _from_belief(b: float, d: float, u: float) -> Tuple[float, float]:
    """:func:`from_belief` of the masses of a valid belief, as (r, s)."""
    target = 1.0 - u
    mass = b + d
    if target <= 0.0 or mass <= 0.0:
        return 0.0, 0.0
    share_r, share_s = b / mass, d / mass

    def what() -> str:
        return f"belief {Belief(b, d, u)} (alpha={share_r!r})"

    def one_sided_shortfall(log_total: float) -> float:
        return _one_sided(math.exp(log_total))[0] - target

    def shortfall(log_total: float) -> float:
        total = math.exp(log_total)
        return _certainty(share_r * total, share_s * total) - target

    two_sided = share_r > 0.0 and share_s > 0.0
    gaussian = _gaussian_log_total(share_r * share_s, target) if two_sided else None
    if gaussian is not None and _one_sided(math.exp(gaussian[0]))[0] >= target:
        # The one-sided root lies at or below the Gaussian estimate, so that
        # is the larger of the two starts, with no one-sided solve.
        log_total = _solve_log_total(shortfall, *gaussian, target, what)
    else:
        # c(n) <= n/e, so the one-sided solve starts at or below its root;
        # conflict only lowers certainty, so its root is a start from below.
        start = math.e * target
        log_total = _solve_log_total(one_sided_shortfall, math.log(start),
                                     _one_sided(start)[1], target, what)
        if log_total is not None and two_sided:
            slope = _one_sided(math.exp(log_total))[1]
            log_total = _solve_log_total(shortfall, log_total, slope, target, what)
    if log_total is None:
        # Out of reach at this α (out of reach one-sided means at every α).
        best = _certainty(share_r * MAX_EVIDENCE_TOTAL, share_s * MAX_EVIDENCE_TOTAL)
        raise ConvergenceError(
            f"no evidence total in [0, {MAX_EVIDENCE_TOTAL:g}] reaches certainty {target!r} "
            f"for {what()}",
            best_estimate=best,
        )
    total = math.exp(log_total)
    return share_r * total, share_s * total
