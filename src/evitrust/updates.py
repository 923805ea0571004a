"""Accuracy measures and trust update methods.

An update turns one received estimate into fractional evidence about its
source.  Given an accuracy q in [0, 1] and a weight c′ in [0, 1], the generic
update treats the estimate as c′·q good and c′·(1−q) bad transactions and
decays the prior by the temporal discount factor β (β is a forgetting rate:
β = 0 retains all history, β = 1 keeps none):

    r′_R = c′·q + (1−β)·r_R
    s′_R = c′·(1−q) + (1−β)·s_R

The methods differ in how q and c′ are computed from the observation ⟨r, s⟩
and the report ⟨r′, s′⟩ (α and α′ denote their expected qualities):

===============  =============================================  =====================
method           accuracy q                                     weight c′
===============  =============================================  =====================
LinearWS         1 − |α − α′|                                   c(r′, s′)
Josang           1 − |α − α′| with means (r+1)/(r+s+2)          (r′+s′)/(r′+s′+2)
MaxCertainty     f_obs(α′) / f_obs(α)                           c(r′, s′)
Sensitivity      f_rep(α) / f_rep(α′)                           c(r′, s′)
AverageBeta      1 − L2 error of the report's density vs. α     c(r, s)·c(r′, s′)
===============  =============================================  =====================

The AverageBeta accuracy has the closed form

    q = 1 − sqrt((α − m)² + v),   m = (r′+1)/(r′+s′+2),
    v = (r′+1)(s′+1) / ((r′+s′+2)²(r′+s′+3)),

which equals 1 − sqrt(∫ f_rep(x)(x−α)² dx).

:func:`_update` is this table's code, for referrers and for the history
method (:func:`history_update`, folded by :func:`_fold`): the AverageBeta
update with β = 0 of a "ghost" referrer whose report is the client's own
discounted history of a provider, a self-tuning discount instead of a β.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

from .core import Evidence, _certainty, _quality

__all__ = [
    "UpdateMethod",
    "UpdateConfig",
    "HistoryState",
    "general_update",
    "accuracy_linear",
    "accuracy_max_certainty",
    "accuracy_sensitivity",
    "accuracy_average",
    "update_referrer",
    "history_update",
]


class UpdateMethod(str, enum.Enum):
    """Canonical referrer update method identifiers (also accepted by the CLI).

    The history method, AverageAlpha, is :func:`history_update`.
    """

    LINEAR_WS = "LinearWS"
    JOSANG = "Josang"
    MAX_CERTAINTY = "MaxCertainty"
    SENSITIVITY = "Sensitivity"
    AVERAGE_BETA = "AverageBeta"


@dataclass(frozen=True)
class UpdateConfig:
    """Method selection plus the discount factor.

    ``beta`` is the forgetting rate of the generic update.
    """

    method: UpdateMethod = UpdateMethod.AVERAGE_BETA
    beta: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "method", UpdateMethod(self.method))
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")


# The state a provider's history starts from, (r, s, trust_r, trust_s) as
# HistoryState holds it: no carried evidence, history trust ⟨0.9, 0.1⟩.
_NO_HISTORY = (0.0, 0.0, 0.9, 0.1)


@dataclass(frozen=True)
class HistoryState:
    """Carried, discounted history of a provider plus the trust placed in it.

    ``history_trust`` starts at ⟨0.9, 0.1⟩: the client initially weighs its
    own past at 0.9 but holds that opinion with little evidence, so the
    weight adapts quickly.
    """

    carried: Evidence = field(default_factory=lambda: Evidence(0.0, 0.0))
    history_trust: Evidence = field(default_factory=lambda: Evidence(*_NO_HISTORY[2:]))

    def __post_init__(self):
        if self.history_trust.total <= 0:
            raise ValueError("history_trust must carry positive total evidence")

    @property
    def discount(self) -> float:
        """The retention of the carried history, the expected quality of
        ``history_trust``: the discount that the update which made this
        state applied."""
        return _quality(self.history_trust.r, self.history_trust.s)


def general_update(q: float, beta: float, c_prime: float, prior: Evidence) -> Evidence:
    """Generic trust update: ⟨c′q + (1−β)r, c′(1−q) + (1−β)s⟩.

    q is the good share of the estimate and 1 − q its bad share.
    """
    for name, v in (("q", q), ("beta", beta), ("c_prime", c_prime)):
        _check_unit(name, v)
    return Evidence(*_general_update(q, beta, c_prime, prior.r, prior.s))


def _general_update(
    q: float, beta: float, c_prime: float, r: float, s: float
) -> Tuple[float, float]:
    """:func:`general_update` of a prior of plain counts ⟨r, s⟩, unchecked."""
    retain = 1.0 - beta
    return c_prime * q + retain * r, c_prime * (1.0 - q) + retain * s


def _check_unit(name: str, v: float) -> float:
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {v}")
    return v


def accuracy_linear(alpha: float, alpha_prime: float) -> float:
    """q = 1 − |α − α′|."""
    return _linear_accuracy(_check_unit("alpha", alpha), _check_unit("alpha_prime", alpha_prime))


def _linear_accuracy(alpha: float, alpha_prime: float) -> float:
    """:func:`accuracy_linear`, unchecked."""
    return 1.0 - abs(alpha - alpha_prime)


def accuracy_max_certainty(observed: Evidence, report: Evidence) -> float:
    """q = f(α′)/f(α) for the observed evidence density (peak-normalized),
    with α′ the report's expected quality.

    The ratio of how likely the reported quality α′ is under the client's own
    observations to how likely the most likely quality α is.  Requires
    observed total > 0 (with no observations there is no density to ask).
    """
    if observed.total <= 0:
        raise ValueError("accuracy_max_certainty requires observed evidence with positive total")
    return _peak_ratio(observed.r, observed.s, report.r, report.s)


def accuracy_sensitivity(observed: Evidence, report: Evidence) -> float:
    """q = l(α)/l(α′) for the report's density l (peak-normalized), with α
    the observation's expected quality.

    How likely, in the reporter's own assessment, the actually observed
    quality α would be.  Requires report total > 0.
    """
    if report.total <= 0:
        raise ValueError("accuracy_sensitivity requires a report with positive total")
    return _peak_ratio(report.r, report.s, observed.r, observed.s)


def _peak_ratio(r: float, s: float, rp: float, sp: float) -> float:
    """f(x)/f(α) for the density f of ⟨r, s⟩, which peaks at α = r/(r+s),
    at the quality x of the point ⟨r′, s′⟩, with 0·log 0 := 0.

    Both x and α take their logs from :func:`_log_shares`, from the counts
    where they round to 0 or 1, so that near-one-sided evidence neither
    scores a far point as 1 nor its own peak as 0 or nan.
    """
    (log_x, log_1mx), (log_peak, log_1mpeak) = _log_shares(rp, sp), _log_shares(r, s)
    log_q = r * log_x - r * log_peak if r > 0.0 else 0.0
    if s > 0.0:
        log_q = log_q + s * log_1mx - s * log_1mpeak
    # The density peaks at α, so log_q <= 0 up to rounding noise.
    return math.exp(min(log_q, 0.0))


def _log_shares(a: float, b: float) -> Tuple[float, float]:
    """log x and log(1 − x) for the quality x = a/(a+b) of counts ⟨a, b⟩,
    with log 0 = −inf.  Where x rounds to 0 or 1, the share that rounds to 0
    takes its log from the counts, as log a − log(a+b) or log b − log(a+b)."""
    x = _quality(a, b)
    log_x = math.log(x) if x > 0.0 else math.log(a) - math.log(a + b) if a > 0.0 else -math.inf
    log_1mx = (math.log1p(-x) if x < 1.0
               else math.log(b) - math.log(a + b) if b > 0.0 else -math.inf)
    return log_x, log_1mx


def accuracy_average(alpha: float, report: Evidence) -> float:
    """Closed form of the average (L2) accuracy of a report against α.

    q = 1 − sqrt((α − m)² + v) with m and v the mean and variance of the
    report's evidence density.  Well-defined even for an empty report
    (m = 1/2, v = 1/12).
    """
    _check_unit("alpha", alpha)
    return _average_accuracy(alpha, report.r, report.s)


def _average_accuracy(alpha: float, rp: float, sp: float) -> float:
    """:func:`accuracy_average` against a report of plain counts ⟨r′, s′⟩."""
    n = rp + sp + 2.0
    m = (rp + 1.0) / n
    v = (rp + 1.0) * (sp + 1.0) / (n * n * (rp + sp + 3.0))
    e = math.sqrt((alpha - m) ** 2 + v)
    return min(max(1.0 - e, 0.0), 1.0)


def update_referrer(
    config: UpdateConfig,
    observed: Evidence,
    report: Evidence,
    prior: Evidence,
) -> Evidence:
    """One trust update of a report's source from an observation.

    Dispatches on ``config.method`` to pick the accuracy q and weight c′ (see
    the module docstring table), then applies the generic update with
    ``config.beta``.  The observation must carry evidence (total > 0); the
    Josang, MaxCertainty, and Sensitivity methods additionally require a
    non-empty report.
    """
    _check_update_inputs(config.method, observed, report)
    return Evidence(*_update(config.method, config.beta, observed.r, observed.s,
                             report.r, report.s, prior.r, prior.s))


def _check_update_inputs(method: UpdateMethod, observed: Evidence, report: Evidence) -> None:
    """:func:`update_referrer`'s checks of its observation and report."""
    if observed.total <= 0:
        raise ValueError("update_referrer requires an observation with positive total")
    if report.total <= 0 and method in (UpdateMethod.JOSANG, UpdateMethod.MAX_CERTAINTY,
                                        UpdateMethod.SENSITIVITY):
        raise ValueError(f"{method.value} requires a report with positive total")


def _update(
    method: UpdateMethod, beta: float, r: float, s: float, rp: float, sp: float,
    prior_r: float, prior_s: float,
) -> Tuple[float, float]:
    """The one trust update, on plain floats: the trust ⟨prior_r, prior_s⟩ in
    a source that reported ⟨rp, sp⟩ when ⟨r, s⟩ was observed, moved by the
    generic update with q and c′ as the module docstring's table gives them
    for ``method``.  It checks nothing: :func:`update_referrer` is its
    checked form."""
    alpha = _quality(r, s)
    if method is UpdateMethod.AVERAGE_BETA:
        q, c_prime = _average_accuracy(alpha, rp, sp), _certainty(r, s) * _certainty(rp, sp)
    elif method is UpdateMethod.LINEAR_WS:
        q, c_prime = _linear_accuracy(alpha, _quality(rp, sp)), _certainty(rp, sp)
    elif method is UpdateMethod.JOSANG:
        q = _linear_accuracy((r + 1.0) / (r + s + 2.0), (rp + 1.0) / (rp + sp + 2.0))
        c_prime = (rp + sp) / (rp + sp + 2.0)
    elif method is UpdateMethod.MAX_CERTAINTY:
        q, c_prime = _peak_ratio(r, s, rp, sp), _certainty(rp, sp)
    else:  # Sensitivity
        q, c_prime = _peak_ratio(rp, sp, r, s), _certainty(rp, sp)
    return _general_update(q, beta, c_prime, prior_r, prior_s)


def history_update(state: HistoryState, observed: Evidence) -> HistoryState:
    """Self-tuning history update for a provider.

    The carried history plays the role of a report from a ghost referrer.
    Its average accuracy q against the fresh observation adjusts the trust
    placed in history (consistent behavior raises it, reversals lower it),
    and the expected quality of that trust becomes the discount applied to
    the carried evidence:

        history_trust += ⟨c·c′·q, c·c′·(1−q)⟩
        discount  = expected_quality(history_trust)
        carried   = observed + discount · carried

    Returns the new state, whose ``discount`` is the one applied.  The trust
    step is the AverageBeta update with β = 0.  With no observation (total
    0) the state is returned unchanged: an empty observation has certainty 0
    and cannot move anything.
    """
    carried, trust = state.carried, state.history_trust
    # The fold's prediction gap is not needed here, so its α is a placeholder.
    r, s, trust_r, trust_s = _fold(((observed.r, observed.s),), (0.0,), None,
                                   (carried.r, carried.s, trust.r, trust.s))[1]
    return HistoryState(Evidence(r, s), Evidence(trust_r, trust_s))


def _fold(
    observed: Iterable[Tuple[float, float]],
    alphas: Iterable[float],
    keep: Optional[float],
    state: Tuple[float, float, float, float] = _NO_HISTORY,
) -> Tuple[float, Tuple[float, float, float, float]]:
    """The one history predictor, folded over ``observed`` from ``state``.

    The prediction for each observation (k, n−k) is the expected quality of
    the evidence carried before it, and its gap is |prediction − α| with α
    that observation's expected quality from ``alphas``.  The observation
    then updates the carried evidence.  With a retention ``keep`` it is
    discounted, r ← r·keep + k, s ← s·keep + (n−k): Amazon keeps everything
    (keep = 1.0; x·1.0 = x, so this is the plain running sum) and FixedBeta
    keeps 1 − β.  With ``keep`` None (TrustInHistory), the history method:
    the carried evidence reports to the history trust as a ghost referrer,
    which :func:`_update` moves by AverageBeta with β = 0, and the expected
    quality of the new trust is the retention.  An empty observation moves
    neither.

    Returns the gaps, summed left to right so that the same gaps give the
    same float on any Python (3.12 made ``sum`` of floats compensated), and
    the state after the last observation.
    """
    gap = 0.0
    r, s, trust_r, trust_s = state
    if keep is None:
        for (k, m), alpha in zip(observed, alphas):
            gap += abs(_quality(r, s) - alpha)
            if k + m > 0:
                trust_r, trust_s = _update(UpdateMethod.AVERAGE_BETA, 0.0, k, m, r, s,
                                           trust_r, trust_s)
                discount = _quality(trust_r, trust_s)
                r, s = k + discount * r, m + discount * s
        return gap, (r, s, trust_r, trust_s)
    for (k, m), alpha in zip(observed, alphas):
        total = r + s
        gap += abs((r / total if total else 0.5) - alpha)
        r = r * keep + k
        s = s * keep + m
    return gap, (r, s, trust_r, trust_s)
