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

:func:`history_update` applies the same machinery to a "ghost" referrer whose
report is the client's own discounted history of a provider, yielding a
self-tuning history discount instead of a hand-picked β.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Tuple

from .core import Evidence, _certainty, _quality, certainty, expected_quality

__all__ = [
    "UpdateMethod",
    "UpdateConfig",
    "HistoryState",
    "HistoryUpdate",
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
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")


# The history trust that a provider's history starts with (see HistoryState).
_FIRST_HISTORY_TRUST = (0.9, 0.1)


@dataclass(frozen=True)
class HistoryState:
    """Carried, discounted history of a provider plus the trust placed in it.

    ``history_trust`` starts at ⟨0.9, 0.1⟩: the client initially weighs its
    own past at 0.9 but holds that opinion with little evidence, so the
    weight adapts quickly.
    """

    carried: Evidence = field(default_factory=lambda: Evidence(0.0, 0.0))
    history_trust: Evidence = field(default_factory=lambda: Evidence(*_FIRST_HISTORY_TRUST))

    def __post_init__(self):
        if self.history_trust.total <= 0:
            raise ValueError("history_trust must carry positive total evidence")


class HistoryUpdate(NamedTuple):
    combined: Evidence
    state: HistoryState
    discount: float


def general_update(q: float, p: float, beta: float, c_prime: float, prior: Evidence) -> Evidence:
    """Generic trust update: ⟨c′q + (1−β)r, c′p + (1−β)s⟩.

    q and p are the good/bad shares of the estimate and must sum to 1.
    """
    for name, v in (("q", q), ("p", p), ("beta", beta), ("c_prime", c_prime)):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {v}")
    if abs(q + p - 1.0) > 1e-9:
        raise ValueError(f"q + p must equal 1, got {q + p}")
    retain = 1.0 - beta
    return Evidence(c_prime * q + retain * prior.r, c_prime * p + retain * prior.s)


def _check_unit(name: str, v: float) -> float:
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {v}")
    return v


def accuracy_linear(alpha: float, alpha_prime: float) -> float:
    """q = 1 − |α − α′|."""
    _check_unit("alpha", alpha)
    _check_unit("alpha_prime", alpha_prime)
    return 1.0 - abs(alpha - alpha_prime)


def _log_density_ratio(r: float, s: float, x_num: float, x_den: float) -> float:
    """log of [x_num^r (1−x_num)^s] / [x_den^r (1−x_den)^s] with 0·log 0 := 0."""
    acc = 0.0
    if r > 0.0:
        acc += r * (math.log(x_num) if x_num > 0.0 else -math.inf)
        acc -= r * (math.log(x_den) if x_den > 0.0 else -math.inf)
    if s > 0.0:
        acc += s * (math.log1p(-x_num) if x_num < 1.0 else -math.inf)
        acc -= s * (math.log1p(-x_den) if x_den < 1.0 else -math.inf)
    return acc


def accuracy_max_certainty(observed: Evidence, alpha_prime: float) -> float:
    """q = f(α′)/f(α) for the observed evidence density (peak-normalized).

    The ratio of how likely the reported quality α′ is under the client's own
    observations to how likely the most likely quality α is.  Requires
    observed total > 0 (with no observations there is no density to ask).
    """
    _check_unit("alpha_prime", alpha_prime)
    if observed.total <= 0:
        raise ValueError("accuracy_max_certainty requires observed evidence with positive total")
    alpha = expected_quality(observed)
    log_q = _log_density_ratio(observed.r, observed.s, alpha_prime, alpha)
    # The density peaks at alpha, so log_q <= 0 up to rounding noise.
    return math.exp(min(log_q, 0.0))


def accuracy_sensitivity(alpha: float, report: Evidence) -> float:
    """q = l(α)/l(α′) for the report's density l (peak-normalized).

    How likely, in the reporter's own assessment, the actually observed
    quality α would be.  Requires report total > 0.
    """
    _check_unit("alpha", alpha)
    if report.total <= 0:
        raise ValueError("accuracy_sensitivity requires a report with positive total")
    alpha_prime = expected_quality(report)
    log_q = _log_density_ratio(report.r, report.s, alpha, alpha_prime)
    return math.exp(min(log_q, 0.0))


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
    the module docstring table), then applies :func:`general_update` with
    ``config.beta``.  The observation must carry evidence (total > 0); the
    Josang, MaxCertainty, and Sensitivity methods additionally require a
    non-empty report.
    """
    if observed.total <= 0:
        raise ValueError("update_referrer requires an observation with positive total")
    method = UpdateMethod(config.method)
    if method in (UpdateMethod.JOSANG, UpdateMethod.MAX_CERTAINTY, UpdateMethod.SENSITIVITY):
        if report.total <= 0:
            raise ValueError(f"{method.value} requires a report with positive total")

    alpha = expected_quality(observed)
    if method is UpdateMethod.LINEAR_WS:
        q = accuracy_linear(alpha, expected_quality(report))
        c_prime = certainty(report)
    elif method is UpdateMethod.JOSANG:
        alpha_shift = (observed.r + 1.0) / (observed.total + 2.0)
        alpha_prime_shift = (report.r + 1.0) / (report.total + 2.0)
        q = accuracy_linear(alpha_shift, alpha_prime_shift)
        c_prime = report.total / (report.total + 2.0)
    elif method is UpdateMethod.MAX_CERTAINTY:
        q = accuracy_max_certainty(observed, expected_quality(report))
        c_prime = certainty(report)
    elif method is UpdateMethod.SENSITIVITY:
        q = accuracy_sensitivity(alpha, report)
        c_prime = certainty(report)
    else:  # AverageBeta
        q = accuracy_average(alpha, report)
        c_prime = certainty(observed) * certainty(report)
    return general_update(q, 1.0 - q, config.beta, c_prime, prior)


def history_update(state: HistoryState, observed: Evidence) -> HistoryUpdate:
    """Self-tuning history update for a provider.

    The carried history plays the role of a report from a ghost referrer.
    Its average accuracy q against the fresh observation adjusts the trust
    placed in history (consistent behavior raises it, reversals lower it),
    and the expected quality of that trust becomes the discount applied to
    the carried evidence:

        history_trust += ⟨c·c′·q, c·c′·(1−q)⟩
        discount  = expected_quality(history_trust)
        combined  = observed + discount · carried

    With no observation (total 0) the state is returned unchanged: an empty
    observation has certainty 0 and cannot move anything.
    """
    carried, trust = state.carried, state.history_trust
    r, s, trust_r, trust_s = _history_step(carried.r, carried.s, trust.r, trust.s,
                                           observed.r, observed.s)
    combined, trust = Evidence(r, s), Evidence(trust_r, trust_s)
    return HistoryUpdate(combined, HistoryState(combined, trust), expected_quality(trust))


def _history_step(
    r: float, s: float, trust_r: float, trust_s: float, obs_r: float, obs_s: float
) -> Tuple[float, float, float, float]:
    """:func:`history_update` on plain floats: the carried evidence ⟨r, s⟩
    and the history trust after observing ⟨obs_r, obs_s⟩, which leaves both
    alone when it is empty."""
    if obs_r + obs_s <= 0:
        return r, s, trust_r, trust_s
    weight = _certainty(obs_r, obs_s) * _certainty(r, s)
    q = _average_accuracy(_quality(obs_r, obs_s), r, s)
    trust_r += weight * q
    trust_s += weight * (1.0 - q)
    discount = _quality(trust_r, trust_s)
    return obs_r + discount * r, obs_s + discount * s, trust_r, trust_s
