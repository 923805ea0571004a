"""Trust propagation through referral paths.

Two operators move trust through a referral network:

* concatenation discounts a referrer's report by the client's belief in the
  referrer:  ⟨b_R, d_R, u_R⟩ ⊗ ⟨b′, d′, u′⟩ = ⟨b_R·b′, b_R·d′, 1 − b_R·b′ − b_R·d′⟩
* aggregation sums evidence from independent paths componentwise.

Concatenation lives in belief space and aggregation in evidence space, so
:func:`combine_referrals` converts each report to a belief, discounts it,
converts the result back to evidence, and sums, all on plain floats.  Paths
are assumed mutually independent (non-overlapping); detecting overlap is out
of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from .core import Belief, Evidence, _belief, _from_belief

__all__ = ["ReferralPath", "concatenate", "aggregate", "combine_referrals"]


@dataclass(frozen=True)
class ReferralPath:
    """One independent path: the client's trust in a referrer plus that
    referrer's reported evidence about the provider."""

    referrer_trust: Belief
    report: Evidence


def concatenate(m_r: Belief, m_s: Belief) -> Belief:
    """Discount a report m_s by the belief component of m_r.

    Only the belief mass b_R of the referrer trust scales the report; the
    rest of the report's mass moves to uncertainty.  Full belief (b_R = 1)
    passes the report through unchanged; zero belief yields total
    uncertainty.
    """
    return Belief(*_concatenate(m_r.b, m_s.b, m_s.d))


def _concatenate(b_r: float, b: float, d: float) -> Tuple[float, float, float]:
    """:func:`concatenate` of plain masses: a report's belief b and
    disbelief d discounted by the belief mass b_R in its referrer."""
    b, d = b_r * b, b_r * d
    return b, d, 1.0 - b - d


def aggregate(e1: Evidence, e2: Evidence) -> Evidence:
    """Sum independent evidence componentwise: associative and commutative."""
    return Evidence(*_aggregate(((e1.r, e1.s), (e2.r, e2.s))))


def _aggregate(evidence: Iterable[Tuple[float, float]]) -> Tuple[float, float]:
    """:func:`aggregate` of plain counts (r, s), summed left to right."""
    r = s = 0.0
    for path_r, path_s in evidence:
        r += path_r
        s += path_s
    return r, s


def combine_referrals(paths: Iterable[ReferralPath]) -> Evidence:
    """Combine independent referral paths into one evidence estimate.

    Each report is discounted by the client's trust in its referrer
    (concatenation in belief space), mapped back to evidence, and the
    per-path evidence is aggregated.  The result is permutation-invariant in
    the path list.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("combine_referrals requires at least one referral path")
    return Evidence(*_combine((p.referrer_trust.b, p.report.r, p.report.s) for p in paths))


def _combine(paths: Iterable[Tuple[float, float, float]]) -> Tuple[float, float]:
    """:func:`combine_referrals` of paths given as (b_R, r′, s′): the client's
    belief mass in the referrer and the report's counts."""
    return _aggregate(_from_belief(*_concatenate(b_r, *_belief(r_report, s_report)[:2]))
                      for b_r, r_report, s_report in paths)
