"""Marketplace feedback prediction: the history experiment run on ratings.

Ratings in {1..5} normalize to v = (rating−1)/4 and count as ten
transactions' worth of evidence, ⟨10v, 10(1−v)⟩, so a 5 becomes ⟨10, 0⟩ and
a 2 becomes ⟨2.5, 7.5⟩.  Each feedback is predicted from its predecessors by
the expected quality of the evidence carried before it, under one of three
predictors, which are the history modes (``simulation.HistoryMode``):

* Unweighted is ``AMAZON``: all evidence is kept, so the prediction is the
  plain mean of past normalized ratings.
* GeometricWeights(λ) is ``FIXED_BETA`` at retention λ: the carried evidence
  is discounted by λ per feedback, so the prediction is the mean with
  weights λ^age, the oldest feedback carrying the highest power of λ.
* TrustInHistory is ``TRUST_IN_HISTORY``: it threads the evidence stream
  through the self-tuning history update.

The experiment scores each seller under every predictor with one call of
the history experiment's grid fold, ``simulation._grid_errors``: one O(n)
pass of the fold per predictor, with O(1) state.  Prediction errors are
reported on the normalized scale (multiply by 4 for the 1-to-5 scale).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .core import Evidence, _quality
from .errors import FeedbackFormatError
from .simulation import (
    BehaviorProfile, HistoryMode, Probability, _grid_errors, _keep, _streams, behavior_sequence,
)
from .updates import _NO_HISTORY, _fold

__all__ = [
    "FeedbackRecord",
    "AmazonConfig",
    "rating_to_evidence",
    "normalize_rating",
    "load_feedback_csv",
    "parse_feedback_csv",
    "predict_feedback",
    "run_amazon_experiment",
    "SellerModeError",
    "synthesize_feedback",
]

_EXPECTED_HEADER = ["seller_id", "t", "rating"]


@dataclass(frozen=True)
class FeedbackRecord:
    """One marketplace feedback: seller, arrival order, integer rating 1..5."""

    seller_id: str
    t: int
    rating: int

    def __post_init__(self):
        if self.rating not in (1, 2, 3, 4, 5):
            raise ValueError(f"rating must be an integer in 1..5, got {self.rating}")


@dataclass(frozen=True)
class AmazonConfig:
    """Predictor selection by history mode; ``lambda_`` is the retention
    weight of GeometricWeights (``FIXED_BETA``), read in that mode only."""

    mode: HistoryMode = HistoryMode.TRUST_IN_HISTORY
    lambda_: float = 0.9

    def __post_init__(self):
        object.__setattr__(self, "mode", HistoryMode(self.mode))
        if not (0.0 <= self.lambda_ <= 1.0):
            raise ValueError(f"lambda_ must be in [0, 1], got {self.lambda_}")


def normalize_rating(rating: int) -> float:
    """Map {1..5} onto {0, 0.25, 0.5, 0.75, 1}."""
    if rating not in (1, 2, 3, 4, 5):
        raise ValueError(f"rating must be an integer in 1..5, got {rating}")
    return (rating - 1) / 4.0


def _feedback_evidence(v: float) -> Tuple[float, float]:
    """A normalized feedback as ten transactions at that value: (10v, 10(1−v))."""
    return 10.0 * v, 10.0 * (1.0 - v)


def rating_to_evidence(rating: int) -> Evidence:
    """A rating as ten transactions at its normalized value: ⟨10v, 10(1−v)⟩."""
    return Evidence(*_feedback_evidence(normalize_rating(rating)))


# Every rating's evidence as float pairs, built once for the feedback folds.
_RATING_EVIDENCE = {rating: _feedback_evidence(normalize_rating(rating)) for rating in range(1, 6)}


def parse_feedback_csv(text: str) -> List[FeedbackRecord]:
    """Parse feedback CSV content with header ``seller_id,t,rating``.

    Rows are validated (integer fields, rating range, strictly increasing t
    per seller); problems raise :class:`FeedbackFormatError` naming the
    1-based line number.  Returns records in file order.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise FeedbackFormatError("empty file: expected header 'seller_id,t,rating'")
    if [h.strip() for h in header] != _EXPECTED_HEADER:
        raise FeedbackFormatError(
            f"bad header {header!r}: expected {','.join(_EXPECTED_HEADER)}", line=1
        )

    records: List[FeedbackRecord] = []
    last_t: Dict[str, int] = {}
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise FeedbackFormatError(f"expected 3 fields, got {len(row)}", line=line_no)
        seller = row[0].strip()
        if not seller:
            raise FeedbackFormatError("empty seller_id", line=line_no)
        try:
            t = int(row[1])
        except ValueError:
            raise FeedbackFormatError(f"t must be an integer, got {row[1]!r}", line=line_no)
        try:
            rating = int(row[2])
        except ValueError:
            raise FeedbackFormatError(f"rating must be an integer, got {row[2]!r}", line=line_no)
        if rating not in (1, 2, 3, 4, 5):
            raise FeedbackFormatError(f"rating must be in 1..5, got {rating}", line=line_no)
        if seller in last_t and t <= last_t[seller]:
            raise FeedbackFormatError(
                f"t must be strictly increasing per seller; seller {seller!r} "
                f"has t={t} after t={last_t[seller]}",
                line=line_no,
            )
        last_t[seller] = t
        records.append(FeedbackRecord(seller, t, rating))
    return records


def load_feedback_csv(path: str) -> List[FeedbackRecord]:
    """Read and validate a feedback CSV file (see :func:`parse_feedback_csv`)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FeedbackFormatError(f"cannot read {path}: {exc}")
    return parse_feedback_csv(text)


def predict_feedback(history: Sequence[float], config: AmazonConfig) -> float:
    """Predict the next normalized feedback from past normalized feedbacks.

    Each feedback counts as ⟨10v, 10(1−v)⟩ evidence.  Unweighted predicts
    the plain mean.  GeometricWeights predicts Σ vᵢ·λ^(ageᵢ) / Σ λ^(ageᵢ)
    where the most recent feedback has age 0.  TrustInHistory threads the
    history through the self-tuning update and predicts the carried
    evidence's expected quality (0.5 for an empty history).  The mean modes
    raise ValueError on an empty history.
    """
    keep = _keep(config.mode, config.lambda_)
    if keep is not None and not history:
        raise ValueError("Unweighted and GeometricWeights predictions require a non-empty history")
    for v in history:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"normalized feedback must be in [0, 1], got {v!r}")
    return _quality(*_fold(map(_feedback_evidence, history), history, keep)[1][:2])


@dataclass(frozen=True)
class SellerModeError:
    """Mean absolute prediction error for one seller under one predictor."""

    seller_id: str
    mode: HistoryMode
    lambda_: Optional[float]
    error: float

    @property
    def error_scale5(self) -> float:
        return 4.0 * self.error


def run_amazon_experiment(
    records: Sequence[FeedbackRecord],
    configs: Sequence[AmazonConfig],
) -> List[SellerModeError]:
    """Predict every feedback from its predecessors, per seller and config.

    Each seller's configs take one grid fold, as the history experiment's
    β grid does: per config, one O(n) pass of the history fold with O(1)
    state that predicts the next feedback, adds the gap to the running
    total, then observes the feedback.  The first feedback of a seller has
    no predecessors: it is not scored, and the folds start from it.
    Sellers with fewer than two feedbacks cannot be scored and are skipped
    entirely.  Returns one row per (seller, config), sellers in
    first-appearance order.
    """
    by_seller: Dict[str, List[FeedbackRecord]] = {}
    for rec in records:
        by_seller.setdefault(rec.seller_id, []).append(rec)

    keeps = tuple(_keep(config.mode, config.lambda_) for config in configs)
    results: List[SellerModeError] = []
    for seller, feedback in by_seller.items():
        if len(feedback) < 2:
            continue
        first, *rest = feedback
        # The first feedback has no predecessors: the folds start from it.
        # (Folding it in from nothing gives the same state: an empty history
        # has certainty 0, so the history trust does not move.)
        start = _RATING_EVIDENCE[first.rating] + _NO_HISTORY[2:]
        errors = _grid_errors(tuple(_RATING_EVIDENCE[rec.rating] for rec in rest), keeps, start)
        for config, error in zip(configs, errors):
            lam = config.lambda_ if config.mode is HistoryMode.FIXED_BETA else None
            results.append(SellerModeError(seller, config.mode, lam, error))
    return results


def synthesize_feedback(
    sellers: int = 5,
    feedbacks_per_seller: int = 80,
    seed: int = 0,
    profile: Optional[BehaviorProfile] = None,
) -> List[FeedbackRecord]:
    """Seeded synthetic feedback streams for out-of-the-box runs.

    Each seller's per-step quality follows a behavior profile (default
    Probability(0.9)); the rating is 1 + Binomial(4, X_t), so mostly-good
    sellers earn mostly 4s and 5s with occasional slumps.  Each seller has
    its own stream: :func:`~evitrust.simulation.behavior_sequence` draws its
    X_t, then one ``binomial`` call draws its ratings.
    """
    for name, count in (("sellers", sellers), ("feedbacks_per_seller", feedbacks_per_seller)):
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    if profile is None:
        profile = Probability(0.9)
    records: List[FeedbackRecord] = []
    for idx, rng in enumerate(_streams(seed, sellers)):
        xs = behavior_sequence(profile, rng, feedbacks_per_seller)
        seller = f"seller{idx + 1:02d}"
        records += (FeedbackRecord(seller, t, 1 + k)
                    for t, k in enumerate(rng.binomial(4, xs).tolist(), start=1))
    return records
