"""Deterministic, seeded trust-maintenance experiments.

Three experiment drivers share a common shape: at each timestep a provider
behaves according to a behavior profile, the client observes a batch of
transactions, some prediction of the provider's quality is made before
observing, and a trust state is updated afterwards.  Per-step results land in
:class:`TimestepRecord` lists that serialize to CSV/JSON with a fixed schema.

Both referrer experiments build their report streams and hand them to one
loop, :func:`_track_referrers`: each step it discounts every report by the
client's trust in its referrer and combines them into the prediction,
observes, and updates every referrer's trust.

The draws of a history run depend on the seed, the profile, ``timesteps``
and ``tx_per_step``, never on β or the mode.  :func:`history_errors` uses
that (common random numbers): it draws once and folds a whole β grid over
the same observations, building no records.  Nor does it fold again the
stream that its last call folded: the deterministic profiles (Periodic,
Damping, and Probability with p of 0 or 1) draw the same observations at
every seed.  Every history run goes through the history method's fold,
``_fold`` in :mod:`evitrust.updates`.

Determinism contract: every random draw comes from a PCG64 stream derived
from the experiment seed with a fixed spawn layout (one independent stream
per role), so a (config, seed) pair reproduces byte-identical output
regardless of host or what else has run in the process.  The streams draw
bit for bit as numpy's ``Generator(PCG64(SeedSequence(seed).spawn(n)[i]))``
would, in pure Python: numpy's seeding, ``random``, ``uniform`` and the
inversion branch of ``binomial``.  Only a ``binomial`` call that reaches
numpy's BTPE branch (n·min(p, 1−p) > 30: ``tx_per_step`` above 60 at an X_t
inside (0, 1)) imports numpy, which draws it from the stream's state.  Each
stream is drawn in one call: behavior values in one ``random`` or
``uniform`` call (after the hidden X_0 of walk and momentum), transaction
counts in one ``binomial`` call.  Each call gives the values of one call per
step and leaves the stream in the same state.  The drivers run on plain
floats and build Evidence only for their records.

Behavior profiles (per-step quality X_t in [0, 1]):

    Probability(p)        1.0 with probability p, else 0.0
    Periodic              1.0 when ⌊t/2⌋ is odd, else 0.0 (period 4)
    Damping(horizon)      1.0 while t <= horizon/2, then 0.0
    Random                fresh U(0, 1) each step
    RandomWalk(gamma)     X_{t-1} + gamma·U(-1, 1), clamped to [0, 1]
    Momentum(gamma, psi)  adds psi·(X_{t-1} - X_{t-2}) to the walk step

Referrer profiles shape the reports a referrer derives from its experience:
Truthful (also named Honest) passes the experience through, Rumor exaggerates
the evidence counts after its switch step, GoodThenCorrupted flips the
polarity of its reports after the switch.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple, Union, get_args

from .core import MAX_EVIDENCE_TOTAL, Evidence, _belief, _quality, certainty, expected_quality
from .propagation import _combine, aggregate
from .updates import _NO_HISTORY, UpdateConfig, _fold, _update

if TYPE_CHECKING:
    import numpy.random

__all__ = [
    "Probability",
    "Periodic",
    "Damping",
    "Random",
    "RandomWalk",
    "Momentum",
    "BehaviorProfile",
    "Truthful",
    "Honest",
    "Rumor",
    "GoodThenCorrupted",
    "ReferrerProfile",
    "HistoryMode",
    "ExperimentConfig",
    "TimestepRecord",
    "CombinationResult",
    "behavior_sequence",
    "make_report",
    "prediction_error",
    "history_errors",
    "run_referrer_experiment",
    "run_combination_experiment",
    "run_history_experiment",
    "records_table",
    "CSV_HEADER",
]


# --------------------------------------------------------------------------
# Behavior profiles
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Probability:
    p: float = 0.9

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must be in [0, 1], got {self.p}")


@dataclass(frozen=True)
class Periodic:
    pass


@dataclass(frozen=True)
class Damping:
    horizon: int = 100

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")


@dataclass(frozen=True)
class Random:
    pass


@dataclass(frozen=True)
class RandomWalk:
    gamma: float = 0.1

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")


@dataclass(frozen=True)
class Momentum:
    gamma: float = 0.1
    psi: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0) or not (0.0 <= self.psi <= 1.0):
            raise ValueError(f"gamma and psi must be in [0, 1], got {self.gamma}, {self.psi}")


BehaviorProfile = Union[Probability, Periodic, Damping, Random, RandomWalk, Momentum]


def behavior_sequence(
    profile: BehaviorProfile,
    rng: _Stream | numpy.random.Generator,
    timesteps: int,
) -> List[float]:
    """X_1 .. X_T of a provider following ``profile``, T = ``timesteps``.

    Periodic and Damping draw nothing.  Probability and Random take their
    values from one ``random(T)`` call.  Walk and momentum draw a hidden
    X_0 ~ U(0, 1) first (also for T = 0), then their n steps in one
    ``uniform(-1, 1, n)`` call, and clamp each X_t to [0, 1] (X_t is a
    probability).  The walk takes n = T steps.  Momentum emits X_1 = X_0, so
    that its two-step lookback is defined from t = 2 on, and takes
    n = max(T − 1, 0).  ``rng`` is a driver's stream or a numpy Generator,
    which draws the same values from the same state.
    """
    if timesteps < 0:
        raise ValueError(f"timesteps must be >= 0, got {timesteps}")
    ts = range(1, timesteps + 1)
    if isinstance(profile, Probability):
        return [1.0 if u < profile.p else 0.0 for u in rng.random(timesteps).tolist()]
    if isinstance(profile, Random):
        return rng.random(timesteps).tolist()
    if isinstance(profile, Periodic):
        return [1.0 if (t // 2) % 2 == 1 else 0.0 for t in ts]
    if isinstance(profile, Damping):
        return [1.0 if t <= profile.horizon / 2.0 else 0.0 for t in ts]
    if isinstance(profile, (RandomWalk, Momentum)):
        momentum = isinstance(profile, Momentum)
        prev = prev2 = float(rng.random())
        xs = [prev] if momentum and timesteps else []
        for u in rng.uniform(-1.0, 1.0, timesteps - len(xs)).tolist():
            step = profile.gamma * u
            if momentum:
                step += profile.psi * (prev - prev2)
            prev2, prev = prev, min(max(prev + step, 0.0), 1.0)
            xs.append(prev)
        return xs
    raise TypeError(f"unknown behavior profile: {profile!r}")


# A run's seed is an unsigned 64-bit integer.
_MAX_SEED = 2**64 - 1


def _transactions(
    xs: Sequence[float], n: int, rng: _Stream | numpy.random.Generator
) -> List[Tuple[float, float]]:
    """Outcome counts (k, n−k) of n transactions at each quality in ``xs``,
    from one ``binomial`` call: the same counts, and the same stream state
    after, as one call per quality.  ``rng`` is a driver's stream or a numpy
    Generator, as in :func:`behavior_sequence`."""
    return [(float(k), float(n - k)) for k in rng.binomial(n, xs).tolist()]


# --------------------------------------------------------------------------
# Referrer profiles
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Truthful:
    pass


# An honest referrer reports what it saw, as a truthful one does.
Honest = Truthful


@dataclass(frozen=True)
class Rumor:
    """Reports its experience scaled by ``exaggeration`` past ``switch_step``.

    A scaled report is an ``Evidence``, so its total must stay within
    :data:`~evitrust.core.MAX_EVIDENCE_TOTAL`.  In run_referrer_experiment a
    report past the switch is one step's ``_REFERRER_TX_PER_STEP`` = 5
    transactions, so a factor above ``MAX_EVIDENCE_TOTAL / 5`` (2e8) raises
    ``ValueError`` at the first step past the switch.
    """

    switch_step: int = 50
    exaggeration: float = 10.0

    def __post_init__(self):
        if self.switch_step < 0:
            raise ValueError(f"switch_step must be >= 0, got {self.switch_step}")
        if not 1.0 <= self.exaggeration < math.inf:
            raise ValueError(f"exaggeration must be finite and >= 1, got {self.exaggeration}")


@dataclass(frozen=True)
class GoodThenCorrupted:
    switch_step: int = 50

    def __post_init__(self):
        if self.switch_step < 0:
            raise ValueError(f"switch_step must be >= 0, got {self.switch_step}")


ReferrerProfile = Union[Truthful, Rumor, GoodThenCorrupted]

# Every profile by its CLI name.
_PROFILES = {
    "probability": Probability, "periodic": Periodic, "damping": Damping, "random": Random,
    "randomwalk": RandomWalk, "walk": RandomWalk, "momentum": Momentum,
    "truthful": Truthful, "honest": Honest, "rumor": Rumor, "corrupted": GoodThenCorrupted,
}


def make_report(
    profile: ReferrerProfile, true_experience: Evidence, t: int
) -> Evidence:
    """The report a referrer with ``profile`` derives from its experience at t.

    Truthful (Honest) reports the experience unchanged.  Rumor scales both
    counts by its exaggeration factor once t passes the switch step (claiming
    far more evidence than it has).  GoodThenCorrupted reports the polarity
    inversion ⟨s, r⟩ after the switch.
    """
    if isinstance(profile, Truthful):
        return true_experience
    if isinstance(profile, Rumor):
        if t > profile.switch_step:
            return true_experience.scaled(profile.exaggeration)
        return true_experience
    if isinstance(profile, GoodThenCorrupted):
        if t > profile.switch_step:
            return Evidence(true_experience.s, true_experience.r)
        return true_experience
    raise TypeError(f"unknown referrer profile: {profile!r}")


# --------------------------------------------------------------------------
# Experiment plumbing
# --------------------------------------------------------------------------


class HistoryMode(str, Enum):
    """How run_history_experiment discounts the carried evidence."""

    AMAZON = "Amazon"
    FIXED_BETA = "FixedBeta"
    TRUST_IN_HISTORY = "TrustInHistory"


# The fixed provider of both referrer experiments serves each transaction well
# with this probability; in run_referrer_experiment, a referrer with a
# referrer profile observes this many of its transactions per step.
_PROVIDER_QUALITY = 0.9
_REFERRER_TX_PER_STEP = 5


@dataclass(frozen=True)
class ExperimentConfig(UpdateConfig):
    """Shared knobs of the experiment drivers.

    ``tx_per_step`` is the number of transactions the client observes per
    timestep.  A run's evidence, ``tx_per_step × timesteps`` (all of it
    carried in Amazon mode), must be at most
    :data:`~evitrust.core.MAX_EVIDENCE_TOTAL`.  The inherited ``method`` and
    ``beta`` select the referrer update; the history experiment reads
    ``beta`` in FixedBeta mode only.
    """

    timesteps: int = 100
    tx_per_step: int = 50
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {self.timesteps}")
        if self.tx_per_step < 1:
            raise ValueError(f"tx_per_step must be >= 1, got {self.tx_per_step}")
        if self.tx_per_step * self.timesteps > MAX_EVIDENCE_TOTAL:
            raise ValueError(f"tx_per_step × timesteps must be at most {MAX_EVIDENCE_TOTAL:g}, "
                             f"got {self.tx_per_step} × {self.timesteps}")
        if self.seed < 0 or self.seed > _MAX_SEED:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")


@dataclass(frozen=True)
class TimestepRecord:
    """Per-step snapshot: prediction vs. observation plus the trust state."""

    t: int
    predicted: Evidence
    observed: Evidence
    alpha_pred: float
    alpha_obs: float
    trust_state: Evidence
    discount: Optional[float] = None

    @property
    def certainty_pred(self) -> float:
        """Certainty of the prediction, computed when read."""
        return certainty(self.predicted)


CSV_HEADER = (
    "t,alpha_pred,alpha_obs,r_pred,s_pred,r_obs,s_obs,trust_r,trust_s,certainty,discount"
)


_Cell = Union[int, float, str, None]


def _fmt(v: float) -> str:
    return repr(float(v))


def _table(header: Sequence[str], rows: Iterable[Sequence[_Cell]], fmt: str) -> str:
    """The one table writer: typed cells under a header, as CSV or JSON.

    CSV renders each float with :func:`_fmt` and None as an empty field, and
    quotes a field only when it holds a comma, quote or newline.  JSON is a
    list of objects holding the cells as they are.
    """
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(c) if isinstance(c, float) else c for c in row] for row in rows)
    return buf.getvalue()


def _record_row(rec: TimestepRecord) -> List[_Cell]:
    return [
        rec.t,
        rec.alpha_pred,
        rec.alpha_obs,
        rec.predicted.r,
        rec.predicted.s,
        rec.observed.r,
        rec.observed.s,
        rec.trust_state.r,
        rec.trust_state.s,
        rec.certainty_pred,
        rec.discount,
    ]


def records_table(records: Sequence[TimestepRecord], fmt: str) -> str:
    """An experiment series under :data:`CSV_HEADER`, as ``fmt`` (csv or json)."""
    return _table(CSV_HEADER.split(","), map(_record_row, records), fmt)


def prediction_error(series: Sequence[TimestepRecord]) -> float:
    """Mean absolute gap between predicted and observed quality over a run,
    summed left to right as in :func:`~evitrust.updates._fold`."""
    if not series:
        raise ValueError("prediction_error requires a non-empty series")
    total = 0.0
    for rec in series:
        total += abs(rec.alpha_pred - rec.alpha_obs)
    return total / len(series)


# PCG64 is PCG XSL-RR 128/64 (O'Neill 2014): a 128-bit LCG with this
# multiplier, whose state is folded to 64 bits and rotated by its top 6 bits.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK53, _MASK64, _MASK128 = 2**32 - 1, 2**53 - 1, 2**64 - 1, 2**128 - 1


def _double(state: int) -> float:
    """numpy's ``next_double`` at a PCG64 state: the top 53 bits of the
    64-bit output, scaled to [0, 1)."""
    x = (state >> 64 ^ state) & _MASK64
    # x rotated right by the state's top 6 bits, less its low 11 bits.
    return ((x << 64 | x) >> (state >> 122) + 11 & _MASK53) * 2.0**-53


def _advance(state: int, inc: int, k: int) -> int:
    """The PCG64 state k steps on: Aᵏ·state + inc·(Aᵏ − 1)/(A − 1) mod 2¹²⁸.

    Aᵏ is taken mod (A − 1)·2¹²⁸, which leaves it right mod 2¹²⁸ and lets
    the geometric sum be divided exactly."""
    a_k = pow(_PCG_MULT, k, (_PCG_MULT - 1) << 128)
    return (a_k * state + inc * ((a_k - 1) // (_PCG_MULT - 1))) & _MASK128


def _inversion(n: int, p: float) -> Tuple[bool, float, float, float, int]:
    """The constants of numpy's inversion draw of Binomial(n, p), 0 < p < 1
    with n·min(p, 1−p) ≤ 30: whether it draws n − X at 1 − p, that p, its
    q = 1 − p, qⁿ, and the bound on X past which it draws again."""
    flip = p > 0.5
    if flip:
        p = 1.0 - p
    q, mean = 1.0 - p, n * p
    # numpy takes qⁿ through log1p(−p); exp(n·log q) differs in the last bits.
    return (flip, p, q, math.exp(n * math.log1p(-p)),
            int(min(n, mean + 10.0 * math.sqrt(mean * q + 1))))


class _Stream:
    """One seeded PCG64 stream, drawn bit for bit as numpy's
    ``Generator(PCG64(...))`` draws it, with the three methods the drivers
    call: ``random``, ``uniform`` and ``binomial``.

    A batch comes back as an ``array.array``, whose ``tolist()`` gives the
    Python numbers as a numpy array's does, so the drivers also take a numpy
    Generator.  ``binomial`` is numpy's inversion branch; a batch that
    reaches numpy's BTPE branch is drawn by numpy itself from this stream's
    state.
    """

    __slots__ = ("state", "inc")

    def __init__(self, state: int, inc: int):
        self.state, self.inc = state, inc

    def random(self, n: Optional[int] = None):
        """One U[0, 1) float, or an array of n."""
        state, inc, out = self.state, self.inc, array("d")
        for _ in range(1 if n is None else n):
            state = (state * _PCG_MULT + inc) & _MASK128
            out.append(_double(state))
        self.state = state
        return out[0] if n is None else out

    def uniform(self, lo: float, hi: float, n: int) -> array:
        """n U[lo, hi) floats, lo + (hi − lo)·u as numpy computes them."""
        span = hi - lo
        return array("d", [lo + span * u for u in self.random(n)])

    def binomial(self, n: int, ps):
        """A Binomial(n, p) count for each p of ``ps``, or one for a float p.

        As numpy's: n = 0 and p = 0 draw nothing, and every other p one
        uniform per try of the inversion; at p = 1 (qⁿ = 1) the first try
        gives X = 0, so a batch of only 0s and 1s just advances the stream.
        """
        if isinstance(ps, float):
            return self.binomial(n, [ps])[0]
        kinds = set(ps)
        if any(n * min(p, 1.0 - p) > 30.0 for p in kinds):
            return self._numpy_binomial(n, ps)
        if n == 0 or kinds <= {0.0, 1.0}:
            self.state = _advance(self.state, self.inc, ps.count(1.0) if n else 0)
            return array("q", [n if p else 0 for p in ps])
        consts = {p: _inversion(n, p) for p in kinds if p}
        state, inc, ks = self.state, self.inc, array("q")
        for p in ps:
            if not p:
                ks.append(0)
                continue
            flip, p_inv, q, qn, bound = consts[p]
            state = (state * _PCG_MULT + inc) & _MASK128
            x, u, px = 0, _double(state), qn
            while u > px:
                x += 1
                if x > bound:
                    state = (state * _PCG_MULT + inc) & _MASK128
                    x, u, px = 0, _double(state), qn
                else:
                    u -= px
                    px = (n - x + 1) * p_inv * px / (x * q)
            ks.append(n - x if flip else x)
        self.state = state
        return ks

    def _numpy_binomial(self, n: int, ps):
        """numpy's ``binomial(n, ps)`` from this stream's state, which it
        advances: the BTPE branch (n·min(p, 1−p) > 30) is numpy's alone."""
        import numpy.random

        bits = numpy.random.PCG64()
        bits.state = {**bits.state, "state": {"state": self.state, "inc": self.inc}}
        ks = numpy.random.Generator(bits).binomial(n, ps)
        self.state = bits.state["state"]["state"]
        return ks


# numpy's SeedSequence hash constants, after O'Neill's seed_seq_fe.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(v: int) -> List[int]:
    """The little-endian 32-bit words of v ≥ 0, one zero word for 0."""
    return [v >> shift & _MASK32 for shift in range(0, max(v.bit_length(), 1), 32)]


def _streams(seed: int, n: int) -> List[_Stream]:
    """n independent streams with a fixed spawn layout under one seed.

    Stream i is numpy's ``Generator(PCG64(SeedSequence(seed).spawn(n)[i]))``
    bit for bit.  Child i's entropy is the seed's words, zero-padded to the
    pool's four, then i's words: the pool hashed from the seed is shared, and
    each child mixes in its index and draws its PCG64 seed from the pool.
    """
    h = _INIT_A

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * _MULT_A & _MASK32
        v = v * h & _MASK32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        v = (_MIX_L * x - _MIX_R * y) & _MASK32
        return v ^ v >> 16

    words = _words(seed)
    seed_pool = [hashmix(w) for w in words + [0] * (4 - len(words))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                seed_pool[dst] = mix(seed_pool[dst], hashmix(seed_pool[src]))
    seed_h, streams = h, []
    for child in range(n):
        h, pool = seed_h, seed_pool[:]
        for w in _words(child):
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(w))
        # SeedSequence.generate_state(4, uint64): eight words off the pool.
        state_words, hb = [], _INIT_B
        for k in range(8):
            v = pool[k % 4] ^ hb
            hb = hb * _MULT_B & _MASK32
            v = v * hb & _MASK32
            state_words.append(v ^ v >> 16)
        s_hi, s_lo, i_hi, i_lo = (state_words[k] | state_words[k + 1] << 32
                                  for k in range(0, 8, 2))
        # PCG64's seeding: inc from the second pair of 64-bit words; the
        # state steps from 0, takes the first pair, and steps again.
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        streams.append(_Stream(state, inc))
    return streams


# --------------------------------------------------------------------------
# Experiment drivers
# --------------------------------------------------------------------------


def _provider_draws(config: ExperimentConfig, n: int, rng: _Stream) -> List[Evidence]:
    """A batch of n transactions with the fixed provider at every step."""
    draws = _transactions([_PROVIDER_QUALITY] * config.timesteps, n, rng)
    return [Evidence(k, m) for k, m in draws]


def _track_referrers(
    config: ExperimentConfig,
    reports: Sequence[Sequence[Evidence]],
    rng_client: _Stream,
) -> Tuple[List[TimestepRecord], List[Tuple[Tuple[float, float], ...]]]:
    """The referrer loop behind both referrer experiments.

    ``reports[t-1]`` holds each referrer's report at step t.  Per step the
    client predicts by combining the reports, each discounted by its current
    trust in the referrer (prior ⟨1, 1⟩), observes ``tx_per_step``
    transactions, and updates every referrer trust with ``config.method``.
    The records carry the last referrer's trust in ``trust_state``; each
    step's trusts are returned alongside, as (r, s) pairs.
    """
    # The prior ⟨1, 1⟩ encodes willingness to consider a stranger's referrals.
    trusts = ((1.0, 1.0),) * len(reports[0])
    draws = _transactions([_PROVIDER_QUALITY] * len(reports), config.tx_per_step, rng_client)
    records: List[TimestepRecord] = []
    history: List[Tuple[Tuple[float, float], ...]] = []
    for t, (step, (k, m)) in enumerate(zip(reports, draws), 1):
        # Each report discounted by the belief mass b_R of the trust in its referrer.
        predicted = Evidence(*_combine(
            (_belief(*trust)[0], report.r, report.s) for trust, report in zip(trusts, step)
        ))
        trusts = tuple(
            _update(config.method, config.beta, k, m, report.r, report.s, *trust)
            for trust, report in zip(trusts, step)
        )
        history.append(trusts)
        records.append(TimestepRecord(t, predicted, Evidence(k, m), expected_quality(predicted),
                                      _quality(k, m), Evidence(*trusts[-1])))
    return records, history


def run_referrer_experiment(
    config: ExperimentConfig,
    referrer_behavior: Union[BehaviorProfile, ReferrerProfile],
) -> List[TimestepRecord]:
    """Track one referrer's trust as its referrals are checked against
    direct experience.

    The provider serves each transaction well with probability 0.9.  A
    behavior-profile referrer issues a report of strength ``tx_per_step``
    whose quality follows X_t.  A
    referrer-profile referrer accumulates its own observations of the
    provider and reports them through :func:`make_report`; the Rumor profile
    exaggerates its current step's fresh experience once it switches, which
    is what makes its inflated claims checkable against the client's
    observations.

    The reports then run through :func:`_track_referrers`, which discounts
    each by the client's trust in the referrer and updates that trust.
    """
    rng_behavior, rng_referrer, rng_client = _streams(config.seed, 3)
    profile = referrer_behavior
    if isinstance(profile, get_args(BehaviorProfile)):
        m = float(config.tx_per_step)
        xs = behavior_sequence(profile, rng_behavior, config.timesteps)
        reports = [(Evidence(m * x, m * (1.0 - x)),) for x in xs]
    else:
        fresh = _provider_draws(config, _REFERRER_TX_PER_STEP, rng_referrer)
        # Past its switch, Rumor exaggerates only that step's fresh experience.
        rumor_switch = profile.switch_step if isinstance(profile, Rumor) else config.timesteps
        reports = [
            (make_report(profile, f if t > rumor_switch else acc, t),)
            for t, (f, acc) in enumerate(zip(fresh, accumulate(fresh, aggregate)), 1)
        ]
    return _track_referrers(config, reports, rng_client)[0]


@dataclass(frozen=True)
class CombinationResult:
    """Combined-estimate series plus both referrer trust trajectories."""

    records: List[TimestepRecord]
    good_trust: List[Evidence]
    corrupted_trust: List[Evidence]


def run_combination_experiment(
    config: ExperimentConfig,
    switch_step: int = 50,
) -> CombinationResult:
    """Two referrers, one good throughout and one corrupted mid-run, feed a
    combined estimate of one provider.

    Both referrers observe the provider themselves (``tx_per_step``
    transactions per step) and report their accumulated experience.  After
    ``switch_step`` the corrupted referrer turns malicious: it reports pure
    negative evidence with the full claimed weight of its experience, the
    over-confident defamation that certainty-weighted combination is supposed
    to neutralize.  Each step the client combines the two discounted reports
    into its estimate (recorded as the prediction), observes its own
    transactions, and updates both referrer trusts independently.

    The returned records carry the corrupted referrer's trust in
    ``trust_state``; both full trust trajectories ride alongside.
    """
    rng_good, rng_bad, rng_client = _streams(config.seed, 3)
    goods = accumulate(_provider_draws(config, config.tx_per_step, rng_good), aggregate)
    bads = accumulate(_provider_draws(config, config.tx_per_step, rng_bad), aggregate)
    reports = [
        (good, Evidence(0.0, bad.total) if t > switch_step else bad)
        for t, (good, bad) in enumerate(zip(goods, bads), 1)
    ]
    records, trusts = _track_referrers(config, reports, rng_client)
    good_trust, bad_trust = ([Evidence(*trust) for trust in column] for column in zip(*trusts))
    return CombinationResult(records, good_trust, bad_trust)


def _history_observations(
    config: ExperimentConfig, profile: BehaviorProfile
) -> List[Tuple[float, float]]:
    """The observed (k, n−k) of every step of a history run.

    This is all the randomness of the run: the behavior stream draws X_1..X_T
    and the transaction stream draws ``tx_per_step`` outcomes at each X_t.
    """
    rng_behavior, rng_tx = _streams(config.seed, 2)
    xs = behavior_sequence(profile, rng_behavior, config.timesteps)
    return _transactions(xs, config.tx_per_step, rng_tx)


def _keep(mode: HistoryMode, retention: float) -> Optional[float]:
    """The retention of a history mode, which the history experiment and the
    feedback predictors share: 1 for Amazon, ``retention`` for FixedBeta, None
    for TrustInHistory (the history update sets it each step).  FixedBeta's
    retention enters as given: 1 − β here, and λ itself for GeometricWeights
    (in floats, 1 − (1 − λ) need not be λ)."""
    if mode is HistoryMode.TRUST_IN_HISTORY:
        return None
    return 1.0 if mode is HistoryMode.AMAZON else retention


def run_history_experiment(
    config: ExperimentConfig,
    profile: BehaviorProfile,
    mode: HistoryMode,
) -> List[TimestepRecord]:
    """Predict a profiled provider from its own discounted history.

    Per step the client observes ``tx_per_step`` transactions at the
    profile's X_t.  The prediction for the step is the expected quality of
    the evidence carried *before* observing.  The carried evidence then
    updates per mode: Amazon keeps everything; FixedBeta retains a (1−β)
    fraction; TrustInHistory lets :func:`~evitrust.updates.history_update`
    set the retention from the consistency of the new observation with the
    history (initial history trust ⟨0.9, 0.1⟩).

    The record's ``discount`` column holds the history retention weight used
    that step (1 for Amazon, 1−β for FixedBeta, the adaptive weight for
    TrustInHistory); ``trust_state`` holds the history trust for
    TrustInHistory and the carried evidence otherwise.

    The observations never depend on β or the mode; to score many β values,
    :func:`history_errors` folds them all over one draw.
    """
    mode = HistoryMode(mode)
    keep = _keep(mode, 1.0 - config.beta)
    state = _NO_HISTORY
    records: List[TimestepRecord] = []
    for t, obs in enumerate(_history_observations(config, profile), 1):
        predicted, alpha_obs = Evidence(*state[:2]), _quality(*obs)
        state = _fold((obs,), (alpha_obs,), keep, state)[1]
        if keep is None:
            # The update's discount is the expected quality of the new trust.
            trust_state, retention = Evidence(*state[2:]), _quality(*state[2:])
        else:
            trust_state, retention = Evidence(*state[:2]), keep
        records.append(TimestepRecord(t, predicted, Evidence(*obs), expected_quality(predicted),
                                      alpha_obs, trust_state, retention))
    return records


def history_errors(
    config: ExperimentConfig,
    profile: BehaviorProfile,
    mode: HistoryMode,
    betas: Sequence[float],
) -> List[float]:
    """Prediction error of the history experiment at each β, from one draw.

    Equal, float for float, to ``[prediction_error(run_history_experiment(
    replace(config, beta=b), profile, mode)) for b in betas]``, but the
    observations are drawn once, and neither records nor the certainty of
    each prediction are built.  Amazon and TrustInHistory do not depend on β
    and are folded once.  A stream that the last call already folded at the
    same retentions is not folded again: Periodic, Damping and Probability(0
    or 1) draw the same stream at every seed, so a sweep over seeds folds it
    once.  The last stream and its errors stay held after the call returns,
    about 110 bytes per step, until a call with another stream replaces
    them.
    """
    mode = HistoryMode(mode)
    for b in betas:
        if not (0.0 <= b <= 1.0):
            raise ValueError(f"beta must be in [0, 1], got {b}")
    observed = tuple(_history_observations(config, profile))
    if mode is HistoryMode.FIXED_BETA:
        return list(_grid_errors(observed, tuple(1.0 - b for b in betas), _NO_HISTORY))
    keep = _keep(mode, 1.0 - config.beta)
    return list(_grid_errors(observed, (keep,), _NO_HISTORY)) * len(betas)


@functools.lru_cache(maxsize=1)
def _grid_errors(
    observed: Tuple[Tuple[float, float], ...], keeps: Tuple[Optional[float], ...],
    start: Tuple[float, float, float, float],
) -> Tuple[float, ...]:
    """The prediction error of a history fold over ``observed`` from the
    state ``start`` at each retention in ``keeps``: the history experiment's
    and the feedback predictors' one grid fold.

    The one cache entry holds the last stream after the call returns, about
    110 bytes per step: some 110 MB at the CLI's largest ``--timesteps``
    (10⁶).  ``_grid_errors.cache_clear()`` releases it.  Each call hashes
    the whole stream, and a hit compares it pair by pair.
    """
    alphas = [_quality(k, m) for k, m in observed]
    return tuple(_fold(observed, alphas, keep, start)[0] / len(observed) for keep in keeps)
