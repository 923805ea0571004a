import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from evitrust import simulation
from evitrust.core import MAX_EVIDENCE_TOTAL, Evidence, certainty, expected_quality, to_belief
from evitrust.propagation import ReferralPath, combine_referrals
from evitrust.simulation import (
    CSV_HEADER,
    Damping,
    ExperimentConfig,
    GoodThenCorrupted,
    HistoryMode,
    Honest,
    Momentum,
    Periodic,
    Probability,
    Random,
    RandomWalk,
    Rumor,
    TimestepRecord,
    Truthful,
    behavior_sequence,
    history_errors,
    make_report,
    prediction_error,
    records_table,
    run_combination_experiment,
    run_history_experiment,
    run_referrer_experiment,
)
from evitrust.simulation import _transactions
from evitrust.updates import UpdateConfig, UpdateMethod, update_referrer


def rng(seed=0):
    return np.random.default_rng(seed)


def _per_step_sequence(profile, g, timesteps):
    """The per-step rule that behavior_sequence replaced, kept as its
    reference: one draw per X_t, each X_t from the two before it."""
    def value(t, prev, prev2):
        if isinstance(profile, Probability):
            return 1.0 if g.random() < profile.p else 0.0
        if isinstance(profile, Periodic):
            return 1.0 if (t // 2) % 2 == 1 else 0.0
        if isinstance(profile, Damping):
            return 1.0 if t <= profile.horizon / 2.0 else 0.0
        if isinstance(profile, Random):
            return float(g.random())
        if isinstance(profile, RandomWalk):
            return min(max(prev + profile.gamma * g.uniform(-1.0, 1.0), 0.0), 1.0)
        step = profile.gamma * g.uniform(-1.0, 1.0) + profile.psi * (prev - prev2)
        return min(max(prev + step, 0.0), 1.0)

    prev = prev2 = float(g.random()) if isinstance(profile, (RandomWalk, Momentum)) else 0.5
    values = []
    for t in range(1, timesteps + 1):
        x = prev if t == 1 and isinstance(profile, Momentum) else value(t, prev, prev2)
        values.append(x)
        prev2, prev = prev, x
    return values


_EVERY_PROFILE = [
    Probability(0.9), Probability(0.3), Probability(0.0), Probability(1.0), Periodic(),
    Damping(40), Damping(1), Random(), RandomWalk(0.2), RandomWalk(0.0), RandomWalk(1.0),
    Momentum(0.1, 0.5), Momentum(0.0, 0.5), Momentum(1.0, 1.0),
]


class TestBehaviorSequence:
    @pytest.mark.parametrize("profile", _EVERY_PROFILE, ids=repr)
    def test_matches_the_per_step_rule(self, profile):
        """Each stream drawn in one call gives the per-step values, bit for
        bit, and leaves the generator where the per-step draws leave it."""
        for seed in range(6):
            for timesteps in range(101):
                bulk, per_step = rng(seed), rng(seed)
                got = behavior_sequence(profile, bulk, timesteps)
                want = _per_step_sequence(profile, per_step, timesteps)
                assert [x.hex() for x in got] == [x.hex() for x in want]
                assert bulk.bit_generator.state == per_step.bit_generator.state

    def test_periodic_exact_period_four(self):
        xs = behavior_sequence(Periodic(), rng(), 41)
        for t in range(37):
            assert xs[t] == xs[t + 4]
        assert xs[:4] == [0.0, 1.0, 1.0, 0.0]

    def test_damping_boundary(self):
        xs = behavior_sequence(Damping(horizon=100), rng(), 60)
        assert (xs[49], xs[50]) == (1.0, 0.0)

    def test_probability_degenerate(self):
        assert behavior_sequence(Probability(1.0), rng(), 50) == [1.0] * 50
        assert behavior_sequence(Probability(0.0), rng(), 50) == [0.0] * 50

    def test_random_walk_zero_gamma_is_constant(self):
        # zero noise: the walk holds its hidden X_0, the generator's first draw
        assert behavior_sequence(RandomWalk(gamma=0.0), rng(1), 50) == [rng(1).random()] * 50

    @pytest.mark.parametrize("profile", [RandomWalk(1.0), Momentum(gamma=1.0, psi=1.0)])
    def test_walk_and_momentum_stay_clamped(self, profile):
        xs = behavior_sequence(profile, rng(7), 500)
        assert all(0.0 <= x <= 1.0 for x in xs)
        assert 0.0 in xs and 1.0 in xs

    def test_momentum_sequence_starts_flat(self):
        xs = behavior_sequence(Momentum(gamma=0.0, psi=0.5), rng(3), 5)
        # zero noise and equal lookbacks: momentum never moves
        assert all(x == xs[0] for x in xs)

    def test_rejects_bad_profile_params(self):
        with pytest.raises(ValueError):
            Probability(1.5)
        with pytest.raises(ValueError):
            RandomWalk(-0.1)
        with pytest.raises(ValueError):
            Damping(0)


class TestSampleTransactions:
    """`_transactions`, the one transaction draw of the drivers."""

    def test_sure_success(self):
        assert _transactions([1.0], 50, rng()) == [(50.0, 0.0)]

    def test_sure_failure(self):
        assert _transactions([0.0], 50, rng()) == [(0.0, 50.0)]

    def test_binomial_mean(self):
        ks = [k for k, _ in _transactions([0.5] * 10_000, 50, rng(99))]
        assert 24.0 <= float(np.mean(ks)) <= 26.0

    def test_total_always_n(self):
        assert all(k + m == 50.0 for k, m in _transactions([0.37] * 50, 50, rng(5)))

    @pytest.mark.parametrize("n", [7, 50, 1000, 10**5])
    def test_one_binomial_call_matches_per_step_draws(self, n):
        """The drivers draw a stream's counts in one call; that must give the
        counts of one draw per step and leave the stream where they leave it.
        n·p runs from 0 to 10⁵, so both of numpy's branches (inversion and
        BTPE) are drawn, and p changes at every step."""
        ps = [0.0, 0.01, 0.3, 0.5, 0.9, 0.99, 1.0]
        xs = [p for a in ps for b in ps for p in (a, b)]
        scalar, per_step, batched = rng(n), rng(n), rng(n)
        ks = [int(scalar.binomial(n, x)) for x in xs]
        assert [_transactions((x,), n, per_step)[0] for x in xs] == [
            (float(k), float(n - k)) for k in ks]
        assert _transactions(xs, n, batched) == [(float(k), float(n - k)) for k in ks]
        assert batched.bit_generator.state == scalar.bit_generator.state
        assert per_step.bit_generator.state == scalar.bit_generator.state

    def test_zero_transactions_rejected(self):
        with pytest.raises(ValueError, match="tx_per_step must be >= 1, got 0"):
            ExperimentConfig(tx_per_step=0)

    @pytest.mark.parametrize("tx,timesteps", [(10**9, 2), (10**7 + 1, 100), (2**63, 1)])
    def test_run_evidence_past_the_bound_rejected(self, tx, timesteps):
        # A run carries up to tx_per_step × timesteps evidence: all of it in
        # Amazon mode.
        with pytest.raises(ValueError, match=re.escape(
                f"tx_per_step × timesteps must be at most 1e+09, got {tx} × {timesteps}")):
            ExperimentConfig(tx_per_step=tx, timesteps=timesteps)

    @pytest.mark.parametrize("tx,timesteps", [(10**9, 1), (10**7, 100), (1000, 10**6)])
    def test_run_evidence_at_the_bound_accepted(self, tx, timesteps):
        cfg = ExperimentConfig(tx_per_step=tx, timesteps=timesteps)
        assert cfg.tx_per_step * cfg.timesteps == MAX_EVIDENCE_TOTAL


class TestMakeReport:
    def test_truthful_and_honest_pass_through(self):
        e = Evidence(4, 1)
        assert make_report(Truthful(), e, 10) == e
        assert make_report(Honest(), e, 99) == e

    def test_rumor_exaggerates_after_switch(self):
        out = make_report(Rumor(50, 10.0), Evidence(4, 1), 60)
        assert (out.r, out.s) == (40.0, 10.0)

    def test_rumor_honest_before_switch(self):
        out = make_report(Rumor(50, 10.0), Evidence(4, 1), 10)
        assert (out.r, out.s) == (4.0, 1.0)

    @pytest.mark.parametrize("exaggeration", [0.5, math.inf, math.nan])
    def test_rumor_rejects_exaggeration_outside_one_to_inf(self, exaggeration):
        with pytest.raises(ValueError, match="exaggeration"):
            Rumor(5, exaggeration)

    def test_corrupted_inverts_after_switch(self):
        out = make_report(GoodThenCorrupted(50), Evidence(9, 1), 60)
        assert (out.r, out.s) == (1.0, 9.0)
        before = make_report(GoodThenCorrupted(50), Evidence(9, 1), 50)
        assert (before.r, before.s) == (9.0, 1.0)


class TestPredictionError:
    def rec(self, ap, ao):
        e = Evidence(1, 1)
        return TimestepRecord(1, e, e, ap, ao, e)

    def test_zero_for_perfect_predictions(self):
        series = [self.rec(0.4, 0.4), self.rec(0.9, 0.9)]
        assert prediction_error(series) == 0.0

    def test_constant_offset(self):
        series = [self.rec(0.5, 0.6)] * 7
        assert prediction_error(series) == pytest.approx(0.1)

    def test_mean_of_gaps(self):
        series = [self.rec(0.5, 0.7), self.rec(0.5, 0.9)]
        assert prediction_error(series) == pytest.approx(0.3)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            prediction_error([])


class TestSerialization:
    def make_records(self):
        cfg = ExperimentConfig(timesteps=4, seed=11)
        return run_history_experiment(cfg, Probability(0.9), HistoryMode.TRUST_IN_HISTORY)

    def test_csv_header_and_shape(self):
        text = records_table(self.make_records(), "csv")
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        assert all(len(line.split(",")) == 11 for line in lines)

    def test_json_mirrors_csv_fields(self):
        records = self.make_records()
        rows = json.loads(records_table(records, "json"))
        assert len(rows) == 4
        assert list(rows[0].keys()) == CSV_HEADER.split(",")
        assert rows[0]["t"] == 1

    def test_discount_empty_when_absent(self):
        cfg = ExperimentConfig(timesteps=3, seed=1)
        records = run_referrer_experiment(cfg, Truthful())
        text = records_table(records, "csv")
        assert text.strip().split("\n")[1].endswith(",")
        rows = json.loads(records_table(records, "json"))
        assert rows[0]["discount"] is None


class TestReferrerExperiment:
    def test_truthful_builds_high_trust(self):
        cfg = ExperimentConfig(seed=3, beta=0.2)
        records = run_referrer_experiment(cfg, Truthful())
        assert expected_quality(records[-1].trust_state) > 0.8

    def test_rumor_trust_declines_after_switch(self):
        cfg = ExperimentConfig(seed=3, beta=0.2)
        records = run_referrer_experiment(cfg, Rumor(50, 10.0))
        trust_mid = expected_quality(records[49].trust_state)
        trust_end = expected_quality(records[-1].trust_state)
        assert trust_end < trust_mid

    def test_deterministic_given_seed(self):
        cfg = ExperimentConfig(seed=42, timesteps=20)
        a = run_referrer_experiment(cfg, Truthful())
        b = run_referrer_experiment(cfg, Truthful())
        assert records_table(a, "csv") == records_table(b, "csv")

    def test_seed_changes_series(self):
        a = run_referrer_experiment(ExperimentConfig(seed=1, timesteps=20), Truthful())
        b = run_referrer_experiment(ExperimentConfig(seed=2, timesteps=20), Truthful())
        assert records_table(a, "csv") != records_table(b, "csv")

    def test_observed_totals_and_alpha_consistency(self):
        cfg = ExperimentConfig(seed=8, timesteps=15)
        for rec in run_referrer_experiment(cfg, Periodic()):
            assert rec.observed.total == cfg.tx_per_step
            assert rec.alpha_obs == expected_quality(rec.observed)
            assert rec.alpha_pred == expected_quality(rec.predicted)

    def test_profile_driven_referral_strength(self):
        cfg = ExperimentConfig(seed=8, timesteps=8)
        records = run_referrer_experiment(cfg, Periodic())
        # referral evidence follows X_t at report strength tx_per_step;
        # discounting preserves its quality
        assert records[1].alpha_pred in (0.0, 1.0) or 0.0 <= records[1].alpha_pred <= 1.0


class TestSingleReferralPath:
    """An oracle for the referrer driver's prediction: a single referral path
    keeps its report's α = b′/(b′+d′), whatever the trust in the referrer.
    That is why a referrer sweep is flat in β.  The exception is a path
    whose belief and disbelief b_R·b′ and b_R·d′ are so small that its
    uncertainty rounds to 1, b_R = 0 among them: it predicts ⟨0, 0⟩, α 0.5."""

    def test_prediction_keeps_the_reports_alpha(self):
        g = rng(20261020)
        kept = lost = no_belief = 0
        for _ in range(2000):
            # b_R runs from 0 (one trust in ten) through 1e-30 to near 1.
            trust_r = 0.0 if g.random() < 0.1 else 10.0 ** g.uniform(-30.0, 3.0)
            trust = to_belief(Evidence(trust_r, 10.0 ** g.uniform(-3.0, 3.0)))
            r, s = 10.0 ** g.uniform(-3.0, 6.0, size=2)
            scale = min(1.0, MAX_EVIDENCE_TOTAL / (r + s))
            report = Evidence(r * scale, s * scale)
            predicted = combine_referrals([ReferralPath(trust, report)])
            belief = to_belief(report)
            if 1.0 - trust.b * belief.b - trust.b * belief.d < 1.0:
                kept += 1
                gap = abs(expected_quality(predicted) - expected_quality(report))
                assert gap <= math.ulp(1.0), (trust, report)
            else:
                lost += 1
                no_belief += trust.b == 0.0
                assert predicted == Evidence(0.0, 0.0), (trust, report)
        # Measured: 921 kept, 1079 lost, 220 of them with b_R = 0.
        assert kept > 500 and lost - no_belief > 500 and no_belief > 100

    @pytest.mark.parametrize("profile", [Truthful(), GoodThenCorrupted(10)])
    def test_referrer_runs_differ_in_beta_only_at_empty_predictions(self, profile):
        """The reports and observations do not depend on β, so two runs at
        different β predict the same α wherever both predictions carry
        evidence.  MaxCertainty at β = 1 empties some of them; these are the
        two seeds of 50 steps whose sweep moves at β = 1 in the README."""
        emptied = 0
        for seed in (0, 1):
            runs = [run_referrer_experiment(ExperimentConfig(
                timesteps=50, seed=seed, method=UpdateMethod.MAX_CERTAINTY, beta=beta), profile)
                for beta in (0.0, 0.7, 1.0)]
            for run in runs[1:]:
                for a, b in zip(runs[0], run):
                    if a.predicted.total and b.predicted.total:
                        assert abs(a.alpha_pred - b.alpha_pred) <= math.ulp(1.0), (seed, a.t)
                    else:
                        assert 0.5 in (a.alpha_pred, b.alpha_pred), (seed, a.t)
            emptied += sum(rec.predicted.total == 0.0 for rec in runs[-1])
        assert emptied > 0


class TestCombinationExperiment:
    def test_shapes_and_determinism(self):
        cfg = ExperimentConfig(timesteps=8, seed=5, beta=0.3)
        res1 = run_combination_experiment(cfg, switch_step=5)
        res2 = run_combination_experiment(cfg, switch_step=5)
        assert len(res1.records) == 8
        assert len(res1.good_trust) == len(res1.corrupted_trust) == 8
        assert records_table(res1.records, "csv") == records_table(res2.records, "csv")

    def test_estimate_tracks_provider_before_switch(self):
        cfg = ExperimentConfig(timesteps=30, seed=5, beta=0.3)
        res = run_combination_experiment(cfg, switch_step=50)
        tail = [r.alpha_pred for r in res.records[10:]]
        assert 0.85 <= float(np.mean(tail)) <= 0.95

    def test_corrupted_trust_collapses_after_switch(self):
        cfg = ExperimentConfig(timesteps=40, seed=5, beta=0.3)
        res = run_combination_experiment(cfg, switch_step=20)
        before = expected_quality(res.corrupted_trust[19])
        after = expected_quality(res.corrupted_trust[-1])
        assert after < 0.3 < before

    def test_records_carry_corrupted_trust(self):
        cfg = ExperimentConfig(timesteps=6, seed=5)
        res = run_combination_experiment(cfg, switch_step=3)
        for rec, tr in zip(res.records, res.corrupted_trust):
            assert rec.trust_state == tr


class TestHistoryExperiment:
    def test_amazon_equals_fixed_beta_zero(self):
        cfg = ExperimentConfig(timesteps=40, seed=9, beta=0.0)
        a = run_history_experiment(cfg, Probability(0.9), HistoryMode.AMAZON)
        b = run_history_experiment(cfg, Probability(0.9), HistoryMode.FIXED_BETA)
        assert [(r.alpha_pred, r.predicted) for r in a] == [
            (r.alpha_pred, r.predicted) for r in b
        ]

    def test_discount_column_semantics(self):
        cfg = ExperimentConfig(timesteps=5, seed=2, beta=0.4)
        amazon = run_history_experiment(cfg, Probability(0.9), HistoryMode.AMAZON)
        fixed = run_history_experiment(cfg, Probability(0.9), HistoryMode.FIXED_BETA)
        tih = run_history_experiment(cfg, Probability(0.9), HistoryMode.TRUST_IN_HISTORY)
        assert all(r.discount == 1.0 for r in amazon)
        assert all(r.discount == pytest.approx(0.6) for r in fixed)
        assert all(0.0 <= r.discount <= 1.0 for r in tih)
        assert tih[0].discount == pytest.approx(0.9)  # initial history trust

    def test_first_prediction_is_uninformed(self):
        cfg = ExperimentConfig(timesteps=3, seed=2)
        recs = run_history_experiment(cfg, Probability(0.9), HistoryMode.TRUST_IN_HISTORY)
        assert recs[0].alpha_pred == 0.5
        assert recs[0].certainty_pred == 0.0

    def test_fixed_beta_carried_recursion(self):
        cfg = ExperimentConfig(timesteps=4, seed=13, beta=0.25)
        recs = run_history_experiment(cfg, Probability(0.9), HistoryMode.FIXED_BETA)
        carried = Evidence(0.0, 0.0)
        for rec in recs:
            assert rec.predicted == carried
            carried = Evidence(
                0.75 * carried.r + rec.observed.r, 0.75 * carried.s + rec.observed.s
            )

    def test_trust_in_history_tracks_probability_provider(self):
        cfg = ExperimentConfig(seed=4)
        recs = run_history_experiment(cfg, Probability(0.9), HistoryMode.TRUST_IN_HISTORY)
        assert prediction_error(recs) < 0.25

    def test_damping_uses_its_own_horizon(self):
        cfg = ExperimentConfig(timesteps=20, seed=6)
        recs = run_history_experiment(cfg, Damping(horizon=20), HistoryMode.AMAZON)
        assert [r.alpha_obs for r in recs[:10]] == [1.0] * 10
        assert [r.alpha_obs for r in recs[11:]] == [0.0] * 9

    def test_all_profiles_run(self):
        cfg = ExperimentConfig(timesteps=12, seed=1)
        for profile in (Probability(0.9), Periodic(), Damping(12), Random(),
                        RandomWalk(0.1), Momentum(0.1, 0.5)):
            recs = run_history_experiment(cfg, profile, HistoryMode.TRUST_IN_HISTORY)
            assert len(recs) == 12
            assert all(r.observed.total == 50 for r in recs)


class TestHistoryErrors:
    """The one-draw β grid against one full run per β."""

    BETAS = [round(0.05 * k, 10) for k in range(21)] + [0.123, 1.0, 0.0]

    @pytest.mark.parametrize("seed", [0, 13])
    @pytest.mark.parametrize("mode", list(HistoryMode))
    @pytest.mark.parametrize(
        "profile", [Probability(0.9), Periodic(), Random(), Damping(horizon=16)]
    )
    def test_equals_one_run_per_beta(self, seed, mode, profile):
        cfg = ExperimentConfig(timesteps=30, tx_per_step=20, seed=seed)
        expected = [
            prediction_error(run_history_experiment(replace(cfg, beta=b), profile, mode))
            for b in self.BETAS
        ]
        assert history_errors(cfg, profile, mode, self.BETAS) == expected

    def test_seeds_draw_apart(self):
        cfg = ExperimentConfig(timesteps=30, seed=0)
        a = history_errors(cfg, Random(), HistoryMode.FIXED_BETA, [0.3])
        b = history_errors(replace(cfg, seed=13), Random(), HistoryMode.FIXED_BETA, [0.3])
        assert a != b

    def test_out_of_range_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            history_errors(ExperimentConfig(), Periodic(), HistoryMode.AMAZON, [0.5, 1.5])

    @pytest.mark.parametrize("mode", list(HistoryMode))
    def test_memo_equals_one_run_per_beta(self, mode):
        """The last stream's errors are kept: by profile then seed the
        deterministic profiles hit the memo, by seed then profile every call
        misses it, and every call equals one run per β."""
        profiles = [Periodic(), Damping(40), Probability(1.0), Probability(0.9), Random()]
        seeds = range(6)
        calls = [(p, s) for p in profiles for s in seeds] + [(p, s) for s in seeds for p in profiles]
        simulation._grid_errors.cache_clear()
        for profile, seed in calls:
            cfg = ExperimentConfig(timesteps=30, tx_per_step=20, seed=seed)
            expected = [
                prediction_error(run_history_experiment(replace(cfg, beta=b), profile, mode))
                for b in self.BETAS
            ]
            assert history_errors(cfg, profile, mode, self.BETAS) == expected
        info = simulation._grid_errors.cache_info()
        assert info.hits == 3 * 5 and info.misses == len(calls) - info.hits

    @pytest.mark.parametrize("tx", [7, 50, 1000, 10**5, 10**9 // 60])
    @pytest.mark.parametrize("profile", [Periodic(), Damping(40), Probability(0.0),
                                         Probability(1.0)], ids=repr)
    def test_deterministic_profiles_draw_one_stream_at_every_seed(self, profile, tx):
        """X_t is 0 or 1, and numpy's binomial(n, 0) and binomial(n, 1) are 0
        and n in both of its branches, so every seed observes the same stream.
        If numpy stops doing so, history_errors stays right but folds every
        seed."""
        cfg = ExperimentConfig(timesteps=60, tx_per_step=tx)
        streams = {tuple(simulation._history_observations(replace(cfg, seed=s), profile))
                   for s in range(6)}
        assert len(streams) == 1, f"numpy {np.__version__} draws {profile!r} apart by seed"


class TestCertaintyPred:
    def test_derived_from_prediction_in_every_driver(self):
        cfg = ExperimentConfig(timesteps=6, seed=4)
        runs = [
            run_referrer_experiment(cfg, Truthful()),
            run_combination_experiment(cfg, switch_step=3).records,
            run_history_experiment(cfg, Periodic(), HistoryMode.TRUST_IN_HISTORY),
        ]
        for records in runs:
            for rec in records:
                assert rec.certainty_pred == certainty(rec.predicted)

    def test_read_only(self):
        rec = run_history_experiment(ExperimentConfig(timesteps=2), Periodic(),
                                     HistoryMode.AMAZON)[0]
        with pytest.raises(AttributeError):
            rec.certainty_pred = 0.5


def _spy_reports(monkeypatch):
    """Record the reports each referrer experiment hands its loop."""
    seen = []
    track = simulation._track_referrers

    def spy(config, reports, rng_client):
        seen.append(reports)
        return track(config, reports, rng_client)

    monkeypatch.setattr(simulation, "_track_referrers", spy)
    return seen


def _replay(config, observed, reports):
    """Each referrer's trust after each step, through update_referrer (and
    its checks) from the prior ⟨1, 1⟩."""
    ucfg = UpdateConfig(config.method, config.beta)
    trusts = [Evidence(1.0, 1.0)] * len(reports[0])
    steps = []
    for obs, step in zip(observed, reports):
        trusts = [update_referrer(ucfg, obs, report, trust) for trust, report in zip(trusts, step)]
        steps.append(trusts)
    return steps


class TestReferrerLoopIsUpdateReferrer:
    @pytest.mark.parametrize("profile", [Truthful(), Rumor(10, 5.0), GoodThenCorrupted(15),
                                         RandomWalk(0.2)])
    @pytest.mark.parametrize("method", list(UpdateMethod))
    def test_referrer_experiment(self, monkeypatch, method, profile):
        seen = _spy_reports(monkeypatch)
        cfg = ExperimentConfig(timesteps=30, seed=4, method=method)
        records = run_referrer_experiment(cfg, profile)
        steps = _replay(cfg, [rec.observed for rec in records], seen[0])
        assert [rec.trust_state for rec in records] == [trusts[0] for trusts in steps]

    @pytest.mark.parametrize("method", list(UpdateMethod))
    def test_combination_experiment(self, monkeypatch, method):
        seen = _spy_reports(monkeypatch)
        cfg = ExperimentConfig(timesteps=30, seed=4, method=method, beta=0.1)
        res = run_combination_experiment(cfg, switch_step=15)
        steps = _replay(cfg, [rec.observed for rec in res.records], seen[0])
        assert [[good, bad] for good, bad in zip(res.good_trust, res.corrupted_trust)] == steps


@pytest.mark.parametrize("check,error,match", [
    (lambda: behavior_sequence(Periodic(), rng(), -1), ValueError, "timesteps must be >= 0"),
    (lambda: behavior_sequence(RandomWalk(), rng(), -1), ValueError, "timesteps must be >= 0"),
    (lambda: behavior_sequence(object(), rng(), 1), TypeError, "unknown behavior profile"),
    (lambda: behavior_sequence(object(), rng(), 0), TypeError, "unknown behavior profile"),
    (lambda: make_report(object(), Evidence(1, 1), 1), TypeError, "unknown referrer profile"),
    (lambda: ExperimentConfig(timesteps=0), ValueError, "timesteps must be"),
    (lambda: ExperimentConfig(beta=1.5), ValueError, "beta must be in"),
    (lambda: ExperimentConfig(seed=-1), ValueError, "seed must fit"),
])
def test_input_checks_raise(check, error, match):
    with pytest.raises(error, match=match):
        check()
