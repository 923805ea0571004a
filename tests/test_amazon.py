import pytest

from evitrust.core import Evidence, expected_quality
from evitrust.updates import HistoryState, history_update
from evitrust.amazon import (
    AmazonConfig,
    FeedbackRecord,
    load_feedback_csv,
    normalize_rating,
    parse_feedback_csv,
    predict_feedback,
    run_amazon_experiment,
    synthesize_feedback,
)
from evitrust.amazon import _feedback_evidence
from evitrust.errors import FeedbackFormatError
from evitrust.cli import _PREDICTORS
from evitrust import simulation
from evitrust.simulation import (
    ExperimentConfig,
    HistoryMode,
    Momentum,
    Periodic,
    Probability,
    Random,
    RandomWalk,
    _streams,
    behavior_sequence,
    history_errors,
)


def rating_to_evidence(rating):
    """A rating as ten transactions at its normalized value: ⟨10v, 10(1−v)⟩."""
    return Evidence(*_feedback_evidence(normalize_rating(rating)))


class TestRatingToEvidence:
    def test_five_is_all_positive(self):
        e = rating_to_evidence(5)
        assert (e.r, e.s) == (10.0, 0.0)

    def test_two_is_quarter(self):
        e = rating_to_evidence(2)
        assert (e.r, e.s) == (2.5, 7.5)

    def test_one_is_all_negative(self):
        e = rating_to_evidence(1)
        assert (e.r, e.s) == (0.0, 10.0)

    @pytest.mark.parametrize("bad", [0, 6, -1, 100])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            rating_to_evidence(bad)

    def test_total_conservation_over_a_file(self):
        records = synthesize_feedback(sellers=3, feedbacks_per_seller=20, seed=5)
        total = sum(rating_to_evidence(r.rating).total for r in records)
        assert total == pytest.approx(10.0 * len(records))


class TestParseFeedbackCsv:
    def test_basic_rows(self):
        recs = parse_feedback_csv("seller_id,t,rating\ns1,1,3\ns1,2,1\n")
        assert recs == [FeedbackRecord("s1", 1, 3), FeedbackRecord("s1", 2, 1)]

    def test_header_only_is_empty(self):
        assert parse_feedback_csv("seller_id,t,rating\n") == []

    def test_rating_out_of_range_names_line(self):
        with pytest.raises(FeedbackFormatError) as exc:
            parse_feedback_csv("seller_id,t,rating\ns1,1,3\ns1,2,6\n")
        assert exc.value.line == 3
        assert "rating" in str(exc.value)

    def test_non_monotone_t_per_seller(self):
        text = "seller_id,t,rating\ns1,5,3\ns2,1,4\ns1,5,2\n"
        with pytest.raises(FeedbackFormatError) as exc:
            parse_feedback_csv(text)
        assert exc.value.line == 4

    def test_interleaved_sellers_allowed(self):
        text = "seller_id,t,rating\ns1,1,3\ns2,1,4\ns1,2,2\ns2,2,5\n"
        assert len(parse_feedback_csv(text)) == 4

    def test_bad_header(self):
        with pytest.raises(FeedbackFormatError):
            parse_feedback_csv("seller,when,stars\ns1,1,3\n")

    def test_non_integer_fields(self):
        with pytest.raises(FeedbackFormatError) as exc:
            parse_feedback_csv("seller_id,t,rating\ns1,x,3\n")
        assert exc.value.line == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(FeedbackFormatError):
            load_feedback_csv(str(tmp_path / "nope.csv"))

    def test_load_roundtrip(self, tmp_path):
        p = tmp_path / "fb.csv"
        p.write_text("seller_id,t,rating\na,1,5\na,2,4\n", encoding="utf-8")
        recs = load_feedback_csv(str(p))
        assert [r.rating for r in recs] == [5, 4]


class TestPredictFeedback:
    HISTORY = [normalize_rating(r) for r in (3, 1, 2, 4)]

    def test_unweighted_mean(self):
        pred = predict_feedback(self.HISTORY, AmazonConfig(mode=HistoryMode.AMAZON))
        assert 1 + 4 * pred == pytest.approx(2.50)

    def test_geometric_oldest_gets_highest_power(self):
        pred = predict_feedback(
            self.HISTORY, AmazonConfig(mode=HistoryMode.FIXED_BETA, lambda_=0.9)
        )
        assert 1 + 4 * pred == pytest.approx(2.56, abs=0.005)

    def test_single_feedback_any_mode(self):
        for mode in (HistoryMode.AMAZON, HistoryMode.FIXED_BETA, HistoryMode.TRUST_IN_HISTORY):
            pred = predict_feedback([1.0], AmazonConfig(mode=mode, lambda_=0.7))
            assert 1 + 4 * pred == pytest.approx(5.0, abs=1e-9)

    def test_geometric_lambda_zero_keeps_newest(self):
        pred = predict_feedback(self.HISTORY,
                                AmazonConfig(mode=HistoryMode.FIXED_BETA, lambda_=0.0))
        assert pred == pytest.approx(self.HISTORY[-1])

    def test_mean_modes_need_history(self):
        with pytest.raises(ValueError):
            predict_feedback([], AmazonConfig(mode=HistoryMode.AMAZON))

    def test_trust_in_history_empty_history_is_half(self):
        pred = predict_feedback([], AmazonConfig(mode=HistoryMode.TRUST_IN_HISTORY))
        assert pred == 0.5

    @pytest.mark.parametrize("mode", list(HistoryMode), ids=_PREDICTORS.get)
    @pytest.mark.parametrize("bad", [1.5, -0.25, float("nan"), float("inf")])
    def test_feedback_outside_unit_interval_is_value_error(self, mode, bad):
        with pytest.raises(ValueError):
            predict_feedback([0.5, bad, 0.75], AmazonConfig(mode=mode))


class TestRunAmazonExperiment:
    def seller(self, ratings, seller="s1"):
        return [FeedbackRecord(seller, t, r) for t, r in enumerate(ratings, start=1)]

    def test_constant_seller_has_zero_error(self):
        records = self.seller([4, 4, 4, 4, 4])
        configs = [
            AmazonConfig(mode=HistoryMode.AMAZON),
            AmazonConfig(mode=HistoryMode.FIXED_BETA, lambda_=0.5),
            AmazonConfig(mode=HistoryMode.TRUST_IN_HISTORY),
        ]
        for row in run_amazon_experiment(records, configs):
            assert row.error == pytest.approx(0.0, abs=1e-9)

    def test_worked_example_mean_error(self):
        # ratings 3,1,2,4,3: unweighted gaps are 0.5, 0, 0.5, 0.125 normalized
        records = self.seller([3, 1, 2, 4, 3])
        rows = run_amazon_experiment(records, [AmazonConfig(mode=HistoryMode.AMAZON)])
        assert rows[0].error == pytest.approx((0.5 + 0.0 + 0.5 + 0.125) / 4)
        assert rows[0].error_scale5 == pytest.approx(4 * rows[0].error)

    def test_final_step_error_is_half_on_five_scale(self):
        # the 5th feedback (3) predicted from 3,1,2,4: error 0.50 on 1-5
        records = self.seller([3, 1, 2, 4, 3])
        four = run_amazon_experiment(
            self.seller([3, 1, 2, 4]), [AmazonConfig(mode=HistoryMode.AMAZON)]
        )[0].error
        five = run_amazon_experiment(records, [AmazonConfig(mode=HistoryMode.AMAZON)])[0].error
        # mean over 4 gaps minus mean over 3 gaps isolates the last gap
        last_gap = 4 * five - 3 * four
        assert 4 * last_gap == pytest.approx(0.50)

    def test_short_sellers_skipped(self):
        records = self.seller([5], seller="tiny") + self.seller([4, 4, 4], seller="ok")
        rows = run_amazon_experiment(records, [AmazonConfig(mode=HistoryMode.AMAZON)])
        assert [r.seller_id for r in rows] == ["ok"]

    def test_row_order_and_lambda_column(self):
        records = self.seller([3, 4, 5]) + self.seller([2, 2, 2], seller="s2")
        configs = [
            AmazonConfig(mode=HistoryMode.AMAZON),
            AmazonConfig(mode=HistoryMode.FIXED_BETA, lambda_=0.9),
        ]
        rows = run_amazon_experiment(records, configs)
        assert [(r.seller_id, r.mode) for r in rows] == [
            ("s1", HistoryMode.AMAZON),
            ("s1", HistoryMode.FIXED_BETA),
            ("s2", HistoryMode.AMAZON),
            ("s2", HistoryMode.FIXED_BETA),
        ]
        assert rows[0].lambda_ is None
        assert rows[1].lambda_ == 0.9


def _replay_mean(history, config):
    """Recompute a mean prediction from the whole history: O(n) per step."""
    if config.mode is HistoryMode.AMAZON:
        return sum(history) / len(history)
    n = len(history)
    weights = [config.lambda_ ** (n - 1 - i) for i in range(n)]  # 0.0 ** 0 == 1.0
    return sum(v * w for v, w in zip(history, weights)) / sum(weights)


def _replay_experiment(records, configs):
    """The quadratic reference pipeline: every mean prediction is recomputed
    from ``values[:i]``; TrustInHistory folds ``history_update`` directly."""
    by_seller = {}
    for rec in records:
        by_seller.setdefault(rec.seller_id, []).append(rec.rating)
    rows = []
    for seller, ratings in by_seller.items():
        values = [normalize_rating(r) for r in ratings]
        for config in configs:
            state = HistoryState()
            total = 0.0  # summed left to right, as the experiment does
            for i, rating in enumerate(ratings):
                if i > 0:
                    if config.mode is HistoryMode.TRUST_IN_HISTORY:
                        pred = expected_quality(state.carried)
                    else:
                        pred = _replay_mean(values[:i], config)
                    total += abs(pred - values[i])
                if config.mode is HistoryMode.TRUST_IN_HISTORY:
                    state = history_update(state, rating_to_evidence(rating))
            rows.append((seller, config.mode, total / (len(values) - 1)))
    return rows


ORACLE_CONFIGS = (
    [AmazonConfig(mode=HistoryMode.AMAZON)]
    + [AmazonConfig(mode=HistoryMode.FIXED_BETA, lambda_=lam)
       for lam in (0.0, 0.05, 0.5, 0.95, 1.0)]
    + [AmazonConfig(mode=HistoryMode.TRUST_IN_HISTORY)]
)


class TestStreamingMatchesReplay:
    @pytest.mark.parametrize("seed", [0, 13])
    def test_experiment_matches_replay_oracle(self, seed):
        records = synthesize_feedback(3, 300, seed=seed)
        got = run_amazon_experiment(records, ORACLE_CONFIGS)
        want = _replay_experiment(records, ORACLE_CONFIGS)
        assert [(r.seller_id, r.mode) for r in got] == [w[:2] for w in want]
        for row, (_, mode, error) in zip(got, want):
            if mode is HistoryMode.FIXED_BETA:
                assert row.error == pytest.approx(error, rel=1e-14, abs=0)
            else:
                assert row.error == error

    @pytest.mark.parametrize("config", ORACLE_CONFIGS,
                             ids=lambda c: f"{_PREDICTORS[c.mode]}-{c.lambda_}")
    def test_predict_feedback_equals_experiment_prediction(self, config):
        # A final rating of 1 (normalized 0) makes the last gap equal the
        # prediction, so the experiment's prediction at step i is
        # i·error(first i+1) − (i−1)·error(first i).
        ratings = [r.rating for r in synthesize_feedback(1, 60, seed=4)]

        def seller_error(rs):
            records = [FeedbackRecord("s", t, r) for t, r in enumerate(rs, start=1)]
            return run_amazon_experiment(records, [config])[0].error

        for i in (1, 2, 7, 59):
            history = ratings[:i]
            pred = i * seller_error(history + [1])
            if i > 1:
                pred -= (i - 1) * seller_error(history)
            values = [normalize_rating(r) for r in history]
            assert predict_feedback(values, config) == pytest.approx(pred, rel=0, abs=1e-12)
            if config.mode is not HistoryMode.TRUST_IN_HISTORY:
                assert predict_feedback(values, config) == pytest.approx(
                    _replay_mean(values, config), rel=0, abs=1e-12
                )


class TestSharedGridFold:
    @pytest.mark.parametrize("mode", list(HistoryMode), ids=_PREDICTORS.get)
    def test_memo_key_holds_the_start_state(self, mode):
        """The feedback predictors and the history experiment share one
        memoized grid fold: a seller's folds start from its first feedback,
        a history run's from nothing.  On one evidence stream, in either
        order, each gives the errors of a call made with the memo cleared."""
        cfg = ExperimentConfig(timesteps=12, tx_per_step=10, beta=0.25)
        observed = simulation._history_observations(cfg, Periodic())
        # Ten transactions at X_t = 0 or 1 observe ⟨0, 10⟩ or ⟨10, 0⟩: a 1 or a 5.
        ratings = [5] + [5 if k else 1 for k, _ in observed]
        assert [rating_to_evidence(r) for r in ratings[1:]] == [Evidence(*o) for o in observed]
        records = [FeedbackRecord("s", t, rating) for t, rating in enumerate(ratings, start=1)]
        configs = [AmazonConfig(mode, lambda_=1.0 - cfg.beta)]

        def history():
            return history_errors(cfg, Periodic(), mode, [cfg.beta])

        def feedback():
            return [row.error for row in run_amazon_experiment(records, configs)]

        want = {}
        for run in (history, feedback):
            simulation._grid_errors.cache_clear()
            want[run] = run()
        assert want[history] != want[feedback]
        for order in ((history, feedback), (feedback, history)):
            simulation._grid_errors.cache_clear()
            for run in order:
                assert run() == want[run]


class TestSynthesizeFeedback:
    def test_deterministic(self):
        a = synthesize_feedback(sellers=2, feedbacks_per_seller=10, seed=3)
        b = synthesize_feedback(sellers=2, feedbacks_per_seller=10, seed=3)
        assert a == b

    def test_shape(self):
        recs = synthesize_feedback(sellers=3, feedbacks_per_seller=7, seed=1)
        assert len(recs) == 21
        assert len({r.seller_id for r in recs}) == 3
        assert all(1 <= r.rating <= 5 for r in recs)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("profile", [
        Probability(0.9), Probability(0.3), Random(), RandomWalk(0.2), Momentum(0.1, 0.5),
        Periodic(),
    ], ids=repr)
    def test_one_binomial_call_matches_per_feedback_draws(self, seed, profile):
        """A seller's ratings come from one binomial call: the ratings of one
        draw per feedback, after the seller's behavior values."""
        want = []
        for idx, rng in enumerate(_streams(seed, 3)):
            xs = behavior_sequence(profile, rng, 200)
            want += [FeedbackRecord(f"seller{idx + 1:02d}", t, 1 + int(rng.binomial(4, x)))
                     for t, x in enumerate(xs, start=1)]
        assert synthesize_feedback(3, 200, seed=seed, profile=profile) == want

    def test_no_feedbacks(self):
        assert synthesize_feedback(sellers=2, feedbacks_per_seller=0) == []
        assert synthesize_feedback(sellers=0, feedbacks_per_seller=5) == []

    @pytest.mark.parametrize("kwargs,match", [
        ({"sellers": -1}, "sellers must be >= 0, got -1"),
        ({"feedbacks_per_seller": -1}, "feedbacks_per_seller must be >= 0, got -1"),
    ])
    def test_negative_counts_name_the_argument(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            synthesize_feedback(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_unsigned_bits_is_refused(self, seed):
        with pytest.raises(ValueError, match=f"seed must fit in 64 unsigned bits, got {seed}$"):
            synthesize_feedback(sellers=1, feedbacks_per_seller=1, seed=seed)

    def test_largest_seed_runs(self):
        assert len(synthesize_feedback(sellers=2, feedbacks_per_seller=3, seed=2**64 - 1)) == 6


_HEADER = "seller_id,t,rating\n"


@pytest.mark.parametrize("check,error,match", [
    (lambda: FeedbackRecord("s1", 1, 6), ValueError, "rating must be an integer in 1..5"),
    (lambda: AmazonConfig(lambda_=1.5), ValueError, "lambda_ must be in"),
    (lambda: parse_feedback_csv(""), FeedbackFormatError, "empty file"),
    (lambda: parse_feedback_csv(_HEADER + "s1,1\n"), FeedbackFormatError, "expected 3 fields"),
    (lambda: parse_feedback_csv(_HEADER + " ,1,3\n"), FeedbackFormatError, "empty seller_id"),
    (lambda: parse_feedback_csv(_HEADER + "s1,1,x\n"), FeedbackFormatError,
     "rating must be an integer"),
])
def test_input_checks_raise(check, error, match):
    with pytest.raises(error, match=match):
        check()


def test_blank_lines_are_skipped():
    text = _HEADER + "\ns1,1,3\n  \ns1,2,5\n"
    assert parse_feedback_csv(text) == [FeedbackRecord("s1", 1, 3), FeedbackRecord("s1", 2, 5)]
