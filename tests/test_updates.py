import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Tolerance, accuracy_average_integral
from evitrust.core import Evidence, certainty, expected_quality
from evitrust.propagation import aggregate
from evitrust.simulation import ExperimentConfig
from evitrust.updates import (
    HistoryState,
    UpdateConfig,
    UpdateMethod,
    accuracy_average,
    accuracy_linear,
    accuracy_max_certainty,
    accuracy_sensitivity,
    general_update,
    history_update,
    update_referrer,
)
from evitrust.updates import _peak_ratio


class TestGeneralUpdate:
    def test_full_forgetting_ignores_prior(self):
        out = general_update(0.7, 1.0, 0.5, Evidence(100, 100))
        assert out.r == pytest.approx(0.35)
        assert out.s == pytest.approx(0.15)

    def test_perfect_confident_estimate_no_forgetting(self):
        out = general_update(1.0, 0.0, 1.0, Evidence(4, 2))
        assert out.r == pytest.approx(5.0)
        assert out.s == pytest.approx(2.0)

    def test_zero_certainty_scales_prior_only(self):
        out = general_update(0.5, 0.25, 0.0, Evidence(8, 4))
        assert out.r == pytest.approx(6.0)
        assert out.s == pytest.approx(3.0)

    @given(
        q=st.floats(0.0, 1.0),
        beta=st.floats(0.0, 1.0),
        c=st.floats(0.0, 1.0),
        r=st.floats(0.0, 100.0),
        s=st.floats(0.0, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_linear_in_prior(self, q, beta, c, r, s):
        base = general_update(q, beta, c, Evidence(0, 0))
        single = general_update(q, beta, c, Evidence(r, s))
        double = general_update(q, beta, c, Evidence(2 * r, 2 * s))
        assert double.r - base.r == pytest.approx(2 * (single.r - base.r), rel=1e-9, abs=1e-9)
        assert double.s - base.s == pytest.approx(2 * (single.s - base.s), rel=1e-9, abs=1e-9)


class TestAccuracyLinear:
    def test_exact_match(self):
        assert accuracy_linear(0.37, 0.37) == 1.0

    def test_golden_gap(self):
        assert accuracy_linear(0.50, 0.55) == pytest.approx(0.95)

    def test_maximal_error(self):
        assert accuracy_linear(0.0, 1.0) == 0.0


class TestAccuracyMaxCertainty:
    def test_small_observation_tolerant(self):
        q = accuracy_max_certainty(Evidence(1, 1), Evidence(11, 9))
        assert q == pytest.approx(0.99, abs=0.001)

    def test_large_observation_sharp(self):
        q = accuracy_max_certainty(Evidence(200, 200), Evidence(11, 9))
        assert q == pytest.approx(0.134, abs=0.001)

    def test_peak_ratio_is_one(self):
        q = accuracy_max_certainty(Evidence(8, 2), Evidence(4, 1))
        assert q == pytest.approx(1.0, abs=1e-12)

    def test_requires_observation(self):
        with pytest.raises(ValueError):
            accuracy_max_certainty(Evidence(0, 0), Evidence(1, 1))

    def test_one_sided_boundary(self):
        # observed all-positive: q = alpha'^r
        assert accuracy_max_certainty(Evidence(3, 0), Evidence(1, 1)) == pytest.approx(0.125)
        assert accuracy_max_certainty(Evidence(3, 0), Evidence(0, 1)) == 0.0


class TestPeakRatioNearOneSidedEvidence:
    """The peak ratios when r/(r+s) rounds to 0 or 1."""

    def test_far_point_scores_zero(self):
        assert accuracy_max_certainty(Evidence(1e6, 1e-11), Evidence(1, 1)) == 0.0
        assert accuracy_sensitivity(Evidence(1, 1), Evidence(1e6, 1e-11)) == 0.0
        assert accuracy_max_certainty(Evidence(1e-320, 1e6), Evidence(1, 1)) == 0.0

    def test_counts_score_their_own_peak_one(self):
        for method in (UpdateMethod.MAX_CERTAINTY, UpdateMethod.SENSITIVITY):
            out = update_referrer(UpdateConfig(method, 1.0), Evidence(1e6, 1e-11),
                                  Evidence(1e6, 1e-11), Evidence(0, 0))
            assert out.s == 0.0 and out.r == certainty(Evidence(1e6, 1e-11))

    _COUNTS = [0.0, 5e-324, 1e-300, 1e-17, 1e-11, 1e-6, 0.5, 1.0, 3.0, 1e6, 1e15, 1e300, 1.7e308]
    _POINTS = [(0.0, 1.0), (5e-324, 1.0), (1e-17, 1.0), (3.0, 7.0), (1.0, 1.0), (1.0, 2**-53),
               (1.0, 0.0)]

    def test_no_finite_evidence_gives_nan(self):
        """q lies in [0, 1] for every finite evidence and point, or, when the
        total overflows, is a ValueError; from counts too."""
        pairs = [(r, s) for r in self._COUNTS for s in self._COUNTS if r + s > 0]
        for r, s in pairs:
            e = Evidence(r, s)
            qs = [lambda x=x: accuracy_max_certainty(e, Evidence(*x)) for x in self._POINTS]
            qs += [lambda x=x: accuracy_sensitivity(Evidence(*x), e) for x in self._POINTS]
            qs += [lambda rp=rp, sp=sp: _peak_ratio(r, s, rp, sp)
                   for rp, sp in pairs if rp + sp < math.inf]
            for q in qs:
                if r + s == math.inf:
                    with pytest.raises(ValueError, match="overflows"):
                        q()
                else:
                    assert 0.0 <= q() <= 1.0, (r, s)


class TestAccuracySensitivity:
    def test_small_report_tolerant(self):
        q = accuracy_sensitivity(Evidence(1, 1), Evidence(1.1, 0.9))
        assert q == pytest.approx(0.99, abs=0.001)

    def test_large_report_punished(self):
        q = accuracy_sensitivity(Evidence(1, 1), Evidence(220, 180))
        assert q == pytest.approx(0.135, abs=0.001)

    def test_peak_is_one(self):
        assert accuracy_sensitivity(Evidence(3, 2), Evidence(6, 4)) == pytest.approx(1.0, abs=1e-12)

    def test_requires_report(self):
        with pytest.raises(ValueError):
            accuracy_sensitivity(Evidence(1, 1), Evidence(0, 0))


class TestAccuracyAverage:
    def test_small_report(self):
        assert accuracy_average(0.50, Evidence(1.1, 0.9)) == pytest.approx(0.775, abs=0.001)

    def test_large_report_near_linear(self):
        assert accuracy_average(0.50, Evidence(220, 180)) == pytest.approx(0.944, abs=0.001)

    def test_worked_fraction(self):
        assert accuracy_average(0.80, Evidence(19, 6)) == pytest.approx(0.898, abs=0.001)

    def test_defined_for_empty_report(self):
        # m = 1/2, v = 1/12
        want = 1.0 - math.sqrt(0.25 + 1.0 / 12.0)
        assert accuracy_average(1.0, Evidence(0, 0)) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("r", [1e100, 1e155, 1e300, 1.7e308])
    def test_huge_report_scores_its_mean(self, r):
        # The mean, within 1/n of r/(r + s); the variance is below 1e-100.
        assert accuracy_average(0.5, Evidence(r, r)) == 1.0
        assert accuracy_average(0.25, Evidence(r / 3, r)) == 1.0
        assert accuracy_average(1.0, Evidence(r, r)) == 0.5

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, allow_infinity=False),
           st.floats(0.0, allow_infinity=False))
    def test_every_finite_report_has_an_accuracy(self, alpha, r, s):
        assert 0.0 <= accuracy_average(alpha, Evidence(r, s)) <= 1.0


class TestAccuracyAverageIntegralOracle:
    @pytest.mark.parametrize(
        "alpha,r,s",
        [(0.5, 1.1, 0.9), (0.8, 19, 6), (0.5, 220, 180), (0.0, 3, 3), (1.0, 0, 7)],
    )
    def test_matches_closed_form(self, alpha, r, s):
        closed = accuracy_average(alpha, Evidence(r, s))
        quad = accuracy_average_integral(alpha, Evidence(r, s), Tolerance(1e-12, 40))
        assert closed == pytest.approx(quad, abs=1e-6)


class TestUpdateReferrerDispatch:
    """Worked one-step updates with beta = 1 and an empty prior, so the
    result equals the per-step increment pair; values frozen against the
    two independent numeric routes."""

    def cfg(self, method):
        return UpdateConfig(method=method, beta=1.0)

    def test_max_certainty_small_report(self):
        out = update_referrer(self.cfg(UpdateMethod.MAX_CERTAINTY),
                              Evidence(2, 1), Evidence(5, 5), Evidence(0, 0))
        assert out.r == pytest.approx(0.3756, abs=1e-3)
        assert out.s == pytest.approx(0.0696, abs=1e-3)

    def test_max_certainty_exaggerated_report_rewarded(self):
        out = update_referrer(self.cfg(UpdateMethod.MAX_CERTAINTY),
                              Evidence(2, 1), Evidence(1000, 1000), Evidence(0, 0))
        assert out.r == pytest.approx(0.7870, abs=1e-3)
        assert out.s == pytest.approx(0.1457, abs=1e-3)

    def test_sensitivity_exaggerated_report_punished(self):
        out = update_referrer(self.cfg(UpdateMethod.SENSITIVITY),
                              Evidence(2, 1), Evidence(1000, 1000), Evidence(0, 0))
        assert out.r == pytest.approx(0.0, abs=1e-3)
        assert out.s == pytest.approx(0.9328, abs=1e-3)

    def test_sensitivity_confident_accurate_report(self):
        out = update_referrer(self.cfg(UpdateMethod.SENSITIVITY),
                              Evidence(800, 200), Evidence(190, 60), Evidence(0, 0))
        assert out.r == pytest.approx(0.2592, abs=1e-3)
        assert out.s == pytest.approx(0.5960, abs=1e-3)

    def test_max_certainty_near_peak_still_punished(self):
        out = update_referrer(self.cfg(UpdateMethod.MAX_CERTAINTY),
                              Evidence(800, 200), Evidence(19, 6), Evidence(0, 0))
        assert out.r == pytest.approx(0.0066, abs=1e-3)
        assert out.s == pytest.approx(0.6289, abs=1e-3)

    def test_average_beta_accurate_report_rewarded(self):
        out = update_referrer(self.cfg(UpdateMethod.AVERAGE_BETA),
                              Evidence(800, 200), Evidence(19, 6), Evidence(0, 0))
        assert out.r == pytest.approx(0.5280, abs=1e-3)
        assert out.s == pytest.approx(0.0599, abs=1e-3)

    def test_linear_ws_formula(self):
        # q = 1 - |2/3 - 1/2|, c' = certainty(<5,5>)
        out = update_referrer(self.cfg(UpdateMethod.LINEAR_WS),
                              Evidence(2, 1), Evidence(5, 5), Evidence(0, 0))
        c = certainty(Evidence(5, 5))
        q = 1.0 - abs(2.0 / 3.0 - 0.5)
        assert out.r == pytest.approx(c * q, abs=1e-9)
        assert out.s == pytest.approx(c * (1 - q), abs=1e-9)

    def test_josang_formula(self):
        # shifted means (r+1)/(r+s+2), certainty (r'+s')/(r'+s'+2)
        out = update_referrer(self.cfg(UpdateMethod.JOSANG),
                              Evidence(2, 1), Evidence(5, 5), Evidence(0, 0))
        q = 1.0 - abs(3.0 / 5.0 - 6.0 / 12.0)
        c = 10.0 / 12.0
        assert out.r == pytest.approx(c * q, abs=1e-12)
        assert out.s == pytest.approx(c * (1 - q), abs=1e-12)

    def test_beta_discount_retains_prior(self):
        cfg = UpdateConfig(method=UpdateMethod.AVERAGE_BETA, beta=0.25)
        prior = Evidence(4, 8)
        out = update_referrer(cfg, Evidence(10, 10), Evidence(10, 10), prior)
        inc = update_referrer(UpdateConfig(method=UpdateMethod.AVERAGE_BETA, beta=1.0),
                              Evidence(10, 10), Evidence(10, 10), Evidence(0, 0))
        assert out.r == pytest.approx(0.75 * 4 + inc.r, abs=1e-12)
        assert out.s == pytest.approx(0.75 * 8 + inc.s, abs=1e-12)

    def test_requires_observation(self):
        with pytest.raises(ValueError):
            update_referrer(self.cfg(UpdateMethod.AVERAGE_BETA),
                            Evidence(0, 0), Evidence(5, 5), Evidence(1, 1))

    def test_sharp_methods_require_report(self):
        for method in (UpdateMethod.JOSANG, UpdateMethod.MAX_CERTAINTY, UpdateMethod.SENSITIVITY):
            with pytest.raises(ValueError):
                update_referrer(self.cfg(method), Evidence(5, 5), Evidence(0, 0), Evidence(1, 1))

    def test_average_beta_empty_report_is_noop_increment(self):
        cfg = UpdateConfig(method=UpdateMethod.AVERAGE_BETA, beta=0.0)
        prior = Evidence(3, 4)
        out = update_referrer(cfg, Evidence(5, 5), Evidence(0, 0), prior)
        assert out.r == pytest.approx(3.0, abs=1e-12)
        assert out.s == pytest.approx(4.0, abs=1e-12)

    def test_history_method_rejected(self):
        with pytest.raises(ValueError):
            update_referrer(self.cfg("AverageAlpha"),
                            Evidence(5, 5), Evidence(5, 5), Evidence(1, 1))


class TestHistoryUpdate:
    def test_initial_discount_is_point_nine(self):
        upd = history_update(HistoryState(), Evidence(45, 5))
        assert upd.discount == pytest.approx(0.9)

    def test_empty_history_contributes_nothing(self):
        upd = history_update(HistoryState(), Evidence(45, 5))
        # carried had certainty 0, so the trust is untouched and the
        # new carried evidence is the observation alone
        assert upd.history_trust == Evidence(0.9, 0.1)
        assert upd.carried == Evidence(45.0, 5.0)

    def test_empty_observation_is_identity(self):
        state = HistoryState(Evidence(40, 10), Evidence(2, 1))
        upd = history_update(state, Evidence(0, 0))
        assert upd == state
        assert upd.carried == state.carried
        assert upd.discount == pytest.approx(2.0 / 3.0)

    def test_consistent_behavior_raises_discount(self):
        state = HistoryState()
        discounts = []
        for _ in range(12):
            upd = history_update(state, Evidence(45, 5))
            discounts.append(upd.discount)
            state = upd
        assert all(b >= a - 1e-12 for a, b in zip(discounts[1:], discounts[2:]))
        assert discounts[-1] > 0.9

    def test_reversal_lowers_discount_vs_consistency(self):
        consistent = HistoryState(Evidence(45, 5), Evidence(0.9, 0.1))
        reversed_ = HistoryState(Evidence(45, 5), Evidence(0.9, 0.1))
        d_cons = history_update(consistent, Evidence(45, 5)).discount
        d_rev = history_update(reversed_, Evidence(5, 45)).discount
        assert d_rev < d_cons

    def test_combined_applies_discount_to_carried(self):
        state = HistoryState(Evidence(40, 10), Evidence(9, 1))
        upd = history_update(state, Evidence(25, 25))
        assert upd.carried.r == pytest.approx(25 + upd.discount * 40, abs=1e-9)
        assert upd.carried.s == pytest.approx(25 + upd.discount * 10, abs=1e-9)

    def test_transposed_variant_swaps_sides(self):
        def transposed_update(state, observed):
            # history_update with the accuracy mass on the negative side of
            # the history trust, kept here only as a comparison variant.
            weight = certainty(observed) * certainty(state.carried)
            q = accuracy_average(expected_quality(observed), state.carried)
            trust = Evidence(
                state.history_trust.r + weight * (1.0 - q),
                state.history_trust.s + weight * q,
            )
            discount = expected_quality(trust)
            combined = Evidence(
                observed.r + discount * state.carried.r,
                observed.s + discount * state.carried.s,
            )
            return HistoryState(combined, trust)

        state = HistoryState(Evidence(45, 5), Evidence(0.9, 0.1))
        obs = Evidence(45, 5)
        normal = history_update(state, obs)
        swapped = transposed_update(state, obs)
        dr_n = normal.history_trust.r - 0.9
        ds_n = normal.history_trust.s - 0.1
        dr_s = swapped.history_trust.r - 0.9
        ds_s = swapped.history_trust.s - 0.1
        assert dr_n == pytest.approx(ds_s, abs=1e-12)
        assert ds_n == pytest.approx(dr_s, abs=1e-12)
        # consistency must *lower* the discount under the transposed variant
        assert swapped.discount < normal.discount


class TestAccuracyMeasureProperties:
    """Boundedness / monotonicity / asymptotics at unit-test scale; the full
    acceptance battery runs larger sweeps."""

    def test_boundedness_sample(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            total_o = rng.uniform(0.1, 1000)
            total_r = rng.uniform(0.1, 1000)
            obs = Evidence(rng.uniform() * total_o, 0)
            obs = Evidence(obs.r, total_o - obs.r)
            rep_r = rng.uniform() * total_r
            rep = Evidence(rep_r, total_r - rep_r)
            alpha, alpha_p = expected_quality(obs), expected_quality(rep)
            for q in (
                accuracy_linear(alpha, alpha_p),
                accuracy_max_certainty(obs, rep),
                accuracy_sensitivity(obs, rep),
                accuracy_average(alpha, rep),
            ):
                assert 0.0 <= q <= 1.0

    def test_monotonicity_average(self):
        rep = Evidence(30, 10)
        m = (rep.r + 1) / (rep.total + 2)
        grid = np.linspace(0.0, m, 50)
        vals = [accuracy_average(a, rep) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        grid = np.linspace(m, 1.0, 50)
        vals = [accuracy_average(a, rep) for a in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_monotonicity_sensitivity(self):
        rep = Evidence(2, 8)
        peak = 0.2
        grid = np.linspace(0.01, peak, 30)
        vals = [accuracy_sensitivity(Evidence(a, 1 - a), rep) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_asymptotic_sensitivity_spot(self):
        # gap alpha=0.6 vs alpha'=0.5 at total 1e4 crushes both sharp measures
        assert accuracy_max_certainty(Evidence(6000, 4000), Evidence(1, 1)) < 0.01
        assert accuracy_sensitivity(Evidence(3, 2), Evidence(5000, 5000)) < 0.01

    def test_convergence_of_average_to_linear(self):
        q = accuracy_average(0.6, Evidence(50000, 50000))
        assert abs(q - 0.9) < 1e-3


class TestOneUpdateStep:
    """The history method is the AverageBeta update, with β = 0, of a ghost
    referrer whose report is the carried history; both run one step."""

    @pytest.mark.parametrize("carried,trust,observed", [
        ((0, 0), (0.9, 0.1), (45, 5)),
        ((0, 0), (0.9, 0.1), (0, 7)),
        ((40, 10), (2, 1), (25, 25)),
        ((40, 10), (9, 1), (10, 0)),
        ((3.5, 0), (1, 1), (0, 12)),
        ((45, 5), (0.9, 0.1), (5, 45)),
        ((123.25, 7.75), (3.5, 0.25), (2.5, 7.5)),
    ])
    def test_history_trust_is_the_ghost_referrers_average_beta_update(
        self, carried, trust, observed
    ):
        state = HistoryState(Evidence(*carried), Evidence(*trust))
        ghost = update_referrer(UpdateConfig(UpdateMethod.AVERAGE_BETA, beta=0.0),
                                Evidence(*observed), report=state.carried,
                                prior=state.history_trust)
        upd = history_update(state, Evidence(*observed))
        assert upd.history_trust == ghost
        assert upd.discount == expected_quality(ghost)
        assert upd.carried == aggregate(Evidence(*observed), state.carried.scaled(upd.discount))


class TestConfigMethod:
    @pytest.mark.parametrize("make", [UpdateConfig, ExperimentConfig])
    def test_method_name_becomes_the_member(self, make):
        assert make(method="Josang").method is UpdateMethod.JOSANG

    @pytest.mark.parametrize("make", [UpdateConfig, ExperimentConfig])
    def test_unknown_method_fails_at_construction(self, make):
        with pytest.raises(ValueError, match="Bogus"):
            make(method="Bogus")


@pytest.mark.parametrize("check,match", [
    (lambda: UpdateConfig(beta=1.5), "beta must be in"),
    (lambda: HistoryState(history_trust=Evidence(0, 0)), "positive total"),
    (lambda: general_update(1.5, 0.2, 0.5, Evidence(1, 1)), "q must be in"),
    (lambda: general_update(0.5, 0.2, 1.5, Evidence(1, 1)), "c_prime must be in"),
    (lambda: accuracy_linear(1.5, 0.5), "alpha must be in"),
])
def test_input_checks_raise(check, match):
    with pytest.raises(ValueError, match=match):
        check()
