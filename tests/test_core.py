import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Tolerance, certainty_by_quadrature, integrate
from evitrust.core import (
    MAX_EVIDENCE_TOTAL,
    Belief,
    Evidence,
    certainty,
    expected_quality,
    from_belief,
    pcdf,
    to_belief,
)
from evitrust import core
from evitrust.errors import ConvergenceError


class TestEvidence:
    def test_valid_construction(self):
        e = Evidence(2.5, 7.5)
        assert e.r == 2.5 and e.s == 7.5 and e.total == 10.0

    def test_zero_evidence_allowed(self):
        assert Evidence(0.0, 0.0).total == 0.0

    @pytest.mark.parametrize("r,s", [(-1, 0), (0, -0.001), (math.nan, 1), (1, math.inf)])
    def test_rejects_invalid(self, r, s):
        with pytest.raises(ValueError):
            Evidence(r, s)

    def test_json_shape(self):
        assert Evidence(1.0, 2.0).to_dict() == {"r": 1.0, "s": 2.0}


class TestBelief:
    def test_valid_construction(self):
        b = Belief(0.3, 0.2, 0.5)
        assert b.certainty == pytest.approx(0.5)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Belief(0.5, 0.5, 0.5)

    def test_rejects_negative_component(self):
        with pytest.raises(ValueError):
            Belief(-0.2, 0.6, 0.6)

    def test_zero_components_allowed(self):
        b = Belief(0.0, 0.0, 1.0)
        assert b.b == 0.0 and b.u == 1.0

    def test_json_shape(self):
        assert Belief(0.25, 0.25, 0.5).to_dict() == {"b": 0.25, "d": 0.25, "u": 0.5}


class TestExpectedQuality:
    def test_no_evidence_is_half(self):
        assert expected_quality(Evidence(0, 0)) == 0.5

    def test_eight_two(self):
        assert expected_quality(Evidence(8, 2)) == pytest.approx(0.8)

    def test_190_60(self):
        assert expected_quality(Evidence(190, 60)) == pytest.approx(0.76)

    def test_total_that_overflows(self):
        assert Evidence(1.7e308, 1.7e308).total == math.inf
        assert expected_quality(Evidence(1.7e308, 1.7e308)) == 0.5
        # Scaling by a power of two moves no ratio.
        scaled = Evidence(1.7e308 / 2**64, 0.85e308 / 2**64)
        assert expected_quality(Evidence(1.7e308, 0.85e308)) == expected_quality(scaled)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, allow_infinity=False), st.floats(0.0, allow_infinity=False))
    def test_every_finite_evidence_has_a_quality(self, r, s):
        assert 0.0 <= expected_quality(Evidence(r, s)) <= 1.0


class TestPcdf:
    def test_uniform_with_no_evidence(self):
        for x in (0.01, 0.3, 0.5, 0.99):
            assert pcdf(Evidence(0, 0), x) == pytest.approx(1.0, abs=1e-12)

    def test_single_positive_outcome(self):
        # f(x) = 2x, so f(0.5) = 1
        assert pcdf(Evidence(1, 0), 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_eight_two_matches_raw_quadrature(self):
        normalizer = integrate(
            lambda x: x**8 * (1 - x) ** 2, 0.0, 1.0, Tolerance(1e-12, 40)
        )
        want = 0.8**8 * 0.2**2 / normalizer
        assert pcdf(Evidence(8, 2), 0.8) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.1, 1.5])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            pcdf(Evidence(1, 1), x)

    @pytest.mark.parametrize("r,s", [(0, 0), (1, 0), (5, 5), (8, 2), (0.3, 1.7), (200, 50)])
    def test_normalization(self, r, s):
        from evitrust.core import _log_pcdf

        total = integrate(
            lambda x: math.exp(_log_pcdf(r, s, x)), 0.0, 1.0, Tolerance(1e-9, 40)
        )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestCertainty:
    def test_no_evidence_zero(self):
        assert certainty(Evidence(0, 0)) == 0.0

    def test_single_negative(self):
        assert certainty(Evidence(0, 1)) == pytest.approx(0.25, abs=1e-9)

    def test_heavy_one_sided_matches_oracle(self):
        # the closed route and direct quadrature of ½∫|f−1| must agree
        assert certainty(Evidence(0, 100)) == pytest.approx(
            certainty_by_quadrature(0, 100), abs=1e-9
        )

    def test_five_five(self):
        # frozen from the quadrature oracle
        assert certainty(Evidence(5, 5)) == pytest.approx(0.4451882, abs=1e-6)
        assert certainty(Evidence(5, 5)) == pytest.approx(
            certainty_by_quadrature(5, 5), abs=1e-8
        )

    @given(
        r=st.floats(0.0, 300.0),
        s=st.floats(0.0, 300.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, r, s):
        assert certainty(Evidence(r, s)) == pytest.approx(
            certainty(Evidence(s, r)), abs=1e-9
        )

    @pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5, 0.9, 1.0])
    def test_increasing_in_total_at_fixed_conflict(self, alpha):
        totals = [0.5, 1, 2, 5, 10, 50, 200, 1000]
        values = [certainty(Evidence(alpha * t, (1 - alpha) * t)) for t in totals]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("total", [4, 10, 100])
    def test_decreasing_in_conflict_at_fixed_total(self, total):
        rs = np.linspace(0.0, total / 2.0, 11)
        values = [certainty(Evidence(r, total - r)) for r in rs]
        # maximal at one-sided evidence, minimal at r = total/2
        assert all(b < a for a, b in zip(values, values[1:]))
        sym = [certainty(Evidence(total - r, r)) for r in rs]
        assert sym == pytest.approx(values, abs=1e-9)

    def test_matches_quadrature_oracle_on_random_evidence(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            total = rng.uniform(1e-3, 2000.0)
            r = rng.uniform() * total
            closed = certainty(Evidence(r, total - r))
            direct = certainty_by_quadrature(r, total - r, abs_tol=1e-10)
            assert closed == pytest.approx(direct, abs=1e-6)


def _log_uniform_pairs(seed, count):
    """Evidence pairs with r and s log-uniform on [1e-6, 1e6]."""
    rng = np.random.default_rng(seed)
    return [tuple(10.0 ** rng.uniform(-6.0, 6.0, size=2)) for _ in range(count)]


def _one_sided(n):
    """Closed-form certainty of ⟨n, 0⟩: f = (n+1)xⁿ crosses 1 at
    x = (n+1)^(−1/n), and c = x − xⁿ⁺¹ there."""
    x = math.exp(-math.log1p(n) / n)
    return x * n / (n + 1.0)


class TestCertaintyAcrossDomain:
    """Agreement with the quadrature oracle over the supported domain,
    totals 1e-6..1e6, including near-one-sided evidence whose right crossing
    lies far closer to 1 than a float can resolve in x."""

    def test_matches_oracle_on_log_uniform_evidence(self):
        for r, s in _log_uniform_pairs(20261018, 300):
            assert certainty(Evidence(r, s)) == pytest.approx(
                certainty_by_quadrature(r, s, abs_tol=1e-10), abs=1e-8
            ), (r, s)

    @pytest.mark.parametrize("r,s", [
        (8608.0, 0.0138),    # right crossing at 1 − 1e-289
        (1.1e-4, 1.95e5),
        (6.7e5, 6.5e-4),
        (2.0, 5e-324),       # subnormal count: s/n rounds to 0
        (1e-13, 2e-313),     # subnormal count: s·n underflows to 0
        (1e-15, 2.2250738585e-313),
    ])
    def test_near_one_sided_matches_oracle(self, r, s):
        want = certainty_by_quadrature(r, s, abs_tol=1e-10)
        assert certainty(Evidence(r, s)) == pytest.approx(want, abs=1e-8)
        assert certainty(Evidence(s, r)) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("n", [1e-6, 0.37, 1.0, 45.0, 8608.0, 1e6])
    def test_one_sided_matches_closed_form_and_oracle(self, n):
        want = _one_sided(n)
        assert certainty(Evidence(n, 0.0)) == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert certainty(Evidence(0.0, n)) == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert certainty(Evidence(n, 0.0)) == pytest.approx(
            certainty_by_quadrature(n, 0.0, abs_tol=1e-10), abs=1e-8
        )

    def test_round_trip_through_belief(self):
        for r, s in _log_uniform_pairs(7, 200) + [(8608.0, 0.0138), (0.0, 5.0), (1e6, 0.0)]:
            scale = min(1.0, MAX_EVIDENCE_TOTAL / (r + s))
            e = Evidence(r * scale, s * scale)
            back = from_belief(to_belief(e))
            assert back.r == pytest.approx(e.r, rel=1e-8), (r, s)
            assert back.s == pytest.approx(e.s, rel=1e-8), (r, s)

    def test_round_trip_is_precise_to_1e12_in_the_median(self):
        # The documented precision of the inverse: a relative 1e-12 on the
        # total wherever certainty resolves it.  Near c = 1 or c = 0 it does
        # not, which the per-pair 1e-8 above allows for.
        errors = []
        for r, s in _log_uniform_pairs(7, 200):
            scale = min(1.0, MAX_EVIDENCE_TOTAL / (r + s))
            e = Evidence(r * scale, s * scale)
            back = from_belief(to_belief(e))
            errors.append(abs(back.total - e.total) / e.total)
        assert np.median(errors) <= 1e-12

    def test_repeat_calls_return_equal_floats(self):
        pairs = _log_uniform_pairs(11, 50) + [(8608.0, 0.0138), (7.5, 2.5), (0.0, 45.0)]
        first = [certainty(Evidence(r, s)) for r, s in pairs]
        assert [certainty(Evidence(r, s)) for r, s in pairs] == first
        core._certainty.cache_clear()
        assert [certainty(Evidence(r, s)) for r, s in pairs] == first

    @pytest.mark.parametrize("n", [1e16, 3e17, 1e100])
    def test_peak_lost_to_rounding_is_value_error_naming_the_counts(self, n):
        # From a total of 1 on the peak density is at least 1.27, so a peak
        # that cancels to at most 1 is rounding, not a certainty of 0.
        with pytest.raises(ValueError, match=re.escape(f"r={n!r}, s={n!r}")):
            certainty(Evidence(n, n))

    @pytest.mark.parametrize("n", [1e-15, 1e-20, 1e-300])
    def test_tiny_total_whose_peak_rounds_away_keeps_zero(self, n):
        assert core._log_crossings(n, n) is None
        assert certainty(Evidence(n, n)) == 0.0


class TestExactKernelValues:
    """The kernel's outputs to the last bit, as float.hex, so that a change
    meant to leave the numbers alone can show it did (the goldens print
    certainty to 10 digits only)."""

    @pytest.mark.parametrize("r,s,want", [
        (0.0, 0.0, "0x0.0p+0"),
        (0.37, 0.0, "0x1.d86ae716b19dep-4"),
        (0.0, 1e6, "0x1.fffe0ee0abfb4p-1"),
        (1e-15, 1e-15, "0x0.0p+0"),
        (3.6, 0.4, "0x1.c584595a0e08cp-2"),      # the combine run's regime
        (45.0, 5.0, "0x1.9325f1f76752ap-1"),     # the amazon run's regime
        (25.0, 25.0, "0x1.5d62fe726b4d6p-1"),
        (999.0, 1.0, "0x1.fac9887a6afb3p-1"),    # a terminating fraction
        (8608.0, 0.0138, "0x1.ff664c21f4287p-1"),
        (2.0, 5e-324, "0x1.8a2345cc04424p-2"),
        (5e5, 5e5, "0x1.fdff397c3beffp-1"),
        (3e5, 7e5, "0x1.fe275ad700ff2p-1"),
    ])
    def test_certainty(self, r, s, want):
        core._certainty.cache_clear()
        assert certainty(Evidence(r, s)).hex() == want

    @pytest.mark.parametrize("belief,want_r,want_s", [
        # two-sided, started at the Gaussian estimate
        ((0.72, 0.08, 0.2), "0x1.a0e3d7d9e76b0p+5", "0x1.7291a36c5bed6p+2"),
        # two-sided, started at the one-sided root
        ((0.05, 0.05, 0.9), "0x1.acae288b7dc21p-2", "0x1.acae288b7dc21p-2"),
        # α = 1: the closed form alone
        ((0.9, 0.0, 0.1), "0x1.6f5150cb93e05p+5", "0x0.0p+0"),
    ])
    def test_from_belief(self, belief, want_r, want_s):
        core._certainty.cache_clear()
        e = from_belief(Belief(*belief))
        assert (e.r.hex(), e.s.hex()) == (want_r, want_s)


def _counting(monkeypatch, name):
    """Count the calls made through ``core.<name>`` while patched."""
    calls = []
    original = getattr(core, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(core, name, counted)
    return calls


def _counting_certainty(monkeypatch):
    """Count the certainty evaluations that from_belief makes: it calls the
    memoized kernel core._certainty(r, s) on plain floats, not certainty."""
    return _counting(monkeypatch, "_certainty")


class TestFromBeliefSolve:
    @pytest.mark.parametrize("n", [1e-6, 0.37, 1.0, 45.0, 8608.0, 1e6])
    def test_one_sided_inverts_the_closed_form_without_certainty(self, monkeypatch, n):
        calls = _counting_certainty(monkeypatch)
        c = _one_sided(n)
        pos = from_belief(Belief(c, 0.0, 1.0 - c))
        neg = from_belief(Belief(0.0, c, 1.0 - c))
        assert calls == []
        assert pos.r == pytest.approx(n, rel=1e-9) and pos.s == 0.0
        assert neg.s == pos.r and neg.r == 0.0

    def test_warm_start_needs_few_certainty_evaluations(self, monkeypatch):
        beliefs = [to_belief(Evidence(r, s)) for r, s in _log_uniform_pairs(7, 200)
                   if r + s <= MAX_EVIDENCE_TOTAL]
        calls = _counting_certainty(monkeypatch)
        for b in beliefs:
            from_belief(b)
        # Measured: 3.875 evaluations per inverse.
        assert len(calls) / len(beliefs) <= 4.08

    # Beliefs whose certainty is that of MAX_EVIDENCE_TOTAL at α, plus δ.  At
    # α = 0.999 the secant steps past the right end, which it then evaluates.
    @pytest.mark.parametrize("alpha,below", [(0.5, 999999.94562), (0.999, 999999.27341)])
    def test_edge_of_the_range(self, alpha, below):
        c = certainty(Evidence(MAX_EVIDENCE_TOTAL * alpha, MAX_EVIDENCE_TOTAL * (1.0 - alpha)))

        def solve(delta):
            target = c + delta
            return from_belief(Belief(alpha * target, (1.0 - alpha) * target, 1.0 - target))

        # Within 1e-9 the total is MAX_EVIDENCE_TOTAL, not exp(log 1e6).
        assert solve(0.0).total == solve(5e-10).total == MAX_EVIDENCE_TOTAL
        assert solve(-1e-10).total == pytest.approx(below, abs=1e-5)
        with pytest.raises(ConvergenceError, match=r"reaches certainty .* for belief Belief\(b="):
            solve(2e-9)

    @pytest.mark.parametrize("n", [1e-300, 1e-6, 0.37, 1.0, 45.0, 8608.0, 1e6])
    def test_one_sided_certainty_solves_no_crossing(self, monkeypatch, n):
        core._certainty.cache_clear()
        crossings = _counting(monkeypatch, "_log_crossing")
        want = _one_sided(n)
        assert certainty(Evidence(n, 0.0)) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert certainty(Evidence(0.0, n)) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert crossings == []


class TestBeliefConversion:
    def test_no_evidence_maps_to_vacuous(self):
        assert to_belief(Evidence(0, 0)) == Belief(0.0, 0.0, 1.0)

    def test_zero_one_anchor(self):
        b = to_belief(Evidence(0, 1))
        assert b.b == pytest.approx(0.0, abs=1e-12)
        assert b.d == pytest.approx(0.25, abs=1e-9)
        assert b.u == pytest.approx(0.75, abs=1e-9)

    def test_balanced_evidence_has_equal_masses(self):
        b = to_belief(Evidence(7, 7))
        assert b.b == pytest.approx(b.d, abs=1e-12)

    @given(r=st.floats(0.0, 500.0), s=st.floats(0.0, 500.0))
    @settings(max_examples=40, deadline=None)
    def test_output_is_valid_belief_with_mass_equal_certainty(self, r, s):
        e = Evidence(r, s)
        b = to_belief(e)
        assert b.b + b.d + b.u == pytest.approx(1.0, abs=1e-9)
        assert b.b + b.d == pytest.approx(certainty(e), abs=1e-9)

    def test_vacuous_belief_maps_to_zero_evidence(self):
        e = from_belief(Belief(0.0, 0.0, 1.0))
        assert e.r == 0.0 and e.s == 0.0

    def test_round_trip_three_seven(self):
        e = from_belief(to_belief(Evidence(3, 7)))
        assert e.r == pytest.approx(3.0, abs=1e-6)
        assert e.s == pytest.approx(7.0, abs=1e-6)

    def test_inverse_hits_target_certainty(self):
        target_c = certainty(Evidence(5, 5))
        b = Belief(0.5 * target_c, 0.5 * target_c, 1.0 - target_c)
        e = from_belief(b)
        assert e.r == pytest.approx(5.0, abs=1e-6)
        assert e.s == pytest.approx(5.0, abs=1e-6)

    def test_unreachable_certainty_raises(self):
        with pytest.raises(ConvergenceError):
            from_belief(Belief(0.9 * (1 - 1e-10), 0.1 * (1 - 1e-10), 1e-10))

    def test_dogmatic_belief_error_names_belief_and_alpha(self):
        with pytest.raises(ConvergenceError, match=r"b=0\.5, d=0\.5, u=0\.0.*alpha=0\.5"):
            from_belief(Belief(0.5, 0.5, 0.0))


@pytest.mark.parametrize("components", [(math.nan, 0.0, 1.0), (0.0, math.inf, 1.0),
                                        (0.0, 0.0, -math.inf)])
def test_belief_rejects_non_finite_component(components):
    with pytest.raises(ValueError, match="must be finite"):
        Belief(*components)
