import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import betainc  # test-only oracle (the test extra)

import evitrust
from conftest import DEFAULT_TOLERANCE, Tolerance, certainty_by_quadrature, integrate
from evitrust.core import (
    MAX_EVIDENCE_TOTAL,
    Belief,
    Evidence,
    _excess,
    _log_crossings,
    certainty,
    expected_quality,
    from_belief,
    log_beta,
    pcdf,
    to_belief,
)
from evitrust import core, simulation
from evitrust.amazon import synthesize_feedback
from evitrust.cli import cli_main
from evitrust.errors import ConvergenceError


# Finite non-negative counts, half of them drawn inside the evidence domain.
_counts = st.floats(0.0, MAX_EVIDENCE_TOTAL) | st.floats(0.0, allow_infinity=False)


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

    @pytest.mark.parametrize("r,s", [(1e9, 1.0), (math.nextafter(1e9, math.inf), 0.0),
                                     (5e8, 5e8 + 1.0), (1e16, 1e16), (1.7e308, 1.7e308)])
    def test_refuses_a_total_past_the_bound_naming_counts_and_bound(self, r, s):
        with pytest.raises(ValueError, match=re.escape(
                f"evidence total r + s must be at most 1e+09, got r={r!r}, s={s!r}")):
            Evidence(r, s)

    @pytest.mark.parametrize("r,s", [(1e9, 0.0), (0.0, 1e9), (5e8, 5e8), (1e9 - 1.0, 1.0)])
    def test_accepts_a_total_at_the_bound(self, r, s):
        assert MAX_EVIDENCE_TOTAL == 1e9
        assert Evidence(r, s).total == MAX_EVIDENCE_TOTAL

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

    def test_total_at_the_bound(self):
        assert expected_quality(Evidence(5e8, 5e8)) == 0.5
        # Scaling by a power of two moves no ratio.
        scaled = Evidence(1e9 / 3 / 2**64, 2e9 / 3 / 2**64)
        assert expected_quality(Evidence(1e9 / 3, 2e9 / 3)) == expected_quality(scaled)

    @settings(max_examples=300, deadline=None)
    @given(_counts, _counts)
    def test_evidence_in_the_domain_has_a_quality_and_past_it_is_refused(self, r, s):
        if r + s > MAX_EVIDENCE_TOTAL:
            with pytest.raises(ValueError, match=r"must be at most 1e\+09"):
                Evidence(r, s)
        else:
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
    def test_totals_whose_peak_would_cancel_are_refused(self, n):
        # Near 1e16 log_beta's rounding cancels the whole peak height, which
        # would read as a certainty of 0.
        with pytest.raises(ValueError, match=re.escape(f"at most 1e+09, got r={n!r}, s={n!r}")):
            certainty(Evidence(n, n))

    def test_peak_height_holds_its_floor_up_to_the_bound(self, monkeypatch):
        """The kernel's log peak height −lbeta + r·t_peak + s·u_peak, as
        _log_crossings hands it to the crossing solve, stays at or above
        log 1.27 (the peak density is at least 4/π from a total of 1 on) on
        a log grid of totals from 1 to 1e9, at α from 0.5 to 1 − 1e-12: the
        rounding of lbeta, about 1e-5 at 1e9, cannot cancel it, and no
        total in the domain needs _log_crossings' None."""
        crossings = _counting(monkeypatch, "_log_crossing")
        count = 0
        for n in (10.0 ** (k / 8) for k in range(73)):
            for alpha in (0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-12):
                r = alpha * n
                for pair in ((r, n - r), (n - r, r)):
                    assert 0.0 < min(pair) and sum(pair) <= MAX_EVIDENCE_TOTAL
                    assert _log_crossings(*pair) is not None
                    count += 1
        assert len(crossings) == 2 * count
        assert min(args[4] for args in crossings) >= math.log(1.27) - 1e-4

    def test_matches_50_digit_references_at_the_top_of_the_domain(self):
        """Totals 1e6..1e9 at α = 0.5..0.99 and near-one-sided pairs, against
        the table of tools/certainty_reference.py (mpmath at 50 digits).
        The kernel's worst error there is 1.1e-11, at 1e9."""
        table = Path(__file__).resolve().parent / "data" / "certainty_reference.csv"
        lines = [line for line in table.read_text(encoding="utf-8").splitlines()
                 if not line.startswith("#")]
        rows = [[float.fromhex(v) for v in line.split(",")] for line in lines[1:]]
        assert lines[0] == "r,s,certainty" and len(rows) == 49
        assert max(r + s for r, s, _ in rows) == MAX_EVIDENCE_TOTAL
        for r, s, want in rows:
            assert abs(certainty(Evidence(r, s)) - want) <= 1e-10, (r, s)

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
    # At 1e9 certainty resolves the total only to a relative 1e-6 or so (its
    # error, up to about 1e-11, over a slope dc/d(log n) near 1e-5).
    @pytest.mark.parametrize("alpha,below", [(0.5, 999999001.62), (0.999, 999980457.10)])
    def test_edge_of_the_range(self, alpha, below):
        c = certainty(Evidence(MAX_EVIDENCE_TOTAL * alpha, MAX_EVIDENCE_TOTAL * (1.0 - alpha)))

        def solve(delta):
            target = c + delta
            return from_belief(Belief(alpha * target, (1.0 - alpha) * target, 1.0 - target))

        # Within 1e-9 the total is the search's right end, exp(log 1e9),
        # 6 ulps below the bound.
        assert solve(5e-10).total == math.exp(math.log(MAX_EVIDENCE_TOTAL)) < MAX_EVIDENCE_TOTAL
        assert solve(0.0).total == pytest.approx(MAX_EVIDENCE_TOTAL, rel=1e-6)
        assert solve(-1e-10).total == pytest.approx(below, rel=1e-6)
        with pytest.raises(ConvergenceError, match=r"reaches certainty .* for belief Belief\(b="):
            solve(2e-9)

    def test_right_end_stays_within_the_bound(self):
        """At the right end the shares b/(b+d) and d/(b+d) may round up, so
        that they sum past 1 (at 8 of these 200 α); counts of exactly 1e9
        times them would then be refused.  The right end's total,
        exp(log 1e9), leaves room for that."""
        for alpha in np.random.default_rng(5).uniform(0.0, 1.0, 200):
            c = certainty(Evidence(MAX_EVIDENCE_TOTAL * alpha, MAX_EVIDENCE_TOTAL * (1.0 - alpha)))
            target = c + 5e-10
            e = from_belief(Belief(alpha * target, target - alpha * target, 1.0 - target))
            assert e.total == pytest.approx(MAX_EVIDENCE_TOTAL, rel=1e-15), alpha

    @pytest.mark.parametrize("n", [1e-300, 1e-6, 0.37, 1.0, 45.0, 8608.0, 1e6])
    def test_one_sided_certainty_solves_no_crossing(self, monkeypatch, n):
        core._certainty.cache_clear()
        crossings = _counting(monkeypatch, "_log_crossing")
        want = _one_sided(n)
        assert certainty(Evidence(n, 0.0)) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert certainty(Evidence(0.0, n)) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert crossings == []


class TestCrossingNewtonBudget:
    """A crossing solve that runs out of Newton steps raises, naming its
    shapes, instead of returning an unconverged crossing.  Each crossing of
    ⟨3, 4⟩ takes 4 steps, so a budget of 2 runs out."""

    def test_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(core, "_MAX_NEWTON_STEPS", 2)
        core._certainty.cache_clear()
        with pytest.raises(ConvergenceError, match=r"in 2 Newton steps for a=3\.0, b=4\.0"):
            certainty(Evidence(3.0, 4.0))

    def test_cli_exits_with_the_numeric_code(self, monkeypatch, capsys):
        monkeypatch.setattr(core, "_MAX_NEWTON_STEPS", 2)
        core._certainty.cache_clear()
        assert cli_main(["certainty", "3", "4"]) == 3
        assert "unit crossing of x**a * (1 - x)**b did not converge" in capsys.readouterr().err


# The seed-0 kernel work of the benchmark's three workloads and of a referrer
# and a TrustInHistory run, through the CLI, as (kernel evaluations, kernel
# cache hits, CF tails, crossing solves, secant solves).  FEEDBACK stands for
# the benchmark's feedback file, 2 sellers × 1000 synthesized feedbacks.
_WORK_BUDGETS = {
    "combine": ("simulate --experiment combine --timesteps 300 --switch 150 --tx 50",
                (3501, 1194, 6702, 6702, 607)),
    "amazon": ("amazon --input FEEDBACK", (1998, 1998, 3976, 3976, 0)),
    "referrer": ("simulate --experiment referrer --profile rumor:50,10",
                 (602, 236, 1134, 1134, 107)),
    "history": ("simulate --experiment history --mode TrustInHistory",
                (101, 199, 196, 196, 0)),
    "sweep": ("sweep --experiment history --profiles probability:0.9,periodic "
              "--beta-grid 0:1:0.05 --seeds 5", (0, 0, 0, 0, 0)),
}
_GOLDEN_NUMPY = json.loads(
    (Path(__file__).resolve().parent / "golden" / "manifest.json").read_text("utf-8"))["numpy"]


@pytest.mark.skipif(np.__version__ != _GOLDEN_NUMPY,
                    reason=f"counted under numpy {_GOLDEN_NUMPY}, as the goldens were made")
@pytest.mark.parametrize("run", list(_WORK_BUDGETS))
def test_work_budget(monkeypatch, tmp_path, run):
    """The kernel work of a run is exact: a change that moves it says so.
    Evaluations are the memoized kernel's misses from an empty cache; the
    other counts are calls that core makes through its own globals."""
    command, budget = _WORK_BUDGETS[run]
    feedback = tmp_path / "feedback.csv"
    if "FEEDBACK" in command:
        feedback.write_text("seller_id,t,rating\n" + "".join(
            f"{r.seller_id},{r.t},{r.rating}\n" for r in synthesize_feedback(2, 1000, seed=0)))
    calls = [_counting(monkeypatch, name)
             for name in ("_beta_cf", "_log_crossing", "_solve_log_total")]
    core._certainty.cache_clear()
    simulation._grid_errors.cache_clear()
    argv = command.replace("FEEDBACK", str(feedback)).split()
    assert cli_main(argv + ["--out", str(tmp_path / "out")]) == 0
    kernel = core._certainty.cache_info()
    assert (kernel.misses, kernel.hits, *map(len, calls)) == budget


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


class TestLogBeta:
    def test_uniform_normalizer(self):
        assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_integer_case_three_four(self):
        # B(3, 4) = 2!·3!/6! = 1/60
        assert log_beta(3.0, 4.0) == pytest.approx(math.log(1.0 / 60.0), abs=1e-12)

    def test_factorial_identity_integer_grid(self):
        for r in range(0, 21):
            for s in range(0, 21):
                expected = (
                    math.lgamma(r + 1) + math.lgamma(s + 1) - math.lgamma(r + s + 2)
                )
                got = log_beta(r + 1.0, s + 1.0)
                assert math.exp(got) == pytest.approx(
                    math.factorial(r) * math.factorial(s) / math.factorial(r + s + 1),
                    rel=1e-9,
                )
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_fractional_case_vs_quadrature(self):
        # B(2.1, 1.9) = ∫ x^1.1 (1-x)^0.9 dx, checked against the quadrature oracle
        oracle = integrate(
            lambda x: x**1.1 * (1.0 - x) ** 0.9, 0.0, 1.0, Tolerance(1e-12, 40)
        )
        assert math.exp(log_beta(2.1, 1.9)) == pytest.approx(oracle, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_beta(0.0, 1.0)
        with pytest.raises(ValueError):
            log_beta(1.0, -2.0)

    @pytest.mark.parametrize("a,b", [(1e308, 1e308), (1e308, 2.0), (2.0, 3e305)])
    def test_lgamma_overflow_is_value_error_naming_the_arguments(self, a, b):
        with pytest.raises(ValueError, match=re.escape(f"a={a!r}, b={b!r}")):
            log_beta(a, b)

    def test_evidence_past_the_bound_never_reaches_it(self, monkeypatch):
        # The overflow is for callers on raw floats: Evidence refuses first.
        calls = _counting(monkeypatch, "log_beta")
        with pytest.raises(ValueError, match=r"must be at most 1e\+09"):
            certainty(Evidence(1e308, 1e308))
        assert calls == []


def _crossing_cases():
    """400 log-uniform pairs with totals up to 1e6, plus one-sided and
    near-one-sided edges (a right crossing at 1 − 1e-289, a subnormal count)."""
    rng = np.random.default_rng(20261018)
    pairs = []
    for _ in range(400):
        r, s = 10.0 ** rng.uniform(-6.0, 6.0, size=2)
        scale = min(1.0, 1e6 / (r + s))
        pairs.append((r * scale, s * scale))
    pairs += [(8608.0, 0.0138), (2.0, 5e-324), (1.1e-4, 1.95e5), (6.7e5, 6.5e-4)]
    pairs += [(n, 0.0) for n in (1e-6, 0.37, 1.0, 45.0, 8608.0, 1e6)]
    return pairs


def _unit_crossings(r, s):
    """(t, a, b) at each unit crossing x = eᵗ of the density of ⟨r, s⟩ ≠ ⟨0, 0⟩.

    The left crossing x_lo comes with its tail's shapes (r+1, s+1), and the
    right one as w = 1 − x_hi with (s+1, r+1).  One-sided evidence has only
    one, at (n+1)^(−1/n) on the side of its count.  There are none when the
    density never rises above uniform (only by rounding, at tiny totals).
    """
    if r == 0.0 or s == 0.0:
        n = r + s
        logs = [-math.log1p(n) / n]
        shapes = [(n + 1.0, 1.0)]
    else:
        logs = _log_crossings(r, s) or []
        shapes = [(r + 1.0, s + 1.0), (s + 1.0, r + 1.0)]
    return [(t, a, b) for t, (a, b) in zip(logs, shapes)]


class TestCrossingTail:
    """The continued-fraction tail against scipy's betainc (TOMS 708), a
    test-only oracle, at the unit crossings where certainty evaluates it."""

    def test_matches_betainc_at_unit_crossings(self):
        checked = 0
        for r, s in _crossing_cases():
            for t, a, b in _unit_crossings(r, s):
                x = math.exp(t)
                want = x - float(betainc(a, b, x))
                assert abs(_excess(t, a, b) - want) <= 1e-12, (r, s, x)
                checked += 1
        assert checked > 800

    def test_mirror_past_the_switch_point_matches_betainc(self):
        # No evidence tail has been seen past (a+1)/(a+b+2), so take shapes
        # below the evidence domain (b < 1, an increasing density), whose
        # unit crossing lies past it.
        a, b = 2.0, 0.5
        lb = log_beta(a, b)
        t = brentq(lambda t: (a - 1.0) * t + (b - 1.0) * math.log(-math.expm1(t)) - lb,
                   math.log(0.5), math.log(0.99), xtol=1e-15, rtol=1e-15)
        x = math.exp(t)
        assert x * (a + b + 2.0) >= a + 1.0
        assert abs(_excess(t, a, b) - (x - float(betainc(a, b, x)))) <= 1e-12

    def test_shape_beyond_step_cap_raises(self):
        with pytest.raises(ConvergenceError, match="continued fraction"):
            core._beta_cf(0.5, 1e14, 1e14)


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(evitrust.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, evitrust.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_beta_moment(self):
        assert integrate(lambda x: x**2 * (1 - x) ** 3, 0.0, 1.0) == pytest.approx(
            1.0 / 60.0, abs=1e-9
        )

    def test_kinked_absolute_value(self):
        assert integrate(lambda x: abs(2.0 * x - 1.0), 0.0, 1.0) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_empty_interval(self):
        assert integrate(lambda x: 42.0, 0.7, 0.7) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda x: 1.0, 1.0, 0.0)

    def test_non_convergence_carries_best_estimate(self):
        # A step at an off-grid point starves the subdivision budget.
        step = lambda x: 0.0 if x < 1.0 / math.pi else 1.0
        true_value = 1.0 - 1.0 / math.pi
        with pytest.raises(ConvergenceError) as exc_info:
            integrate(step, 0.0, 1.0, Tolerance(1e-13, 8))
        assert exc_info.value.best_estimate == pytest.approx(true_value, abs=1e-2)

    def test_fractional_power_endpoint(self):
        # x^0.151 has unbounded derivative at 0; must still converge.
        got = integrate(lambda x: x**0.151, 0.0, 1.0, DEFAULT_TOLERANCE)
        assert got == pytest.approx(1.0 / 1.151, abs=1e-8)


class TestTolerance:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=0.0)
        with pytest.raises(ValueError):
            Tolerance(abs_tol=-1e-9)
        with pytest.raises(ValueError):
            Tolerance(max_subdivisions=0)
