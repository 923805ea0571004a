import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evitrust.core import Belief, Evidence, expected_quality, from_belief, to_belief
from evitrust.propagation import (
    ReferralPath,
    aggregate,
    combine_referrals,
    concatenate,
)


def beliefs():
    # weights normalized to a valid triple; bounded away from 0 so the
    # normalization cannot overflow
    return st.tuples(
        st.floats(0.001, 1.0), st.floats(0.001, 1.0), st.floats(0.001, 1.0)
    ).map(lambda t: Belief(*[v / sum(t) for v in t]))


class TestConcatenate:
    def test_full_belief_passes_report_through(self):
        report = Belief(0.6, 0.2, 0.2)
        assert concatenate(Belief(1.0, 0.0, 0.0), report) == report

    def test_zero_belief_yields_vacuous(self):
        out = concatenate(Belief(0.0, 0.5, 0.5), Belief(0.6, 0.2, 0.2))
        assert out == Belief(0.0, 0.0, 1.0)

    def test_worked_triple(self):
        out = concatenate(Belief(0.5, 0.3, 0.2), Belief(0.6, 0.2, 0.2))
        assert out.b == pytest.approx(0.30)
        assert out.d == pytest.approx(0.10)
        assert out.u == pytest.approx(0.60)

    @given(m_r=beliefs(), m_s=beliefs())
    @settings(max_examples=200, deadline=None)
    def test_never_increases_committed_mass(self, m_r, m_s):
        out = concatenate(m_r, m_s)
        assert out.b + out.d <= m_s.b + m_s.d + 1e-12
        assert out.u >= m_r.b * m_s.u - 1e-12
        assert 0.0 <= out.b and 0.0 <= out.d and 0.0 <= out.u
        assert out.b + out.d + out.u == pytest.approx(1.0, abs=1e-9)

    @given(m_s=beliefs())
    @settings(max_examples=100, deadline=None)
    def test_mass_preserved_exactly_at_full_belief(self, m_s):
        out = concatenate(Belief(1.0, 0.0, 0.0), m_s)
        assert out.b + out.d == pytest.approx(m_s.b + m_s.d, abs=1e-12)


class TestAggregate:
    def test_identity(self):
        e = Evidence(3.5, 1.25)
        out = aggregate(Evidence(0, 0), e)
        assert out.r == e.r and out.s == e.s

    def test_componentwise_sum(self):
        out = aggregate(Evidence(1, 2), Evidence(3, 4))
        assert (out.r, out.s) == (4.0, 6.0)

    def test_fold_of_unit_evidence(self):
        acc = Evidence(0, 0)
        for _ in range(7):
            acc = aggregate(acc, Evidence(1, 1))
        assert (acc.r, acc.s) == (7.0, 7.0)

    @given(
        a=st.tuples(st.floats(0, 1e6), st.floats(0, 1e6)),
        b=st.tuples(st.floats(0, 1e6), st.floats(0, 1e6)),
    )
    @settings(max_examples=200, deadline=None)
    def test_commutative(self, a, b):
        e1, e2 = Evidence(*a), Evidence(*b)
        fwd, rev = aggregate(e1, e2), aggregate(e2, e1)
        assert fwd.r == rev.r and fwd.s == rev.s

    @given(
        a=st.integers(0, 10**6),
        b=st.integers(0, 10**6),
        c=st.integers(0, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_associative_on_integer_counts(self, a, b, c):
        e1, e2, e3 = Evidence(a, a), Evidence(b, b), Evidence(c, c)
        left = aggregate(aggregate(e1, e2), e3)
        right = aggregate(e1, aggregate(e2, e3))
        assert left.r == right.r and left.s == right.s


class TestCombineReferrals:
    def test_empty_path_list_rejected(self):
        with pytest.raises(ValueError):
            combine_referrals([])

    def test_fully_trusted_single_path_is_passthrough(self):
        report = Evidence(9, 1)
        out = combine_referrals([ReferralPath(Belief(1.0, 0.0, 0.0), report)])
        assert out.r == pytest.approx(9.0, abs=1e-6)
        assert out.s == pytest.approx(1.0, abs=1e-6)

    def test_vacuous_trust_contributes_nothing(self):
        out = combine_referrals([ReferralPath(Belief(0.0, 0.0, 1.0), Evidence(50, 50))])
        assert out.r == 0.0 and out.s == 0.0

    def test_trusted_truth_beats_distrusted_lie(self):
        # one fully trusted truthful report, one distrusted false report
        paths = [
            ReferralPath(Belief(1.0, 0.0, 0.0), Evidence(9, 1)),
            ReferralPath(Belief(0.02, 0.49, 0.49), Evidence(0, 10)),
        ]
        combined = combine_referrals(paths)
        assert expected_quality(combined) >= 0.85

    def test_permutation_invariance(self):
        paths = [
            ReferralPath(to_belief(Evidence(8, 2)), Evidence(30, 10)),
            ReferralPath(to_belief(Evidence(2, 8)), Evidence(5, 45)),
            ReferralPath(to_belief(Evidence(5, 5)), Evidence(20, 20)),
        ]
        base = combine_referrals(paths)
        for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
            out = combine_referrals([paths[i] for i in perm])
            assert out.r == pytest.approx(base.r, abs=1e-9)
            assert out.s == pytest.approx(base.s, abs=1e-9)

    def test_two_balanced_paths_average_quality(self):
        trust = to_belief(Evidence(40, 10))
        paths = [
            ReferralPath(trust, Evidence(45, 5)),
            ReferralPath(trust, Evidence(5, 45)),
        ]
        combined = combine_referrals(paths)
        assert expected_quality(combined) == pytest.approx(0.5, abs=1e-6)

    def test_single_path_is_exactly_the_discounted_report(self):
        # The one-referrer experiment predicts through combine_referrals,
        # whose sum starts at ⟨0, 0⟩; the result must equal the discounted
        # report converted back, float for float.
        rng = np.random.default_rng(11)
        cases = [
            (Evidence(3, 1), Evidence(0, 0)),  # empty report
            (Evidence(0, 4), Evidence(6, 2)),  # trust with b = 0
            (Evidence(0, 0), Evidence(6, 2)),  # vacuous trust
        ]
        for _ in range(40):
            trust_n, report_n = 10.0 ** rng.uniform(-3, 4, size=2)
            a, q = rng.uniform(0, 1, size=2)
            cases.append((Evidence(trust_n * a, trust_n * (1 - a)),
                          Evidence(report_n * q, report_n * (1 - q))))
        for trust, report in cases:
            b = to_belief(trust)
            assert combine_referrals([ReferralPath(b, report)]) == from_belief(
                concatenate(b, to_belief(report)))
