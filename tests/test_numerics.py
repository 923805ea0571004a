import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betainc  # test-only oracle (the test extra)

import evitrust
from conftest import DEFAULT_TOLERANCE, Tolerance, integrate
from evitrust.core import Evidence, _log_crossings, certainty
from evitrust.errors import ConvergenceError
from evitrust.numerics import (
    _incomplete_beta,
    log_beta,
    regularized_incomplete_beta,
)


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

    def test_overflow_reaches_callers_as_value_error(self):
        big = Evidence(1e308, 1e308)
        with pytest.raises(ValueError, match="log_beta overflows"):
            certainty(big)
        with pytest.raises(ValueError, match="log_beta overflows"):
            regularized_incomplete_beta(0.5, 1e308, 1e308)


class TestRegularizedIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(0.0, 3.0, 4.0) == 0.0
        assert regularized_incomplete_beta(1.0, 3.0, 4.0) == 1.0

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 17.5])
    def test_symmetric_midpoint(self, a):
        assert regularized_incomplete_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-12)

    def test_against_quadrature(self):
        # I_0.3(3, 4) = ∫₀^0.3 x²(1-x)³ dx / B(3, 4)
        num = integrate(lambda x: x**2 * (1 - x) ** 3, 0.0, 0.3, Tolerance(1e-12, 40))
        assert regularized_incomplete_beta(0.3, 3.0, 4.0) == pytest.approx(
            num * 60.0, abs=1e-9
        )

    @given(
        x1=st.floats(0.0, 1.0),
        x2=st.floats(0.0, 1.0),
        a=st.floats(0.05, 50.0),
        b=st.floats(0.05, 50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_x(self, x1, x2, a, b):
        lo, hi = min(x1, x2), max(x1, x2)
        assert regularized_incomplete_beta(lo, a, b) <= regularized_incomplete_beta(
            hi, a, b
        ) + 1e-12

    # x bounded away from the endpoints: closer in, 1-x itself rounds and
    # the identity is lost to representation error, not to the function
    @given(
        x=st.floats(1e-6, 1.0 - 1e-6),
        a=st.floats(0.05, 50.0),
        b=st.floats(0.05, 50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_reflection_identity(self, x, a, b):
        lhs = regularized_incomplete_beta(x, a, b)
        rhs = regularized_incomplete_beta(1.0 - x, b, a)
        assert lhs + rhs == pytest.approx(1.0, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.5, 0.0, 1.0)

    def test_shape_beyond_step_cap_raises(self):
        with pytest.raises(ConvergenceError, match="continued fraction"):
            regularized_incomplete_beta(0.5, 1e14, 1e14)


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
    """(x, 1 − x, a, b) at each unit crossing of the density of ⟨r, s⟩ ≠ ⟨0, 0⟩.

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
    return [(math.exp(t), -math.expm1(t), a, b) for t, (a, b) in zip(logs, shapes)]


class TestCrossingTail:
    """The continued-fraction tail against scipy's betainc (TOMS 708), a
    test-only oracle, at the unit crossings where certainty evaluates it."""

    def test_matches_betainc_at_unit_crossings(self):
        checked = 0
        for r, s in _crossing_cases():
            for x, y, a, b in _unit_crossings(r, s):
                want = float(betainc(a, b, x))
                assert abs(_incomplete_beta(x, y, a, b, x * y) - want) <= 1e-12, (r, s, x)
                assert abs(regularized_incomplete_beta(x, a, b) - want) <= 1e-12, (r, s, x)
                checked += 1
        assert checked > 800


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
