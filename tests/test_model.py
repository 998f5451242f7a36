"""Fidelity law, error budgets, and the log-space probability wrapper."""

import math

import pytest
from hypothesis import given, strategies as st

from qfeas.model import (
    CHANNELS,
    ErrorBudget,
    LogProbability,
    OpCounts,
    ZeroCountError,
    fidelity,
    log_fidelity,
    required_error_rate,
)


class TestErrorBudget:
    def test_defaults_are_zero(self):
        b = ErrorBudget()
        assert (b.eps0, b.eps1, b.eps2) == (0.0, 0.0, 0.0)

    def test_rate_lookup_by_channel(self):
        b = ErrorBudget(eps0=1e-5, eps1=1e-4, eps2=1e-3)
        assert b.rate("idle") == 1e-5
        assert b.rate("one_qubit") == 1e-4
        assert b.rate("two_qubit") == 1e-3

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError):
            ErrorBudget().rate("three_qubit")

    @pytest.mark.parametrize("bad", [-1e-9, 1.0000001, 2.0, float("nan")])
    def test_out_of_range_rates_rejected(self, bad):
        with pytest.raises(ValueError):
            ErrorBudget(eps2=bad)

    def test_bool_is_not_a_rate(self):
        with pytest.raises(TypeError):
            ErrorBudget(eps1=True)

    def test_rate_of_exactly_one_is_allowed(self):
        # certainty channel, used to force an insertion at every site
        assert ErrorBudget(eps1=1.0).eps1 == 1.0

    def test_frozen(self):
        with pytest.raises(Exception):
            ErrorBudget().eps2 = 0.5


class TestOpCounts:
    def test_count_lookup_matches_fields(self):
        c = OpCounts(5, 7, 9)
        assert [c.count(ch) for ch in CHANNELS] == [5, 7, 9]
        assert c.total == 21

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            OpCounts(n1=-1)

    def test_float_counts_accepted_for_huge_totals(self):
        c = OpCounts(n2=1e20)
        assert c.n2 == 1e20


class TestLogFidelity:
    def test_worked_example(self):
        b = ErrorBudget(eps1=1e-3, eps2=2e-3)
        c = OpCounts(0, 10, 100)
        lf = log_fidelity(b, c)
        assert lf == pytest.approx(-0.21, abs=1e-14)
        assert fidelity(b, c).value == pytest.approx(0.8105842459701871, rel=1e-14)

    def test_zero_budget_gives_unit_fidelity(self):
        f = fidelity(ErrorBudget(), OpCounts(10, 10, 10))
        assert f.log_value == 0.0
        assert f.value == 1.0
        assert not f.underflowed

    def test_deep_underflow_keeps_log(self):
        # exp(-2000) is a float zero but the log survives
        b = ErrorBudget(eps2=2e-3)
        f = fidelity(b, OpCounts(n2=10**6))
        assert f.log_value == -2000.0
        assert f.value == 0.0
        assert f.underflowed

    def test_float_conversion(self):
        assert float(LogProbability(-1.0)) == pytest.approx(math.exp(-1.0))

    def test_log_probability_rejects_positive_log(self):
        with pytest.raises(ValueError):
            LogProbability(0.5)

    @given(
        st.floats(min_value=0.0, max_value=1e-2),
        st.floats(min_value=0.0, max_value=1e-2),
        st.floats(min_value=0.0, max_value=1e-2),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_log_is_linear_in_counts(self, e0, e1, e2, n0, n1, n2):
        b = ErrorBudget(e0, e1, e2)
        whole = log_fidelity(b, OpCounts(2 * n0, 2 * n1, 2 * n2))
        half = log_fidelity(b, OpCounts(n0, n1, n2))
        assert whole == pytest.approx(2 * half, rel=1e-12, abs=1e-300)

    @given(st.floats(min_value=1e-6, max_value=1e-2),
           st.integers(min_value=1, max_value=10**4))
    def test_more_gates_never_helps(self, eps, n):
        b = ErrorBudget(eps2=eps)
        assert log_fidelity(b, OpCounts(n2=n + 1)) < log_fidelity(b, OpCounts(n2=n))


class TestRequiredErrorRate:
    def test_inverts_the_default_target(self):
        # one unit of log-fidelity spread over N gates
        r = required_error_rate(OpCounts(n2=10**6), math.exp(-1), "two_qubit")
        assert r == pytest.approx(1e-6, rel=1e-12)

    def test_zero_count_channel_is_an_error(self):
        with pytest.raises(ZeroCountError):
            required_error_rate(OpCounts(n1=100), 0.5, "two_qubit")

    def test_underflowing_rate_is_an_error(self):
        # -ln(1 - 2^-53) over 1e308 gates is below the smallest subnormal
        with pytest.raises(ValueError, match="two_qubit rate.*underflows to 0"):
            required_error_rate(OpCounts(n2=1e308), 0.9999999999999999, "two_qubit")

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.2])
    def test_target_must_be_strictly_inside_unit_interval(self, bad):
        with pytest.raises(ValueError):
            required_error_rate(OpCounts(n2=10), bad, "two_qubit")

    @given(st.floats(min_value=1e-6, max_value=0.999999),
           st.integers(min_value=1, max_value=10**9))
    def test_round_trip_recovers_target(self, target, n2):
        rate = required_error_rate(OpCounts(n2=n2), target, "two_qubit")
        if rate > 1.0:
            return  # nothing to check, the budget cannot hold the rate
        achieved = fidelity(ErrorBudget(eps2=rate), OpCounts(n2=n2))
        assert achieved.value == pytest.approx(target, rel=1e-12)
