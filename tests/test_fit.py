"""Least-squares recovery of per-channel error rates from log-fidelity data."""

import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from qfeas.model import CHANNELS, ErrorBudget, OpCounts, log_fidelity
from qfeas.sim.fit import RankDeficientError, fit_error_rates


def synth(budget, counts_list):
    return [(c, log_fidelity(budget, c)) for c in counts_list]


EXACT_COUNTS = [
    OpCounts(10, 50, 25),
    OpCounts(40, 20, 90),
    OpCounts(5, 80, 10),
    OpCounts(70, 10, 300),
]


class TestExactRecovery:
    def test_three_channel_recovery(self):
        budget = ErrorBudget(1e-5, 1e-4, 2e-3)
        result = fit_error_rates(synth(budget, EXACT_COUNTS))
        for ch in CHANNELS:
            assert result.rates[ch] == pytest.approx(budget.rate(ch), rel=1e-9)
        assert result.residual_norm < 1e-12
        assert result.n_observations == 4

    def test_single_channel_recovery(self):
        budget = ErrorBudget(eps2=2e-3)
        obs = synth(budget, [OpCounts(n2=n) for n in (50, 100, 200, 400)])
        result = fit_error_rates(obs, ["two_qubit"])
        assert result.channels == ("two_qubit",)
        assert result.rates["two_qubit"] == pytest.approx(2e-3, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=5e-3),
           st.floats(min_value=1e-6, max_value=5e-3))
    def test_two_channel_recovery_property(self, e1, e2):
        budget = ErrorBudget(eps1=e1, eps2=e2)
        counts = [OpCounts(0, 10, 80), OpCounts(0, 90, 20), OpCounts(0, 35, 35)]
        result = fit_error_rates(synth(budget, counts), ["one_qubit", "two_qubit"])
        assert result.rates["one_qubit"] == pytest.approx(e1, rel=1e-9)
        assert result.rates["two_qubit"] == pytest.approx(e2, rel=1e-9)

    def test_channel_order_is_canonical_and_deduped(self):
        budget = ErrorBudget(1e-5, 1e-4, 2e-3)
        result = fit_error_rates(
            synth(budget, EXACT_COUNTS), ["two_qubit", "idle", "two_qubit", "one_qubit"])
        assert result.channels == CHANNELS


class TestUncertainty:
    def test_exact_fit_has_tight_intervals(self):
        result = fit_error_rates(synth(ErrorBudget(eps2=1e-3), EXACT_COUNTS), ["two_qubit"])
        lo, hi = result.confidence_interval("two_qubit")
        assert lo <= 1e-3 <= hi
        assert hi - lo < 1e-9

    def test_interval_is_rate_plus_minus_z_sigma(self):
        obs = [(OpCounts(n2=50), -0.11), (OpCounts(n2=100), -0.19), (OpCounts(n2=200), -0.42)]
        result = fit_error_rates(obs, ["two_qubit"])
        rate = result.rates["two_qubit"]
        sd = result.std_errors["two_qubit"]
        assert sd > 0.0
        assert result.confidence_interval("two_qubit") == (rate - 1.96 * sd, rate + 1.96 * sd)
        lo99, hi99 = result.confidence_interval("two_qubit", z=2.576)
        assert hi99 - lo99 > 2 * 1.96 * sd

    def test_saturated_fit_reports_zero_spread(self):
        # two observations, two parameters: nothing left to estimate spread from
        budget = ErrorBudget(eps0=1e-5, eps1=1e-4)
        obs = synth(budget, [OpCounts(10, 20, 0), OpCounts(80, 5, 0)])
        result = fit_error_rates(obs, ["idle", "one_qubit"])
        assert result.std_errors == {"idle": 0.0, "one_qubit": 0.0}


class TestDegenerateInputs:
    def test_channel_with_no_counts_is_rank_deficient(self):
        obs = [(OpCounts(n1=10), -0.01), (OpCounts(n1=20), -0.02), (OpCounts(n1=40), -0.04)]
        with pytest.raises(RankDeficientError):
            fit_error_rates(obs, ["two_qubit"])

    def test_collinear_columns_are_rank_deficient(self):
        obs = [(OpCounts(0, 2 * n, n), -0.001 * n) for n in (10, 20, 40)]
        with pytest.raises(RankDeficientError):
            fit_error_rates(obs, ["one_qubit", "two_qubit"])

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            fit_error_rates([(OpCounts(n2=10), -0.02)], ["two_qubit"])

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError):
            fit_error_rates([(OpCounts(n2=10), -0.02)] * 3, ["idle", "bogus"])

    def test_empty_channel_list_rejected(self):
        with pytest.raises(ValueError):
            fit_error_rates([(OpCounts(n2=10), -0.02)] * 3, [])

    def test_positive_log_fidelity_rejected(self):
        obs = [(OpCounts(n2=10), 0.05), (OpCounts(n2=20), -0.02)]
        with pytest.raises(ValueError):
            fit_error_rates(obs, ["two_qubit"])

    def test_covariance_beyond_float_range_rejected(self):
        # the normal matrix of counts near 1e200 overflows float64
        obs = [(OpCounts(1e200, 1e200, 0), -1.0), (OpCounts(1e200, 2e200, 0), -2.0),
               (OpCounts(3e200, 1e200, 0), -2.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="covariance is not finite"):
                fit_error_rates(obs, ["idle", "one_qubit"])

    def test_underflowing_normal_matrix_is_rank_deficient(self):
        # full rank, but the squares of counts near 1e-300 underflow to 0
        obs = [(OpCounts(1e-300, 0, 0), -1e300), (OpCounts(2e-300, 0, 0), -1e300)]
        with pytest.raises(RankDeficientError, match="too close to zero"):
            fit_error_rates(obs, ["idle"])


def test_ordinary_fit_keeps_its_bits():
    obs = [(OpCounts(50, 0, 50), -0.11), (OpCounts(100, 0, 100), -0.21),
           (OpCounts(0, 0, 200), -0.405), (OpCounts(30, 20, 10), -0.07)]
    result = fit_error_rates(obs)
    assert {c: (result.rates[c].hex(), result.std_errors[c].hex()) for c in CHANNELS} == {
        "idle": ("0x1.8e757928e0c88p-14", "0x1.806a104f1004cp-15"),
        "one_qubit": ("0x1.335d249e44f9dp-9", "0x1.e7c8fd26b5dd2p-13"),
        "two_qubit": ("0x1.096bb98c7e284p-9", "0x1.7726636ae6e7ep-16"),
    }
    assert result.residual_norm.hex() == "0x1.2515fdab84652p-8"
