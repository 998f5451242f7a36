"""Gate-count models and feasibility verdicts for the three benchmark algorithms."""

import math

import pytest
from hypothesis import given, strategies as st

from qfeas import AlgorithmSpec, assess
from qfeas.algorithms import (
    CHEMISTRY_TARGET,
    DEFAULT_TARGET,
    SECONDS_PER_YEAR,
    chemistry_two_qubit_count,
    grover_sequential_runtime,
    grover_two_qubit_count,
    logical_qubit_count,
    shor_two_qubit_count,
    two_qubit_count,
)
from qfeas.presets import get_preset


class TestCounts:
    def test_shor_cubic(self):
        assert shor_two_qubit_count(2048) == 10 * 2048**3
        assert shor_two_qubit_count(2048) == 85899345920
        assert isinstance(shor_two_qubit_count(2048), int)

    def test_shor_doubling_is_eightfold(self):
        assert shor_two_qubit_count(4096) == 8 * shor_two_qubit_count(2048)

    def test_grover_exponential(self):
        assert grover_two_qubit_count(100) == 100 * 2**50
        assert grover_two_qubit_count(100) == 112589990684262400

    def test_grover_small_even(self):
        assert grover_two_qubit_count(2) == 4
        assert grover_two_qubit_count(4) == 16

    def test_grover_odd_carries_sqrt2(self):
        # n * 2^(n/2) with half-integer exponent
        assert grover_two_qubit_count(3) == pytest.approx(3 * 2 * math.sqrt(2), rel=1e-15)

    def test_grover_huge_n_returns_float(self):
        big = grover_two_qubit_count(400)
        assert isinstance(big, float)
        assert big == pytest.approx(400 * 2.0**200, rel=1e-12)

    def test_chemistry_sixth_power(self):
        assert chemistry_two_qubit_count(30) == 30**6 == 729000000
        assert chemistry_two_qubit_count(2) == 64
        assert chemistry_two_qubit_count(4) == 4096

    def test_chemistry_doubling_is_64_fold(self):
        assert chemistry_two_qubit_count(60) == 64 * chemistry_two_qubit_count(30)

    def test_chemistry_prefactor_scales_linearly(self):
        assert chemistry_two_qubit_count(10, prefactor=2.5) == 2.5 * 10**6

    @given(st.integers(min_value=2, max_value=500))
    def test_dispatcher_matches_direct_calls(self, n):
        assert two_qubit_count(AlgorithmSpec("shor", n)) == shor_two_qubit_count(n)
        assert two_qubit_count(AlgorithmSpec("grover", n)) == grover_two_qubit_count(n)

    def test_routing_overhead_multiplies(self):
        base = two_qubit_count(AlgorithmSpec("shor", 100))
        assert two_qubit_count(AlgorithmSpec("shor", 100, routing_overhead=3.0)) == 3.0 * base


class TestAlgorithmSpec:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            AlgorithmSpec("deutsch", 4)

    def test_size_floor(self):
        with pytest.raises(ValueError):
            AlgorithmSpec("shor", 1)
        assert AlgorithmSpec("grover", 1).size_n == 1

    def test_default_targets(self):
        assert AlgorithmSpec("shor", 2048).target_fidelity == DEFAULT_TARGET
        assert AlgorithmSpec("chemistry", 30).target_fidelity == CHEMISTRY_TARGET
        assert AlgorithmSpec("chemistry", 30, target_fidelity=0.5).target_fidelity == 0.5

    def test_logical_qubits(self):
        assert logical_qubit_count(AlgorithmSpec("shor", 2048)) == 4096
        assert logical_qubit_count(AlgorithmSpec("grover", 100)) == 100
        assert logical_qubit_count(AlgorithmSpec("chemistry", 30)) == 30


class TestAssess:
    def test_factoring_gap_is_eight_orders(self):
        report = assess(AlgorithmSpec("shor", 2048), get_preset("best-2023"))
        assert report.required_eps2 == pytest.approx(1.1641532182693482e-11, rel=1e-12)
        assert report.gap_factor == pytest.approx(2e-3 / 1.1641532182693482e-11, rel=1e-12)
        assert report.gap_factor == pytest.approx(1.7e8, rel=2e-2)
        assert report.verdict == "infeasible"

    def test_verdict_flips_once_with_problem_size(self):
        hw = get_preset("best-2023")
        verdicts = [assess(AlgorithmSpec("shor", n), hw).verdict for n in range(2, 40)]
        flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
        assert verdicts[0] == "feasible"
        assert verdicts[-1] == "infeasible"
        assert flips == 1

    def test_tiny_instance_is_feasible(self):
        report = assess(AlgorithmSpec("shor", 2), get_preset("best-2023"))
        # 80 gates at 2e-3 each costs far less than one e-fold
        assert report.verdict == "feasible"
        assert report.two_qubit_count == 80

    def test_achieved_log_fidelity_uses_hardware_budget(self):
        hw = get_preset("sc-2020")
        report = assess(AlgorithmSpec("grover", 10), hw)
        assert report.achieved_log_fidelity == pytest.approx(-hw.budget.eps2 * 10 * 2**5, rel=1e-12)


class TestRuntime:
    def test_grover_100_takes_thousands_of_years(self):
        seconds = grover_sequential_runtime(100, 1e-6)
        assert seconds == pytest.approx(112589990684262400 * 1e-6, rel=1e-12)
        assert seconds / SECONDS_PER_YEAR == pytest.approx(3567.761511783608, rel=1e-12)

    def test_faster_gates_scale_linearly(self):
        assert grover_sequential_runtime(40, 1e-9) == pytest.approx(
            grover_sequential_runtime(40, 1e-6) / 1000.0, rel=1e-12)
