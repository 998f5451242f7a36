"""Syndrome bandwidth, decoder load, yield, area, cryogenics, wiring, and the
stacked report that chains them behind one verdict."""

import json
import math

import pytest
from hypothesis import given, strategies as st

from qfeas import AlgorithmSpec, ErrorBudget, assess
from qfeas.engineering import (
    CryoBudget,
    CryoProfile,
    cryo_budget,
    chip_area,
    decoder_compute,
    fabrication_yield,
    full_stack_report,
    syndrome_data_rate,
    wiring_count,
)
from qfeas.model import HardwareProfile
from qfeas.qec import FloorUnreachableError, QecCode
from qfeas.presets import get_preset


class TestSyndromeAndDecoder:
    def test_billion_qubits_need_a_petabit(self):
        assert syndrome_data_rate(10**9, 1e-6) == 1e15

    def test_single_qubit_single_cycle(self):
        assert syndrome_data_rate(1, 1.0) == 1.0

    def test_thousand_qubits_fill_one_ethernet_cable(self):
        assert syndrome_data_rate(10**3, 1e-6) == pytest.approx(1e9, rel=1e-12)

    def test_decoder_petaflop(self):
        assert decoder_compute(1e15, 1) == 1e15

    def test_decoder_scales_with_ops_per_bit(self):
        assert decoder_compute(1e15, 0) == 0.0
        assert decoder_compute(1e15, 100) == 1e17

    def test_cycle_time_must_be_positive(self):
        with pytest.raises(ValueError):
            syndrome_data_rate(100, 0.0)


class TestFabricationYield:
    def test_perfect_process(self):
        y = fabrication_yield(1.0, 10**12)
        assert y.value == 1.0 and y.log_value == 0.0

    def test_one_percent_loss_compounds_fast(self):
        y = fabrication_yield(0.99, 1000)
        assert y.value == pytest.approx(4.317124741065786e-05, rel=1e-12)

    def test_underflow_is_reported_in_log_space(self):
        y = fabrication_yield(0.999999, 10**9)
        assert y.value == 0.0
        assert y.underflowed
        assert y.log_value == pytest.approx(-1000.0, rel=1e-6)

    def test_zero_yield_chip(self):
        y = fabrication_yield(0.0, 5)
        assert y.value == 0.0
        assert y.log_value == -math.inf

    def test_empty_chip_always_works(self):
        assert fabrication_yield(0.5, 0).value == 1.0

    @given(st.floats(min_value=0.5, max_value=0.999999),
           st.integers(min_value=1, max_value=10**6),
           st.integers(min_value=1, max_value=10**6))
    def test_yield_multiplies_over_partitions(self, p, a, b):
        whole = fabrication_yield(p, a + b)
        parts = fabrication_yield(p, a).log_value + fabrication_yield(p, b).log_value
        assert whole.log_value == pytest.approx(parts, rel=1e-12)


class TestAreaCryoWiring:
    def test_billion_qubit_chip_is_a_building(self):
        assert chip_area(10**9, 1e-6) == 1000.0

    def test_million_qubit_chip_is_a_square_meter(self):
        assert chip_area(10**6, 1e-6) == 1.0
        assert chip_area(0, 1e-6) == 0.0

    def test_two_fridges_for_a_milliwatt(self):
        assert cryo_budget(10**6, 1e-9, CryoProfile()) == CryoBudget(2, 20000.0)

    def test_two_thousand_fridges_for_a_watt(self):
        b = cryo_budget(10**9, 1e-9, CryoProfile())
        assert b == CryoBudget(2000, 2e7)

    def test_minimum_one_fridge(self):
        assert cryo_budget(100, 0.0, CryoProfile()).fridge_count == 1

    def test_no_chip_no_fridge(self):
        assert cryo_budget(0, 1e-9, CryoProfile()) == CryoBudget(0, 0.0)

    def test_wiring_products(self):
        assert wiring_count(10**9, 1) == 10**9
        assert wiring_count(10**9, 0) == 0
        assert wiring_count(100, 3) == 300

    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=0, max_value=10**9))
    def test_budgets_monotone_in_qubit_count(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert syndrome_data_rate(hi, 1e-6) >= syndrome_data_rate(lo, 1e-6)
        assert chip_area(hi, 1e-6) >= chip_area(lo, 1e-6)
        assert wiring_count(hi, 2) >= wiring_count(lo, 2)
        cp = CryoProfile()
        assert cryo_budget(hi, 1e-9, cp).fridge_count >= cryo_budget(lo, 1e-9, cp).fridge_count


def _clean_hardware(eps2):
    return HardwareProfile(
        name="bench",
        budget=ErrorBudget(eps2=eps2),
        gate_time_2q=1e-7,
        cycle_time=1e-6,
        yield_p=0.99,
        area_per_qubit=1e-6,
        dissipation_per_qubit=1e-9,
    )


class TestFullStackReport:
    def test_factoring_needs_millions_of_qubits(self):
        report = full_stack_report(
            AlgorithmSpec("shor", 2048), get_preset("sc-2020"), QecCode(), CryoProfile())
        assert 10**6 <= report["plan"]["n_total"] <= 10**10
        assert 1e12 <= report["decoder_ops"] <= 1e18
        assert report["plan"]["eps_l"] <= report["target_eps_l"] * (1 + 1e-9)
        assert report["n_logical"] == 4096

    def test_search_gap_is_astronomic(self):
        spec, hw = AlgorithmSpec("grover", 100), get_preset("sc-2020")
        full_stack_report(spec, hw, QecCode(), CryoProfile())
        assert assess(spec, hw).gap_factor > 1e13

    def test_floor_blocks_the_search_target(self):
        code = QecCode(eps_nc=1e-4, nc_max=10**4)
        with pytest.raises(FloorUnreachableError) as err:
            full_stack_report(
                AlgorithmSpec("grover", 100), get_preset("sc-2020"), code, CryoProfile())
        assert "grover" in str(err.value)

    def test_loose_target_keeps_bare_hardware(self):
        report = full_stack_report(
            AlgorithmSpec("shor", 2), _clean_hardware(1e-6), QecCode(factory_overhead=1),
            CryoProfile())
        assert report["plan"]["n_c"] == 1
        assert report["plan"]["n_total"] == report["n_logical"]

    def test_report_is_pure(self):
        args = (AlgorithmSpec("shor", 512), get_preset("sc-2020"), QecCode(), CryoProfile())
        a = full_stack_report(*args)
        b = full_stack_report(*args)
        assert a == b
        assert a["notes"] == b["notes"]

    def test_wiring_sensitivity_rows(self):
        report = full_stack_report(
            AlgorithmSpec("shor", 128), get_preset("sc-2020"), QecCode(), CryoProfile())
        by_lines = report["wiring_by_lines"]
        assert set(by_lines) == {"1", "2", "4"}
        assert by_lines["4"] == 4 * by_lines["1"]
        assert report["wire_count"] == by_lines["1"]

    def test_notes_flag_wiring_blowout(self):
        report = full_stack_report(
            AlgorithmSpec("shor", 2048), get_preset("sc-2020"), QecCode(), CryoProfile())
        assert any("lines" in n for n in report["notes"])

    def test_yield_note_on_underflow(self):
        hw = _clean_hardware(1e-3).replace(yield_p=0.9)
        report = full_stack_report(AlgorithmSpec("shor", 2048), hw, QecCode(), CryoProfile())
        assert report["yield"]["underflowed"]
        assert any("yield" in n.lower() for n in report["notes"])

    @pytest.mark.parametrize("hw", [
        get_preset("sc-2020"),
        _clean_hardware(1e-3).replace(yield_p=0.9),  # the yield underflows
        get_preset("sc-2020").replace(yield_p=0.0),  # log yield is -inf
    ], ids=["sc-2020", "yield-underflow", "zero-yield"])
    def test_is_the_documents_scaling_section(self, hw):
        report = full_stack_report(AlgorithmSpec("shor", 2048), hw, QecCode(), CryoProfile())
        assert set(report) == {
            "n_logical", "target_eps_l", "plan", "syndrome_rate", "decoder_ops",
            "yield", "chip_area_m2", "fridge_count", "wall_power_w", "wire_count",
            "wiring_by_lines", "runtime_s", "notes"}
        assert set(report["plan"]) == {"n_c", "eps_l", "n_total", "floor"}
        assert set(report["yield"]) == {"value", "log_value", "underflowed"}
        json.dumps(report, allow_nan=False)  # strict JSON as it stands
