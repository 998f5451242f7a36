"""Logical-error law, code-size selection, and the non-correctable floor."""

import math
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from qfeas import qec
from qfeas.qec import (
    _TARGET_SLACK,
    AboveThresholdError,
    CodeOptimum,
    FloorUnreachableError,
    FloorValue,
    QecCode,
    error_floor,
    logical_error_rate,
    logical_runtime,
    optimal_code_size,
    physical_resources,
    required_code_size,
)


def brute_force_optimum(eps2, code):
    """Reference scan. Any faster search must agree with this exactly."""
    best_nc, best = 1, logical_error_rate(eps2, code, 1)
    for nc in range(2, code.nc_max + 1):
        v = logical_error_rate(eps2, code, nc)
        if v < best:
            best_nc, best = nc, v
    return CodeOptimum(best_nc, best)


def brute_force_required(eps2, code, target_eps_l):
    """Reference scan for required_code_size: the first size at or below
    the target, with the same relative slack; None when none is."""
    target = target_eps_l * (1.0 + _TARGET_SLACK)
    for nc in range(1, code.nc_max + 1):
        if logical_error_rate(eps2, code, nc) <= target:
            return nc
    return None


def check_required(eps2, code, target):
    expected = brute_force_required(eps2, code, target)
    if expected is None:
        with pytest.raises(FloorUnreachableError):
            required_code_size(eps2, code, target)
    else:
        assert required_code_size(eps2, code, target) == expected


class TestLogicalErrorRate:
    def test_at_threshold_every_size_gives_one(self):
        code = QecCode()
        for nc in (1, 2, 7, 100, 12345):
            assert logical_error_rate(code.eps_th, code, nc) == 1.0

    def test_one_decade_below_threshold(self):
        # (0.1)^sqrt(4); the squaring leaves it one ulp above decimal 0.01
        v = logical_error_rate(1e-3, QecCode(), 4)
        assert v == pytest.approx(0.01, rel=1e-15)

    def test_floor_term_dominates_at_large_size(self):
        v = logical_error_rate(1e-3, QecCode(eps_nc=1e-4), 16)
        assert v == pytest.approx(1.7e-3, rel=1e-12)

    def test_prefactors_scale_each_term(self):
        base = QecCode(eps_nc=1e-4)
        doubled = QecCode(eps_nc=1e-4, correctable_prefactor=2.0, floor_prefactor=2.0)
        assert logical_error_rate(1e-3, doubled, 9) == pytest.approx(
            2.0 * logical_error_rate(1e-3, base, 9), rel=1e-15)

    @given(st.integers(min_value=1, max_value=400))
    def test_no_floor_means_strictly_decreasing(self, nc):
        code = QecCode()
        assert logical_error_rate(1e-3, code, nc + 1) < logical_error_rate(1e-3, code, nc)


class TestOptimalCodeSize:
    def test_worked_example(self):
        got = optimal_code_size(1e-3, QecCode(eps_nc=1e-4, nc_max=10**4))
        assert got == CodeOptimum(12, 0.0015434775724730212)
        assert got.eps_l == pytest.approx(1.5e-3, rel=3e-2)

    def test_no_floor_pushes_to_the_size_cap(self):
        # cap kept small so the correctable term stays a normal float
        got = optimal_code_size(5e-3, QecCode(nc_max=100))
        assert got.n_c == 100
        assert got.eps_l == logical_error_rate(5e-3, QecCode(), 100)

    def test_at_threshold_is_an_error(self):
        with pytest.raises(AboveThresholdError):
            optimal_code_size(0.01, QecCode())

    def test_above_threshold_is_an_error(self):
        with pytest.raises(AboveThresholdError):
            optimal_code_size(0.5, QecCode())

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=1e-4, max_value=9.9e-3),
        st.floats(min_value=1e-7, max_value=1e-2),
        st.integers(min_value=1, max_value=600),
    )
    def test_matches_reference_scan_exactly(self, eps2, eps_nc, nc_max):
        code = QecCode(eps_nc=eps_nc, nc_max=nc_max)
        assert optimal_code_size(eps2, code) == brute_force_optimum(eps2, code)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1e-4, max_value=9.9e-3),
           st.integers(min_value=1, max_value=300))
    def test_matches_reference_scan_without_floor(self, eps2, nc_max):
        code = QecCode(nc_max=nc_max)
        assert optimal_code_size(eps2, code) == brute_force_optimum(eps2, code)


class TestErrorFloor:
    def test_floor_equals_optimum_value(self):
        code = QecCode(eps_nc=1e-4, nc_max=10**4)
        floor = error_floor(1e-3, code)
        assert float(floor) == optimal_code_size(1e-3, code).eps_l
        assert isinstance(floor, FloorValue)
        assert not floor.nc_limited

    def test_cap_limited_floor_is_flagged(self):
        floor = error_floor(5e-3, QecCode(nc_max=100))
        assert floor.nc_limited

    def test_floor_never_decreases_with_eps_nc(self):
        code_lo = QecCode(eps_nc=1e-5, nc_max=2000)
        code_hi = QecCode(eps_nc=1e-4, nc_max=2000)
        assert error_floor(1e-3, code_hi) >= error_floor(1e-3, code_lo)

    @given(st.floats(min_value=1e-6, max_value=1e-3))
    def test_floor_monotone_property(self, eps_nc):
        a = error_floor(2e-3, QecCode(eps_nc=eps_nc, nc_max=500))
        b = error_floor(2e-3, QecCode(eps_nc=2 * eps_nc, nc_max=500))
        assert b >= a


class TestRequiredCodeSize:
    def test_six_orders_of_suppression_needs_36(self):
        # sqrt(nc) >= 6 at one decade below threshold; the power evaluates
        # one ulp above the decimal target, absorbed by a relative slack
        assert required_code_size(1e-3, QecCode(), 1e-6) == 36

    def test_result_is_smallest_sufficient_size(self):
        code = QecCode()
        target = 3e-4
        nc = required_code_size(1e-3, code, target)
        assert logical_error_rate(1e-3, code, nc) <= target * (1 + 1e-9)
        assert logical_error_rate(1e-3, code, nc - 1) > target

    def test_generous_target_is_size_one(self):
        assert required_code_size(1e-3, QecCode(), 1.0) == 1
        assert required_code_size(1e-3, QecCode(), 5.0) == 1

    def test_unreachable_below_floor(self):
        with pytest.raises(FloorUnreachableError):
            required_code_size(1e-3, QecCode(eps_nc=1e-4), 1e-6)

    def test_floor_itself_is_reachable(self):
        code = QecCode(eps_nc=1e-4, nc_max=10**4)
        floor = error_floor(1e-3, code)
        nc = required_code_size(1e-3, code, float(floor))
        assert logical_error_rate(1e-3, code, nc) <= float(floor) * (1 + 1e-9)

    def test_above_threshold_is_an_error(self):
        with pytest.raises(AboveThresholdError):
            required_code_size(0.02, QecCode(), 1e-3)

    def test_cap_exhaustion_without_floor(self):
        # no floor, but the cap is too small for the target
        with pytest.raises(FloorUnreachableError):
            required_code_size(5e-3, QecCode(nc_max=4), 1e-9)


class TestSearchAgainstReferenceScans:
    """The O(log nc_max) searches against the plain scans above."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=1e-4, max_value=9.9e-3),
        st.one_of(st.just(0.0), st.floats(min_value=1e-7, max_value=1e-2)),
        st.integers(min_value=1, max_value=600),
        st.floats(min_value=0.5, max_value=1e8),
    )
    def test_required_matches_reference_scan(self, eps2, eps_nc, nc_max, scale):
        code = QecCode(eps_nc=eps_nc, nc_max=nc_max)
        check_required(eps2, code, scale * float(error_floor(eps2, code)))

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=1e-4, max_value=9.9e-3),
        st.floats(min_value=1e-7, max_value=1e-2),
        st.integers(min_value=1, max_value=600),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_required_at_the_floor_with_prefactors(self, eps2, eps_nc, nc_max, a, b):
        code = QecCode(eps_nc=eps_nc, nc_max=nc_max,
                       correctable_prefactor=a, floor_prefactor=b)
        floor = float(error_floor(eps2, code))
        for target in (floor, math.nextafter(floor, 0.0), 1.5 * floor):
            check_required(eps2, code, target)

    @pytest.mark.parametrize("eps2, kwargs", [
        (5e-3, {"nc_max": 200_000}),                          # no floor, decreasing to the cap
        (9.9e-3, {"eps_nc": 2e-7, "nc_max": 200_000}),        # flat minimum inside
        (1.14e-4, {"eps_nc": 5e-324, "nc_max": 119_707}),     # subnormal floor: ties
        (3e-4, {"eps_nc": 1.5e-323, "nc_max": 50_000}),
        (1e-5, {"nc_max": 20_000}),                           # underflows to 0.0 inside
        (1e-5, {"eps_nc": 1e-300, "nc_max": 20_000}),
        (2e-3, {"eps_nc": 1e-9, "nc_max": 50_000,
                "correctable_prefactor": 0.1, "floor_prefactor": 30.0}),
        (7e-3, {"eps_nc": 1e-10, "nc_max": 50_000,
                "correctable_prefactor": 3.0, "floor_prefactor": 0.25}),
        # without the rounding margin the window stops short of these minima
        (5.3831065374419924e-06, {"eps_nc": 5e-323, "nc_max": 10_000,
                                  "correctable_prefactor": 7.0}),
        (7.681592997030253e-04, {"eps_nc": 5e-324, "nc_max": 200_000,
                                 "correctable_prefactor": 0.3}),
        # and the bisection for a target a few subnormals above the floor
        (1.7753005083749007e-06, {"eps_nc": 5e-324, "nc_max": 10_000,
                                  "correctable_prefactor": 7.0}),
        # the floor term rounds away at every size
        (math.nextafter(0.01, 0.0), {"eps_nc": 1e-300, "nc_max": 100_000}),
    ], ids=["no-floor", "flat", "subnormal-tie", "subnormal", "underflow",
            "underflow-floor", "prefactors-a", "prefactors-b",
            "subnormal-prefactor-a", "subnormal-prefactor-b", "subnormal-target",
            "absorbed-floor"])
    def test_edge_cases_match_reference_scans(self, eps2, kwargs):
        code = QecCode(**kwargs)
        optimum, expected = optimal_code_size(eps2, code), brute_force_optimum(eps2, code)
        assert (optimum.n_c, optimum.eps_l.hex()) == (expected.n_c, expected.eps_l.hex())
        floor = optimum.eps_l
        for target in (floor, math.nextafter(floor, 0.0), 1.5 * floor,
                       floor + 5e-324, floor + 2e-323):
            check_required(eps2, code, target)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=-7.0, max_value=math.log10(9.9e-3)),
        st.one_of(
            st.integers(min_value=1, max_value=2 ** 52 - 1).map(lambda k: k * 5e-324),
            st.floats(min_value=-320.0, max_value=-250.0).map(lambda e: 10.0 ** e),
            st.floats(min_value=-15.0, max_value=-9.0).map(lambda e: 10.0 ** e)),
        st.integers(min_value=1, max_value=5_000),
        st.floats(min_value=0.0, max_value=300.0),
        st.integers(min_value=1, max_value=5_000),
    )
    # a window started at the stationary point of the real-valued law
    # evaluates 769 sizes here
    @example(-6.9942793115600645, 2.87250348562466e-309, 4947, 103.49057301058167, 2_000)
    def test_underflowing_correctable_term_matches_reference_scans(
            self, log_eps2, eps_nc, nc_max, log_a, probe):
        """Log-uniform eps2 down to 1e-7 and prefactors up to 1e300, so the
        correctable term can underflow inside the range, and a start taken
        from the real-valued law can land far from the evaluated minimum."""
        eps2 = 10.0 ** log_eps2
        code = QecCode(eps_nc=eps_nc, nc_max=nc_max, correctable_prefactor=10.0 ** log_a)
        optimum, expected = optimal_code_size(eps2, code), brute_force_optimum(eps2, code)
        assert (optimum.n_c, optimum.eps_l.hex()) == (expected.n_c, expected.eps_l.hex())
        floor = optimum.eps_l
        for target in (floor, math.nextafter(floor, 0.0), 1.5 * floor,
                       logical_error_rate(eps2, code, min(probe, nc_max))):
            check_required(eps2, code, target)

    def test_flat_window_holds_only_its_best_size(self, monkeypatch):
        """Here eps_L is flat to within rounding over tens of thousands of
        sizes.  A window started at the stationary point of the real-valued
        law walked 77,320 of them; started where the evaluated eps_L turns
        up, it walks 383.  The walk keeps only the best size so far, where
        a table of every size it evaluates would grow with the window."""
        eps2 = 7.2e-4
        code = QecCode(eps_nc=4.3e-308, nc_max=157_176, correctable_prefactor=1e300)
        calls = [0]
        real = qec.logical_error_rate

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(qec, "logical_error_rate", counted)
        tracemalloc.start()
        try:
            optimum = optimal_code_size(eps2, code)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert calls[0] <= 1_000
        expected = brute_force_optimum(eps2, code)
        assert (optimum.n_c, optimum.eps_l.hex()) == (expected.n_c, expected.eps_l.hex())

    @pytest.mark.parametrize("eps2, eps_nc, nc_max", [
        pytest.param(9.9e-3, 0.0, 10 ** 7, id="0.0"),
        pytest.param(9.9e-3, 1e-12, 10 ** 7, id="1e-12"),
        # eps2 one ulp below threshold: the floor term rounds away at every
        # size, and eps_L is flat to within rounding over most of the range
        pytest.param(math.nextafter(0.01, 0.0), 1e-300, 10 ** 12, id="absorbed-floor"),
    ])
    def test_evaluations_grow_with_log_nc_max(self, monkeypatch, eps2, eps_nc, nc_max):
        calls = []
        real = qec.logical_error_rate

        def counted(*args):
            calls.append(args[2])
            if len(calls) > 200:  # fail here rather than walk the range
                raise AssertionError(f"more than 200 evaluations, last at {args[2]}")
            return real(*args)

        monkeypatch.setattr(qec, "logical_error_rate", counted)
        code = QecCode(eps_nc=eps_nc, nc_max=nc_max)
        floor = float(error_floor(eps2, code))
        assert 0 < len(calls) <= 200
        for target in (1.5 * floor, 0.5 * floor):
            calls.clear()
            try:
                required_code_size(eps2, code, target)
            except FloorUnreachableError:
                assert target < floor
            assert 0 < len(calls) <= 200


class TestResourcesAndRuntime:
    def test_plain_product(self):
        code = QecCode(factory_overhead=1)
        assert physical_resources(4000, 1000, code) == 4 * 10**6

    def test_factory_overhead_multiplies(self):
        assert physical_resources(4000, 1000, QecCode(factory_overhead=10)) == 4 * 10**7

    def test_identity_case(self):
        assert physical_resources(7, 1, QecCode(factory_overhead=1)) == 7

    def test_runtime_example_is_months(self):
        # 8.59e10 logical ops, 1e4 physical ops each, 10 ns cycles
        seconds = logical_runtime(85899345920, QecCode(), 1e-8)
        assert seconds == pytest.approx(8.59e6, rel=1e-3)
        assert seconds / 86400.0 == pytest.approx(99.4, rel=1e-2)

    def test_runtime_trivial_cases(self):
        assert logical_runtime(0, QecCode(), 1e-6) == 0.0
        assert logical_runtime(5, QecCode(ops_per_logical_gate=1), 1.0) == 5.0


class TestQecCodeValidation:
    @pytest.mark.parametrize("kwargs", [
        {"eps_th": 0.0},
        {"eps_th": 1.0},
        {"eps_nc": -1e-9},
        {"nc_max": 0},
        {"ops_per_logical_gate": 0},
        {"factory_overhead": 0.5},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QecCode(**kwargs)
