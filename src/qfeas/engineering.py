"""Scaling-up arithmetic: syndrome bandwidth, decoding load, yield,
chip area, cryogenics and wiring, plus the full-stack aggregation that
chains algorithm costing through code selection into the ``scaling``
section of the ``qfeas estimate`` document.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .algorithms import AlgorithmSpec, assess, logical_qubit_count
from .model import HardwareProfile, LogProbability, Record
from .qec import (
    AboveThresholdError,
    FloorUnreachableError,
    QecCode,
    error_floor,
    logical_error_rate,
    logical_runtime,
    physical_resources,
    required_code_size,
)

#: Wiring sensitivity rows: control lines per qubit.
WIRING_SENSITIVITY = (1, 2, 4)

#: Control lines per qubit in the headline wiring count.
LINES_PER_QUBIT = 1

#: Classical decoder operations per syndrome bit.
OPS_PER_BIT = 1

#: Line count above which a wiring sensitivity row gets a warning note.
FEASIBLE_LINES_BUDGET = 10 ** 6


class CryoProfile(Record):
    """Dilution-refrigerator budget: cooling power at base temperature
    and the electricity one fridge draws."""

    cooling_power_cold: float = 500e-6
    wall_power_per_fridge: float = 1e4

    def __post_init__(self) -> None:
        for field in ("cooling_power_cold", "wall_power_per_fridge"):
            value = getattr(self, field)
            if not value > 0:
                raise ValueError(f"{field} must be positive, got {value!r}")


class CryoBudget(NamedTuple):
    fridge_count: int
    wall_power: float


def syndrome_data_rate(n_phys: int | float, cycle_time: float) -> float:
    """Measurement stream in bits/s: one syndrome bit per qubit per cycle."""
    if n_phys < 0:
        raise ValueError(f"n_phys must be >= 0, got {n_phys!r}")
    if not cycle_time > 0:
        raise ValueError(f"cycle_time must be positive, got {cycle_time!r}")
    return n_phys / cycle_time


def decoder_compute(syndrome_rate: float, ops_per_bit: int | float = 1) -> float:
    """Classical processing load in ops/s to keep up with the syndrome stream."""
    if syndrome_rate < 0 or ops_per_bit < 0:
        raise ValueError("syndrome_rate and ops_per_bit must be >= 0")
    return syndrome_rate * ops_per_bit


def fabrication_yield(p: float, n_total: int | float) -> LogProbability:
    """Probability that all n_total qubits on a chip work: p^n_total.

    Computed as exp(n_total * ln p) so that astronomically small yields
    keep a usable log value.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if n_total < 0:
        raise ValueError(f"n_total must be >= 0, got {n_total!r}")
    if n_total == 0:
        return LogProbability(0.0)
    if p == 0.0:
        return LogProbability(-math.inf)
    return LogProbability(n_total * math.log(p))


def chip_area(n_total: int | float, area_per_qubit: float) -> float:
    """Total die area in m^2."""
    if n_total < 0 or area_per_qubit < 0:
        raise ValueError("n_total and area_per_qubit must be >= 0")
    return n_total * area_per_qubit


def cryo_budget(n_total: int | float, dissipation_per_qubit: float,
                cryo: CryoProfile) -> CryoBudget:
    """Fridges needed for the chip's dissipation, and their wall power.

    At least one fridge whenever there is a chip at all, even if the
    dissipation rounds to zero.
    """
    if n_total < 0 or dissipation_per_qubit < 0:
        raise ValueError("n_total and dissipation_per_qubit must be >= 0")
    if n_total == 0:
        return CryoBudget(0, 0.0)
    load = n_total * dissipation_per_qubit / cryo.cooling_power_cold
    if not math.isfinite(load):
        raise ValueError("fridge count is beyond the float range (about 1.8e308)")
    fridges = max(1, math.ceil(load))
    return CryoBudget(fridges, fridges * cryo.wall_power_per_fridge)


def wiring_count(n_total: int | float, lines_per_qubit: int = 1) -> int | float:
    """Control/readout lines into the fridge: one set per qubit."""
    if n_total < 0 or lines_per_qubit < 0:
        raise ValueError("n_total and lines_per_qubit must be >= 0")
    return n_total * lines_per_qubit


def full_stack_report(spec: AlgorithmSpec, hw: HardwareProfile, code: QecCode,
                      cryo: CryoProfile) -> dict:
    """Chain algorithm costing, code selection and every hardware budget
    into the ``scaling`` section of the estimate document.

    The per-logical-operation error target is -ln(F*)/N2, i.e. the
    whole computation must succeed with the spec's target fidelity once
    each of its N2 logical gates fails at most that often.  ``notes``
    holds one human-readable verdict line per budget;
    ``wiring_by_lines`` gives the line count at 1, 2 and 4 control
    lines per qubit, keyed by strings as JSON keys are; ``yield.log_value``
    is None when it is not finite.  Raises FloorUnreachableError /
    AboveThresholdError (with algorithm context) when no code size can
    meet that target.
    """
    feasibility = assess(spec, hw)
    target = feasibility.required_eps2
    try:
        n_c = required_code_size(hw.budget.eps2, code, target)
    except (AboveThresholdError, FloorUnreachableError) as exc:
        raise type(exc)(
            f"{spec.kind} n={spec.size_n} needs eps_L <= {target:.4g} "
            f"per logical operation: {exc}") from exc
    n_logical = logical_qubit_count(spec)
    n_total = physical_resources(n_logical, n_c, code)
    plan = {
        "n_c": n_c,
        "eps_l": logical_error_rate(hw.budget.eps2, code, n_c),
        "n_total": n_total,
        "floor": float(error_floor(hw.budget.eps2, code)),
    }

    rate = syndrome_data_rate(n_total, hw.cycle_time)
    decoder = decoder_compute(rate, OPS_PER_BIT)
    yield_p = fabrication_yield(hw.yield_p, n_total)
    area = chip_area(n_total, hw.area_per_qubit)
    fridges, wall_power = cryo_budget(n_total, hw.dissipation_per_qubit, cryo)
    wires = wiring_count(n_total, LINES_PER_QUBIT)
    by_lines = {str(k): wiring_count(n_total, k) for k in WIRING_SENSITIVITY}
    runtime = logical_runtime(feasibility.two_qubit_count, code, hw.cycle_time)

    notes = [
        f"encoding: {n_logical} logical qubits at n_c={n_c} "
        f"-> {n_total:.4g} physical qubits (factory overhead included)",
        f"syndrome stream: {rate:.4g} bit/s "
        f"({rate / 1e9:.4g} gigabit cables)",
        f"decoder load: {decoder:.4g} ops/s at {OPS_PER_BIT} op/bit",
        f"fabrication yield: {yield_p.value:.4g} "
        f"(log {yield_p.log_value:.4g})",
        f"chip area: {area:.4g} m^2",
        f"cryogenics: {fridges} fridges drawing {wall_power:.4g} W",
        f"wiring: {wires:.4g} lines at {LINES_PER_QUBIT}/qubit",
    ]
    if yield_p.underflowed:
        notes.append("yield underflows: no working chip at any production volume")
    for k, lines in by_lines.items():
        if lines > FEASIBLE_LINES_BUDGET:
            notes.append(
                f"wiring at {k} lines/qubit ({lines:.4g}) exceeds the "
                f"feasible-lines budget ({FEASIBLE_LINES_BUDGET:.4g})")
    notes.append(f"logical runtime: {runtime:.4g} s")

    return {
        "n_logical": n_logical,
        "target_eps_l": target,
        "plan": plan,
        "syndrome_rate": rate,
        "decoder_ops": decoder,
        "yield": {
            "value": yield_p.value,
            "log_value": yield_p.log_value if math.isfinite(yield_p.log_value) else None,
            "underflowed": yield_p.underflowed,
        },
        "chip_area_m2": area,
        "fridge_count": fridges,
        "wall_power_w": wall_power,
        "wire_count": wires,
        "wiring_by_lines": by_lines,
        "runtime_s": runtime,
        "notes": notes,
    }
