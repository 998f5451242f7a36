"""Resource models for the three standard algorithm families.

Gate-count laws:

    factoring (Shor)        N2 = 10 * n^3      (n = bits of the modulus)
    search (Grover)         N2 = n * 2^(n/2)   (n = search-register qubits)
    chemistry (variational) N2 = n^6           (n = electrons/orbitals)

plus the required-error-rate inversion, sequential-runtime and
information-throughput bounds built on top of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    HardwareProfile,
    OpCounts,
    log_fidelity,
    required_error_rate,
)

KINDS = ("shor", "grover", "chemistry")

#: Default success target: F* = 1/e makes the required rate exactly 1/N.
DEFAULT_TARGET = math.exp(-1)

#: Chemistry runs need per-step accuracy far beyond "reasonably likely".
CHEMISTRY_TARGET = 0.999

SECONDS_PER_YEAR = 365.25 * 24 * 3600.0

#: Counts above 63 bits are handed out as floats (see OpCounts notes).
_INT_LIMIT = 2 ** 63
_BEYOND_FLOAT_RANGE = ("two-qubit count is beyond the float range "
                       "(about 1.8e308); use a smaller instance")


def _as_count(value: int | float, factor: float | None = None) -> int | float:
    """``value``, or ``factor * value`` when a factor is given, as a gate
    count.  ``value`` alone stays an exact int below 2^63 and becomes a
    float above.  A count that no float can hold is refused with
    ValueError."""
    try:
        if factor is None:
            return value if value < _INT_LIMIT else float(value)
        count = factor * value
        # Only a range check, and an int product stays exact: a huge int
        # raises OverflowError here, and a float product overflows to inf.
        if not math.isfinite(count):
            raise OverflowError
        return count
    except OverflowError:
        raise ValueError(_BEYOND_FLOAT_RANGE) from None


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm instance to be costed.

    ``size_n`` is bits for shor, search-register qubits for grover,
    electrons/orbitals for chemistry.  ``target_fidelity`` defaults to
    1/e (shor, grover) or 0.999 (chemistry).  ``chemistry_prefactor``
    scales the n^6 law for sensitivity studies; ``routing_overhead``
    multiplies the gate count to model imperfect connectivity
    (default 1 = perfect connectivity assumed).
    """

    kind: str
    size_n: int
    target_fidelity: float | None = None
    chemistry_prefactor: float = 1.0
    routing_overhead: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not isinstance(self.size_n, int) or isinstance(self.size_n, bool):
            raise TypeError(f"size_n must be an integer, got {self.size_n!r}")
        min_n = 1 if self.kind == "grover" else 2
        if self.size_n < min_n:
            raise ValueError(f"size_n must be >= {min_n} for {self.kind}")
        if self.target_fidelity is None:
            default = CHEMISTRY_TARGET if self.kind == "chemistry" else DEFAULT_TARGET
            object.__setattr__(self, "target_fidelity", default)
        if not 0.0 < self.target_fidelity < 1.0:
            raise ValueError(
                f"target_fidelity must lie in (0, 1), got {self.target_fidelity!r}")
        if not self.chemistry_prefactor > 0:
            raise ValueError("chemistry_prefactor must be positive")
        if not self.routing_overhead >= 1:
            raise ValueError("routing_overhead must be >= 1")


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of costing one algorithm against one hardware profile."""

    two_qubit_count: int | float
    achieved_log_fidelity: float
    required_eps2: float
    gap_factor: float
    sequential_runtime: float
    verdict: str  # "feasible" | "infeasible"


def shor_two_qubit_count(n_bits: int) -> int:
    """Two-qubit gates to factor an n-bit number: 10*n^3."""
    if n_bits < 2:
        raise ValueError(f"n_bits must be >= 2, got {n_bits}")
    return _as_count(10 * n_bits ** 3)


def grover_two_qubit_count(n_bits: int) -> int | float:
    """Two-qubit gates for an n-qubit unstructured search: n * 2^(n/2).

    Exact integer for even n below 2^63; float otherwise (odd n is
    irrational by the sqrt(2) factor).
    """
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    if n_bits // 2 >= 1024:  # at least 2^1024; the exact int could fill memory
        raise ValueError(_BEYOND_FLOAT_RANGE)
    return _as_count(n_bits << (n_bits // 2), math.sqrt(2.0) if n_bits % 2 else None)


def chemistry_two_qubit_count(n_electrons: int, prefactor: float = 1.0) -> int | float:
    """Two-qubit gates for an n-electron quantum chemistry run: prefactor * n^6."""
    if n_electrons < 2:
        raise ValueError(f"n_electrons must be >= 2, got {n_electrons}")
    if not prefactor > 0:
        raise ValueError("prefactor must be positive")
    return _as_count(n_electrons ** 6, None if prefactor == 1 else prefactor)


def two_qubit_count(spec: AlgorithmSpec) -> int | float:
    """Kind-specific N2 for a spec, including its routing overhead."""
    if spec.kind == "shor":
        base = shor_two_qubit_count(spec.size_n)
    elif spec.kind == "grover":
        base = grover_two_qubit_count(spec.size_n)
    else:
        base = chemistry_two_qubit_count(spec.size_n, spec.chemistry_prefactor)
    if spec.routing_overhead == 1:
        return base
    return _as_count(base, spec.routing_overhead)


def logical_qubit_count(spec: AlgorithmSpec) -> int:
    """Logical qubits the algorithm needs.

    Factoring uses roughly two registers of n bits (2n); search and
    chemistry work in place on n.
    """
    return 2 * spec.size_n if spec.kind == "shor" else spec.size_n


def assess(spec: AlgorithmSpec, hw: HardwareProfile) -> FeasibilityReport:
    """Cost the algorithm on the hardware and compare eps2 to the requirement.

    Only the two-qubit channel is counted (it dominates every family
    here); the verdict is feasible exactly when hw.budget.eps2 is at or
    below the required rate.
    """
    n2 = two_qubit_count(spec)
    counts = OpCounts(n2=n2)
    required = required_error_rate(counts, spec.target_fidelity, "two_qubit")
    gap = hw.budget.eps2 / required
    return FeasibilityReport(
        two_qubit_count=n2,
        achieved_log_fidelity=log_fidelity(hw.budget, counts),
        required_eps2=required,
        gap_factor=gap,
        sequential_runtime=n2 * hw.gate_time_2q,
        verdict="feasible" if hw.budget.eps2 <= required else "infeasible",
    )


def grover_sequential_runtime(n_bits: int, gate_time_2q: float) -> float:
    """Wall-clock seconds for a fully sequential n-qubit search.

    No gate parallelism is assumed: the single search thread applies
    its two-qubit gates one after another.
    """
    if not gate_time_2q > 0:
        raise ValueError(f"gate_time_2q must be positive, got {gate_time_2q!r}")
    return grover_two_qubit_count(n_bits) * gate_time_2q
