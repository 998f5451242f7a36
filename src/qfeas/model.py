"""Log-space algebra for the exponential fidelity-decay model.

A noisy computation succeeds with probability

    F = exp(-(eps0*N0 + eps1*N1 + eps2*N2))

where eps0/eps1/eps2 are per-operation error probabilities for idle
steps, one-qubit gates and two-qubit gates, and N0/N1/N2 count those
operations.  Exponents reach 1e15 and beyond for realistic workloads,
so every routine here works on the log scale; exponentiation happens
only inside :class:`LogProbability`, which keeps the log value next to
the (possibly underflowed) probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Channel names, in the order (N0, N1, N2) / (eps0, eps1, eps2).
CHANNELS = ("idle", "one_qubit", "two_qubit")


class ZeroCountError(ValueError):
    """Inverting the fidelity law over a channel with zero operations."""


def _channel_index(channel: str) -> int:
    try:
        return CHANNELS.index(channel)
    except ValueError:
        raise ValueError(
            f"unknown channel {channel!r}; expected one of {CHANNELS}"
        ) from None


def _check_rate(name: str, value: float) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def _check_count(name: str, value: float) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


def _check_positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class ErrorBudget:
    """Per-operation error probabilities for the three channels.

    ``eps0`` applies per idle slot (one qubit sitting for one time
    step), ``eps1`` per one-qubit gate, ``eps2`` per two-qubit gate.
    Rates live in [0, 1]; a rate of exactly 1 makes its channel fire on
    every operation, which is occasionally useful in tests.
    """

    eps0: float = 0.0
    eps1: float = 0.0
    eps2: float = 0.0

    def __post_init__(self) -> None:
        _check_rate("eps0", self.eps0)
        _check_rate("eps1", self.eps1)
        _check_rate("eps2", self.eps2)

    def rate(self, channel: str) -> float:
        """Rate for a named channel from :data:`CHANNELS`."""
        return (self.eps0, self.eps1, self.eps2)[_channel_index(channel)]


@dataclass(frozen=True)
class OpCounts:
    """Operation tallies (N0 idle slots, N1 one-qubit, N2 two-qubit).

    Python integers keep counts exact at any size; floats are accepted
    for counts that are irrational by construction (for example
    ``n * 2**(n/2)`` at odd n) and carry standard double precision,
    i.e. relative error below 1e-15.
    """

    n0: int | float = 0
    n1: int | float = 0
    n2: int | float = 0

    def __post_init__(self) -> None:
        _check_count("n0", self.n0)
        _check_count("n1", self.n1)
        _check_count("n2", self.n2)

    def __add__(self, other: "OpCounts") -> "OpCounts":
        if not isinstance(other, OpCounts):
            return NotImplemented
        return OpCounts(self.n0 + other.n0, self.n1 + other.n1, self.n2 + other.n2)

    def count(self, channel: str) -> int | float:
        """Count for a named channel from :data:`CHANNELS`."""
        return (self.n0, self.n1, self.n2)[_channel_index(channel)]

    @property
    def total(self) -> int | float:
        return self.n0 + self.n1 + self.n2


@dataclass(frozen=True)
class HardwareProfile:
    """Physical platform parameters used across the estimator.

    Times are seconds, areas m^2, dissipation watts.
    ``time_per_qubit_layer`` is tau, the extra wall-clock time one more
    qubit adds to a computation; tau/t2 is the prefactor of the
    quadratic decay exponent a*n^2.
    """

    name: str
    budget: ErrorBudget
    t2: float
    gate_time_1q: float
    gate_time_2q: float
    cycle_time: float
    time_per_qubit_layer: float
    yield_p: float
    area_per_qubit: float
    dissipation_per_qubit: float

    def __post_init__(self) -> None:
        for field in ("t2", "gate_time_1q", "gate_time_2q", "cycle_time",
                      "time_per_qubit_layer"):
            _check_positive(field, getattr(self, field))
        _check_rate("yield_p", self.yield_p)
        _check_count("area_per_qubit", self.area_per_qubit)
        _check_count("dissipation_per_qubit", self.dissipation_per_qubit)


@dataclass(frozen=True)
class LogProbability:
    """A probability carried by its natural log.

    ``value`` underflows to 0.0 below roughly exp(-745); the log value
    stays finite (or -inf for an exactly-zero probability), so report
    code can always show the magnitude.
    """

    log_value: float

    def __post_init__(self) -> None:
        if self.log_value > 0.0:
            raise ValueError(f"log of a probability must be <= 0, got {self.log_value!r}")

    @property
    def value(self) -> float:
        return math.exp(self.log_value)

    @property
    def underflowed(self) -> bool:
        return self.log_value < 0.0 and self.value == 0.0

    def __float__(self) -> float:
        return self.value


def log_fidelity(budget: ErrorBudget, counts: OpCounts) -> float:
    """Natural log of the success probability, -(eps0*N0 + eps1*N1 + eps2*N2).

    Always finite for finite inputs; never underflows, exponents of
    -1e15 and beyond are returned as-is.
    """
    return -(budget.eps0 * counts.n0 + budget.eps1 * counts.n1 + budget.eps2 * counts.n2)


def fidelity(budget: ErrorBudget, counts: OpCounts) -> LogProbability:
    """Success probability of the whole computation, underflow-safe."""
    return LogProbability(log_fidelity(budget, counts))


def required_error_rate(counts: OpCounts, target_fidelity: float,
                        channel: str) -> float:
    """Largest per-operation rate on one channel compatible with a target fidelity.

    Solves exp(-eps * N_channel) = target for eps, treating the other
    channels as error-free (single-dominant-channel inversion).

    Raises :class:`ZeroCountError` when the selected channel has no
    operations, ValueError for a target outside (0, 1) or a rate that
    underflows to 0 (a target within an ulp of 1 over a huge count).
    """
    if not 0.0 < target_fidelity < 1.0:
        raise ValueError(
            f"target_fidelity must lie in (0, 1), got {target_fidelity!r}")
    n = counts.count(channel)
    if n == 0:
        raise ZeroCountError(
            f"channel {channel!r} has zero operations; no finite rate requirement")
    rate = -math.log(target_fidelity) / n
    if rate == 0.0:
        raise ValueError(
            f"the required {channel} rate, -ln(target_fidelity) = "
            f"{-math.log(target_fidelity):.4g} over {n:.4g} operations, underflows "
            "to 0; use a smaller instance or a lower target_fidelity")
    return rate
