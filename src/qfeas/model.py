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
from operator import attrgetter

#: Channel names, in the order (N0, N1, N2) / (eps0, eps1, eps2).
CHANNELS = ("idle", "one_qubit", "two_qubit")


class Record:
    """Base of the package's immutable value types.

    A subclass lists its fields as class annotations, in order, and gives
    a default as a class attribute.  It gets what a frozen dataclass gave:
    positional and keyword construction followed by ``__post_init__``
    (which may still set fields with ``object.__setattr__``), assignment
    and deletion refused with AttributeError, equality by exact class and
    field values with a matching hash, the ``Cls(name=value, ...)`` repr,
    and :meth:`replace`.  ``_fields`` and ``_field_defaults`` hold the
    field names and the defaults, as on a namedtuple.  Unlike
    ``dataclasses``, nothing is compiled per class, so importing the
    package stays cheap.
    """

    _fields: tuple[str, ...] = ()
    _field_defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__annotations__)
        cls._field_defaults = {name: getattr(cls, name) for name in fields
                               if name in cls.__dict__}
        cls._field_set = frozenset(fields)
        # not a function, so instances read it unbound: self._values(self)
        cls._values = attrgetter(*fields)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = {**self._field_defaults, **dict(zip(fields, args)), **kwargs}
            if (len(args) > len(fields) or values.keys() != self._field_set
                    or not kwargs.keys().isdisjoint(fields[:len(args)])):
                raise TypeError(f"{type(self).__qualname__}() takes the fields "
                                f"{', '.join(fields)}; got {len(args)} positional "
                                f"arguments and the keywords {list(kwargs)}")
            self.__dict__.update(values)
        else:
            self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate and normalise the fields; records without checks keep this."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, built and checked anew."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields},
                             **changes})


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


class ErrorBudget(Record):
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


class OpCounts(Record):
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

    def count(self, channel: str) -> int | float:
        """Count for a named channel from :data:`CHANNELS`."""
        return (self.n0, self.n1, self.n2)[_channel_index(channel)]

    @property
    def total(self) -> int | float:
        return self.n0 + self.n1 + self.n2


class HardwareProfile(Record):
    """Physical platform parameters used across the estimator.

    Times are seconds, areas m^2, dissipation watts.
    """

    name: str
    budget: ErrorBudget
    gate_time_2q: float
    cycle_time: float
    yield_p: float
    area_per_qubit: float
    dissipation_per_qubit: float

    def __post_init__(self) -> None:
        _check_positive("gate_time_2q", self.gate_time_2q)
        _check_positive("cycle_time", self.cycle_time)
        _check_rate("yield_p", self.yield_p)
        _check_count("area_per_qubit", self.area_per_qubit)
        _check_count("dissipation_per_qubit", self.dissipation_per_qubit)


class LogProbability(Record):
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
