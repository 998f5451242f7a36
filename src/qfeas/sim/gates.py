"""Gate vocabulary for the state-vector simulator.

Qubit 0 is the most significant bit of the basis-state index, so on two
qubits |10> is index 2.  For two-qubit gates the first target is the
control (CNOT) or simply the first wire (CZ is symmetric).
"""

from __future__ import annotations

import cmath
import math

from ..model import Record

ONE_QUBIT_KINDS = ("H", "X", "Y", "Z", "S", "T", "RZ", "RX", "IDLE")
TWO_QUBIT_KINDS = ("CZ", "CNOT")
PARAMETRIC_KINDS = ("RZ", "RX")

#: Noise channel of each kind: an index into (eps0, eps1, eps2) and
#: (N0, N1, N2), so IDLE -> 0, other one-qubit kinds -> 1, two-qubit -> 2.
CHANNEL_OF_KIND = {**dict.fromkeys(ONE_QUBIT_KINDS, 1), "IDLE": 0,
                   **dict.fromkeys(TWO_QUBIT_KINDS, 2)}

_SQ2 = math.sqrt(0.5)
_T_PHASE = cmath.exp(0.25j * math.pi)


class BadTargetError(ValueError):
    """Gate targets out of range, repeated, or otherwise unusable."""


class Gate(Record):
    """One circuit operation: a kind, its target wires, an angle if any."""

    kind: str
    targets: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ONE_QUBIT_KINDS and self.kind not in TWO_QUBIT_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        targets = tuple(self.targets)
        object.__setattr__(self, "targets", targets)
        arity = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if len(targets) != arity:
            raise BadTargetError(
                f"{self.kind} takes {arity} target(s), got {targets!r}")
        for t in targets:
            if not isinstance(t, int) or isinstance(t, bool) or t < 0:
                raise BadTargetError(f"targets must be non-negative ints, got {targets!r}")
        if len(set(targets)) != len(targets):
            raise BadTargetError(f"duplicate targets {targets!r}")
        if self.kind in PARAMETRIC_KINDS:
            if self.theta is None:
                raise ValueError(f"{self.kind} requires an angle")
            theta = float(self.theta)
            if not math.isfinite(theta):
                raise ValueError(f"{self.kind} angle must be finite, got {theta!r}")
            object.__setattr__(self, "theta", theta)
        elif self.theta is not None:
            raise ValueError(f"{self.kind} takes no angle")

    @property
    def is_two_qubit(self) -> bool:
        return self.kind in TWO_QUBIT_KINDS


def h(q: int) -> Gate:
    return Gate("H", (q,))


def x(q: int) -> Gate:
    return Gate("X", (q,))


def y(q: int) -> Gate:
    return Gate("Y", (q,))


def z(q: int) -> Gate:
    return Gate("Z", (q,))


def s(q: int) -> Gate:
    return Gate("S", (q,))


def t(q: int) -> Gate:
    return Gate("T", (q,))


def rz(q: int, theta: float) -> Gate:
    return Gate("RZ", (q,), theta)


def rx(q: int, theta: float) -> Gate:
    return Gate("RX", (q,), theta)


def cz(a: int, b: int) -> Gate:
    return Gate("CZ", (a, b))


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def idle(q: int) -> Gate:
    return Gate("IDLE", (q,))
