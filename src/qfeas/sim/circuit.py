"""Circuits: ordered gate lists with exact operation tallies, a
line-oriented text serialization, and seeded random-circuit generation.

Text format, one gate per line, `#` starts a comment:

    qubits 3
    H 0
    RX 1 1.5707963267948966
    CZ 0 2

Angles are written with repr() so the round-trip is exact.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..model import OpCounts
from . import MAX_QUBITS
from .gates import (
    CHANNEL_OF_KIND,
    PARAMETRIC_KINDS,
    BadTargetError,
    Gate,
    cz,
    h,
    rx,
    t,
)


def _first_use(gates: tuple[Gate, ...], gate: Gate) -> int:
    """The index of the first occurrence of the object ``gate``."""
    return next(i for i, used in enumerate(gates) if used is gate)


@dataclass(frozen=True)
class Circuit:
    """An n-qubit register and the gates applied to it, in order."""

    n_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.n_qubits, int) or isinstance(self.n_qubits, bool):
            raise TypeError(f"n_qubits must be an integer, got {self.n_qubits!r}")
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(
                f"n_qubits must lie in [1, {MAX_QUBITS}], got {self.n_qubits}")
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        # A search circuit repeats its phase networks' Gate objects, so each
        # distinct object is checked once, in order of first use (the tuple
        # keeps every id alive); a failure names that first use's index.
        n = self.n_qubits
        for gate in dict(zip(map(id, gates), gates)).values():
            if not isinstance(gate, Gate):
                raise TypeError(f"gates[{_first_use(gates, gate)}] is not a Gate: {gate!r}")
            if max(gate.targets) >= n:
                raise BadTargetError(
                    f"gates[{_first_use(gates, gate)}] ({gate.kind}) targets "
                    f"{gate.targets} outside a {n}-qubit register")

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def counts(self) -> OpCounts:
        """Operation tallies: IDLE slots as N0, one-qubit gates as N1,
        two-qubit gates as N2."""
        tally = [0, 0, 0]
        for gate in self.gates:
            tally[CHANNEL_OF_KIND[gate.kind]] += 1
        return OpCounts(*tally)

    def to_text(self) -> str:
        """Canonical text form; see the module docstring."""
        lines = [f"qubits {self.n_qubits}"]
        for gate in self.gates:
            parts = [gate.kind, *(str(q) for q in gate.targets)]
            if gate.theta is not None:
                parts.append(repr(gate.theta))
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        """Parse the text form; raises ValueError with a line number."""
        n_qubits = None
        gates: list[Gate] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if n_qubits is None:
                if tokens[0].lower() != "qubits" or len(tokens) != 2:
                    raise ValueError(
                        f"line {lineno}: expected 'qubits N' header, got {line!r}")
                try:
                    n_qubits = int(tokens[1])
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: qubit count must be an integer") from None
                continue
            kind = tokens[0].upper()
            try:
                gates.append(_parse_gate(kind, tokens[1:]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        if n_qubits is None:
            raise ValueError("missing 'qubits N' header")
        return cls(n_qubits, tuple(gates))

    def digest(self) -> str:
        """SHA-256 of the canonical text form."""
        return hashlib.sha256(self.to_text().encode("ascii")).hexdigest()


def _parse_gate(kind: str, args: list[str]) -> Gate:
    from .gates import ONE_QUBIT_KINDS, TWO_QUBIT_KINDS

    if kind not in ONE_QUBIT_KINDS and kind not in TWO_QUBIT_KINDS:
        raise ValueError(f"unknown gate {kind!r}")
    n_targets = 2 if kind in TWO_QUBIT_KINDS else 1
    n_args = n_targets + (1 if kind in PARAMETRIC_KINDS else 0)
    if len(args) != n_args:
        raise ValueError(f"{kind} takes {n_args} argument(s), got {len(args)}")
    try:
        targets = tuple(int(a) for a in args[:n_targets])
    except ValueError:
        raise ValueError(f"{kind} targets must be integers: {args[:n_targets]}") from None
    theta = None
    if kind in PARAMETRIC_KINDS:
        try:
            theta = float(args[-1])
        except ValueError:
            raise ValueError(f"{kind} angle must be a number: {args[-1]!r}") from None
    return Gate(kind, targets, theta)


def random_circuit(n: int, depth: int, seed: int,
                   pairs_per_layer: int | None = None) -> Circuit:
    """Benchmarking-style random circuit, deterministic in (n, depth, seed).

    Each layer applies one random single-qubit gate from {H, T, RX(pi/2)}
    to every qubit, then CZ on `pairs_per_layer` disjoint pairs drawn
    from a seeded permutation (default: the maximal n//2 pairing).
    Counts are exact: N1 = depth*n, N2 = depth*pairs_per_layer.  Every
    layer reuses one Gate object per (kind, qubit) and per CZ pair.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    max_pairs = n // 2
    if pairs_per_layer is None:
        pairs_per_layer = max_pairs
    if not 1 <= pairs_per_layer <= max_pairs:
        raise ValueError(
            f"pairs_per_layer must lie in [1, {max_pairs}], got {pairs_per_layer}")
    rng = np.random.Generator(np.random.Philox(seed))
    half_pi = math.pi / 2
    single = [(h(q), t(q), rx(q, half_pi)) for q in range(n)]
    pairs: dict[tuple[int, int], Gate] = {}
    gates: list[Gate] = []
    for _ in range(depth):
        picks = rng.integers(0, 3, size=n).tolist()
        gates += [single[q][pick] for q, pick in enumerate(picks)]
        perm = rng.permutation(n).tolist()
        for i in range(pairs_per_layer):
            a, b = perm[2 * i], perm[2 * i + 1]
            pair = (min(a, b), max(a, b))
            if pair not in pairs:
                pairs[pair] = cz(*pair)
            gates.append(pairs[pair])
    return Circuit(n, tuple(gates))
