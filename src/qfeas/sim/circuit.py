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
from typing import Iterator

import numpy as np

from ..model import OpCounts, Record
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


class Circuit(Record):
    """An n-qubit register and the gates applied to it, in order.

    The circuit numbers its distinct Gate objects once: ``distinct``
    holds each of them once, and ``code[g]`` is the position in
    ``distinct`` of gate g's object.  A search circuit repeats a few dozen
    objects (84 on 10 qubits) over about 10^5 gates, so validation, text,
    counts and the engine's plan work per distinct object and spread
    their results by ``code``.  Both are set by ``__post_init__`` and are
    not fields: they take no part in construction, equality or repr.
    """

    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.n_qubits, int) or isinstance(self.n_qubits, bool):
            raise TypeError(f"n_qubits must be an integer, got {self.n_qubits!r}")
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(
                f"n_qubits must lie in [1, {MAX_QUBITS}], got {self.n_qubits}")
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        # the tuple keeps every object alive, so ids stay distinct
        ids = np.fromiter(map(id, gates), dtype=np.intp, count=len(gates))
        _, first_use, code = np.unique(ids, return_index=True, return_inverse=True)
        first_use = first_use.tolist()
        distinct = tuple(gates[g] for g in first_use)
        # each distinct object is checked once; a failure names the first
        # bad index, the smallest first use among the bad objects
        n = self.n_qubits
        bad = [(g, gate) for g, gate in zip(first_use, distinct)
               if not isinstance(gate, Gate) or max(gate.targets) >= n]
        if bad:
            g, gate = min(bad, key=lambda entry: entry[0])
            if not isinstance(gate, Gate):
                raise TypeError(f"gates[{g}] is not a Gate: {gate!r}")
            raise BadTargetError(
                f"gates[{g}] ({gate.kind}) targets {gate.targets} outside a "
                f"{n}-qubit register")
        code.setflags(write=False)
        object.__setattr__(self, "distinct", distinct)
        object.__setattr__(self, "code", code)

    @classmethod
    def repeated(cls, n_qubits: int, head: tuple[Gate, ...], body: tuple[Gate, ...],
                 times: int) -> "Circuit":
        """``Circuit(n_qubits, head + body * times)``, equal to it field for
        field, but validated and numbered from ``head + body`` alone: the
        body's codes are tiled ``times`` times.  With ``times`` below 1
        the body is neither validated nor numbered, as it holds no gate."""
        head, body = tuple(head), tuple(body)
        circuit = cls(n_qubits, head + body * min(times, 1))
        if times > 1:
            object.__setattr__(circuit, "gates", head + body * times)
            code = np.concatenate((circuit.code, np.tile(circuit.code[len(head):], times - 1)))
            code.setflags(write=False)
            object.__setattr__(circuit, "code", code)
        return circuit

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def channels(self) -> np.ndarray:
        """Each gate's noise channel by ``CHANNEL_OF_KIND`` (IDLE -> 0,
        other one-qubit kinds -> 1, two-qubit -> 2), as an int8 array."""
        return np.array([CHANNEL_OF_KIND[gate.kind] for gate in self.distinct],
                        dtype=np.int8)[self.code]

    def counts(self) -> OpCounts:
        """Operation tallies: IDLE slots as N0, one-qubit gates as N1,
        two-qubit gates as N2."""
        return OpCounts(*np.bincount(self.channels(), minlength=3).tolist())

    def to_text(self) -> str:
        """Canonical text form; see the module docstring."""
        lines = [" ".join((gate.kind, *map(str, gate.targets),
                           *(() if gate.theta is None else (repr(gate.theta),))))
                 for gate in self.distinct]
        return "\n".join((f"qubits {self.n_qubits}",
                          *map(lines.__getitem__, self.code.tolist()))) + "\n"

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
