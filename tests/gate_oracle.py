"""The references the tests hold the engine against.

``gate_matrix`` writes each gate out as its 2x2 or 4x4 unitary, and
``dense_run`` runs a circuit as the product of those unitaries, each
written out over the whole register.  The engine never builds these
matrices: it applies gates with strided slice arithmetic and runs a
stretch of CNOT and RZ gates as a phase polynomial.  So the tests hold
the engine against this independent reference, to within rounding.

``serial_run`` is the gate-by-gate oracle for the engine's blocks: one
register, one gate at a time.  It applies a stretch of CNOT and RZ gates
on two qubits or more by the engine's definition, on a table of the
logical index each amplitude holds, and sends every other gate through
the engine's kernel ``_apply_inplace``.  Every row of a block must match
it bit for bit.  ``cnot_source``, the index permutation of one CNOT,
which the tests check against ``gate_matrix``, builds that table.
"""

import cmath
import math

import numpy as np

from qfeas.sim.circuit import Circuit
from qfeas.sim.engine import _apply_inplace
from qfeas.sim.gates import Gate

_SQ2 = math.sqrt(0.5)
_T_PHASE = cmath.exp(0.25j * math.pi)


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense unitary of the gate, 2x2 or 4x4 (first target = high bit)."""
    k = gate.kind
    if k == "H":
        return np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128)
    if k == "X":
        return np.array([[0, 1], [1, 0]], dtype=np.complex128)
    if k == "Y":
        return np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    if k == "Z":
        return np.diag([1, -1]).astype(np.complex128)
    if k == "S":
        return np.diag([1, 1j]).astype(np.complex128)
    if k == "T":
        return np.diag([1, _T_PHASE]).astype(np.complex128)
    if k == "IDLE":
        return np.eye(2, dtype=np.complex128)
    if k == "RZ":
        half = gate.theta / 2.0
        return np.diag([cmath.exp(-1j * half), cmath.exp(1j * half)]).astype(np.complex128)
    if k == "RX":
        c = math.cos(gate.theta / 2.0)
        sv = -1j * math.sin(gate.theta / 2.0)
        return np.array([[c, sv], [sv, c]], dtype=np.complex128)
    if k == "CZ":
        return np.diag([1, 1, 1, -1]).astype(np.complex128)
    if k == "CNOT":
        m = np.eye(4, dtype=np.complex128)
        m[[2, 3]] = m[[3, 2]]
        return m
    raise AssertionError(f"unhandled kind {k!r}")


def cnot_source(n: int, control: int, target: int) -> np.ndarray:
    """CNOT(control, target) on n qubits as an index permutation: the
    amplitude it leaves at index i is the one at ``source[i]``, which is
    i with the target bit flipped where the control bit is set (qubit 0
    is the high bit)."""
    index = np.arange(1 << n)
    flip = np.where(index & (1 << (n - 1 - control)), 1 << (n - 1 - target), 0)
    return index ^ flip


def embedded_matrix(gate: Gate, n: int) -> np.ndarray:
    """The gate's ``gate_matrix`` over the whole 2^n basis: the entry at
    (i, j) is the matrix's entry for the target bits of i and j where
    their other bits agree, and 0 elsewhere."""
    index = np.arange(1 << n)
    sub, rest = np.zeros_like(index), index.copy()
    for q in gate.targets:
        bit = 1 << (n - 1 - q)
        sub = sub << 1 | (index & bit != 0)
        rest &= ~bit
    return np.where(rest[:, None] == rest[None, :],
                    gate_matrix(gate)[sub[:, None], sub[None, :]], 0)


def dense_run(circuit: Circuit, insertions: dict[int, tuple[Gate, ...]]) -> np.ndarray:
    """|0...0> times the product of the embedded unitaries of the gates
    and, right after each gate, its insertion's Pauli gates."""
    n = circuit.n_qubits
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    for i, gate in enumerate(circuit.gates):
        for g in (gate, *insertions.get(i, ())):
            state = embedded_matrix(g, n) @ state
    return state


class _Stretch:
    """A stretch of CNOT and RZ gates on one register, by the engine's
    definition.  ``logical[x]`` is the logical index of the amplitude
    stored at x, the stretch's start position; qubit q's mask, the x
    bits whose parity is its logical bit, is read off the table at the
    unit positions.  ``phase`` maps a mask m to the coefficient c[m] of
    the pending phase, the sum over m of c[m] * (-1)^parity(m & x)."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.logical = np.arange(1 << n)
        self.phase: dict[int, float] = {}

    def bit(self, q: int) -> np.ndarray:
        return self.logical >> (self.n - 1 - q) & 1

    def gate(self, gate: Gate) -> None:
        if gate.kind == "CNOT":
            self.logical = cnot_source(self.n, *gate.targets)[self.logical]
            return
        q = gate.targets[0]
        mask = sum(int(self.bit(q)[1 << p]) << p for p in range(self.n))
        self.phase[mask] = self.phase.get(mask, 0.0) - gate.theta / 2.0

    def pauli(self, state: np.ndarray, gate: Gate) -> np.ndarray:
        """An X, Y or Z on the unflushed amplitudes: Y is i X Z."""
        q = gate.targets[0]
        if gate.kind != "X":
            np.negative(state, out=state, where=self.bit(q) == 1)
        if gate.kind != "Z":
            # x ^ flip holds the logical index of x with qubit q's bit flipped
            flip = int(np.flatnonzero(self.logical == 1 << (self.n - 1 - q))[0])
            state = state[np.arange(state.size) ^ flip]
            self.phase = {m: -c if bin(m & flip).count("1") % 2 else c
                          for m, c in self.phase.items()}
        if gate.kind == "Y":
            state *= 1j
        return state

    def close(self, state: np.ndarray) -> np.ndarray:
        """Multiply by the pending phases, then put each amplitude at its
        logical index."""
        if self.phase:
            angle = np.zeros(state.size)
            for m, c in self.phase.items():
                angle[m] = c
            cube = angle.reshape((2,) * self.n)
            for axis in reversed(range(self.n)):  # the lowest bit first
                lo, hi = np.split(cube, 2, axis=axis)
                cube = np.concatenate((lo + hi, lo - hi), axis=axis)
            state = state * np.exp(1j * cube.reshape(-1))
        out = np.empty_like(state)
        out[self.logical] = state
        return out


def serial_run(circuit: Circuit, insertions: dict[int, tuple[Gate, ...]]) -> np.ndarray:
    """Run the circuit from |0...0> on one register, one gate at a time,
    applying each insertion's Pauli gates right after its gate; on two
    qubits or more a stretch of CNOT and RZ gates runs as a ``_Stretch``,
    closed before any other gate and after the last."""
    n = circuit.n_qubits
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    scratch = np.empty_like(state)
    stretch = None
    for i, gate in enumerate(circuit.gates):
        if n >= 2 and gate.kind in ("CNOT", "RZ"):
            stretch = stretch or _Stretch(n)
            stretch.gate(gate)
        else:
            if stretch is not None:
                state, stretch = stretch.close(state), None
            _apply_inplace(state[None, :, None], gate, n, scratch)
        for pauli in insertions.get(i, ()):
            if stretch is not None:
                state = stretch.pauli(state, pauli)
            else:
                _apply_inplace(state[None, :, None], pauli, n, scratch)
    if stretch is not None:
        state = stretch.close(state)
    return state
