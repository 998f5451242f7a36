"""The references the tests hold the engine against.

``gate_matrix`` writes each gate out as its 2x2 or 4x4 unitary.  The
engine never builds these matrices: it applies gates with strided slice
arithmetic.  So the tests hold the engine's kernel against this
independent reference.

``serial_run`` is the gate-by-gate oracle for the engine's blocks: one
register, one gate at a time.  It moves a CNOT's amplitudes by an exact
index permutation, ``cnot_source``, which the tests check against
``gate_matrix``, and sends every other gate through the engine's kernel
``_apply_inplace``.  Every row of a block must match it bit for bit.
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


def serial_run(circuit: Circuit, insertions: dict[int, tuple[Gate, ...]]) -> np.ndarray:
    """Run the circuit from |0...0> on one register, one gate at a time,
    applying each insertion's Pauli gates right after its gate."""
    n = circuit.n_qubits
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    scratch = np.empty_like(state)
    for i, gate in enumerate(circuit.gates):
        for g in (gate, *insertions.get(i, ())):
            if g.kind == "CNOT":
                state = state[cnot_source(n, *g.targets)]
            else:
                _apply_inplace(state[None, :, None], g, n, scratch)
    return state
