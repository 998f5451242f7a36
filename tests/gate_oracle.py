"""The dense reference for the gate set.

``gate_matrix`` writes each gate out as its 2x2 or 4x4 unitary.  The
engine never builds these matrices: it applies gates with strided slice
arithmetic.  So the tests hold the engine against this independent
reference.
"""

import cmath
import math

import numpy as np

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
