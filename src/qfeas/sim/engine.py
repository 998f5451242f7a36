"""State-vector engine with Monte-Carlo stochastic Pauli noise.

Gates act through strided slice arithmetic on complex128 amplitudes (no
matrix products), so a run is a fixed sequence of elementwise operations
and its output is reproducible bit for bit.  The same kernel takes one
register, a 1-D array of 2^n amplitudes, or a block of registers, a
(rows, 2^n) array: the rows fold into the leading axis of each reshape,
and every amplitude sees the same operations either way.  (numpy rounds
a complex product on a single amplitude by another loop than on several,
so 1-qubit trajectories run one row per block.)

Noisy trajectories run as the rows of such blocks, each block capped at
``_BATCH_BYTES``.  Every gate is applied once to the whole block, and a
Pauli insertion afterwards to its own row.  A noise site stores only its
gate's index, rate and targets; the Pauli gates of an insertion are
built only when the site fires.

An observable is ``observe(ideal, state)``, a float from the noiseless
final state and one trajectory's.  The noiseless (ideal) run is the
trajectory with no insertions: it rides as row 0 of the first block, and
a trajectory that draws no insertion is not simulated but contributes
``observe(ideal, ideal)``.  A circuit with no noise site runs the ideal
alone, draws nothing, and gives ``(observe(ideal, ideal), 0.0)``.

Noise realization per trajectory, given the trajectory seed:

1. the trajectory's generator is ``Generator(Philox(seed))``;
2. one block ``rng.random(len(sites))`` is drawn, where sites are the
   gates with a nonzero rate for their channel (IDLE -> eps0, other
   one-qubit -> eps1, two-qubit -> eps2), in circuit order;
3. for each site whose uniform fell below its rate, in the same order,
   one ``rng.integers(0, n_choices)`` picks the Pauli to insert after
   that gate: uniformly from {X, Y, Z} on the target of a one-qubit or
   IDLE site, uniformly from the 15 non-identity two-qubit Pauli
   products, ordered (I,X), (I,Y), (I,Z), (X,I), (X,X), ... on a
   two-qubit site.

Trajectories use seeds seed, seed+1, ..., so the whole estimate is a
pure function of (circuit, noise, n_traj, seed).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..model import ErrorBudget
from .circuit import MAX_QUBITS, Circuit
from .gates import _SQ2, _T_PHASE, CHANNEL_OF_KIND, BadTargetError, Gate

#: A register state: 2^n complex128 amplitudes, qubit 0 = high bit.
QuantumState = np.ndarray

PAULI_1Q = ("X", "Y", "Z")

_PAULI_NAMES = ("I", "X", "Y", "Z")

#: The 15 non-identity two-qubit Pauli products, row-major over
#: (first qubit, second qubit) with (I, I) skipped.
PAULI_PAIRS = tuple(
    (_PAULI_NAMES[k // 4], _PAULI_NAMES[k % 4]) for k in range(1, 16)
)


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic Pauli insertion driven by an :class:`ErrorBudget`."""

    budget: ErrorBudget

    @property
    def is_null(self) -> bool:
        b = self.budget
        return b.eps0 == 0.0 and b.eps1 == 0.0 and b.eps2 == 0.0


@dataclass(frozen=True)
class FidelityEstimate:
    """Monte-Carlo estimate of the overlap with the ideal final state."""

    mean: float
    std_error: float
    n_trajectories: int
    seed: int


def zero_state(n_qubits: int) -> QuantumState:
    """|00...0> on n qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must lie in [1, {MAX_QUBITS}], got {n_qubits}")
    state = np.zeros(1 << n_qubits, dtype=np.complex128)
    state[0] = 1.0
    return state


def _register_width(state: np.ndarray) -> int:
    if state.ndim != 1:
        raise ValueError("state must be a 1-D array of amplitudes")
    size = state.shape[0]
    n = size.bit_length() - 1
    if size < 2 or (1 << n) != size:
        raise ValueError(f"state length must be 2^n with n >= 1, got {size}")
    return n


def _check_targets(gate: Gate, n_qubits: int) -> None:
    for q in gate.targets:
        if q >= n_qubits:
            raise BadTargetError(
                f"{gate.kind} targets {gate.targets} outside a "
                f"{n_qubits}-qubit register")


def _apply_inplace(state: np.ndarray, gate: Gate, n: int) -> None:
    kind = gate.kind
    if kind == "IDLE":
        return
    if not gate.is_two_qubit:
        q = gate.targets[0]
        m = state.reshape(-1, 2, 1 << (n - q - 1))
        a = m[:, 0, :]
        b = m[:, 1, :]
        if kind == "X":
            tmp = a.copy()
            a[:] = b
            b[:] = tmp
        elif kind == "Z":
            b *= -1.0
        elif kind == "H":
            tmp = a.copy()
            np.add(tmp, b, out=a)
            a *= _SQ2
            np.subtract(tmp, b, out=b)
            b *= _SQ2
        elif kind == "T":
            b *= _T_PHASE
        elif kind == "S":
            b *= 1j
        elif kind == "Y":
            tmp = a.copy()
            np.multiply(b, -1j, out=a)
            np.multiply(tmp, 1j, out=b)
        elif kind == "RZ":
            half = gate.theta / 2.0
            a *= cmath.exp(-1j * half)
            b *= cmath.exp(1j * half)
        elif kind == "RX":
            c = math.cos(gate.theta / 2.0)
            sv = -1j * math.sin(gate.theta / 2.0)
            tmp = a.copy()
            a *= c
            a += sv * b
            b *= c
            b += sv * tmp
        else:
            raise AssertionError(f"unhandled kind {kind!r}")
        return
    t0, t1 = gate.targets
    p0, p1 = (t0, t1) if t0 < t1 else (t1, t0)
    v = state.reshape(-1, 2, 1 << (p1 - p0 - 1), 2, 1 << (n - p1 - 1))
    if kind == "CZ":
        v[:, 1, :, 1, :] *= -1.0
    elif kind == "CNOT":
        if t0 < t1:  # control is the earlier axis
            sub = v[:, 1]
            tmp = sub[:, :, 0, :].copy()
            sub[:, :, 0, :] = sub[:, :, 1, :]
            sub[:, :, 1, :] = tmp
        else:
            sub = v[:, :, :, 1, :]
            tmp = sub[:, 0].copy()
            sub[:, 0] = sub[:, 1]
            sub[:, 1] = tmp
    else:
        raise AssertionError(f"unhandled kind {kind!r}")


def apply_gate(state: QuantumState, gate: Gate) -> QuantumState:
    """The gate's unitary applied to a copy of the state."""
    out = np.array(state, dtype=np.complex128)
    n = _register_width(out)
    _check_targets(gate, n)
    _apply_inplace(out, gate, n)
    return out


def run_ideal(circuit: Circuit) -> QuantumState:
    """Left-to-right noiseless application of the whole circuit to |0...0>."""
    state = zero_state(circuit.n_qubits)
    for gate in circuit.gates:
        _apply_inplace(state, gate, circuit.n_qubits)
    return state


#: One potential insertion point: (gate index, firing rate, gate targets).
_Site = tuple[int, float, tuple[int, ...]]

#: One trajectory's insertions: gate index -> Pauli gates applied after it.
_Insertions = dict[int, tuple[Gate, ...]]


def noise_sites(circuit: Circuit, noise: NoiseModel) -> list[_Site]:
    """Insertion sites in circuit order; zero-rate channels contribute none."""
    budget = noise.budget
    rates = (budget.eps0, budget.eps1, budget.eps2)
    return [(i, rate, gate.targets) for i, gate in enumerate(circuit.gates)
            if (rate := rates[CHANNEL_OF_KIND[gate.kind]]) != 0.0]


def sample_insertions(sites: list[_Site], traj_seed: int) -> _Insertions:
    """Draw one trajectory's insertions; see the module docstring for
    the exact draw order."""
    rng = np.random.Generator(np.random.Philox(traj_seed))
    if not sites:
        return {}
    uniforms = rng.random(len(sites))
    insertions: _Insertions = {}
    for u, (index, rate, targets) in zip(uniforms.tolist(), sites):
        if u < rate:
            if len(targets) == 2:
                paulis = zip(PAULI_PAIRS[int(rng.integers(0, 15))], targets)
                insertions[index] = tuple(Gate(p, (q,)) for p, q in paulis if p != "I")
            else:
                insertions[index] = (Gate(PAULI_1Q[int(rng.integers(0, 3))], targets),)
    return insertions


def run_with_insertions(circuit: Circuit, insertions: _Insertions) -> QuantumState:
    """Run the circuit from |0...0>, applying each insertion right after
    its gate."""
    state = zero_state(circuit.n_qubits)
    n = circuit.n_qubits
    for i, gate in enumerate(circuit.gates):
        _apply_inplace(state, gate, n)
        extra = insertions.get(i)
        if extra is not None:
            for pauli in extra:
                _apply_inplace(state, pauli, n)
    return state


def run_trajectory(circuit: Circuit, noise: NoiseModel, seed: int) -> QuantumState:
    """One stochastic realization; identical seed gives identical bits."""
    insertions = sample_insertions(noise_sites(circuit, noise), seed)
    return run_with_insertions(circuit, insertions)


def state_fidelity(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>|^2 normalized by both norms; exactly 1.0 for identical states."""
    overlap = np.vdot(a, b)
    denom = np.vdot(a, a).real * np.vdot(b, b).real
    return float((overlap.real ** 2 + overlap.imag ** 2) / denom)


#: Cap on the bytes of one block of trajectory states: a block holds
#: max(1, _BATCH_BYTES // (16 * 2^n)) rows of 2^n amplitudes.
_BATCH_BYTES = 1 << 20


def _run_block(circuit: Circuit, insertions_list: list[_Insertions]) -> np.ndarray:
    """Run each entry of ``insertions_list`` as one row of a (rows, 2^n)
    array and return the array.

    Each gate acts once on the whole array; an insertion then acts on its
    own row, so every row sees the serial run's operations in its order.
    """
    n = circuit.n_qubits
    states = np.zeros((len(insertions_list), 1 << n), dtype=np.complex128)
    states[:, 0] = 1.0
    after: dict[int, list[tuple[int, tuple[Gate, ...]]]] = {}
    for r, insertions in enumerate(insertions_list):
        for index, paulis in insertions.items():
            after.setdefault(index, []).append((r, paulis))
    for g, gate in enumerate(circuit.gates):
        _apply_inplace(states, gate, n)
        for r, paulis in after.get(g, ()):
            for pauli in paulis:
                _apply_inplace(states[r], pauli, n)
    return states


def _blocks(sites: list[_Site], n_traj: int, seed: int, rows: int,
            clean: np.ndarray) -> Iterator[tuple[list[int], list[_Insertions]]]:
    """Draw the trajectories' insertions in order, set clean[i] for each
    trajectory i that drew none, and yield the others as (trajectories,
    insertions) blocks of at most ``rows``.  The first block, yielded
    even when no trajectory drew anything, begins with the ideal row."""
    owners: list[int] = []
    block: list[_Insertions] = [{}]
    for i in range(n_traj):
        insertions = sample_insertions(sites, seed + i)
        if not insertions:
            clean[i] = True
            continue
        if len(block) == rows:
            yield owners, block
            owners, block = [], []
        owners.append(i)
        block.append(insertions)
    yield owners, block


def mean_over_trajectories(
        circuit: Circuit, noise: NoiseModel, n_traj: int, seed: int,
        observe: Callable[[QuantumState, QuantumState], float]) -> tuple[float, float]:
    """Mean and standard error of ``observe(ideal, state)`` over n_traj
    trajectories' final states; trajectory i uses seed+i.  The ideal run
    and the trajectories that drew an insertion run as the rows of blocks
    of at most ``_BATCH_BYTES``; see the module docstring."""
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    sites = noise_sites(circuit, noise)
    if not sites:
        ideal = _run_block(circuit, [{}])[0]
        return observe(ideal, ideal), 0.0
    n = circuit.n_qubits
    # On one qubit, T and RZ multiply a single amplitude per row, and numpy
    # rounds a one-element complex product differently from the same
    # product inside its vector loop; so those rows run one at a time.
    rows = 1 if n == 1 else max(1, _BATCH_BYTES // (16 << n))
    values = np.empty(n_traj, dtype=np.float64)
    clean = np.zeros(n_traj, dtype=bool)
    ideal = None
    for owners, block in _blocks(sites, n_traj, seed, rows, clean):
        states = _run_block(circuit, block)
        if ideal is None:
            ideal = states[0].copy()
        for r, i in enumerate(owners, start=len(block) - len(owners)):
            values[i] = observe(ideal, states[r])
        del states  # free this block before the next one is allocated
    values[clean] = observe(ideal, ideal)
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else 0.0
    return mean, std_error


def estimate_fidelity(circuit: Circuit, noise: NoiseModel, n_traj: int,
                      seed: int) -> FidelityEstimate:
    """Mean overlap with the ideal state over n_traj trajectories; a
    trajectory with no insertions contributes exactly 1.0."""
    mean, std_error = mean_over_trajectories(circuit, noise, n_traj, seed,
                                             state_fidelity)
    return FidelityEstimate(mean=mean, std_error=std_error,
                            n_trajectories=n_traj, seed=seed)
