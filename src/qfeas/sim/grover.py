"""Grover search circuits over the engine's gate set, and their
noisy/noiseless success probabilities.

The multi-controlled Z at the heart of the oracle and the diffusion
operator is expanded by a fixed subset-parity network (see
:func:`controlled_phase_gates`), so every construction has exact,
reproducible gate counts.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import MAX_QUBITS, check_marked
from .circuit import Circuit
from .engine import Estimate, NoiseModel, mean_over_trajectories
from .gates import Gate, cnot, h, rz, x


def controlled_phase_gates(qubits: Sequence[int], theta: float) -> list[Gate]:
    """Phase exp(i*theta) on the all-ones subspace of `qubits`, up to a
    global phase, as RZ and CNOT gates.

    The all-ones indicator expands over subset parities: each non-empty
    subset S of the wires carries a rotation of angle
    (-1)^(|S|+1) * theta / 2^(m-1).  Subsets are grouped by their
    highest wire and their parity is folded onto it with CNOTs walked
    in Gray-code order, so consecutive subsets differ by a single fold.
    Emits exactly 2^m - 1 RZ and 2^m - 2 CNOT gates for m wires, built
    as one Gate object per CNOT (control, target) and per RZ (wire,
    +-angle), each reused wherever the network repeats it.
    """
    qs = sorted(qubits)
    m = len(qs)
    if m < 1 or len(set(qs)) != m:
        raise ValueError(f"qubits must be distinct and non-empty, got {qubits!r}")
    base = theta / (1 << (m - 1))
    out: list[Gate] = []
    for i, q in enumerate(qs):
        folds = [cnot(c, q) for c in qs[:i]]
        turns = (rz(q, -base), rz(q, base))  # by the parity of |S|
        out.append(turns[1])  # S = {q}, odd size
        gray = 0
        for step in range(1, 1 << i):
            code = step ^ (step >> 1)
            flip = (code ^ gray).bit_length() - 1
            gray = code
            out.append(folds[flip])
            out.append(turns[(1 + gray.bit_count()) % 2])
        for bit in range(i):  # unfold whatever the walk left behind
            if gray >> bit & 1:
                out.append(folds[bit])
    return out


def build_grover_circuit(n: int, marked: str, iterations: int) -> Circuit:
    """Standard search circuit: H layer, then per iteration a phase
    oracle on `marked` followed by the diffusion operator.

    The oracle conjugates a multi-controlled Z with X on the qubits
    where `marked` has a 0 bit (qubit 0 = leftmost character); the
    diffusion operator is H X (MCZ) X H on every wire.  Global phases
    are not tracked.  Every iteration is one tuple of Gate objects, one H
    and one X per wire and the phase network's, so the circuit is
    :meth:`Circuit.repeated` of it.
    """
    if not 1 <= n <= MAX_QUBITS:  # before networks of 2^n gates are built
        raise ValueError(f"n must lie in [1, {MAX_QUBITS}], got {n}")
    check_marked(n, marked)
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    mcz = tuple(controlled_phase_gates(range(n), math.pi))
    hs, xs = tuple(h(q) for q in range(n)), tuple(x(q) for q in range(n))
    flips = tuple(xs[q] for q, bit in enumerate(marked) if bit == "0")
    iteration = flips + mcz + flips + hs + xs + mcz + xs + hs
    return Circuit.repeated(n, hs, iteration, iterations)


def ideal_success_probability(n: int, iterations: int) -> float:
    """Closed form sin^2((2k+1) * asin(2^(-n/2))) for a single marked state."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    angle = math.asin(2.0 ** (-n / 2.0))
    return math.sin((2 * iterations + 1) * angle) ** 2


def grover_success_probability(n: int, marked: str, iterations: int,
                               noise: NoiseModel, n_traj: int,
                               seed: int) -> Estimate:
    """Mean probability of measuring `marked`, over noisy trajectories.

    Trajectory i uses seed+i, exactly as in estimate_fidelity; a noise
    model that puts no site on the circuit gives the ideal run's
    probability with standard error 0.
    """
    circuit = build_grover_circuit(n, marked, iterations)
    index = int(marked, 2)
    return mean_over_trajectories(
        circuit, noise, n_traj, seed,
        lambda _, state: float(state[index].real ** 2 + state[index].imag ** 2))
