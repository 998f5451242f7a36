"""The batched trajectory loop against the serial oracle, bit for bit.

``mean_over_trajectories`` runs the ideal run and the noisy trajectories
as rows of blocks; the oracle runs every trajectory alone with
``serial_run``, also those that drew no insertion.  The
observable hashes every byte of the final state, so one differing bit in
any row, the ideal row included, changes the mean.  Block sizes fall on
both sides of ``_WIDE``, so both block layouts meet the oracle.
"""

import hashlib
import math
from unittest import mock

import numpy as np
from hypothesis import Phase, example, given, settings, strategies as st

from qfeas import ErrorBudget
from qfeas.sim import engine
from qfeas.sim.circuit import Circuit
from qfeas.sim.engine import (
    _WIDE,
    NoiseModel,
    mean_over_trajectories,
    noise_sites,
    sample_insertions,
)
from qfeas.sim.gates import ONE_QUBIT_KINDS, Gate
from qfeas.sim.grover import controlled_phase_gates

from gate_oracle import serial_run


def _state_hash(state):
    return float(int.from_bytes(hashlib.sha256(state.tobytes()).digest()[:6], "big"))


def _gate(kind, targets, theta):
    return Gate(kind, targets, theta if kind in ("RZ", "RX") else None)


@st.composite
def circuits(draw):
    """Every gate kind at least once (the two-qubit ones from n = 2 on,
    CNOT with its control both below and above its target) plus up to 30
    random gates, in a random order."""
    n = draw(st.integers(1, 8))
    qubit = st.integers(0, n - 1)
    theta = st.floats(-4.0, 4.0, allow_nan=False)
    gates = [_gate(kind, (draw(qubit),), draw(theta)) for kind in ONE_QUBIT_KINDS]
    pair = None
    if n >= 2:
        pair = st.lists(qubit, min_size=2, max_size=2, unique=True).map(tuple)
        lo, hi = sorted(draw(pair))
        gates += [Gate("CZ", (lo, hi)), Gate("CNOT", (lo, hi)), Gate("CNOT", (hi, lo))]
    for _ in range(draw(st.integers(0, 30))):
        kinds = ONE_QUBIT_KINDS + (("CZ", "CNOT") if pair is not None else ())
        kind = draw(st.sampled_from(kinds))
        targets = draw(pair) if kind in ("CZ", "CNOT") else (draw(qubit),)
        gates.append(_gate(kind, targets, draw(theta)))
    gates = draw(st.permutations(gates))
    return Circuit(n, tuple(gates))


PHASES_ON_QUBIT_0 = Circuit(2, (
    Gate("H", (0,)), Gate("H", (1,)), Gate("RX", (0,), 0.9), Gate("T", (0,)),
    Gate("CZ", (0, 1)), Gate("RZ", (0,), -0.6), Gate("T", (0,))))

# A four-wire phase network (15 RZ and 14 CNOT), which a block runs in a
# relabelled frame, between layers that leave every amplitude generic.
PHASE_NETWORK = Circuit(4, (
    *(Gate("RX", (q,), 0.3 + 0.4 * q) for q in range(4)),
    *controlled_phase_gates(range(4), math.pi),
    *(Gate("H", (q,)) for q in range(4))))


# Shrinking these circuits takes minutes; a failure is reported unshrunk.
@settings(max_examples=150, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(circuit=circuits(),
       eps=st.tuples(*[st.floats(0.01, 0.3)] * 3),
       n_traj=st.integers(1, 50),
       seed=st.integers(0, 2 ** 32),
       rows=st.one_of(st.integers(1, 4),
                      st.sampled_from((_WIDE - 1, _WIDE, _WIDE + 1, 40))),
       slack=st.integers(0, 15))
@example(circuit=Circuit(1, (Gate("H", (0,)), Gate("T", (0,)), Gate("RZ", (0,), 0.3))),
         eps=(0.2, 0.2, 0.2), n_traj=20, seed=1, rows=4, slack=0)
# Qubit 0 of two is qubit n-2, whose amplitude pairs lie in runs of two:
# the oracle's passes there hold two amplitudes, and a two-row block's
# must round alike.
@example(circuit=PHASES_ON_QUBIT_0, eps=(0.2, 0.2, 0.2), n_traj=20, seed=3, rows=2, slack=0)
@example(circuit=PHASE_NETWORK, eps=(0.05, 0.05, 0.05), n_traj=20, seed=5, rows=2, slack=0)
@example(circuit=PHASE_NETWORK, eps=(0.05, 0.05, 0.05), n_traj=60, seed=5, rows=_WIDE,
         slack=0)
def test_batched_loop_matches_serial_oracle(circuit, eps, n_traj, seed, rows, slack):
    noise = NoiseModel(ErrorBudget(*eps))
    sites = noise_sites(circuit, noise)
    values = np.array([_state_hash(serial_run(
        circuit, sample_insertions(sites, seed + i))) for i in range(n_traj)])
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else 0.0

    ideals = set()

    def observe(ideal, state):
        ideals.add(_state_hash(ideal))
        return _state_hash(state)

    row_bytes = 16 << circuit.n_qubits
    with mock.patch.object(engine, "_BATCH_BYTES", rows * row_bytes + slack):
        got = mean_over_trajectories(circuit, noise, n_traj, seed, observe)
    assert (got[0].hex(), got[1].hex()) == (mean.hex(), std_error.hex())
    assert ideals == {_state_hash(serial_run(circuit, {}))}
