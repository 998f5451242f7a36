"""State-vector engine: gate application, trajectories, and fidelity estimates.

The dense-operator oracle below rebuilds each gate's action from its 2x2 or
4x4 matrix with explicit bit arithmetic, independent of the engine's sliced
in-place updates, so the two implementations check each other.  A gate's
input state is prepared by a circuit, and the gate reaches the kernel the
way every other run does: appended to that circuit and run by
``run_ideal``.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import qfeas
from qfeas.model import CHANNELS, ErrorBudget
from qfeas.sim.circuit import Circuit, random_circuit
from qfeas.sim.engine import (
    _WIDE,
    _WIDE_BUFSIZE,
    PAULI_PAIRS,
    NoiseModel,
    _Plan,
    _Stretch,
    _apply_inplace,
    _blocks,
    _run_block,
    estimate_fidelity,
    noise_sites,
    run_ideal,
    run_with_insertions,
    sample_insertions,
    state_fidelity,
)
from qfeas.sim.gates import (
    CHANNEL_OF_KIND,
    ONE_QUBIT_KINDS,
    PARAMETRIC_KINDS,
    TWO_QUBIT_KINDS,
    Gate,
    cnot,
    cz,
    h,
    idle,
    rx,
    rz,
    s,
    t,
    x,
    y,
    z,
)
from qfeas.sim.grover import build_grover_circuit, controlled_phase_gates

from gate_oracle import cnot_source, dense_run, gate_matrix, serial_run

SQ2 = 1 / math.sqrt(2)


def dense_apply(state, gate):
    """Reference: scatter the gate matrix over the full 2^n basis."""
    m = gate_matrix(gate)
    n = len(state).bit_length() - 1
    out = np.zeros_like(state)
    ts = gate.targets
    shifts = [n - 1 - q for q in ts]  # qubit 0 is the most significant bit
    for i in range(len(state)):
        sub_i = 0
        for sh in shifts:
            sub_i = (sub_i << 1) | ((i >> sh) & 1)
        base = i
        for sh in shifts:
            base &= ~(1 << sh)
        for sub_j in range(m.shape[0]):
            j = base
            for pos, sh in enumerate(shifts):
                if (sub_j >> (len(shifts) - 1 - pos)) & 1:
                    j |= 1 << sh
            out[j] += m[sub_j, sub_i] * state[i]
    return out


def prepared(n, seed):
    """Gates that take |0...0> to a generic state: two layers of RX and RZ
    at random angles on every qubit, each followed by a CNOT chain, so
    every amplitude is nonzero with its own magnitude and phase."""
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(2):
        for q in range(n):
            gates += [rx(q, float(rng.uniform(-3, 3))), rz(q, float(rng.uniform(-3, 3)))]
        gates += [cnot(q, q + 1) for q in range(n - 1)]
    return tuple(gates)


def assert_matches_dense(n, prep, gate):
    """The gate run after ``prep`` against the dense oracle applied to
    ``prep``'s state."""
    got = run_ideal(Circuit(n, prep + (gate,)))
    want = dense_apply(run_ideal(Circuit(n, prep)), gate)
    np.testing.assert_allclose(got, want, atol=1e-14)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


class TestApplyGate:
    def test_hadamard_on_zero(self):
        out = run_ideal(Circuit(1, (h(0),)))
        np.testing.assert_allclose(out, [SQ2, SQ2])

    def test_t_adds_phase_to_one_component(self):
        out = run_ideal(Circuit(1, (h(0), t(0))))
        np.testing.assert_allclose(out, [SQ2, SQ2 * np.exp(0.25j * np.pi)])

    def test_cnot_entangles(self):
        # (|01> + |11>)/sqrt2 -> (|01> + |10>)/sqrt2
        out = run_ideal(Circuit(2, (h(0), x(1), cnot(0, 1))))
        np.testing.assert_allclose(out, [0, SQ2, SQ2, 0])

    def test_idle_is_identity(self):
        prep = prepared(3, 5)
        np.testing.assert_array_equal(run_ideal(Circuit(3, prep + (idle(1),))),
                                      run_ideal(Circuit(3, prep)))

    @pytest.mark.parametrize("gate", [
        h(0), h(2), x(1), y(2), z(0), s(1), t(2),
        rz(0, 0.37), rx(1, -1.9), idle(2),
        cz(0, 1), cz(2, 0), cnot(0, 1), cnot(1, 0), cnot(2, 0), cnot(0, 2),
    ])
    def test_matches_dense_oracle(self, gate):
        assert_matches_dense(3, prepared(3, len(gate.kind) + sum(gate.targets)), gate)

    def test_matches_dense_oracle_wide_register(self):
        prep = prepared(5, 33)
        for gate in (cnot(4, 1), cz(3, 0), rx(2, 2.2), y(4)):
            assert_matches_dense(5, prep, gate)
            prep += (gate,)

    @pytest.mark.parametrize("n", [8, 11])
    def test_matches_dense_oracle_on_split_passes(self, n):
        # qubit n-2, whose amplitude pairs lie in runs of two, on registers
        # wide enough to hold many such runs
        prep = prepared(n, n)
        for gate in (h(n - 2), rx(n - 2, 0.8), y(n - 2), x(n - 2), rx(n - 2, -1.2)):
            assert_matches_dense(n, prep, gate)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 11])
    def test_phase_gates_round_as_one_pass_over_the_register(self, n):
        """numpy rounds a complex product on one amplitude differently
        from the same product in a longer loop, so however the kernel
        splits its passes, T and RZ must give the bits of one numpy pass
        over all the amplitudes they scale.  From two qubits on, the RZ
        is a stretch of its own (the IDLE ends the one ``prep`` ends
        with), whose flush turns its one coefficient, -theta/2, into the
        factors exp(1j * -theta/2) and exp(1j * theta/2) by numpy's
        ``exp``."""
        for q in range(n):
            prep = prepared(n, 7 * n + q) + (idle(q),)
            for gate in (t(q), rz(q, 0.37)):
                want = run_ideal(Circuit(n, prep))
                pairs = want.reshape(-1, 2, 1 << (n - q - 1))
                phases = np.diag(gate_matrix(gate))
                if gate.kind == "RZ" and n >= 2:
                    half = gate.theta / 2.0
                    phases = np.exp(1j * np.array([-half, half]))
                if gate.kind == "RZ":
                    pairs[:, 0] *= phases[0]
                pairs[:, 1] *= phases[1]
                got = run_ideal(Circuit(n, prep + (gate,)))
                assert got.tobytes() == want.tobytes(), (n, gate)

    def test_norm_preserved_through_long_sequence(self):
        rng = np.random.default_rng(0)
        gates = []
        for _ in range(300):
            q = int(rng.integers(0, 4))
            gates += [rx(q, float(rng.uniform(-3, 3))), cz(q, (q + 1) % 4)]
        st = run_ideal(Circuit(4, tuple(gates)))
        assert abs(np.vdot(st, st).real - 1.0) < 1e-10


class TestRunBlock:
    def test_wide_block_allocates_little_beyond_itself(self):
        """H and RX keep their temporaries in the scratch area the caller
        passes, a wide block goes back to row-major there, and its passes
        run under a ufunc buffer of ``_WIDE_BUFSIZE`` elements, so a run
        allocates little more than the block.  Measured on numpy 2.4:
        1.43 x the block's bytes, against 2.36 x under numpy's default
        8,192-element buffer (up to 3 x 128 KiB per strided pass)."""
        circuit = random_circuit(6, 200, 1, 2)  # H, T, RX(pi/2) and CZ
        sites = noise_sites(circuit, NoiseModel(ErrorBudget(eps2=2e-3)))
        _, block = next(_blocks(sites, 1000, 3, 399))
        assert len(block) == 399 >= _WIDE
        block_bytes = 16 * len(block) << circuit.n_qubits
        scratch = np.empty(len(block) << circuit.n_qubits, dtype=np.complex128)
        tracemalloc.start()
        try:
            states = _run_block(_Plan(circuit), block, scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * block_bytes
        assert states.flags.c_contiguous and states.shape == (399, 64)
        for r in (0, 1, 200, 398):
            assert states[r].tobytes() == serial_run(circuit, block[r]).tobytes()

    def test_ten_qubit_wide_block_matches_the_serial_oracle(self):
        # rows innermost on 10 qubits: every pass over the joined rows has
        # long strided runs, which no longer go through numpy's buffer
        circuit = random_circuit(10, 6, 5)
        sites = noise_sites(circuit, NoiseModel(ErrorBudget(eps1=0.01, eps2=0.01)))
        _, block = next(_blocks(sites, 60, 8, 24))
        assert len(block) == 24 >= _WIDE and not block[0]
        assert min(block[1]) > 0 and min(block[-1]) > len(circuit) // 2  # rows join late
        scratch = np.empty(len(block) << circuit.n_qubits, dtype=np.complex128)
        states = _run_block(_Plan(circuit), block, scratch)
        for row, insertions in zip(states, block):
            assert row.tobytes() == serial_run(circuit, insertions).tobytes()

    @staticmethod
    def _decay_block():
        """A circuit and a 38-row block of it, led by the ideal row."""
        circuit = random_circuit(6, 50, 1, 2)
        sites = noise_sites(circuit, NoiseModel(ErrorBudget(eps2=2e-3)))
        _, block = next(_blocks(sites, 200, 3, 399))
        return circuit, block

    @staticmethod
    def _spy(monkeypatch):
        """Patch the kernel to record numpy's buffer size at every call."""
        sizes = []

        def kernel(*args):
            sizes.append(np.getbufsize())
            _apply_inplace(*args)

        monkeypatch.setattr("qfeas.sim.engine._apply_inplace", kernel)
        return sizes

    def test_wide_block_runs_under_a_small_buffer_and_restores_the_callers(self, monkeypatch):
        # the caller's own size, not numpy's default, is what comes back
        circuit, block = self._decay_block()
        sizes = self._spy(monkeypatch)
        scratch = np.empty(len(block) << circuit.n_qubits, dtype=np.complex128)
        default = np.setbufsize(4096)
        try:
            _run_block(_Plan(circuit), block, scratch)
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(default)
        assert len(sizes) > len(circuit) and set(sizes) == {_WIDE_BUFSIZE}

    def test_narrow_block_runs_at_the_default_buffer_size(self, monkeypatch):
        circuit, block = self._decay_block()
        sizes = self._spy(monkeypatch)
        scratch = np.empty(4 << circuit.n_qubits, dtype=np.complex128)
        _run_block(_Plan(circuit), block[:4], scratch)
        assert np.getbufsize() == 8192  # numpy's default
        assert len(sizes) > len(circuit) and set(sizes) == {8192}

    def test_wide_block_restores_the_buffer_size_when_a_step_raises(self, monkeypatch):
        circuit, block = self._decay_block()
        assert len(block) >= _WIDE

        def kernel(*args):
            raise RuntimeError("kernel failed")

        monkeypatch.setattr("qfeas.sim.engine._apply_inplace", kernel)
        before = np.getbufsize()
        scratch = np.empty(len(block) << circuit.n_qubits, dtype=np.complex128)
        with pytest.raises(RuntimeError, match="kernel failed"):
            _run_block(_Plan(circuit), block, scratch)
        assert np.getbufsize() == before

    def test_narrow_block_matches_the_serial_oracle(self):
        # row-major; on 8 qubits H and RX on qubit 6 pair the amplitudes of
        # each row in runs of two
        n = 8
        gates = []
        for q in range(n):
            gates += [h(q), rx(q, 0.3 + q), t(q), cnot(q, (q + 3) % n), rx(q, -1.1), h(q)]
        circuit = Circuit(n, tuple(gates))
        block = [{}, {2: (x(0),)}, {7: (y(6),), 30: (z(6), x(7))}, {40: (y(3),)}]
        scratch = np.empty(len(block) << n, dtype=np.complex128)
        states = _run_block(_Plan(circuit), block, scratch)
        assert states.shape == (4, 1 << n)
        for row, insertions in zip(states, block):
            assert row.tobytes() == serial_run(circuit, insertions).tobytes()


class TestStretch:
    """Stretches of CNOT and RZ gates, which a block runs as a phase
    polynomial, against ``dense_run``'s product of ``gate_matrix``
    unitaries, to within rounding: X, Y and Z inserted in the middle of a
    stretch, rows that join there, and both block layouts."""

    @staticmethod
    def _rows(circuit, start, count):
        """``count`` rows with insertions inside the stretches from gate
        ``start`` on, cycling over X, Y and Z on every qubit: a first one
        and, in some rows, a second at a CNOT or RZ a few gates later."""
        inside = [g for g, gate in enumerate(circuit.gates)
                  if g >= start and gate.kind in ("CNOT", "RZ")]
        rows = []
        for k in range(count):
            first = inside[(5 * k + 2) % len(inside)]
            insertions = {first: (Gate("XYZ"[k % 3], (k % circuit.n_qubits,)),)}
            later = first + 1 + k % 4
            if later in inside:
                insertions[later] = (Gate("ZXY"[k % 3], (0,)), Gate("Y", (circuit.n_qubits - 1,)))
            rows.append(insertions)
        return rows

    @pytest.mark.parametrize("width", [4, _WIDE])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_stretch_matches_the_dense_product(self, n, width):
        # prep ends inside a stretch (RZ, then a CNOT chain) that the first
        # network continues; H ends it, and the second network ends the circuit
        prep = prepared(n, 50 + n)
        network = tuple(controlled_phase_gates(range(n), 1.1))
        circuit = Circuit(n, prep + network + (h(n - 1),) + network)
        rows = self._rows(circuit, len(prep) - n, width - 1)
        kinds = {pauli.kind for insertions in rows for paulis in insertions.values()
                 for pauli in paulis}
        assert kinds == {"X", "Y", "Z"}
        for block in ([{}] + sorted(rows, key=min), rows + [{}]):
            scratch = np.empty(len(block) << n, dtype=np.complex128)
            states = _run_block(_Plan(circuit), block, scratch)
            for row, insertions in zip(states, block):
                assert np.allclose(row, dense_run(circuit, insertions), rtol=0.0, atol=1e-12)


def _per_gate_sites(circuit, budget):
    """The reference sites: (index, rate, targets) of every gate whose
    channel's rate is nonzero, one gate at a time."""
    rates = (budget.eps0, budget.eps1, budget.eps2)
    return [(g, rates[CHANNEL_OF_KIND[gate.kind]], gate.targets)
            for g, gate in enumerate(circuit.gates) if rates[CHANNEL_OF_KIND[gate.kind]] != 0.0]


SITE_CIRCUITS = {
    "random": random_circuit(5, 12, 7),
    "grover": build_grover_circuit(4, "0110", 2),
    "idle": Circuit(3, (h(0), idle(1), cnot(0, 1), rz(1, 0.3), idle(2), cz(1, 2), t(2),
                        idle(0), cnot(2, 0), rx(1, -0.8), idle(1))),
    "one-qubit": Circuit(1, (h(0), rz(0, 0.2), idle(0), rz(0, -1.4), t(0), rx(0, 0.4), idle(0))),
}

SITE_BUDGETS = {
    "eps0": ErrorBudget(eps0=0.01),
    "eps1": ErrorBudget(eps1=0.02),
    "eps2": ErrorBudget(eps2=0.03),
    "mixed": ErrorBudget(eps0=0.01, eps1=0.02, eps2=0.03),
}


class TestPlan:
    @pytest.mark.parametrize("n, iterations", [(2, 1), (3, 2), (5, 3)])
    def test_grover_walks_its_network_once(self, n, iterations):
        """The 2k phase networks of a k-iteration search repeat one tuple
        of Gate objects, so they share one ``_Stretch``, and building the
        plan reads that network once, over its 2^(n+1) - 3 gates."""
        circuit = build_grover_circuit(n, ("10" * n)[:n], iterations)
        with mock.patch.object(_Stretch, "read", side_effect=_Stretch.read) as read:
            plan = _Plan(circuit)
        stretches = [stretch for _, _, stretch in plan.steps if stretch is not None]
        assert len(stretches) == 2 * iterations
        assert all(stretch is stretches[0] for stretch in stretches)
        assert read.call_count == 1
        (_, gates), _ = read.call_args
        assert len(gates) == (1 << n) - 1 + (1 << n) - 2  # RZ + CNOT of one network

    def test_search_circuit_builds_each_distinct_gate_once(self):
        """One H and one X per wire and one Gate per CNOT (control, target)
        and per RZ (wire, +-angle): at most n^2 + 3n objects for a
        103,460-gate circuit."""
        n = 10
        with mock.patch.object(Gate, "__post_init__", autospec=True,
                               side_effect=Gate.__post_init__) as post_init:
            circuit = build_grover_circuit(n, "1011001110", 25)
        assert post_init.call_count <= n * n + 3 * n
        assert len(circuit.gates) == n + 25 * (2 * 4 + 4 * n + 2 * ((1 << n) - 1 + (1 << n) - 2))
        # H and X per wire, 2n - 1 RZ (wire 0 never turns by -angle), the CNOTs
        assert len(circuit.distinct) == 2 * n + 2 * n - 1 + n * (n - 1) // 2

    def test_plan_numbers_nothing(self):
        """The plan reads the circuit's ``distinct`` and ``code``; it takes
        no id of a gate and sorts nothing."""
        circuit = build_grover_circuit(5, "10110", 3)
        numbered = AssertionError("the plan numbered the gates again")
        with mock.patch.object(np, "unique", side_effect=numbered), \
                mock.patch.object(np, "fromiter", side_effect=numbered):
            plan = _Plan(circuit)
        assert sum(stretch is not None for _, _, stretch in plan.steps) == 6

    @pytest.mark.parametrize("times", [0, 1, 2, 5])
    def test_repeated_circuit_shares_stretches_as_the_flat_one(self, times):
        """A repeated circuit's tiled codes key its stretches as the flat
        circuit's codes do: the same steps, the same sharing."""
        net = tuple(controlled_phase_gates(range(3), 0.7))
        head = (h(0), *net, cnot(2, 0), h(2))
        body = (x(1), *net, h(0), cnot(0, 1), rz(1, 0.2), *net, x(1), cz(0, 2))

        def shape(plan):
            stretches = [id(stretch) for _, _, stretch in plan.steps if stretch is not None]
            return ([(first, stop, stretch is None) for first, stop, stretch in plan.steps],
                    [stretches.index(stretch) for stretch in stretches])

        rep = _Plan(Circuit.repeated(3, head, body, times))
        assert shape(rep) == shape(_Plan(Circuit(3, head + body * times)))
        assert len(set(shape(rep)[1])) == (1 if times == 0 else 3)

    @pytest.mark.parametrize("name", SITE_CIRCUITS)
    def test_steps_cover_the_gates_and_stretches_are_maximal(self, name):
        circuit = SITE_CIRCUITS[name]
        plan = _Plan(circuit)
        in_stretch = [circuit.n_qubits >= 2 and gate.kind in ("CNOT", "RZ")
                      for gate in circuit.gates]
        bounds = [(first, stop) for first, stop, _ in plan.steps]
        assert [first for first, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
        assert bounds[-1][1] == len(circuit.gates)
        for first, stop, stretch in plan.steps:
            if stretch is None:
                assert stop == first + 1 and not in_stretch[first]
            else:
                assert all(in_stretch[first:stop])
                assert first == 0 or not in_stretch[first - 1]
                assert stop == len(circuit.gates) or not in_stretch[stop]
        if circuit.n_qubits == 1:
            assert all(stretch is None for _, _, stretch in plan.steps)

    @pytest.mark.parametrize("budget", SITE_BUDGETS)
    @pytest.mark.parametrize("name", SITE_CIRCUITS)
    def test_sites_match_the_per_gate_reference(self, name, budget):
        circuit, budget = SITE_CIRCUITS[name], SITE_BUDGETS[budget]
        sites = noise_sites(circuit, NoiseModel(budget))
        assert sites.gates is circuit.gates
        assert len(sites) == sites.index.size == sites.rate.size
        got = [(g, rate, sites.gates[g].targets)
               for g, rate in zip(sites.index.tolist(), sites.rate.tolist())]
        want = _per_gate_sites(circuit, budget)
        assert got == want


class TestSerialOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cnot_permutation_matches_the_dense_oracle(self, n):
        """``serial_run`` moves a CNOT's amplitudes by ``cnot_source``; on a
        generic state that must be ``gate_matrix``'s action, exactly, with
        the control above the target and below it."""
        state = random_state(n, 40 + n)
        for control in range(n):
            for target in range(n):
                if control != target:
                    want = dense_apply(state, cnot(control, target))
                    got = state[cnot_source(n, control, target)]
                    np.testing.assert_array_equal(got, want)


class TestRunIdeal:
    def test_empty_circuit(self):
        np.testing.assert_array_equal(run_ideal(Circuit(2, ())), [1, 0, 0, 0])

    def test_hadamard_is_self_inverse(self):
        out = run_ideal(Circuit(1, (h(0), h(0))))
        np.testing.assert_allclose(out, [1, 0], atol=1e-14)

    def test_bell_state(self):
        out = run_ideal(Circuit(2, (h(0), cnot(0, 1))))
        np.testing.assert_allclose(out, [SQ2, 0, 0, SQ2])


class TestTrajectories:
    def test_noiseless_trajectory_is_bit_identical_to_ideal(self):
        c = random_circuit(5, 30, 3)
        ideal = run_ideal(c)
        sites = noise_sites(c, NoiseModel(ErrorBudget()))
        for seed in (0, 1, 999):
            traj = serial_run(c, sample_insertions(sites, seed))
            assert traj.tobytes() == ideal.tobytes()

    def test_certain_insertion_always_changes_the_state(self):
        c = Circuit(1, (x(0),))
        sites = noise_sites(c, NoiseModel(ErrorBudget(eps1=1.0)))
        ideal = serial_run(c, {})
        for seed in range(30):
            traj = run_with_insertions(c, sample_insertions(sites, seed))
            assert not np.array_equal(traj, ideal)

    def test_same_seed_same_bits(self):
        c = random_circuit(4, 25, 8)
        sites = noise_sites(c, NoiseModel(ErrorBudget(eps1=0.05, eps2=0.1)))
        a = run_with_insertions(c, sample_insertions(sites, 42))
        b = run_with_insertions(c, sample_insertions(sites, 42))
        np.testing.assert_array_equal(a, b)

    def test_seeds_explore_different_insertions(self):
        c = random_circuit(4, 25, 8)
        sites = noise_sites(c, NoiseModel(ErrorBudget(eps2=0.5)))
        outputs = {run_with_insertions(c, sample_insertions(sites, seed)).tobytes()
                   for seed in range(8)}
        assert len(outputs) > 1

    def test_sites_follow_the_budget_channels(self):
        c = Circuit(3, (h(0), cz(0, 1), t(2), cz(1, 2), idle(0)))
        assert len(noise_sites(c, NoiseModel(ErrorBudget(eps2=0.1)))) == 2
        assert len(noise_sites(c, NoiseModel(ErrorBudget(eps1=0.1)))) == 2
        assert len(noise_sites(c, NoiseModel(ErrorBudget(eps0=0.1)))) == 1
        assert len(noise_sites(c, NoiseModel(ErrorBudget()))) == 0

    @pytest.mark.parametrize("kind", ONE_QUBIT_KINDS + TWO_QUBIT_KINDS)
    def test_sites_and_counts_share_the_channel_rule(self, kind):
        gate = Gate(kind, (0, 1) if kind in TWO_QUBIT_KINDS else (0,),
                    0.5 if kind in PARAMETRIC_KINDS else None)
        circuit = Circuit(2, (gate,))
        for channel in range(3):
            rates = [0.0, 0.0, 0.0]
            rates[channel] = 0.1
            sites = noise_sites(circuit, NoiseModel(ErrorBudget(*rates)))
            assert len(sites) == circuit.counts().count(CHANNELS[channel])

    def test_pauli_pair_table(self):
        assert len(PAULI_PAIRS) == 15
        assert ("I", "I") not in PAULI_PAIRS
        assert PAULI_PAIRS[0] == ("I", "X")
        assert PAULI_PAIRS[-1] == ("Z", "Z")
        assert len(set(PAULI_PAIRS)) == 15


class TestStateFidelity:
    def test_identical_states(self):
        st = random_state(3, 4)
        assert state_fidelity(st, st) == 1.0

    def test_orthogonal_states(self):
        a = np.zeros(4, dtype=complex)
        a[0] = 1.0
        b = np.zeros(4, dtype=complex)
        b[3] = 1.0
        assert state_fidelity(a, b) == 0.0

    def test_scale_invariant(self):
        a, b = random_state(3, 1), random_state(3, 2)
        assert state_fidelity(a, 3.0 * b) == pytest.approx(state_fidelity(a, b), rel=1e-12)

    def test_global_phase_invisible(self):
        st = random_state(2, 7)
        assert state_fidelity(st, np.exp(0.9j) * st) == pytest.approx(1.0, rel=1e-12)

    def test_chunked_overlap_keeps_the_identity_and_the_value(self):
        # 14 qubits: the overlap is summed over four chunks
        a, b = random_state(14, 1), random_state(14, 2)
        assert state_fidelity(a, a) == 1.0
        whole = abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real)
        assert state_fidelity(a, b) == pytest.approx(whole, rel=1e-9)

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # a 15-qubit fidelity in a fresh interpreter per thread count, as
        # OpenBLAS reads the count once, at load
        script = (
            "from qfeas.model import ErrorBudget\n"
            "from qfeas.sim.circuit import random_circuit\n"
            "from qfeas.sim.engine import NoiseModel, estimate_fidelity\n"
            "est = estimate_fidelity(random_circuit(15, 8, 0),\n"
            "                        NoiseModel(ErrorBudget(eps2=5e-2)), 12, 0)\n"
            "print(est.mean.hex(), est.std_error.hex())\n")
        src = str(Path(qfeas.__file__).parents[1])
        printed = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                    text=True, env=env, timeout=60)
            assert result.returncode == 0, result.stderr
            printed.append(result.stdout)
        assert printed[0] == printed[1]


class TestEstimateFidelity:
    def test_zero_noise_is_exactly_one(self):
        est = estimate_fidelity(random_circuit(4, 10, 2), NoiseModel(ErrorBudget()), 50, 0)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_channel_count_separation(self):
        # one-qubit noise cannot touch a circuit made only of CZ gates
        c = Circuit(3, (cz(0, 1), cz(1, 2), cz(0, 2)))
        est = estimate_fidelity(c, NoiseModel(ErrorBudget(eps1=0.9)), 40, 1)
        assert est.mean == 1.0

    def test_agrees_with_manual_trajectories(self):
        c = random_circuit(4, 15, 6)
        noise = NoiseModel(ErrorBudget(eps2=0.05))
        est = estimate_fidelity(c, noise, 12, seed=100)
        ideal = run_ideal(c)
        sites = noise_sites(c, noise)
        manual = [state_fidelity(ideal, run_with_insertions(c, sample_insertions(sites, 100 + i)))
                  for i in range(12)]
        assert est.mean == pytest.approx(float(np.mean(manual)), rel=1e-14)

    def test_mean_in_unit_interval_and_error_bounded(self):
        c = random_circuit(5, 20, 3)
        est = estimate_fidelity(c, NoiseModel(ErrorBudget(eps2=0.08)), 200, 5)
        assert 0.0 <= est.mean <= 1.0
        assert est.std_error <= 0.5 / math.sqrt(200) + 1e-9

    def test_noise_monotonically_degrades_fidelity(self):
        c = random_circuit(4, 20, 4)
        means = []
        for i, eps in enumerate([0.0, 0.01, 0.05]):
            est = estimate_fidelity(c, NoiseModel(ErrorBudget(eps2=eps)), 400, i * 400)
            means.append((est.mean, est.std_error))
        for (m1, s1), (m2, s2) in zip(means, means[1:]):
            assert m2 <= m1 + 3 * math.hypot(s1, s2)

    def test_single_trajectory_has_no_spread(self):
        est = estimate_fidelity(random_circuit(3, 5, 1), NoiseModel(ErrorBudget(eps2=0.5)), 1, 9)
        assert est.std_error == 0.0

    def test_noiseless_run_draws_nothing(self):
        # 10**15 trajectories would need petabytes if anything were drawn
        est = estimate_fidelity(random_circuit(3, 5, 1), NoiseModel(ErrorBudget()),
                                10 ** 15, 0)
        assert (est.mean, est.std_error) == (1.0, 0.0)

    def test_requires_at_least_one_trajectory(self):
        with pytest.raises(ValueError):
            estimate_fidelity(random_circuit(3, 5, 1), NoiseModel(ErrorBudget()), 0, 0)
