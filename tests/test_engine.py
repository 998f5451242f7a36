"""State-vector engine: gate application, trajectories, and fidelity estimates.

The dense-operator oracle below rebuilds each gate's action from its 2x2 or
4x4 matrix with explicit bit arithmetic, independent of the engine's sliced
in-place updates, so the two implementations check each other.
"""

import math

import numpy as np
import pytest

from qfeas import CHANNELS, ErrorBudget
from qfeas.sim import (
    BadTargetError,
    Circuit,
    FidelityEstimate,
    NoiseModel,
    PAULI_PAIRS,
    apply_gate,
    cnot,
    cz,
    estimate_fidelity,
    gate_matrix,
    h,
    idle,
    random_circuit,
    run_ideal,
    run_trajectory,
    rx,
    rz,
    s,
    state_fidelity,
    t,
    x,
    y,
    z,
    zero_state,
)
from qfeas.sim.engine import noise_sites
from qfeas.sim.gates import ONE_QUBIT_KINDS, PARAMETRIC_KINDS, TWO_QUBIT_KINDS, Gate

SQ2 = 1 / math.sqrt(2)


def dense_apply(state, gate, n):
    """Reference: scatter the gate matrix over the full 2^n basis."""
    m = gate_matrix(gate)
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


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


class TestApplyGate:
    def test_hadamard_on_zero(self):
        out = apply_gate(zero_state(1), h(0))
        np.testing.assert_allclose(out, [SQ2, SQ2])

    def test_t_adds_phase_to_one_component(self):
        plus = apply_gate(zero_state(1), h(0))
        out = apply_gate(plus, t(0))
        np.testing.assert_allclose(out, [SQ2, SQ2 * np.exp(0.25j * np.pi)])

    def test_cnot_entangles(self):
        state = np.array([SQ2, 0, SQ2, 0], dtype=complex)  # (|00> + |10>)/sqrt2
        out = apply_gate(state, cnot(0, 1))
        np.testing.assert_allclose(out, [SQ2, 0, 0, SQ2])

    def test_idle_is_identity(self):
        st = random_state(3, 5)
        np.testing.assert_array_equal(apply_gate(st, idle(1)), st)

    def test_input_state_is_not_mutated(self):
        st = random_state(2, 1)
        before = st.copy()
        apply_gate(st, h(0))
        np.testing.assert_array_equal(st, before)

    @pytest.mark.parametrize("gate", [
        h(0), h(2), x(1), y(2), z(0), s(1), t(2),
        rz(0, 0.37), rx(1, -1.9), idle(2),
        cz(0, 1), cz(2, 0), cnot(0, 1), cnot(1, 0), cnot(2, 0), cnot(0, 2),
    ])
    def test_matches_dense_oracle(self, gate):
        n = 3
        st = random_state(n, hash(gate.kind) % 1000 + sum(gate.targets))
        got = apply_gate(st, gate)
        want = dense_apply(st, gate, n)
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_matches_dense_oracle_wide_register(self):
        st = random_state(5, 33)
        for gate in (cnot(4, 1), cz(3, 0), rx(2, 2.2), y(4)):
            np.testing.assert_allclose(
                apply_gate(st, gate), dense_apply(st, gate, 5), atol=1e-14)
            st = apply_gate(st, gate)

    def test_out_of_range_target(self):
        # a bare Gate carries no register width, so apply_gate's own
        # target check is the only one between it and a numpy error
        with pytest.raises(BadTargetError):
            apply_gate(zero_state(2), x(2))

    def test_norm_preserved_through_long_sequence(self):
        st = zero_state(4)
        rng = np.random.default_rng(0)
        for _ in range(300):
            q = int(rng.integers(0, 4))
            st = apply_gate(st, rx(q, float(rng.uniform(-3, 3))))
            st = apply_gate(st, cz(q, (q + 1) % 4))
        assert abs(np.vdot(st, st).real - 1.0) < 1e-10


class TestRunIdeal:
    def test_empty_circuit(self):
        np.testing.assert_array_equal(run_ideal(Circuit(2, ())), zero_state(2))

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
        for seed in (0, 1, 999):
            traj = run_trajectory(c, NoiseModel(ErrorBudget()), seed)
            np.testing.assert_array_equal(traj, ideal)

    def test_certain_insertion_always_changes_the_state(self):
        c = Circuit(1, (x(0),))
        noise = NoiseModel(ErrorBudget(eps1=1.0))
        ideal = run_ideal(c)
        for seed in range(30):
            traj = run_trajectory(c, noise, seed)
            assert not np.array_equal(traj, ideal)

    def test_same_seed_same_bits(self):
        c = random_circuit(4, 25, 8)
        noise = NoiseModel(ErrorBudget(eps1=0.05, eps2=0.1))
        a = run_trajectory(c, noise, 42)
        b = run_trajectory(c, noise, 42)
        np.testing.assert_array_equal(a, b)

    def test_seeds_explore_different_insertions(self):
        c = random_circuit(4, 25, 8)
        noise = NoiseModel(ErrorBudget(eps2=0.5))
        outputs = {run_trajectory(c, noise, seed).tobytes() for seed in range(8)}
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
        a = zero_state(2)
        b = np.zeros(4, dtype=complex)
        b[3] = 1.0
        assert state_fidelity(a, b) == 0.0

    def test_scale_invariant(self):
        a, b = random_state(3, 1), random_state(3, 2)
        assert state_fidelity(a, 3.0 * b) == pytest.approx(state_fidelity(a, b), rel=1e-12)

    def test_global_phase_invisible(self):
        st = random_state(2, 7)
        assert state_fidelity(st, np.exp(0.9j) * st) == pytest.approx(1.0, rel=1e-12)


class TestEstimateFidelity:
    def test_zero_noise_is_exactly_one(self):
        est = estimate_fidelity(random_circuit(4, 10, 2), NoiseModel(ErrorBudget()), 50, 0)
        assert est.mean == 1.0
        assert est.std_error == 0.0
        assert est.n_trajectories == 50

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
        manual = [state_fidelity(ideal, run_trajectory(c, noise, 100 + i)) for i in range(12)]
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
