"""Grover circuit construction, the phase-network decomposition, and success
probabilities against the sin^2((2k+1) arcsin(2^(-n/2))) closed form."""

import math

import numpy as np
import pytest

from qfeas import ErrorBudget
from qfeas.sim import optimal_iterations
from qfeas.sim.circuit import Circuit
from qfeas.sim.engine import NoiseModel, run_ideal
from qfeas.sim.gates import x
from qfeas.sim.grover import (
    build_grover_circuit,
    controlled_phase_gates,
    grover_success_probability,
    ideal_success_probability,
)


def run_on_basis(n, ones, gates):
    """Run `gates` on the basis state whose qubits `ones` are 1."""
    return run_ideal(Circuit(n, tuple(x(q) for q in ones) + tuple(gates)))


def network_diagonal(m, theta):
    """Apply the phase network to every basis state and read the diagonal."""
    gates = tuple(controlled_phase_gates(list(range(m)), theta))
    diag = np.empty(2**m, dtype=complex)
    for i in range(2**m):
        ones = [q for q in range(m) if i >> (m - 1 - q) & 1]  # qubit 0 = high bit
        diag[i] = run_on_basis(m, ones, gates)[i]
    return diag


class TestPhaseNetwork:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_diagonal_up_to_global_phase(self, m):
        theta = 0.7345
        diag = network_diagonal(m, theta)
        rel = diag / diag[0]
        want = np.ones(2**m, dtype=complex)
        want[-1] = np.exp(1j * theta)
        np.testing.assert_allclose(rel, want, atol=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_gate_counts_are_fixed(self, m):
        gates = controlled_phase_gates(list(range(m)), math.pi)
        assert sum(g.kind == "RZ" for g in gates) == 2**m - 1
        assert sum(g.kind == "CNOT" for g in gates) == 2**m - 2
        assert {g.kind for g in gates} <= {"RZ", "CNOT"}

    def test_random_angles_and_scattered_wires(self):
        theta = -2.31
        gates = tuple(controlled_phase_gates([3, 0, 2], theta))
        out = run_on_basis(4, (0, 2, 3), gates)  # wires 3, 0, 2 all set: 0b1011
        # only wire 3 set, 0b0001: no phase beyond the global one
        base = run_on_basis(4, (3,), gates)[0b0001]
        assert out[0b1011] / base == pytest.approx(np.exp(1j * theta), rel=1e-12)


class TestCircuitConstruction:
    def test_zero_iterations_is_uniform(self):
        c = build_grover_circuit(3, "111", 0)
        out = run_ideal(c)
        np.testing.assert_allclose(np.abs(out) ** 2, np.full(8, 1 / 8), atol=1e-14)

    def test_two_qubit_count_formula(self):
        # per iteration: oracle and diffusion each cost 2^n - 2 CNOTs
        for n, k in [(2, 1), (3, 2), (4, 3)]:
            c = build_grover_circuit(n, "1" * n, k)
            assert c.counts().n2 == 2 * k * (2**n - 2)

    def test_marked_string_validated(self):
        with pytest.raises(ValueError):
            build_grover_circuit(3, "10", 1)
        with pytest.raises(ValueError):
            build_grover_circuit(3, "102", 1)

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            build_grover_circuit(0, "", 1)
        with pytest.raises(ValueError):
            build_grover_circuit(17, "1" * 17, 1)
        with pytest.raises(ValueError):
            build_grover_circuit(3, "111", -1)


class TestClosedForm:
    def test_known_values(self):
        assert ideal_success_probability(2, 1) == 1.0
        assert ideal_success_probability(3, 2) == pytest.approx(0.9453125, rel=1e-12)
        assert ideal_success_probability(5, 4) == pytest.approx(0.9991823155432941, rel=1e-12)

    def test_optimal_iteration_table(self):
        assert [optimal_iterations(n) for n in range(2, 9)] == [1, 2, 3, 4, 6, 8, 12]

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 3), (5, 4)])
    def test_simulation_matches_closed_form(self, n, k):
        est = grover_success_probability(n, "1" * n, k, NoiseModel(ErrorBudget()), 5, 0)
        assert est.std_error == 0.0
        assert est.mean == pytest.approx(ideal_success_probability(n, k), abs=1e-9)

    def test_success_independent_of_which_state_is_marked(self):
        base = grover_success_probability(3, "111", 2, NoiseModel(ErrorBudget()), 5, 0)
        for marked in ("000", "101", "010"):
            got = grover_success_probability(3, marked, 2, NoiseModel(ErrorBudget()), 5, 0)
            assert got.mean == pytest.approx(base.mean, rel=1e-10)

    def test_marked_state_carries_the_amplitude(self):
        c = build_grover_circuit(3, "101", 2)
        probs = np.abs(run_ideal(c)) ** 2
        assert int(np.argmax(probs)) == 0b101


class TestNoisyGrover:
    def test_noise_drags_success_down(self):
        clean = grover_success_probability(4, "1111", 3, NoiseModel(ErrorBudget()), 200, 0)
        noisy = grover_success_probability(
            4, "1111", 3, NoiseModel(ErrorBudget(eps2=0.01)), 200, 0)
        assert noisy.mean < clean.mean
        assert noisy.std_error > 0.0

    def test_reproducible(self):
        args = (4, "0110", 3, NoiseModel(ErrorBudget(eps2=0.005)), 150, 11)
        assert grover_success_probability(*args) == grover_success_probability(*args)

    def test_idle_noise_alone_is_the_noiseless_result(self):
        # grover circuits have no IDLE gate, so eps0 puts no site on them
        clean = grover_success_probability(3, "101", 2, NoiseModel(ErrorBudget()), 1000, 0)
        idle_only = grover_success_probability(
            3, "101", 2, NoiseModel(ErrorBudget(eps0=0.01)), 1000, 0)
        assert idle_only == clean
        assert idle_only.std_error == 0.0

    def test_requires_a_trajectory(self):
        with pytest.raises(ValueError):
            grover_success_probability(3, "111", 1, NoiseModel(ErrorBudget()), 0, 0)
