"""Bitwise pins of the serial trajectory path.

Each expected value is ``float.hex()`` of a result of the serial
trajectory loop.  A faster engine (batched, reordered or otherwise) must
reproduce these bits exactly before it may replace that loop.
"""

import pytest

from qfeas import ErrorBudget
from qfeas.sim.circuit import random_circuit
from qfeas.sim.engine import NoiseModel, estimate_fidelity
from qfeas.sim.grover import grover_success_probability


@pytest.mark.parametrize("qubits, depth, topo_seed, budget, n_traj, seed, mean, std_error", [
    (4, 15, 6, ErrorBudget(eps2=0.05), 12, 100,
     "0x1.76701a666a8a0p-2", "0x1.1617f1b4b1064p-3"),
    (5, 20, 3, ErrorBudget(eps0=0.01, eps1=0.02, eps2=0.08), 40, 7,
     "0x1.eccf9d690e705p-6", "0x1.c5707ec3b90d6p-8"),
])
def test_estimate_fidelity_bits(qubits, depth, topo_seed, budget, n_traj, seed,
                                mean, std_error):
    est = estimate_fidelity(random_circuit(qubits, depth, topo_seed),
                            NoiseModel(budget), n_traj, seed)
    assert (est.mean.hex(), est.std_error.hex()) == (mean, std_error)


def test_decay_benchmark_shape_bits():
    """The simulate-decay shape: 6 qubits, depth 200, two CZ pairs per
    layer, eps2 = 2e-3, 300 trajectories."""
    est = estimate_fidelity(random_circuit(6, 200, 41, 2),
                            NoiseModel(ErrorBudget(eps2=2e-3)), 300, 2024)
    assert (est.mean.hex(), est.std_error.hex()) == (
        "0x1.dc743e14a106ap-2", "0x1.d0c067b48715dp-6")


@pytest.mark.parametrize("n, marked, iterations, budget, n_traj, seed, probability, std_error", [
    (4, "1011", 3, ErrorBudget(eps1=0.002, eps2=0.005), 30, 2,
     "0x1.1eba8d50ca7c0p-1", "0x1.407b8333ffc69p-4"),
    (5, "11111", 4, ErrorBudget(eps0=0.001, eps2=0.002), 20, 11,
     "0x1.345469cb4249bp-1", "0x1.bf241b4f83e38p-4"),
    (4, "0110", 3, ErrorBudget(), 30, 2, "0x1.ec31ffffffff6p-1", "0x0.0p+0"),
    (5, "10101", 4, ErrorBudget(), 20, 11, "0x1.ff94d310000eep-1", "0x0.0p+0"),
])
def test_grover_success_probability_bits(n, marked, iterations, budget, n_traj, seed,
                                         probability, std_error):
    est = grover_success_probability(n, marked, iterations, NoiseModel(budget),
                                     n_traj, seed)
    assert (est.mean.hex(), est.std_error.hex()) == (probability, std_error)
