"""Desk-scale noisy state-vector simulation (n <= 16).

Import the simulator from its modules (``circuit``, ``engine``,
``fit``, ``gates``, ``grover``); they load numpy.  This package module
holds only the numpy-free facts the scenario schema checks against.
"""

import math

#: Hard register cap: 2^16 amplitudes keeps trajectory counts cheap.
MAX_QUBITS = 16


def optimal_iterations(n: int) -> int:
    """Grover iteration count maximizing success: floor(pi / (4*asin(2^(-n/2))))."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return int(math.pi / (4.0 * math.asin(2.0 ** (-n / 2.0))))
