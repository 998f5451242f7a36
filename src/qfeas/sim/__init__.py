"""Desk-scale noisy state-vector simulation (n <= 16).

Import the simulator from its modules (``circuit``, ``engine``,
``fit``, ``gates``, ``grover``); they load numpy.  This package module
holds only the numpy-free facts the scenario schema checks against.
"""

import math

#: Hard register cap: 2^16 amplitudes keeps trajectory counts cheap.
MAX_QUBITS = 16


def check_marked(n: int, marked: object) -> None:
    """Raise ValueError unless ``marked`` is a string of n bits."""
    if not isinstance(marked, str) or len(marked) != n or set(marked) - {"0", "1"}:
        raise ValueError(f"marked must be a string of {n} bits, got {marked!r}")


def optimal_iterations(n: int) -> int:
    """Grover iteration count maximizing success: floor(pi / (4*asin(2^(-n/2))))."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return int(math.pi / (4.0 * math.asin(2.0 ** (-n / 2.0))))
