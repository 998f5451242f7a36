"""qfeas: feasibility estimates for gate-based quantum computing.

Log-space fidelity-decay algebra, algorithm gate-count laws, the
surface-code logical-error model with code-size selection, scaling-up
engineering budgets, and a trajectory-based noisy state-vector
simulator that validates the decay law empirically.
"""

from .algorithms import AlgorithmSpec, assess
from .model import ErrorBudget, OpCounts, fidelity, required_error_rate

__version__ = "0.1.0"
