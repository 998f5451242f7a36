"""Recover per-channel error rates from measured fidelities.

The decay law is linear in log space, -log F = eps0*N0 + eps1*N1 +
eps2*N2, so a set of (counts, log-fidelity) observations is an ordinary
least-squares problem with no intercept.  Standard errors come from the
residual variance; with as many observations as channels the fit is
exact and the standard errors are reported as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..model import CHANNELS, OpCounts


class RankDeficientError(ValueError):
    """The observations cannot separate the requested channels."""


@dataclass(frozen=True)
class FitResult:
    """Fitted rates per channel with their standard errors.

    Rates are raw regression output: statistical noise can pull an
    estimate slightly negative, so building a validated ErrorBudget
    from them is left to the caller.
    """

    channels: tuple[str, ...]
    rates: dict[str, float]
    std_errors: dict[str, float]
    n_observations: int
    residual_norm: float

    def confidence_interval(self, channel: str, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation interval, default 95% (z = 1.96)."""
        rate = self.rates[channel]
        half = z * self.std_errors[channel]
        return (rate - half, rate + half)


def fit_error_rates(observations: Sequence[tuple[OpCounts, float]],
                    channels: Sequence[str] = CHANNELS) -> FitResult:
    """Least-squares fit of -log F against operation counts.

    ``observations`` pairs each circuit's counts with its measured log
    fidelity (non-positive).  Only the requested channels are fit; the
    others are assumed error-free.  Raises RankDeficientError when the
    count columns do not separate the channels (for example all
    observations share the same N1/N2 ratio while fitting both).
    """
    requested = tuple(dict.fromkeys(channels))
    unknown = [c for c in requested if c not in CHANNELS]
    if unknown:
        raise ValueError(f"unknown channels {unknown}; expected from {CHANNELS}")
    if not requested:
        raise ValueError("at least one channel to fit is required")
    fit_channels = tuple(c for c in CHANNELS if c in requested)
    if len(observations) < 2:
        raise ValueError(
            f"need at least 2 observations, got {len(observations)}")

    for i, (_, log_f) in enumerate(observations):
        if not math.isfinite(log_f) or log_f > 0.0:
            raise ValueError(
                f"observation {i}: log-fidelity must be finite and <= 0, "
                f"got {log_f!r} (pass log F, not F)")

    design = np.array(
        [[float(counts.count(c)) for c in fit_channels]
         for counts, _ in observations], dtype=np.float64)
    y = np.array([-log_f for _, log_f in observations], dtype=np.float64)

    k = len(fit_channels)
    if np.linalg.matrix_rank(design) < k:
        raise RankDeficientError(
            f"observation counts do not separate channels {fit_channels}; "
            "vary the per-channel counts independently")

    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ coef
    dof = len(observations) - k
    # Counts or log-fidelities near the float limit overflow the normal
    # matrix or the residual sum; that is refused below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        ssr = float(residuals @ residuals)
        sigma2 = ssr / dof if dof > 0 else 0.0
        covariance = sigma2 * np.linalg.inv(design.T @ design)
    if not np.isfinite(covariance).all():
        raise ValueError(
            "the fit's covariance is not finite: the counts or log-fidelities "
            "are too large for float64")
    std = np.sqrt(np.maximum(np.diag(covariance), 0.0))

    return FitResult(
        channels=fit_channels,
        rates={c: float(coef[i]) for i, c in enumerate(fit_channels)},
        std_errors={c: float(std[i]) for i, c in enumerate(fit_channels)},
        n_observations=len(observations),
        residual_norm=math.sqrt(ssr),
    )
