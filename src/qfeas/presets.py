"""Named hardware profiles tracking the published two-qubit error-rate
timeline for superconducting platforms, plus a best-reported composite.

Only the error rates are historical anchors ("sc-2009" eps2 = 0.1 down
to "sc-2020" eps2 = 0.001, and "best-2023" with eps1 = 1e-4,
eps2 = 2e-3).  The remaining plumbing values (two-qubit gate time, cycle
time, yield, per-qubit area and dissipation) are generic round numbers
for a transmon-style platform and are identical across presets.  Rates
not listed are zero so that single-channel analyses stay clean.
Override any field explicitly in a scenario file when it matters.
"""

from __future__ import annotations

from .model import ErrorBudget, HardwareProfile


def _profile(name: str, budget: ErrorBudget) -> HardwareProfile:
    return HardwareProfile(
        name=name,
        budget=budget,
        gate_time_2q=1e-7,
        cycle_time=1e-6,
        yield_p=0.99,
        area_per_qubit=1e-6,
        dissipation_per_qubit=1e-9,
    )


PRESETS: dict[str, HardwareProfile] = {
    "sc-2009": _profile("sc-2009", ErrorBudget(eps2=0.1)),
    "sc-2014": _profile("sc-2014", ErrorBudget(eps2=0.01)),
    "sc-2020": _profile("sc-2020", ErrorBudget(eps2=0.001)),
    "best-2023": _profile("best-2023", ErrorBudget(eps1=1e-4, eps2=2e-3)),
}


def get_preset(name: str) -> HardwareProfile:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}") from None
