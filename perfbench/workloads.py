"""Seeded scenario generators for the four benchmark workloads.

Each generator takes a ``random.Random`` seeded from the workload name
and ``--seed`` and returns the scenarios one run cycles through.  The
program under test only ever sees the YAML text written from them.
Draws that could hit a known defect of the program are not filtered:
an invocation that fails is counted as failed by the runner.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PRESETS = ("sc-2009", "sc-2014", "sc-2020", "best-2023")

#: The named corpus: every preset against these three algorithm sizes.
NAMED_ALGORITHMS = (("shor", 2048), ("grover", 100), ("chemistry", 30))

#: Size ranges of the seeded draws, in the units of ``algorithm.size``.
SIZE_RANGES = {"shor": (512, 4096), "grover": (20, 256), "chemistry": (10, 100)}

#: The reference scenario every set-up warms the program up with.
WARMUP_YAML = "hardware: sc-2020\nalgorithm: {kind: shor, size: 2048}\n"


@dataclass(frozen=True)
class Scenario:
    """One scenario file and the CLI subcommand that runs it."""

    name: str
    command: str  # "estimate" or "simulate"
    yaml: str


def _f(value: float) -> str:
    # PyYAML reads a float only with a '.' and a signed exponent.
    return f"{value:.6e}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _stratum(rng: random.Random, lo: float, hi: float, i: int, n: int) -> float:
    """A log-uniform draw from the i-th of n equal log-width strata of [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / n
    return math.exp(a + width * (i + rng.random()))


def _algorithm(kind: str, size: int) -> str:
    return f"algorithm: {{kind: {kind}, size: {size}}}\n"


def estimate_corpus(rng: random.Random) -> list[Scenario]:
    """Every preset x {shor-2048, grover-100, chemistry-30}, plus twelve
    draws of preset, algorithm, size and non-correctable rate."""
    out = []
    for preset in PRESETS:
        for kind, size in NAMED_ALGORITHMS:
            out.append(Scenario(f"{preset}-{kind}-{size}", "estimate",
                                f"hardware: {preset}\n" + _algorithm(kind, size)))
    for i in range(12):
        preset = rng.choice(PRESETS)
        kind = rng.choice(sorted(SIZE_RANGES))
        lo, hi = SIZE_RANGES[kind]
        size = round(_log_uniform(rng, lo, hi))
        text = f"hardware: {preset}\n" + _algorithm(kind, size)
        if rng.random() < 0.5:
            text += f"qec: {{eps_nc: {_f(_log_uniform(rng, 1e-12, 1e-9))}}}\n"
        out.append(Scenario(f"draw{i:02d}-{preset}-{kind}-{size}", "estimate", text))
    return out


def qec_sweep(rng: random.Random) -> list[Scenario]:
    """Code-size scans across the QEC parameter space.

    eps2 is log-uniform in [1e-3, 9.9e-3], eps_nc is 0 or log-uniform in
    [1e-15, 1e-9], nc_max is 1e5, 1e6 or 1e7.  The draws are stratified:
    every run holds one scenario per (nc_max, eps_nc mode, eps2 stratum)
    cell, so runs with different seeds share the same mix of cheap and
    near-threshold scans, and only the position inside each cell varies.
    The named algorithms rotate over the cells, so that each stratum and
    each (nc_max, mode) pair sees all three.
    Twelve strata keep a pass over the list near 11 s, so that a run
    repeats every scenario.  The strata come in steps of 5 (0, 5, 10, 3,
    ...; 5 and 12 are coprime, so every stratum comes once), so that the
    repeats of a run's last, partial pass are spread over the whole eps2
    range too.
    """
    strata = 12
    cells = [(nc_max, mode) for nc_max in (10 ** 5, 10 ** 6, 10 ** 7)
             for mode in ("zero", "drawn")]
    out = []
    for i in ((5 * k) % strata for k in range(strata)):
        for j, (nc_max, mode) in enumerate(cells):
            eps2 = _stratum(rng, 1e-3, 9.9e-3, i, strata)
            eps_nc = 0.0 if mode == "zero" else _log_uniform(rng, 1e-15, 1e-9)
            kind, size = NAMED_ALGORITHMS[(i + j) % len(NAMED_ALGORITHMS)]
            text = (f"hardware: {{preset: sc-2020, eps2: {_f(eps2)}}}\n"
                    + _algorithm(kind, size)
                    + f"qec: {{eps_nc: {_f(eps_nc)}, nc_max: {nc_max}}}\n")
            out.append(Scenario(f"s{i:02d}-nc{nc_max:.0e}-{mode}-{kind}", "estimate", text))
    return out


#: Trajectories per depth on simulate-decay: enough that the fitted
#: eps2 stays well inside the 15% rule by chance alone (at 200 it missed
#: on 2 of 20 seeds).
DECAY_TRAJECTORIES = 1000


def simulate_decay(rng: random.Random) -> list[Scenario]:
    """The criterion-07 shape with a drawn seed: 6 qubits, depths
    25..200, 2 CZ per layer, eps2 = 2e-3, fit of the two-qubit rate."""
    out = []
    for i in range(2):
        seed = rng.randrange(10 ** 9)
        text = ("hardware: sc-2020\n" + _algorithm("shor", 2048)
                + "simulation:\n  kind: random\n  qubits: 6\n"
                "  depths: [25, 50, 100, 200]\n  pairs_per_layer: 2\n"
                "  noise: {eps2: 2.0e-03}\n  fit: [two_qubit]\n"
                f"  trajectories: {DECAY_TRAJECTORIES}\n  seed: {seed}\n")
        out.append(Scenario(f"decay{i}-seed{seed}", "simulate", text))
    return out


#: Search register width and trajectories per invocation on
#: simulate-search.  Each trajectory that draws an insertion re-runs all
#: 103,260 gates (about 0.36 s), so the trajectory seed block is fixed
#: and the workload seed draws the marked state: the number of such
#: trajectories, and with it the run's cost, is then the same in every
#: run instead of varying by about 10% from seed to seed.
SEARCH_QUBITS = 10
SEARCH_TRAJECTORIES = 12
SEARCH_SEED = 1


def simulate_search(rng: random.Random) -> list[Scenario]:
    """A 10-qubit search at the optimal iteration count, eps2 = 1e-5."""
    out = []
    for i in range(2):
        marked = format(rng.randrange(1 << SEARCH_QUBITS), f"0{SEARCH_QUBITS}b")
        text = ("hardware: sc-2020\n" + _algorithm("grover", 100)
                + f"simulation:\n  kind: grover\n  qubits: {SEARCH_QUBITS}\n"
                f"  marked: '{marked}'\n  noise: {{eps2: 1.0e-05}}\n"
                f"  trajectories: {SEARCH_TRAJECTORIES}\n  seed: {SEARCH_SEED}\n")
        out.append(Scenario(f"search{i}-{marked}", "simulate", text))
    return out


WORKLOADS = {
    "estimate-corpus": estimate_corpus,
    "qec-sweep": qec_sweep,
    "simulate-decay": simulate_decay,
    "simulate-search": simulate_search,
}


def generate(workload: str, seed: int) -> list[Scenario]:
    """The scenarios of one workload; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
