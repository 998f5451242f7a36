"""Command-line front end.

Subcommands:

* ``estimate <scenario>``: algorithm feasibility plus the full QEC and
  engineering stack.  Exit code 0 feasible, 2 infeasible, 3 when no
  code size can reach the required logical error rate.
* ``simulate <scenario>``: run the scenario's simulation block
  (trajectory fidelity estimates, rate fitting, search success).
* ``presets``: list the named hardware profiles.
* ``fit <data-file>``: least-squares rates from a plain-text table of
  ``N0 N1 N2 log_fidelity`` rows (``#`` comments allowed).

``--format machine`` prints one JSON document; ``--output PATH`` writes
that JSON to a file regardless of the stdout format.  Usage and parse
problems exit with code 1.

The simulator loads numpy, so only the functions that run it import
it: ``estimate`` and ``presets`` stay numpy-free.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .algorithms import SECONDS_PER_YEAR, AlgorithmSpec, FeasibilityReport, assess
from .engineering import full_stack_report
from .model import CHANNELS, OpCounts
from .presets import PRESETS
from .qec import AboveThresholdError, FloorUnreachableError
from .scenario import (
    Scenario,
    ScenarioValidationError,
    SimulationSettings,
    hardware_to_dict,
    parse_scenario,
    scenario_to_dict,
)

if TYPE_CHECKING:
    from .sim.fit import FitResult

_EXIT_BY_STATUS = {"feasible": 0, "infeasible": 2, "qec-unreachable": 3}


def _feasibility_dict(spec: AlgorithmSpec, report: FeasibilityReport) -> dict:
    return {
        "algorithm": spec.kind,
        "size": spec.size_n,
        "target_fidelity": spec.target_fidelity,
        "two_qubit_count": report.two_qubit_count,
        "achieved_log_fidelity": report.achieved_log_fidelity,
        "achieved_fidelity": math.exp(report.achieved_log_fidelity),
        "required_eps2": report.required_eps2,
        "gap_factor": report.gap_factor,
        "sequential_runtime_s": report.sequential_runtime,
        "sequential_runtime_years": report.sequential_runtime / SECONDS_PER_YEAR,
        "verdict": report.verdict,
    }


def run_estimate(scenario: Scenario) -> dict:
    """Machine-readable estimate document; ``status`` drives the exit code."""
    feasibility = assess(scenario.algorithm, scenario.hardware)
    doc = {
        "command": "estimate",
        "scenario": scenario_to_dict(scenario),
        "feasibility": _feasibility_dict(scenario.algorithm, feasibility),
        "status": feasibility.verdict,
    }
    try:
        doc["scaling"] = full_stack_report(scenario.algorithm, scenario.hardware,
                                           scenario.qec, scenario.cryo)
    except (AboveThresholdError, FloorUnreachableError) as exc:
        doc["qec_error"] = {"type": type(exc).__name__, "message": str(exc)}
        doc["status"] = "qec-unreachable"
    return doc


def _fit_dict(result: FitResult) -> dict:
    return {
        "channels": list(result.channels),
        "rates": dict(result.rates),
        "std_errors": dict(result.std_errors),
        "ci95": {c: list(result.confidence_interval(c)) for c in result.channels},
        "n_observations": result.n_observations,
        "residual_norm": result.residual_norm,
    }


def _simulate_random(sim: SimulationSettings) -> dict:
    from .sim.circuit import random_circuit
    from .sim.engine import NoiseModel, estimate_fidelity
    from .sim.fit import RankDeficientError, design_matrix, fit_error_rates

    noise = NoiseModel(sim.noise)
    # Trajectory seed blocks come first (one block of `trajectories`
    # per depth, in order); topology seeds follow after all blocks.
    topo_base = sim.seed + len(sim.depths) * sim.trajectories
    circuits = [random_circuit(sim.qubits, depth, topo_base + j, sim.pairs_per_layer)
                for j, depth in enumerate(sim.depths)]
    tallies = [circuit.counts() for circuit in circuits]
    channels = sim.fit_channels
    if channels is None:
        # by default, the channels that inject errors into some circuit
        channels = tuple(c for c in CHANNELS if sim.noise.rate(c) > 0.0
                         and any(counts.count(c) for counts in tallies))
    elif len(circuits) >= 2:
        # a fit these counts cannot separate fails before any trajectory runs
        design_matrix(tallies, channels)
    rows = []
    observations: list[tuple[OpCounts, float]] = []
    for j, (depth, circuit, counts) in enumerate(zip(sim.depths, circuits, tallies)):
        estimate = estimate_fidelity(circuit, noise, sim.trajectories,
                                     sim.seed + j * sim.trajectories)
        log_mean = math.log(estimate.mean) if estimate.mean > 0.0 else None
        if log_mean is not None:
            observations.append((counts, log_mean))
        rows.append({
            "depth": depth,
            "counts": {"n0": counts.n0, "n1": counts.n1, "n2": counts.n2},
            "digest": circuit.digest(),
            "mean_fidelity": estimate.mean,
            "std_error": estimate.std_error,
            "log_mean_fidelity": log_mean,
        })
    doc: dict = {"kind": "random", "circuits": rows, "fit": None}
    if channels and len(observations) >= 2:
        try:
            result = fit_error_rates(observations, channels)
        except RankDeficientError:
            if sim.fit_channels is not None:
                raise
            # a random circuit's N1 and N2 both grow with its depth alone
            doc["fit_skipped"] = (f"the counts do not separate channels {channels}; "
                                  "name the channels to fit with the fit key")
        else:
            doc["fit"] = _fit_dict(result)
            doc["fit"]["injected"] = {c: sim.noise.rate(c) for c in result.channels}
    return doc


def _simulate_grover(sim: SimulationSettings) -> dict:
    from .sim.engine import NoiseModel
    from .sim.grover import grover_success_probability, ideal_success_probability

    noise = NoiseModel(sim.noise)
    success = grover_success_probability(
        sim.qubits, sim.marked, sim.iterations, noise, sim.trajectories, sim.seed)
    return {
        "kind": "grover",
        "qubits": sim.qubits,
        "marked": sim.marked,
        "iterations": sim.iterations,
        "success_probability": success.mean,
        "std_error": success.std_error,
        "ideal_success_probability": ideal_success_probability(
            sim.qubits, sim.iterations),
    }


def run_simulate(scenario: Scenario) -> dict:
    """Machine-readable simulate document; deterministic for a fixed seed."""
    sim = scenario.simulation
    if sim is None:
        raise ScenarioValidationError(
            "the scenario has no simulation block; nothing to simulate")
    doc = {
        "command": "simulate",
        "scenario": scenario_to_dict(scenario),
        "trajectories": sim.trajectories,
        "seed": sim.seed,
    }
    if sim.kind == "random":
        doc["simulation"] = _simulate_random(sim)
    else:
        doc["simulation"] = _simulate_grover(sim)
    return doc


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _estimate_table(doc: dict) -> str:
    f = doc["feasibility"]
    lines = [
        f"algorithm        {f['algorithm']} n={f['size']} "
        f"(target fidelity {_fmt(f['target_fidelity'])})",
        f"two-qubit gates  {_fmt(f['two_qubit_count'])}",
        f"required eps2    {_fmt(f['required_eps2'])}",
        f"gap factor       {_fmt(f['gap_factor'])}",
        f"log fidelity     {_fmt(f['achieved_log_fidelity'])}"
        f"  (fidelity {_fmt(f['achieved_fidelity'])})",
        f"runtime          {_fmt(f['sequential_runtime_s'])} s"
        f" = {_fmt(f['sequential_runtime_years'])} years (sequential)",
        f"verdict          {f['verdict']}",
    ]
    if "qec_error" in doc:
        lines.append(f"qec              {doc['qec_error']['message']}")
    if "scaling" in doc:
        lines.append("scaling")
        for note in doc["scaling"]["notes"]:
            lines.append(f"  {note}")
    return "\n".join(lines)


def _simulate_table(doc: dict) -> str:
    sim = doc["simulation"]
    lines = [f"trajectories     {doc['trajectories']} (seed {doc['seed']})"]
    if sim["kind"] == "random":
        lines.append("depth  N0  N1    N2    mean fidelity  std error")
        for row in sim["circuits"]:
            c = row["counts"]
            lines.append(
                f"{row['depth']:<6} {c['n0']:<3} {c['n1']:<5} {c['n2']:<5} "
                f"{row['mean_fidelity']:<14.6g} {row['std_error']:.3g}")
        if "fit_skipped" in sim:
            lines.append(f"fit              skipped ({sim['fit_skipped']})")
        elif sim["fit"] is None:
            lines.append("fit              skipped (fewer than 2 usable points "
                         "or no channel selected)")
        else:
            lines.append(_fit_table(sim))
    else:
        lines.append(
            f"search           n={sim['qubits']} marked={sim['marked']} "
            f"iterations={sim['iterations']}")
        lines.append(
            f"success          {_fmt(sim['success_probability'])} "
            f"+/- {_fmt(sim['std_error'])} "
            f"(noiseless closed form {_fmt(sim['ideal_success_probability'])})")
    return "\n".join(lines)


def _presets_table(doc: dict) -> str:
    lines = ["name       eps1     eps2"]
    for name, hw in doc["presets"].items():
        lines.append(f"{name:<10} {hw['eps1']:<8.3g} {hw['eps2']:.3g}")
    return "\n".join(lines)


def _fit_table(doc: dict) -> str:
    """One line per channel of ``doc["fit"]``: its rate and 95% CI, then
    the injected rate where the fit has one (a simulated fit does)."""
    fit = doc["fit"]
    lines = []
    for channel in fit["channels"]:
        lo, hi = fit["ci95"][channel]
        injected = f", injected {_fmt(fit['injected'][channel])}" if "injected" in fit else ""
        lines.append(f"fitted {channel:<10} {_fmt(fit['rates'][channel])} "
                     f"(95% CI [{_fmt(lo)}, {_fmt(hi)}]{injected})")
    return "\n".join(lines)


def _non_finite(doc: object, path: str = "") -> tuple[str, float] | None:
    """The dotted path and value of the first float in ``doc`` that is not
    finite, in the order ``json.dumps(sort_keys=True)`` writes them."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else (path, doc)
    if isinstance(doc, dict):
        items = ((f"{path}.{key}" if path else key, doc[key]) for key in sorted(doc))
    elif isinstance(doc, (list, tuple)):
        items = ((f"{path}[{i}]", value) for i, value in enumerate(doc))
    else:
        return None
    for key, value in items:
        found = _non_finite(value, key)
        if found is not None:
            return found
    return None


def _emit(doc: dict, args: argparse.Namespace, table: Callable[[dict], str]) -> None:
    # Serialised first in every format, so a document that is not strict
    # JSON fails the same way whatever goes to stdout.
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        found = _non_finite(doc)
        if found is None:
            raise
        field, value = found
        problem = "is not a number" if math.isnan(value) else "is beyond the float range"
        raise ValueError(f"{field} {problem}") from None
    print(text if args.format == "machine" else table(doc))
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="ascii")


def _load_scenario(path: str) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def _cmd_estimate(args: argparse.Namespace) -> int:
    doc = run_estimate(_load_scenario(args.scenario))
    _emit(doc, args, _estimate_table)
    return _EXIT_BY_STATUS[doc["status"]]


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    overrides = {key: value for key in ("seed", "trajectories")
                 if (value := getattr(args, key)) is not None}
    if scenario.simulation is not None and overrides:
        # SimulationSettings checks the overrides as it checks the file's keys
        scenario = scenario.replace(simulation=scenario.simulation.replace(**overrides))
    doc = run_simulate(scenario)
    _emit(doc, args, _simulate_table)
    return 0


def _cmd_presets(args: argparse.Namespace) -> int:
    presets = {name: hardware_to_dict(hw) for name, hw in PRESETS.items()}
    for hw in presets.values():
        del hw["name"]
    doc = {"command": "presets", "presets": presets}
    _emit(doc, args, _presets_table)
    return 0


def _parse_fit_file(text: str) -> list[tuple[OpCounts, float]]:
    observations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(
                f"line {lineno}: expected 'N0 N1 N2 log_fidelity', got {line!r}")
        try:
            n0, n1, n2 = (float(p) for p in parts[:3])
            log_f = float(parts[3])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric field in {line!r}") from None
        observations.append((OpCounts(n0, n1, n2), log_f))
    if len(observations) < 2:
        raise ValueError("need at least 2 data rows to fit")
    return observations


def _cmd_fit(args: argparse.Namespace) -> int:
    from .sim.fit import fit_error_rates

    observations = _parse_fit_file(Path(args.data).read_text(encoding="utf-8"))
    if args.channels:
        channels = tuple(c.strip() for c in args.channels.split(","))
    else:
        channels = tuple(
            c for c in CHANNELS
            if any(counts.count(c) != 0 for counts, _ in observations))
        if not channels:
            raise ValueError("all count columns are zero; nothing to fit")
    result = fit_error_rates(observations, channels)
    doc = {"command": "fit", "fit": _fit_dict(result)}
    _emit(doc, args, _fit_table)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2)
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="qfeas",
        description="Feasibility estimates and noisy-circuit simulation "
                    "for gate-based quantum computing.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("table", "machine"), default="table",
                       help="stdout format (default: table)")
        p.add_argument("--output", metavar="PATH",
                       help="also write the machine-readable JSON document here")

    p_est = sub.add_parser("estimate", help="feasibility and scaling report")
    p_est.add_argument("scenario", help="scenario file (YAML)")
    add_common(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run the scenario's simulation block")
    p_sim.add_argument("scenario", help="scenario file (YAML)")
    p_sim.add_argument("--seed", type=int, help="override the simulation seed")
    p_sim.add_argument("--trajectories", type=int,
                       help="override the trajectory count")
    add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_pre = sub.add_parser("presets", help="list named hardware profiles")
    add_common(p_pre)
    p_pre.set_defaults(func=_cmd_presets)

    p_fit = sub.add_parser("fit", help="fit error rates from a data table")
    p_fit.add_argument("data", help="text file of 'N0 N1 N2 log_fidelity' rows")
    p_fit.add_argument("--channels",
                       help="comma-separated channels to fit "
                            f"(default: those with nonzero counts; from {CHANNELS})")
    add_common(p_fit)
    p_fit.set_defaults(func=_cmd_fit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        # scenario parse/validation errors and rank-deficient fits derive
        # from ValueError; a trajectory count too large to hold raises MemoryError
        print(f"qfeas: error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
