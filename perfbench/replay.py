"""Traced replay of a workload through the public functions of each layer.

For each scenario the replay calls, in order, the functions a CLI run
is made of: ``parse_scenario``, ``scenario_to_dict``, then on the
estimate path ``assess``, ``required_code_size``, ``error_floor``,
``full_stack_report`` and ``run_estimate``; on the simulate path the
circuit builders, ``noise_sites``, ``run_ideal``, a serial trajectory
loop over ``sample_insertions``, ``run_with_insertions`` and
``state_fidelity``, ``fit_error_rates`` and ``run_simulate``.  Each call
sits in a span.  Spans are kept in memory and written as JSON lines
when the run ends; self times are computed from them.

The trajectory loops here are a serial oracle written only from public
functions.  Their means, standard errors, fitted rates and search
success must equal the CLI document bit for bit, and the rendered
document must equal the CLI's stdout byte for byte.

Each scenario is replayed twice, first with spans off and then on; the
difference in wall time is the tracing overhead.
"""

from __future__ import annotations

import json
import math
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from qfeas.algorithms import assess
from qfeas.cli import run_estimate, run_simulate
from qfeas.engineering import full_stack_report
from qfeas.model import CHANNELS
from qfeas.qec import AboveThresholdError, FloorUnreachableError, error_floor, required_code_size
from qfeas.scenario import parse_scenario, scenario_to_dict
from qfeas.sim.circuit import random_circuit
from qfeas.sim.engine import (
    NoiseModel,
    noise_sites,
    run_ideal,
    run_with_insertions,
    sample_insertions,
    state_fidelity,
)
from qfeas.sim.fit import fit_error_rates
from qfeas.sim.grover import build_grover_circuit

from harness import check_output, cli_argv, invoke, set_up, sha256

#: Fresh interpreters started per startup measurement, each way.
STARTUP_REPEATS = 7

_STARTUP_PROBE = ("import sys; before = set(sys.modules); import qfeas.cli; "
                  "print(len(set(sys.modules) - before), int('numpy' in sys.modules))")


class Tracer:
    """In-memory spans: [name, start, end, parent index, run id]."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total time, self time and call count."""
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        total, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - covered[i]
            calls[name] += 1
        return total, self_time, calls

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "run")
        with open(path, "w", encoding="utf-8") as fh:
            for i, record in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, record))}) + "\n")


def _duration(span: list) -> float:
    return span[2] - span[1]


def _render(doc: dict) -> str:
    # the CLI's --format machine rendering, followed by print's newline
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _replay_estimate(scenario, tr: Tracer, counts: dict) -> tuple[str, dict]:
    with tr.span("scenario.parse"):
        scn = parse_scenario(scenario.yaml)
    with tr.span("scenario.echo"):
        scenario_to_dict(scn)
    with tr.span("algorithms.assess") as assess_span:
        report = assess(scn.algorithm, scn.hardware)
    eps2 = scn.hardware.budget.eps2
    with tr.span("qec.required_code_size") as code_span:
        try:
            required_code_size(eps2, scn.qec, report.required_eps2)
        except (AboveThresholdError, FloorUnreachableError):
            pass
    with tr.span("qec.error_floor") as floor_span:
        try:
            floor = error_floor(eps2, scn.qec)
        except AboveThresholdError:
            floor = None
    if floor is not None:
        counts["floors"] += 1
        counts["nc_limited"] += floor.nc_limited
    with tr.span("engineering.full_stack_report") as stack_span:
        try:
            full_stack_report(scn.algorithm, scn.hardware, scn.qec, scn.cryo)
            inner = (assess_span, code_span, floor_span)
        except (AboveThresholdError, FloorUnreachableError):
            inner = (assess_span, code_span)  # it raised before its error_floor call
    if tr.enabled:
        # full_stack_report makes the calls timed on their own above
        counts["engineering_self_s"] += _duration(stack_span) - sum(map(_duration, inner))
    with tr.span("cli.run_estimate"):
        doc = run_estimate(scn)
    with tr.span("cli.render"):
        text = _render(doc)
    return text, {}


def _trajectory_loop(tr: Tracer, name: str, circuit, sites, n_traj: int, seed: int,
                     observe, counts: dict) -> tuple[float, float]:
    """Mean and standard error of ``observe`` over n_traj trajectories;
    ``observe(None)`` is the value of a trajectory with no insertions."""
    values = np.empty(n_traj, dtype=np.float64)
    with tr.span(name):
        for i in range(n_traj):
            with tr.span("engine.sample_insertions"):
                insertions = sample_insertions(sites, seed + i)
            counts["trajectories"] += 1
            counts["insertions"] += len(insertions)
            if not insertions:
                counts["zero_insertion"] += 1
                values[i] = observe(None)
                continue
            with tr.span("engine.run_with_insertions"):
                state = run_with_insertions(circuit, insertions)
            values[i] = observe(state)
        mean = float(values.mean())
        std_error = float(values.std(ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else 0.0
    return mean, std_error


def _ideal(tr: Tracer, circuit, counts: dict):
    with tr.span("engine.run_ideal"):
        ideal = run_ideal(circuit)
    counts["gates"] += len(circuit.gates)
    counts["gate_bytes"] += len(circuit.gates) * 2 * 16 * (1 << circuit.n_qubits)
    return ideal


def _replay_random(sim, tr: Tracer, counts: dict) -> dict:
    noise = NoiseModel(sim.noise)
    n_traj = sim.trajectories
    topo_base = sim.seed + len(sim.depths) * n_traj
    rows, observations = [], []
    for j, depth in enumerate(sim.depths):
        with tr.span("circuit.build"):
            circuit = random_circuit(sim.qubits, depth, topo_base + j, sim.pairs_per_layer)
        with tr.span("engine.noise_sites"):
            sites = noise_sites(circuit, noise)
        counts["sites"] += len(sites)
        ideal = _ideal(tr, circuit, counts)

        def overlap(state):
            if state is None:
                return 1.0
            with tr.span("engine.state_fidelity"):
                return state_fidelity(ideal, state)

        mean, std_error = _trajectory_loop(tr, "engine.estimate_fidelity", circuit, sites,
                                           n_traj, sim.seed + j * n_traj, overlap, counts)
        log_mean = math.log(mean) if mean > 0.0 else None
        if log_mean is not None:
            observations.append((circuit.counts(), log_mean))
        rows.append((mean, std_error, log_mean))
    channels = sim.fit_channels
    if channels is None:
        rates = (sim.noise.eps0, sim.noise.eps1, sim.noise.eps2)
        channels = tuple(c for c, r in zip(CHANNELS, rates) if r > 0.0)
    fit = None
    if channels and len(observations) >= 2:
        with tr.span("fit.fit_error_rates"):
            fit = fit_error_rates(observations, channels).rates
    return {"rows": rows, "fit": fit}


def _replay_grover(sim, tr: Tracer, counts: dict) -> dict:
    noise = NoiseModel(sim.noise)
    with tr.span("circuit.build"):
        circuit = build_grover_circuit(sim.qubits, sim.marked, sim.iterations)
    index = int(sim.marked, 2)
    ideal = _ideal(tr, circuit, counts)
    p_ideal = float(ideal[index].real ** 2 + ideal[index].imag ** 2)
    if noise.is_null:
        return {"success": (p_ideal, 0.0)}
    with tr.span("engine.noise_sites"):
        sites = noise_sites(circuit, noise)
    counts["sites"] += len(sites)

    def marked_probability(state):
        if state is None:
            return p_ideal
        amp = state[index]
        return float(amp.real ** 2 + amp.imag ** 2)

    success = _trajectory_loop(tr, "grover.success_probability", circuit, sites,
                               sim.trajectories, sim.seed, marked_probability, counts)
    return {"success": success}


def _replay_simulate(scenario, tr: Tracer, counts: dict) -> tuple[str, dict]:
    with tr.span("scenario.parse"):
        scn = parse_scenario(scenario.yaml)
    with tr.span("scenario.echo"):
        scenario_to_dict(scn)
    sim = scn.simulation
    if sim.kind == "random":
        values = _replay_random(sim, tr, counts)
    else:
        values = _replay_grover(sim, tr, counts)
    with tr.span("cli.run_simulate"):
        doc = run_simulate(scn)
    with tr.span("cli.render"):
        text = _render(doc)
    return text, values


def replay(scenario, tr: Tracer, counts: dict) -> tuple[str, dict]:
    """Rendered document and the oracle's own values for one scenario."""
    with tr.span("scenario"):
        if scenario.command == "estimate":
            return _replay_estimate(scenario, tr, counts)
        return _replay_simulate(scenario, tr, counts)


def _bits(x):
    return None if x is None else float(x).hex()


def oracle_mismatches(values: dict, doc: dict) -> list[str]:
    """Where the serial oracle's values differ from the CLI document."""
    problems = []
    sim = doc.get("simulation")
    if "rows" in values:
        for (mean, se, log_mean), row in zip(values["rows"], sim["circuits"], strict=True):
            got = (_bits(mean), _bits(se), _bits(log_mean))
            want = (_bits(row["mean_fidelity"]), _bits(row["std_error"]),
                    _bits(row["log_mean_fidelity"]))
            if got != want:
                problems.append(f"depth {row['depth']}: replay {got} != CLI {want}")
        got = values["fit"] and {c: _bits(r) for c, r in values["fit"].items()}
        want = sim["fit"] and {c: _bits(r) for c, r in sim["fit"]["rates"].items()}
        if got != want:
            problems.append(f"fit: replay {got} != CLI {want}")
    if "success" in values:
        got = tuple(map(_bits, values["success"]))
        want = (_bits(sim["success_probability"]), _bits(sim["std_error"]))
        if got != want:
            problems.append(f"search success: replay {got} != CLI {want}")
    return problems


def startup(env: dict) -> dict:
    """Fresh-interpreter ``import qfeas.cli`` minus a bare interpreter."""
    bare, full = [], []
    for _ in range(STARTUP_REPEATS):
        bare.append(invoke(["-c", "pass"], env)["wall_s"])
        full.append(invoke(["-c", "import qfeas.cli"], env)["wall_s"])
    modules, numpy_imported = invoke(["-c", _STARTUP_PROBE], env)["stdout"].split()
    return {
        "startup.import_s": (statistics.median(full) - statistics.median(bare), "s"),
        "startup.modules": (int(modules), "count"),
        "startup.numpy_imported": (int(numpy_imported), "flag"),
    }


def run_traced(workload: str, seed: int, seconds: float, run_dir: Path,
               env: dict) -> tuple[dict, dict]:
    """The traced run: per-layer metrics from replayed scenarios.

    Scenarios are replayed in order until ``seconds`` have passed (at
    least one).  Each is also run once through the CLI, whose output
    gets the same checks as in the untraced run and is the reference
    the replay must match.
    """
    scenarios, paths, _ = set_up(workload, seed, run_dir, env)
    metrics = startup(env)
    traced = Tracer(enabled=True)
    counts = defaultdict(int)
    seen: dict[str, bytes] = {}
    problems_by_scenario = {}
    doc_sha = {}
    overhead = 0.0
    doc_bytes = 0
    start = time.perf_counter()
    n = 0
    while n < len(scenarios) and (n == 0 or time.perf_counter() - start < seconds):
        scenario, path = scenarios[n], paths[n]
        result = invoke(cli_argv(scenario, path), env)
        doc, problems = check_output(scenario, result, seen)
        doc_sha[scenario.name] = sha256(result["stdout"])

        try:
            t0 = time.perf_counter()
            plain_text, plain_values = replay(scenario, Tracer(enabled=False), defaultdict(int))
            t1 = time.perf_counter()
            traced.run_id = n
            text, values = replay(scenario, traced, counts)
            overhead += (time.perf_counter() - t1) - (t1 - t0)
            doc_bytes += len(text)
            if text.encode() != result["stdout"] or plain_text != text:
                problems.append("replayed document differs from the CLI output")
            if doc is not None:
                problems += oracle_mismatches(values, doc)
                problems += oracle_mismatches(plain_values, doc)
        except Exception:  # a failing scenario is counted, and the run goes on
            problems.append("replay failed: " + traceback.format_exc().strip().splitlines()[-1])
        problems_by_scenario[scenario.name] = problems
        n += 1
    traced.write(run_dir / "spans.jsonl")

    total, self_time, calls = traced.totals()

    def per_scenario(name: str) -> float:
        return total[name] / n

    def per_call_us(name: str) -> float:
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    def ratio(a: str, b: str) -> float:
        return counts[a] / counts[b] if counts[b] else 0.0

    failed = sum(1 for p in problems_by_scenario.values() if p)
    metrics.update({
        "scenario.parse_s": (per_scenario("scenario.parse"), "s"),
        "scenario.echo_s": (per_scenario("scenario.echo"), "s"),
        "algorithms.assess_s": (per_scenario("algorithms.assess"), "s"),
        "qec.required_code_size_s": (per_scenario("qec.required_code_size"), "s"),
        "qec.error_floor_s": (per_scenario("qec.error_floor"), "s"),
        "qec.nc_limited_frac": (ratio("nc_limited", "floors"), "ratio"),
        "engineering.full_stack_s": (per_scenario("engineering.full_stack_report"), "s"),
        "engineering.self_s": (counts["engineering_self_s"] / n, "s"),
        "cli.run_estimate_s": (per_scenario("cli.run_estimate"), "s"),
        "cli.run_simulate_s": (per_scenario("cli.run_simulate"), "s"),
        "cli.render_s": (per_scenario("cli.render"), "s"),
        "cli.doc_bytes": (doc_bytes / n, "B"),
        "circuit.build_s": (per_scenario("circuit.build"), "s"),
        "circuit.gates": (counts["gates"] / n, "count"),
        "engine.noise_sites_s": (per_scenario("engine.noise_sites"), "s"),
        "engine.sites": (counts["sites"] / n, "count"),
        "engine.sample_insertions_us": (per_call_us("engine.sample_insertions"), "us"),
        "engine.zero_insertion_frac": (ratio("zero_insertion", "trajectories"), "ratio"),
        "engine.insertions_mean": (ratio("insertions", "trajectories"), "count"),
        "engine.run_ideal_s": (per_scenario("engine.run_ideal"), "s"),
        "engine.gate_us": (1e6 * total["engine.run_ideal"] / counts["gates"]
                           if counts["gates"] else 0.0, "us"),
        "engine.gate_bytes_computed": (ratio("gate_bytes", "gates"), "B"),
        "engine.run_with_insertions_s": (per_scenario("engine.run_with_insertions"), "s"),
        "engine.state_fidelity_us": (per_call_us("engine.state_fidelity"), "us"),
        "engine.estimate_fidelity_s": (per_scenario("engine.estimate_fidelity"), "s"),
        "engine.loop_self_s": (self_time["engine.estimate_fidelity"] / n, "s"),
        "grover.success_probability_s": (per_scenario("grover.success_probability"), "s"),
        "grover.loop_self_s": (self_time["grover.success_probability"] / n, "s"),
        "fit.fit_error_rates_s": (per_scenario("fit.fit_error_rates"), "s"),
        "failed_frac": (failed / n, "ratio"),
        "trace.overhead_s": (overhead / n, "s"),
    })
    info = {
        "samples": n,
        "failed_frac": failed / n,
        "doc_sha256": doc_sha,
        "problems": sorted({p for ps in problems_by_scenario.values() for p in ps}),
        "spans": len(traced.spans),
    }
    return {"attempted": n, "failed": failed, "metrics": metrics}, info
