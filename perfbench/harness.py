"""Running the qfeas CLI as a child process, and checking what it prints."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WARMUP_YAML, Scenario, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: What the ``qfeas`` console script runs.
CLI_MAIN = "from qfeas.cli import entry_point; entry_point()"

EXIT_BY_STATUS = {"feasible": 0, "infeasible": 2, "qec-unreachable": 3}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9

#: A CLI child still running after this long is killed and counted failed.
INVOCATION_TIMEOUT_S = 150.0

#: The criterion-07 rule: fitted eps2 within 15% of the injected rate.
DECAY_FIT_TOLERANCE = 0.15


def child_env() -> dict[str, str]:
    """The children's environment: ``src`` first on the import path, and
    bytecode caching on, as for an installed package, whatever the
    caller's setting."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def invoke(argv: list[str], env: dict[str, str]) -> dict:
    """Run one child to completion: wall time from spawn to exit, its
    exit code, its peak resident set and its output."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    killer.start()
    err: list[bytes] = []
    # drain stderr alongside stdout, so that neither pipe can fill up
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        # wait4 rather than wait: it also returns the child's rusage
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0, "stdout": out, "stderr": err[0]}


def cli_argv(scenario: Scenario, path: Path) -> list[str]:
    return ["-c", CLI_MAIN, scenario.command, str(path), "--format", "machine"]


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(data: bytes) -> dict:
    """Parse RFC 8259 JSON: NaN, Infinity and -Infinity are rejected."""
    return json.loads(data, parse_constant=_reject_constant)


def trajectories_in(doc: dict) -> int:
    sim = doc["simulation"]
    circuits = len(sim["circuits"]) if sim["kind"] == "random" else 1
    return doc["trajectories"] * circuits


def check_output(scenario: Scenario, result: dict, seen: dict[str, bytes]) -> tuple[dict | None, list[str]]:
    """The parsed document and a list of problems (empty when correct)."""
    problems = []
    out = result["stdout"]
    first = seen.setdefault(scenario.name, out)
    if first != out:
        problems.append("output differs from an earlier run of the same scenario")
    try:
        doc = strict_json(out)
    except ValueError as exc:
        tail = result["stderr"].decode(errors="replace").strip().splitlines()[-1:]
        return None, problems + [f"stdout is not strict JSON ({exc}); stderr: {tail}"]
    try:
        problems += _document_problems(scenario, doc, result["exit"])
    except (KeyError, TypeError) as exc:
        problems.append(f"document lacks an expected field: {exc!r}")
    return doc, problems


def _document_problems(scenario: Scenario, doc: dict, exit_code: int) -> list[str]:
    problems = []
    if scenario.command == "estimate":
        if exit_code != EXIT_BY_STATUS.get(doc["status"]):
            problems.append(f"exit {exit_code} for status {doc['status']!r}")
        return problems
    if exit_code != 0:
        problems.append(f"simulate exited {exit_code}")
    sim = doc["simulation"]
    if sim["kind"] == "random":
        fit = sim["fit"]
        if fit is None:
            problems.append("no fit in the decay document")
        else:
            fitted = fit["rates"]["two_qubit"]
            injected = fit["injected"]["two_qubit"]
            if abs(fitted - injected) > DECAY_FIT_TOLERANCE * injected:
                problems.append(f"fitted eps2 {fitted:.4e} not within 15% of {injected:.4e}")
    else:
        p = sim["success_probability"]
        low = 2.0 ** -sim["qubits"]
        high = sim["ideal_success_probability"] + 3 * sim["std_error"]
        if not low <= p <= high:
            problems.append(f"success probability {p!r} outside [{low!r}, {high!r}]")
    return problems


def write_scenarios(scenarios: list[Scenario], directory: Path) -> list[Path]:
    directory.mkdir(parents=True)
    paths = []
    for scenario in scenarios:
        path = directory / f"{scenario.name}.yaml"
        path.write_text(scenario.yaml, encoding="utf-8")
        paths.append(path)
    (directory / "warmup.yaml").write_text(WARMUP_YAML, encoding="utf-8")
    return paths


def set_up(workload: str, seed: int, run_dir: Path, env: dict[str, str]):
    """Generate the scenario files and warm the program up, several
    times; returns the last set of files and the median set-up time."""
    times = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        scenarios = generate(workload, seed)
        directory = run_dir / f"setup{i}"
        paths = write_scenarios(scenarios, directory)
        invoke(["-c", CLI_MAIN, "estimate", str(directory / "warmup.yaml"),
                "--format", "machine"], env)
        times.append(time.perf_counter() - start)
    return scenarios, paths, statistics.median(times)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
