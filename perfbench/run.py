"""Benchmark of the qfeas command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload estimate-corpus --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload through the ``qfeas`` CLI the way a user
does: a closed loop in which one benchmark process starts one CLI child at
a time, in passes over the seeded scenario files until ``--seconds``
have passed.  Every output is checked (see ``check_output``), and each
scenario is timed by the best of its calls.

``--trace 1`` replays the workload in this process through the public
functions of each module (``replay.py``) and reports per-layer numbers.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Raw per-invocation records,
spans and a stamped result are written under ``perfbench/out/``.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

from harness import ROOT, SRC, check_output, child_env, cli_argv, invoke, set_up, sha256, trajectories_in
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def git_commit() -> str | None:
    """HEAD's commit, read from ``.git`` without running git; None in an
    export or when the ref is packed."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def stamp() -> dict:
    """Recorded with every result, never gated."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy_version, "git_commit": git_commit(),
            "src_lines": src_lines}


def run_cli_loop(workload: str, seed: int, seconds: float, run_dir: Path,
                 env: dict[str, str]) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics from timed CLI children.

    The scenario list is run in passes.  The first pass is always whole;
    after it, a call starts only if its scenario's best time so far still
    fits in ``seconds``.  Each scenario's time is the best (lowest) wall
    time of its calls, as ``timeit`` advises: the slower calls measure
    other load on the machine, not the program.
    """
    scenarios, paths, setup_s = set_up(workload, seed, run_dir, env)
    records = []
    seen: dict[str, bytes] = {}
    best: dict[str, float] = {}
    trajectories: dict[str, int] = {}
    start = time.perf_counter()
    i = 0
    while True:
        scenario, path = scenarios[i % len(scenarios)], paths[i % len(paths)]
        if i >= len(scenarios) and time.perf_counter() - start + best[scenario.name] > seconds:
            break
        i += 1
        result = invoke(cli_argv(scenario, path), env)
        doc, problems = check_output(scenario, result, seen)
        if doc is not None and not problems and scenario.command == "simulate":
            trajectories[scenario.name] = trajectories_in(doc)
        best[scenario.name] = min(result["wall_s"], best.get(scenario.name, math.inf))
        records.append({
            "scenario": scenario.name,
            "digest": sha256(scenario.yaml.encode()),
            "exit": result["exit"],
            "wall_s": result["wall_s"],
            "rss_mb": result["rss_mb"],
            "doc_sha256": sha256(result["stdout"]),
            "problems": problems,
        })
    with open(run_dir / "invocations.jsonl", "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    walls = list(best.values())
    busy = sum(walls)
    failed = sum(1 for r in records if r["problems"])
    scenarios_per_s = len(walls) / busy
    calls = Counter(r["scenario"] for r in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s.p50": (statistics.median(walls), "s"),
        "wall_s.p90": (percentile(walls, 90), "s"),
        "scenarios_per_s": (scenarios_per_s, "1/s"),
        # An estimate runs no trajectories; there each scenario counts as one.
        "traj_per_s": (sum(trajectories.values()) / busy if trajectories else scenarios_per_s, "1/s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), "MiB"),
    }
    info = {
        "samples": len(records),
        "scenarios": len(scenarios),
        "repeats_min": min(calls.values()),
        "failed_frac": failed / len(records),
        "doc_sha256": {r["scenario"]: r["doc_sha256"] for r in records},
        "problems": sorted({p for r in records for p in r["problems"]}),
    }
    return {"attempted": len(records), "failed": failed, "metrics": metrics}, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qfeas" / "cli.py").is_file():
        print(f"perfbench: no qfeas sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    run_dir = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env()
    if args.trace:
        sys.path.insert(0, str(SRC))
        from replay import run_traced
        summary, info = run_traced(args.workload, args.seed, args.seconds,
                                   run_dir, env)
    else:
        summary, info = run_cli_loop(args.workload, args.seed, args.seconds,
                                     run_dir, env)

    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in summary["metrics"].items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "stamp": stamp(), **info, **result}
    (run_dir / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    for problem in info["problems"]:
        print(f"problem: {problem}")
    print("info: " + json.dumps({k: v for k, v in record.items()
                                 if k not in ("doc_sha256", "metrics", "problems")},
                                sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
