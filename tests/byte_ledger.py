"""Byte ledger of the perfbench corpus: one sha256 per (scenario, format),
and the values of its simulate documents.

Every scenario of seeds 101-103 of the four workloads in
``perfbench/workloads.py`` runs through ``qfeas.cli.main`` in-process,
once with ``--format table`` and once with ``--format machine``, each
with ``--output``.  A ledger line holds the exit code and the sha256 of
the exit code, stdout, stderr and ``--output`` bytes (text as UTF-8).
A simulate scenario's document is computed once and rendered in both
formats.

The ledger has two halves, each keyed in its header line by what its
bytes depend on and compared only on a build with the same key:

* the 576 estimate entries (estimate-corpus and qec-sweep) run a path
  that loads no numpy, so their bytes depend on CPython's floats and on
  libm.  Their key is ``float.hex()`` of fixed ``math.exp``, ``log``,
  ``log10`` and ``pow`` probes over the ranges the estimate uses;
* the 24 simulate entries depend on the complex-multiply and ``exp``
  loops that numpy picks by CPU features.  Their key is the numpy
  version and the CPU features it found.

``simulate_documents.json`` holds the 12 machine documents of the
simulate scenarios, whose values are compared on any build: every float
to within a relative 1e-12, every other leaf exactly.

    PYTHONPATH=src python tests/byte_ledger.py           # rewrite both files
    PYTHONPATH=src python tests/byte_ledger.py --check   # compare with them

A change that moves bytes on purpose rewrites the ledger and names each
changed line.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import sys
import tempfile
import time
from pathlib import Path

from qfeas import cli

ROOT = Path(__file__).resolve().parents[1]
LEDGER = Path(__file__).with_name("byte_ledger.txt")
DOCUMENTS = Path(__file__).with_name("simulate_documents.json")
SEEDS = (101, 102, 103)
FORMATS = ("table", "machine")


def _workloads():
    """perfbench/workloads.py, loaded by path so that perfbench/ stays off
    the import path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


HALVES = ("estimate", "simulate")

#: The libm probes: arguments of exp, log and log10, and pow's pairs, over
#: the probabilities, counts, log fidelities and code-size exponents the
#: estimate computes with.
_EXP = (-745.0, -700.5, -37.5, -1.0, -0.051293294387550536, -1e-3, -1e-9, 0.5, 88.7)
_LOG = (5e-324, 1e-300, 1e-9, 0.25, 0.36787944117144233, 0.999999, 1.5, 2048.0, 1e12, 1.7e308)
_LOG10 = (1e-15, 0.003, 2.0, 123456.789, 1e300)
_POW = ((0.25, 31.622776601683793), (0.1, 316.22776601683796), (0.9, 1000.0),
        (0.5, 0.5), (2048.0, 3.0), (1.0000001, 1e7), (0.83, 7.5))


def half(line: str) -> str:
    """The half a ledger line belongs to."""
    return "simulate" if line.startswith("simulate-") else "estimate"


def libm_fingerprint() -> str:
    """``float.hex()`` of every probe's value, in order."""
    values = ([math.exp(x) for x in _EXP] + [math.log(x) for x in _LOG]
              + [math.log10(x) for x in _LOG10] + [math.pow(x, y) for x, y in _POW])
    return " ".join(value.hex() for value in values)


def keys() -> dict[str, str]:
    """The build each half is only comparable on."""
    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    found = " ".join(sorted(name for name, on in __cpu_features__.items() if on))
    return {"estimate": f"libm {libm_fingerprint()}",
            "simulate": f"numpy {numpy.__version__} cpu_features {found}"}


def header() -> str:
    """One line per half: its name and its key."""
    return "".join(f"# {name} {key}\n" for name, key in keys().items())


@contextlib.contextmanager
def _simulate_once():
    """Let the second format's run reuse the first one's simulate document."""
    real, last = cli.run_simulate, {}

    def cached(scenario):
        if last.get("scenario") != scenario:
            last.update(scenario=scenario, doc=real(scenario))
        return last["doc"]

    cli.run_simulate = cached
    try:
        yield
    finally:
        cli.run_simulate = real


def _digest(argv: list[str], output: Path) -> tuple[int, str, str]:
    """The exit code, the entry's sha256 and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--output", str(output)])
    written = output.read_bytes() if output.exists() else b""
    h = hashlib.sha256()
    for part in (str(code).encode(), out.getvalue().encode(),
                 err.getvalue().encode(), written):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return code, h.hexdigest(), out.getvalue()


def entries(directory: Path) -> tuple[list[str], dict[str, object]]:
    """One ledger line per (workload, seed, scenario, format), and the
    machine document of each simulate scenario, keyed by (workload,
    seed, scenario)."""
    workloads = _workloads()
    lines, documents = [], {}
    with _simulate_once():
        for workload in sorted(workloads.WORKLOADS):
            for seed in SEEDS:
                for scenario in workloads.generate(workload, seed):
                    path = directory / f"{workload}-{seed}-{scenario.name}.yaml"
                    path.write_text(scenario.yaml, encoding="utf-8")
                    for fmt in FORMATS:
                        code, digest, stdout = _digest(
                            [scenario.command, str(path), "--format", fmt],
                            path.with_suffix(f".{fmt}.json"))
                        name = f"{workload} {seed} {scenario.name}"
                        lines.append(f"{name} {fmt} {code} {digest}")
                        if scenario.command == "simulate" and fmt == "machine":
                            documents[name] = json.loads(stdout)
    return lines, documents


def recorded_entries() -> dict[str, list[str] | None]:
    """Each half's ledger lines, or None for a half recorded on another
    build."""
    text = LEDGER.read_text(encoding="utf-8").splitlines()
    recorded = dict(line[2:].split(" ", 1) for line in text if line.startswith("# "))
    lines = [line for line in text if not line.startswith("# ")]
    return {name: [line for line in lines if half(line) == name]
            if recorded.get(name) == key else None for name, key in keys().items()}


def differences(recorded: list[str], current: list[str]) -> list[str]:
    """The lines of either ledger that the other lacks, marked - and +."""
    old, new = set(recorded), set(current)
    return ([f"- {line}" for line in recorded if line not in new]
            + [f"+ {line}" for line in current if line not in old])


def value_differences(recorded: object, current: object, path: str = "") -> list[str]:
    """Where two JSON documents differ: in their shape, in a float by more
    than a relative 1e-12, or in any other leaf at all."""
    if isinstance(recorded, dict) and isinstance(current, dict):
        if recorded.keys() != current.keys():
            return [f"{path}: keys {sorted(recorded)} != {sorted(current)}"]
        return [problem for key in recorded
                for problem in value_differences(recorded[key], current[key], f"{path}/{key}")]
    if isinstance(recorded, list) and isinstance(current, list):
        if len(recorded) != len(current):
            return [f"{path}: {len(recorded)} items != {len(current)}"]
        return [problem for i, (a, b) in enumerate(zip(recorded, current))
                for problem in value_differences(a, b, f"{path}/{i}")]
    if type(recorded) is float and type(current) is float:
        same = math.isclose(recorded, current, rel_tol=1e-12)
    else:
        same = type(recorded) is type(current) and recorded == current
    return [] if same else [f"{path}: {recorded!r} != {current!r}"]


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        current, documents = entries(Path(tmp))
    if "--check" not in argv:
        LEDGER.write_text(header() + "\n".join(current) + "\n", encoding="utf-8")
        DOCUMENTS.write_text(json.dumps(documents, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
        print(f"wrote {len(current)} entries to {LEDGER} and {len(documents)} "
              f"documents to {DOCUMENTS}")
        return 0
    status = 0
    for name, recorded in recorded_entries().items():
        if recorded is None:
            print(f"{name}: cannot compare: this half was recorded on another build",
                  file=sys.stderr)
            status = status or 2
            continue
        diff = differences(recorded, [line for line in current if half(line) == name])
        print("\n".join(diff) or f"{name}: all {len(recorded)} entries match")
        status = 1 if diff else status
    recorded_documents = json.loads(DOCUMENTS.read_text(encoding="utf-8"))
    problems = value_differences(recorded_documents, documents)
    print("\n".join(problems) or f"values: all {len(documents)} simulate documents match")
    print(f"checked in {time.perf_counter() - start:.1f} s")
    return 1 if problems else status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
