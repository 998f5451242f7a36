"""Byte ledger of the perfbench corpus: one sha256 per (scenario, format).

Every scenario of seeds 101-103 of the four workloads in
``perfbench/workloads.py`` runs through ``qfeas.cli.main`` in-process,
once with ``--format table`` and once with ``--format machine``, each
with ``--output``.  A ledger line holds the exit code and the sha256 of
the exit code, stdout, stderr and ``--output`` bytes (text as UTF-8).
A simulate scenario's document is computed once and rendered in both
formats.

numpy picks its complex-multiply and ``exp`` loops by CPU features, so
the header records the numpy version and the CPU features it found;
the ledger compares only on the build that recorded it.

    PYTHONPATH=src python tests/byte_ledger.py           # rewrite the ledger
    PYTHONPATH=src python tests/byte_ledger.py --check   # compare with it

A change that moves bytes on purpose rewrites the ledger and names each
changed line.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

from qfeas import cli

ROOT = Path(__file__).resolve().parents[1]
LEDGER = Path(__file__).with_name("byte_ledger.txt")
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


def header() -> str:
    """The build a ledger is only comparable on."""
    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    found = " ".join(sorted(name for name, on in __cpu_features__.items() if on))
    return f"# numpy {numpy.__version__}\n# cpu_features {found}\n"


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


def _digest(argv: list[str], output: Path) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--output", str(output)])
    written = output.read_bytes() if output.exists() else b""
    h = hashlib.sha256()
    for part in (str(code).encode(), out.getvalue().encode(),
                 err.getvalue().encode(), written):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return code, h.hexdigest()


def entries(directory: Path) -> list[str]:
    """One ledger line per (workload, seed, scenario, format)."""
    workloads = _workloads()
    lines = []
    with _simulate_once():
        for workload in sorted(workloads.WORKLOADS):
            for seed in SEEDS:
                for scenario in workloads.generate(workload, seed):
                    path = directory / f"{workload}-{seed}-{scenario.name}.yaml"
                    path.write_text(scenario.yaml, encoding="utf-8")
                    for fmt in FORMATS:
                        code, digest = _digest(
                            [scenario.command, str(path), "--format", fmt],
                            path.with_suffix(f".{fmt}.json"))
                        lines.append(f"{workload} {seed} {scenario.name} {fmt} "
                                     f"{code} {digest}")
    return lines


def recorded_entries() -> list[str] | None:
    """The ledger's lines, or None when it was recorded on another build."""
    text, here = LEDGER.read_text(encoding="utf-8"), header()
    return text[len(here):].splitlines() if text.startswith(here) else None


def differences(recorded: list[str], current: list[str]) -> list[str]:
    """The lines of either ledger that the other lacks, marked - and +."""
    old, new = set(recorded), set(current)
    return ([f"- {line}" for line in recorded if line not in new]
            + [f"+ {line}" for line in current if line not in old])


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        current = entries(Path(tmp))
    if "--check" not in argv:
        LEDGER.write_text(header() + "\n".join(current) + "\n", encoding="utf-8")
        print(f"wrote {len(current)} entries to {LEDGER}")
        return 0
    recorded = recorded_entries()
    if recorded is None:
        print("cannot compare: the ledger was recorded on another numpy build "
              "or CPU feature set", file=sys.stderr)
        return 2
    diff = differences(recorded, current)
    print("\n".join(diff) or f"all {len(current)} entries match")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
