"""Scenario files: strict-schema YAML describing one estimate/simulate run.

Top-level keys: ``hardware`` (preset name, or a mapping; a mapping may
start from ``preset:`` and override individual fields), ``algorithm``,
optional ``qec`` and ``cryo`` (defaults apply), optional ``simulation``.
Unknown keys anywhere are parse errors: a typo must never silently skew
a feasibility verdict.

Example::

    hardware: sc-2020
    algorithm: {kind: shor, size: 2048}
    qec: {eps_nc: 1.0e-10}
    simulation:
      kind: random
      qubits: 6
      depths: [25, 50, 100, 200]
      pairs_per_layer: 2
      noise: {eps2: 2.0e-3}
      trajectories: 4000
      seed: 1
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache

import yaml

from .algorithms import KINDS, AlgorithmSpec
from .engineering import CryoProfile
from .model import CHANNELS, ErrorBudget, HardwareProfile
from .presets import get_preset
from .qec import QecCode
from .sim.circuit import MAX_QUBITS
from .sim.grover import optimal_iterations


class ScenarioParseError(ValueError):
    """Malformed document: bad syntax or a key the schema does not know."""


class ScenarioValidationError(ValueError):
    """Well-formed document whose values violate an invariant."""


@dataclass(frozen=True)
class SimulationSettings:
    """The optional ``simulation`` block, fully resolved.

    ``kind`` is "random" (benchmarking circuits at each depth in
    ``depths``) or "grover" (one search circuit; ``iterations`` and
    ``marked`` default to the optimal count and the all-ones string).
    ``noise`` defaults to the scenario hardware's error budget.
    ``fit_channels`` limits the rate fit; None means fit the channels
    whose injected rate is nonzero.
    """

    kind: str
    qubits: int
    noise: ErrorBudget
    trajectories: int = 1000
    seed: int = 0
    depths: tuple[int, ...] | None = None
    pairs_per_layer: int | None = None
    iterations: int | None = None
    marked: str | None = None
    fit_channels: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Scenario:
    hardware: HardwareProfile
    algorithm: AlgorithmSpec
    qec: QecCode
    cryo: CryoProfile
    simulation: SimulationSettings | None


#: Where a scenario key is not the dataclass field it sets.
_ALIASES = {"size_n": "size", "fit_channels": "fit"}
#: Keys whose value must be an integer; every other field key takes a number.
_INTEGER_KEYS = ("nc_max", "size")


@cache  # fields() is slow; one entry per schema dataclass
def _field_keys(cls) -> tuple[tuple[str, str], ...]:
    """(field name, scenario key) for each field of a dataclass, in order."""
    return tuple((f.name, _ALIASES.get(f.name, f.name)) for f in fields(cls))


@cache
def _section_keys(cls) -> tuple[str, ...]:
    return tuple(key for _, key in _field_keys(cls))


_NOISE_KEYS = _section_keys(ErrorBudget)
_HARDWARE_REQUIRED = tuple(k for k in _section_keys(HardwareProfile)
                           if k not in ("name", "budget"))
_HARDWARE_KEYS = ("preset", "name") + _NOISE_KEYS + _HARDWARE_REQUIRED
_ALGORITHM_KEYS = _section_keys(AlgorithmSpec)
_SIM_KEYS = _section_keys(SimulationSettings)
_SIM_RANDOM_KEYS = tuple(k for k in _SIM_KEYS if k not in ("iterations", "marked"))
_SIM_GROVER_KEYS = tuple(k for k in _SIM_KEYS
                         if k not in ("depths", "pairs_per_layer", "fit"))


def _check_keys(node: dict, allowed: tuple[str, ...], path: str) -> None:
    unknown = [k for k in node if k not in allowed]
    if unknown:
        where = f"{path}.{unknown[0]}" if path else str(unknown[0])
        raise ScenarioParseError(
            f"unknown key {where!r}; allowed here: {', '.join(allowed)}")


def _mapping(node: object, path: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioValidationError(f"{path} must be a mapping, got {node!r}")
    return node


def _number(node: object, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ScenarioValidationError(f"{path} must be a number, got {node!r}")
    return node


def _integer(node: object, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ScenarioValidationError(f"{path} must be an integer, got {node!r}")
    return node


def _build(factory, path: str, **kwargs):
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ScenarioValidationError(f"{path}: {exc}") from exc


def _parse_section(node: object, cls, path: str, **checked):
    """Build `cls` from a mapping of its field keys; `checked` holds
    arguments the caller has validated already."""
    node = _mapping(node, path)
    _check_keys(node, _section_keys(cls), path)
    for name, key in _field_keys(cls):
        if key in node and name not in checked:
            check = _integer if key in _INTEGER_KEYS else _number
            checked[name] = check(node[key], f"{path}.{key}")
    return _build(cls, path, **checked)


def _preset(name: str, path: str) -> HardwareProfile:
    try:
        return get_preset(name)
    except ValueError as exc:
        raise ScenarioValidationError(f"{path}: {exc}") from exc


def _parse_hardware(node: object) -> HardwareProfile:
    path = "hardware"
    if isinstance(node, str):
        return _preset(node, path)
    node = _mapping(node, path)
    _check_keys(node, _HARDWARE_KEYS, path)
    if "preset" in node:
        if not isinstance(node["preset"], str):
            raise ScenarioValidationError(f"{path}.preset must be a string")
        values = hardware_to_dict(_preset(node["preset"], path))
    else:
        missing = [k for k in _HARDWARE_REQUIRED if k not in node]
        if missing:
            raise ScenarioValidationError(
                f"{path}: missing keys {missing} (or start from a preset)")
        values = {"name": "custom"}
    values.update(node)
    values.pop("preset", None)
    name = values.pop("name")
    if not isinstance(name, str):
        raise ScenarioValidationError(f"{path}.name must be a string")
    budget = _parse_section({k: values.pop(k) for k in _NOISE_KEYS if k in values},
                            ErrorBudget, path)
    return _parse_section(values, HardwareProfile, path, name=name, budget=budget)


def _parse_algorithm(node: object) -> AlgorithmSpec:
    path = "algorithm"
    node = _mapping(node, path)
    _check_keys(node, _ALGORITHM_KEYS, path)
    for key in ("kind", "size"):
        if key not in node:
            raise ScenarioValidationError(f"{path}.{key} is required")
    kind = node["kind"]
    if kind not in KINDS:
        raise ScenarioValidationError(
            f"{path}.kind must be one of {KINDS}, got {kind!r}")
    return _parse_section(node, AlgorithmSpec, path, kind=kind)


def _parse_simulation(node: object, hardware: HardwareProfile) -> SimulationSettings:
    path = "simulation"
    node = _mapping(node, path)
    if node.get("kind") not in ("random", "grover"):
        raise ScenarioValidationError(
            f"{path}.kind must be 'random' or 'grover', got {node.get('kind')!r}")
    kind = node["kind"]
    allowed = _SIM_RANDOM_KEYS if kind == "random" else _SIM_GROVER_KEYS
    _check_keys(node, allowed, path)
    if "qubits" not in node:
        raise ScenarioValidationError(f"{path}.qubits is required")
    qubits = _integer(node["qubits"], f"{path}.qubits")
    min_q = 2 if kind == "random" else 1
    if not min_q <= qubits <= MAX_QUBITS:
        raise ScenarioValidationError(
            f"{path}.qubits must lie in [{min_q}, {MAX_QUBITS}], got {qubits}")
    noise = hardware.budget
    if node.get("noise") is not None:
        noise = _parse_section(node["noise"], ErrorBudget, f"{path}.noise")
    trajectories = _integer(node.get("trajectories", 1000), f"{path}.trajectories")
    if trajectories < 1:
        raise ScenarioValidationError(f"{path}.trajectories must be >= 1")
    seed = _integer(node.get("seed", 0), f"{path}.seed")
    if seed < 0:
        raise ScenarioValidationError(f"{path}.seed must be >= 0")

    depths = pairs = iterations = marked = fit_channels = None
    if kind == "random":
        raw_depths = node.get("depths")
        if not isinstance(raw_depths, list) or not raw_depths:
            raise ScenarioValidationError(
                f"{path}.depths must be a non-empty list of layer counts")
        depths = tuple(_integer(d, f"{path}.depths[{i}]")
                       for i, d in enumerate(raw_depths))
        if any(d < 1 for d in depths):
            raise ScenarioValidationError(f"{path}.depths entries must be >= 1")
        if "pairs_per_layer" in node:
            pairs = _integer(node["pairs_per_layer"], f"{path}.pairs_per_layer")
            if not 1 <= pairs <= qubits // 2:
                raise ScenarioValidationError(
                    f"{path}.pairs_per_layer must lie in [1, {qubits // 2}]")
        if "fit" in node:
            raw_fit = node["fit"]
            if not isinstance(raw_fit, list) or not raw_fit:
                raise ScenarioValidationError(
                    f"{path}.fit must be a non-empty list of channel names")
            bad = [c for c in raw_fit if c not in CHANNELS]
            if bad:
                raise ScenarioValidationError(
                    f"{path}.fit: unknown channels {bad}; expected from {CHANNELS}")
            fit_channels = tuple(dict.fromkeys(raw_fit))
    else:
        iterations = node.get("iterations")
        if iterations is None:
            iterations = optimal_iterations(qubits)
        else:
            iterations = _integer(iterations, f"{path}.iterations")
            if iterations < 0:
                raise ScenarioValidationError(f"{path}.iterations must be >= 0")
        marked = node.get("marked", "1" * qubits)
        if (not isinstance(marked, str) or len(marked) != qubits
                or set(marked) - {"0", "1"}):
            raise ScenarioValidationError(
                f"{path}.marked must be a string of {qubits} bits, got {marked!r}")

    return SimulationSettings(
        kind=kind, qubits=qubits, noise=noise, trajectories=trajectories,
        seed=seed, depths=depths, pairs_per_layer=pairs,
        iterations=iterations, marked=marked, fit_channels=fit_channels)


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate one scenario document."""
    try:
        doc = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioParseError(f"bad YAML{where}: {exc.problem}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"bad YAML: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ScenarioParseError("the document must be a mapping")
    _check_keys(doc, _section_keys(Scenario), "")
    for key in ("hardware", "algorithm"):
        if key not in doc:
            raise ScenarioValidationError(f"{key!r} section is required")
    hardware = _parse_hardware(doc["hardware"])
    algorithm = _parse_algorithm(doc["algorithm"])
    qec = _parse_section(doc.get("qec", {}), QecCode, "qec")
    cryo = _parse_section(doc.get("cryo", {}), CryoProfile, "cryo")
    simulation = None
    if "simulation" in doc and doc["simulation"] is not None:
        simulation = _parse_simulation(doc["simulation"], hardware)
    return Scenario(hardware=hardware, algorithm=algorithm, qec=qec,
                    cryo=cryo, simulation=simulation)


def _echo(obj) -> dict:
    """Plain data of a dataclass under its scenario keys.  Fields hold
    numbers, strings, tuples (echoed as lists), None (left out) or
    further such dataclasses (echoed as mappings)."""
    doc = {}
    for name, key in _field_keys(type(obj)):
        value = getattr(obj, name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = list(value)
        elif not isinstance(value, (int, float, str)):
            value = _echo(value)
        doc[key] = value
    return doc


def hardware_to_dict(hw: HardwareProfile) -> dict:
    """Flat echo of a hardware profile: name, eps0..eps2, then the rest."""
    doc = _echo(hw)
    return {"name": doc.pop("name"), **doc.pop("budget"), **doc}


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-data echo of a scenario; parses back to an equal Scenario."""
    doc = _echo(scenario)
    doc["hardware"] = hardware_to_dict(scenario.hardware)
    return doc
