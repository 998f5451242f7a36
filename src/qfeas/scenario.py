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

from dataclasses import MISSING, dataclass, fields
from functools import cache

import yaml

from .algorithms import AlgorithmSpec
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


def _check_int(name: str, value: object, low: int, high: int | None = None) -> None:
    if (isinstance(value, bool) or not isinstance(value, int) or value < low
            or (high is not None and value > high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


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

    def __post_init__(self) -> None:
        if self.kind not in ("random", "grover"):
            raise ValueError(
                f"kind must be 'random' or 'grover', got {self.kind!r}")
        qubits = self.qubits
        _check_int("qubits", qubits, 2 if self.kind == "random" else 1, MAX_QUBITS)
        _check_int("trajectories", self.trajectories, 1)
        _check_int("seed", self.seed, 0)
        if self.kind == "random":
            if not self.depths:
                raise ValueError("depths must be a non-empty list of layer counts")
            for i, depth in enumerate(self.depths):
                _check_int(f"depths[{i}]", depth, 1)
            if self.pairs_per_layer is not None:
                _check_int("pairs_per_layer", self.pairs_per_layer, 1, qubits // 2)
            if self.fit_channels is not None:
                if not self.fit_channels:
                    raise ValueError(
                        "fit_channels must be a non-empty list of channel names")
                bad = [c for c in self.fit_channels if c not in CHANNELS]
                if bad:
                    raise ValueError(f"fit_channels: unknown channels {bad}; "
                                     f"expected from {CHANNELS}")
                object.__setattr__(self, "fit_channels",
                                   tuple(dict.fromkeys(self.fit_channels)))
            return
        if self.iterations is None:
            object.__setattr__(self, "iterations", optimal_iterations(qubits))
        _check_int("iterations", self.iterations, 0)
        if self.marked is None:
            object.__setattr__(self, "marked", "1" * qubits)
        marked = self.marked
        if not isinstance(marked, str) or len(marked) != qubits or set(marked) - {"0", "1"}:
            raise ValueError(
                f"marked must be a string of {qubits} bits, got {marked!r}")


@dataclass(frozen=True)
class Scenario:
    hardware: HardwareProfile
    algorithm: AlgorithmSpec
    qec: QecCode
    cryo: CryoProfile
    simulation: SimulationSettings | None


#: Where a scenario key is not the dataclass field it sets.
_ALIASES = {"size_n": "size", "fit_channels": "fit"}
#: Keys whose value must be an integer; every other field key takes a
#: number, except ``kind``, which its dataclass checks against its kinds.
_INTEGER_KEYS = ("nc_max", "size", "qubits", "trajectories", "seed",
                 "pairs_per_layer", "iterations")


@cache  # fields() is slow; one entry per schema dataclass
def _field_keys(cls) -> tuple[tuple[str, str], ...]:
    """(field name, scenario key) for each field of a dataclass, in order."""
    return tuple((f.name, _ALIASES.get(f.name, f.name)) for f in fields(cls))


@cache
def _section_keys(cls) -> tuple[str, ...]:
    return tuple(key for _, key in _field_keys(cls))


@cache
def _required_fields(cls) -> frozenset[str]:
    return frozenset(f.name for f in fields(cls)
                     if f.default is MISSING and f.default_factory is MISSING)


_NOISE_KEYS = _section_keys(ErrorBudget)
_HARDWARE_REQUIRED = tuple(k for k in _section_keys(HardwareProfile)
                           if k not in ("name", "budget"))
_HARDWARE_KEYS = ("preset", "name") + _NOISE_KEYS + _HARDWARE_REQUIRED
_SIM_KEYS = _section_keys(SimulationSettings)
_SIM_KEYS_BY_KIND = {
    "random": tuple(k for k in _SIM_KEYS if k not in ("iterations", "marked")),
    "grover": tuple(k for k in _SIM_KEYS
                    if k not in ("depths", "pairs_per_layer", "fit")),
}


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


def _typed(types: type | tuple[type, ...], what: str):
    """A check that a node is of ``types`` (never a bool) and returns it."""
    def check(node: object, path: str):
        if isinstance(node, bool) or not isinstance(node, types):
            raise ScenarioValidationError(f"{path} must be {what}, got {node!r}")
        return node
    return check


_number = _typed((int, float), "a number")
_integer = _typed(int, "an integer")
_string = _typed(str, "a string")


def _items(node: object, path: str, check) -> tuple:
    """A list as a tuple, each item passed through ``check``."""
    if not isinstance(node, list):
        raise ScenarioValidationError(f"{path} must be a list, got {node!r}")
    return tuple(check(item, f"{path}[{i}]") for i, item in enumerate(node))


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
        if name in checked:
            continue
        if key in node:
            value = node[key]
            if key in _INTEGER_KEYS:
                value = _integer(value, f"{path}.{key}")
            elif key != "kind":
                value = _number(value, f"{path}.{key}")
            checked[name] = value
        elif name in _required_fields(cls):
            raise ScenarioValidationError(f"{path}.{key} is required")
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


def _parse_simulation(node: object, hardware: HardwareProfile) -> SimulationSettings:
    path = "simulation"
    node = dict(_mapping(node, path))
    # Any other kind (str() also makes a YAML list hashable) may carry the
    # keys of both kinds, so that SimulationSettings reports the kind.
    _check_keys(node, _SIM_KEYS_BY_KIND.get(str(node.get("kind")), _SIM_KEYS), path)
    checked = {"noise": hardware.budget}
    if node.get("noise") is not None:
        checked["noise"] = _parse_section(node["noise"], ErrorBudget, f"{path}.noise")
    if node.get("iterations", 0) is None:
        del node["iterations"]  # null means the optimal count
    if "marked" in node:
        checked["marked"] = _string(node["marked"], f"{path}.marked")
    if "depths" in node:
        checked["depths"] = _items(node["depths"], f"{path}.depths", _integer)
    if "fit" in node:
        checked["fit_channels"] = _items(node["fit"], f"{path}.fit", _string)
    return _parse_section(node, SimulationSettings, path, **checked)


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
    algorithm = _parse_section(doc["algorithm"], AlgorithmSpec, "algorithm")
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
