"""Generated scenarios against the output contract and the schema's invariants.

Every ``qfeas estimate`` run ends in a verdict (exit 0, 2 or 3) with
strict JSON on stdout, or in exit 1 with one ``qfeas: error:`` line on
stderr.  The exit code does not depend on ``--format``, and no exception
escapes ``main``.  A generated ``simulation`` block, and the
``--seed``/``--trajectories`` overrides applied with
``dataclasses.replace``, either fail to parse or give settings that hold
every invariant of ``SimulationSettings``.  Beside the freely generated
scenarios, each key is also corrupted alone in an otherwise valid
scenario, so that checks late in the run are reached too.
"""

import contextlib
import dataclasses
import io
import json

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from qfeas.cli import main
from qfeas.model import CHANNELS, ErrorBudget
from qfeas.presets import PRESETS
from qfeas.scenario import ScenarioParseError, parse_scenario
from qfeas.sim import MAX_QUBITS, optimal_iterations

#: Values of the wrong type or sign, drawn in place of a valid one.
JUNK = st.sampled_from([None, True, "x", [1], {"a": 1}, -1, 0, -1.0e300, 10 ** 400])

UNIT = st.floats(min_value=0.0, max_value=1.0)
#: Positive floats up to 1e300, subnormals included.
HUGE = st.floats(min_value=0.0, max_value=1.0e300, exclude_min=True)
AT_LEAST_ONE = st.floats(min_value=1.0, max_value=1.0e300)

HARDWARE = {
    "eps0": UNIT, "eps1": UNIT, "eps2": UNIT,
    "t2": HUGE, "gate_time_1q": HUGE, "gate_time_2q": HUGE, "cycle_time": HUGE,
    "time_per_qubit_layer": HUGE, "yield_p": UNIT,
    "area_per_qubit": HUGE, "dissipation_per_qubit": HUGE,
}
ALGORITHM = {
    "kind": st.sampled_from(["shor", "grover", "chemistry"]),
    "size": st.one_of(st.integers(2, 300), st.integers(2, 10 ** 6)),
    "target_fidelity": UNIT, "chemistry_prefactor": HUGE,
    "routing_overhead": AT_LEAST_ONE,
}
QEC = {
    "eps_th": UNIT, "eps_nc": UNIT, "nc_max": st.integers(1, 10 ** 4),
    "ops_per_logical_gate": AT_LEAST_ONE, "factory_overhead": AT_LEAST_ONE,
    "correctable_prefactor": HUGE, "floor_prefactor": HUGE,
}
CRYO = {"cooling_power_cold": HUGE, "wall_power_per_fridge": HUGE}
#: Out-of-range values of the right type, beside JUNK.
OUT_OF_RANGE = {
    "eps0": HUGE, "eps1": HUGE, "eps2": HUGE, "yield_p": HUGE, "eps_th": HUGE,
    "eps_nc": HUGE, "target_fidelity": HUGE, "routing_overhead": UNIT,
    "ops_per_logical_gate": UNIT, "factory_overhead": UNIT,
    "nc_max": st.sampled_from([0, 10 ** 400]),
    "kind": st.sampled_from(["annealing", "bogus", "Random"]),
    "size": st.integers(-1, 1),
    "qubits": st.sampled_from([0, 1, MAX_QUBITS + 1]),
    "noise": st.fixed_dictionaries({}, optional={"eps2": HUGE, "eps3": UNIT}),
    "trajectories": st.integers(-2, 0),
    "seed": st.integers(-3, -1),
    "depths": st.lists(st.integers(-1, 300), max_size=4),
    "pairs_per_layer": st.integers(-1, MAX_QUBITS),
    "iterations": st.integers(-3, -1),
    "marked": st.text("012", max_size=MAX_QUBITS + 1),
    "fit": st.lists(st.sampled_from(CHANNELS + ("bogus",)), max_size=4),
}
SIM_KEYS_BY_KIND = {
    "random": ("qubits", "noise", "trajectories", "seed", "depths",
               "pairs_per_layer", "fit"),
    "grover": ("qubits", "noise", "trajectories", "seed", "iterations", "marked"),
}


def simulation_values(qubits):
    return {
        "qubits": st.just(qubits),
        "noise": st.fixed_dictionaries({}, optional={"eps0": UNIT, "eps2": UNIT}),
        "trajectories": st.integers(1, 10 ** 15),
        "seed": st.integers(0, 2 ** 64),
        "depths": st.lists(st.integers(1, 300), min_size=1, max_size=4),
        "pairs_per_layer": st.integers(1, max(1, qubits // 2)),
        "iterations": st.one_of(st.none(), st.integers(0, 20)),
        "marked": st.text("01", min_size=qubits, max_size=qubits),
        "fit": st.lists(st.sampled_from(CHANNELS), min_size=1, max_size=4),
    }


@st.composite
def section(draw, values):
    """Some of the keys of ``values``; now and then a few are out of
    range or hold junk."""
    keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True))
    faulty = set(draw(st.lists(st.sampled_from(keys), unique=True))) \
        if keys and draw(st.integers(0, 4)) == 0 else set()
    return {k: draw(st.one_of(OUT_OF_RANGE.get(k, JUNK), JUNK) if k in faulty
                    else values[k]) for k in keys}


@st.composite
def hardware_sections(draw):
    preset = draw(st.sampled_from(tuple(PRESETS) + ("sc-1999",)))
    if draw(st.booleans()):
        return preset
    return {"preset": preset, **draw(section(HARDWARE))}


@st.composite
def simulation_blocks(draw):
    """A block of one kind, now and then with a key of the other kind,
    an unknown kind or no kind at all."""
    kind = draw(st.sampled_from(["random", "random", "grover", "grover", "bogus", None]))
    values = simulation_values(draw(st.integers(2 if kind == "random" else 1, MAX_QUBITS)))
    keys = tuple(SIM_KEYS_BY_KIND.get(kind, values))
    if draw(st.integers(0, 4)) == 0:
        keys = keys + (draw(st.sampled_from(sorted(values))),)
    block = draw(section({k: values[k] for k in keys}))
    for key in ("qubits", "depths"):  # missing only now and then
        if key in keys and key not in block and draw(st.integers(0, 9)) < 9:
            block[key] = draw(values[key])
    if kind is not None:
        block["kind"] = kind
    return block


@st.composite
def scenarios(draw):
    doc = {"hardware": draw(hardware_sections()),
           "algorithm": {"kind": "shor", "size": 2048, **draw(section(ALGORITHM))}}
    # nc_max at most 10^4 keeps each code-size scan short
    doc["qec"] = {"nc_max": draw(QEC["nc_max"]), **draw(section(QEC))}
    if draw(st.booleans()):
        doc["cryo"] = draw(section(CRYO))
    if draw(st.booleans()):
        doc["simulation"] = draw(simulation_blocks())
    return yaml.safe_dump(doc)


#: In (0, 1), for the keys that refuse both ends of UNIT.
OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
#: Valid values of every key outside ``simulation``.
VALID = {"hardware": HARDWARE, "algorithm": {**ALGORITHM, "target_fidelity": OPEN_UNIT},
         "qec": {**QEC, "eps_th": OPEN_UNIT}, "cryo": CRYO}
#: Each key of each section, once; a simulation key goes with a kind that has it.
FAULTS = [(name, key) for name in VALID for key in sorted(VALID[name])] + [
    ("simulation", key) for key in sorted(set().union(*SIM_KEYS_BY_KIND.values()))]


@st.composite
def one_fault_scenarios(draw, name, key):
    """A scenario whose keys all hold valid values but ``name``.``key``,
    which is out of range or junk; so the check of that key is reached
    even when it comes late, as in code-size selection or engineering."""
    kind = draw(st.sampled_from([k for k in ("random", "grover")
                                 if name != "simulation" or key in SIM_KEYS_BY_KIND[k]]))
    values = simulation_values(draw(st.integers(2 if kind == "random" else 1, MAX_QUBITS)))
    sections = {**VALID, "simulation": {k: values[k] for k in SIM_KEYS_BY_KIND[kind]}}
    doc = {section: draw(st.fixed_dictionaries({}, optional=section_values))
           for section, section_values in sections.items()}
    doc["hardware"]["preset"] = draw(st.sampled_from(tuple(PRESETS)))
    doc["algorithm"] = {"kind": "shor", "size": 2048, **doc["algorithm"]}
    doc["qec"].setdefault("nc_max", draw(QEC["nc_max"]))
    doc["simulation"].update(kind=kind, qubits=draw(values["qubits"]),
                             **({"depths": draw(values["depths"])} if kind == "random" else {}))
    doc[name][key] = draw(st.one_of(OUT_OF_RANGE.get(key, JUNK), JUNK))
    return yaml.safe_dump(doc)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _estimate(path, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["estimate", str(path), "--format", fmt])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "scenario.yaml"


def _check_output_contract(scenario_path, text):
    scenario_path.write_text(text, encoding="utf-8")
    codes = []
    for fmt in ("table", "machine"):
        code, out, err = _estimate(scenario_path, fmt)
        codes.append(code)
        if code == 1:
            assert out == ""
            assert err.startswith("qfeas: error: ") and err.count("\n") == 1, err
            assert err.removeprefix("qfeas: error: ").strip(), err
            # an overflowing count is named as such, not as an inf n2
            assert "n2 must be finite" not in err, err
            continue
        assert code in (0, 2, 3) and err == ""
        if fmt == "machine":
            doc = json.loads(out, parse_constant=_reject_constant)
            assert {"feasible": 0, "infeasible": 2, "qec-unreachable": 3}[doc["status"]] == code
    assert codes[0] == codes[1]


@settings(max_examples=150, deadline=None)
@given(text=scenarios())
# a faulty key rarely reaches code-size selection among the generated cases
@example(text=f"hardware: sc-2020\nalgorithm: {{kind: shor, size: 2048}}\n"
              f"qec: {{nc_max: {10 ** 400}}}\n")
# an integer number field beyond the float range (it once ended in an
# OverflowError traceback)
@example(text=f"hardware: sc-2020\nalgorithm: {{kind: shor, size: 2048}}\n"
              f"qec: {{factory_overhead: {10 ** 400}}}\n")
# the required eps2 underflows to 0 (it once ended in a ZeroDivisionError)
@example(text="hardware: sc-2009\nalgorithm: {kind: chemistry, size: 100, "
              "chemistry_prefactor: 1.0e+296, target_fidelity: 0.9999999999999999}\n")
def test_estimate_output_contract_is_total(scenario_path, text):
    _check_output_contract(scenario_path, text)


@pytest.mark.parametrize("name, key", FAULTS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_one_faulty_key_still_meets_the_output_contract(scenario_path, name, key, data):
    _check_output_contract(scenario_path, data.draw(one_fault_scenarios(name, key)))


def _check_invariants(sim):
    random = sim.kind == "random"
    assert sim.kind in ("random", "grover")
    assert type(sim.qubits) is int and (2 if random else 1) <= sim.qubits <= MAX_QUBITS
    assert type(sim.trajectories) is int and sim.trajectories >= 1
    assert type(sim.seed) is int and sim.seed >= 0
    assert isinstance(sim.noise, ErrorBudget)
    if random:
        assert sim.depths and all(type(d) is int and d >= 1 for d in sim.depths)
        assert sim.pairs_per_layer is None or 1 <= sim.pairs_per_layer <= sim.qubits // 2
        if sim.fit_channels is not None:
            assert sim.fit_channels and set(sim.fit_channels) <= set(CHANNELS)
            assert len(set(sim.fit_channels)) == len(sim.fit_channels)
        assert sim.iterations is None and sim.marked is None
    else:
        assert type(sim.iterations) is int and sim.iterations >= 0
        assert len(sim.marked) == sim.qubits and set(sim.marked) <= {"0", "1"}
        assert sim.depths is None and sim.pairs_per_layer is None
        assert sim.fit_channels is None


@settings(max_examples=300, deadline=None)
@given(block=simulation_blocks(), seed=st.integers(-2, 2 ** 64),
       trajectories=st.integers(-2, 10 ** 15))
def test_simulation_settings_hold_their_invariants(block, seed, trajectories):
    text = "hardware: sc-2014\nalgorithm: {kind: shor, size: 16}\n"
    try:
        sim = parse_scenario(text + yaml.safe_dump({"simulation": block})).simulation
    except (ScenarioParseError, ValueError):
        return
    _check_invariants(sim)
    # null means the default only for noise and iterations
    assert all(block[k] is not None for k in block if k not in ("noise", "iterations"))
    expected = {"trajectories": 1000, "seed": 0, **block,
                "noise": ErrorBudget(**block["noise"]) if block.get("noise")
                is not None else PRESETS["sc-2014"].budget}
    for key in ("qubits", "noise", "trajectories", "seed", "pairs_per_layer", "marked"):
        if key in expected:
            assert getattr(sim, key) == expected[key]
    if "depths" in block:
        assert sim.depths == tuple(block["depths"])
    if "fit" in block:
        assert sim.fit_channels == tuple(dict.fromkeys(block["fit"]))
    if sim.kind == "grover":
        assert sim.marked == block.get("marked", "1" * sim.qubits)
        if block.get("iterations") is None:
            assert sim.iterations == optimal_iterations(sim.qubits)
        else:
            assert sim.iterations == block["iterations"]

    try:
        again = dataclasses.replace(sim, seed=seed, trajectories=trajectories)
    except ValueError:
        assert seed < 0 or trajectories < 1
        return
    _check_invariants(again)
    assert (again.seed, again.trajectories) == (seed, trajectories)
    assert dataclasses.replace(again, seed=sim.seed, trajectories=sim.trajectories) == sim
