"""Hardware presets and the strict-schema scenario files."""

import sys

import pytest
import yaml

from qfeas import ErrorBudget
from qfeas.presets import PRESETS, get_preset
from qfeas.scenario import (
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    SimulationSettings,
    hardware_to_dict,
    parse_scenario,
    scenario_to_dict,
)

MINIMAL = """
hardware: sc-2020
algorithm: {kind: shor, size: 2048}
"""


class TestPresets:
    def test_catalogue(self):
        assert tuple(PRESETS) == ("sc-2009", "sc-2014", "sc-2020", "best-2023")

    def test_error_rates_improve_over_time(self):
        eps2 = [get_preset(n).budget.eps2 for n in ("sc-2009", "sc-2014", "sc-2020")]
        assert eps2 == [0.1, 0.01, 0.001]

    def test_best_2023_keeps_a_one_qubit_budget(self):
        hw = get_preset("best-2023")
        assert hw.budget == ErrorBudget(eps1=1e-4, eps2=2e-3)

    def test_unknown_name_lists_options(self):
        with pytest.raises(ValueError, match="sc-2020"):
            get_preset("sc-1999")

    def test_presets_are_frozen_values(self):
        assert get_preset("sc-2020") == get_preset("sc-2020")
        with pytest.raises(Exception):
            get_preset("sc-2020").gate_time_2q = 1.0


class TestScenarioParsing:
    def test_minimal_document_fills_defaults(self):
        s = parse_scenario(MINIMAL)
        assert s.hardware.name == "sc-2020"
        assert s.algorithm.kind == "shor" and s.algorithm.size_n == 2048
        assert s.qec.eps_th == 0.01 and s.qec.eps_nc == 0.0
        assert s.cryo.cooling_power_cold == 5e-4
        assert s.simulation is None

    def test_hardware_preset_with_overrides(self):
        s = parse_scenario("""
hardware:
  preset: best-2023
  eps2: 5.0e-3
  cycle_time: 2.0e-6
algorithm: {kind: grover, size: 40}
""")
        assert s.hardware.budget.eps2 == 5e-3
        assert s.hardware.budget.eps1 == 1e-4  # untouched preset value
        assert s.hardware.cycle_time == 2e-6
        assert s.hardware.gate_time_2q == get_preset("best-2023").gate_time_2q

    def test_fully_explicit_hardware(self):
        s = parse_scenario("""
hardware:
  name: lab-device
  eps2: 3.0e-3
  gate_time_2q: 2.0e-7
  cycle_time: 1.0e-6
  yield_p: 0.95
  area_per_qubit: 1.0e-6
  dissipation_per_qubit: 1.0e-9
algorithm: {kind: chemistry, size: 30}
""")
        assert s.hardware.name == "lab-device"
        assert s.hardware.yield_p == 0.95

    def test_missing_hardware_field_is_an_error(self):
        with pytest.raises((ScenarioParseError, ScenarioValidationError), match="gate_time_2q"):
            parse_scenario("""
hardware: {name: partial, eps2: 1.0e-3}
algorithm: {kind: shor, size: 16}
""")

    @pytest.mark.parametrize("section, key", [
        ("qec", "epsilon3"),
        *(("hardware", key) for key in ("t2", "gate_time_1q", "time_per_qubit_layer")),
    ])
    def test_unknown_key_is_a_parse_error(self, section, key):
        doc = {"hardware": {"preset": "sc-2020"}, "algorithm": {"kind": "shor", "size": 2048}}
        doc.setdefault(section, {})[key] = 1.0e-9
        with pytest.raises(ScenarioParseError, match=rf"^unknown key '{section}\.{key}';"):
            parse_scenario(yaml.safe_dump(doc))

    @pytest.mark.parametrize("text, where, key", [
        pytest.param(MINIMAL + "hardware: sc-2009\n", "line 4, column 1", "hardware",
                     id="top-level"),
        pytest.param("hardware: {preset: sc-2020, eps2: 1.0e-9, eps2: 0.5}\n"
                     "algorithm: {kind: shor, size: 2048}\n", "line 1, column 43", "eps2",
                     id="hardware"),
        pytest.param(MINIMAL + "simulation:\n  kind: random\n  qubits: 4\n  depths: [5]\n"
                     "  noise:\n    eps2: 1.0e-2\n    eps2: 2.0e-2\n", "line 10, column 5",
                     "eps2", id="simulation.noise"),
    ])
    def test_repeated_key_is_a_parse_error(self, text, where, key):
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text)
        assert str(info.value) == f"bad YAML at {where}: duplicate key {key!r}"

    def test_key_overriding_a_merged_one_is_not_a_repeat(self):
        s = parse_scenario("hardware: {<<: {preset: sc-2020, eps2: 1.0e-3}, eps2: 1.0e-9}\n"
                           "algorithm: {kind: shor, size: 2048}\n")
        assert s.hardware.budget.eps2 == 1e-9

    def test_typo_in_nested_block_names_the_path(self):
        with pytest.raises(ScenarioParseError, match="pairs_per_leyer"):
            parse_scenario(MINIMAL + """
simulation:
  kind: random
  qubits: 4
  depths: [10]
  pairs_per_leyer: 2
""")

    def test_out_of_range_rate_is_a_validation_error(self):
        with pytest.raises(ScenarioValidationError, match="eps2"):
            parse_scenario("""
hardware:
  preset: sc-2020
  eps2: 1.5
algorithm: {kind: shor, size: 16}
""")

    @pytest.mark.parametrize("section, key", [
        *(("hardware", key) for key in (
            "eps0", "eps1", "eps2", "gate_time_2q", "cycle_time", "yield_p",
            "area_per_qubit", "dissipation_per_qubit")),
        *(("qec", key) for key in (
            "eps_nc", "ops_per_logical_gate", "factory_overhead", "correctable_prefactor",
            "floor_prefactor")),
        ("cryo", "cooling_power_cold"), ("cryo", "wall_power_per_fridge"),
    ])
    def test_number_beyond_the_float_range_is_named(self, section, key):
        doc = {"hardware": {"preset": "sc-2020"}, "algorithm": {"kind": "shor", "size": 2048}}
        doc.setdefault(section, {})[key] = -10 ** 400 if key == "eps0" else 10 ** 400
        with pytest.raises(ScenarioValidationError) as info:
            parse_scenario(yaml.safe_dump(doc))
        assert str(info.value) == (
            f"{section}.{key} must be a number within the float range (about 1.8e308)")

    def test_integer_number_within_the_float_range_stays_an_integer(self):
        scenario = parse_scenario(f"{MINIMAL}qec: {{factory_overhead: {10 ** 300}}}\n")
        echoed = scenario_to_dict(scenario)["qec"]["factory_overhead"]
        assert type(echoed) is int and echoed == 10 ** 300

    def test_bad_algorithm_kind(self):
        with pytest.raises(ScenarioValidationError, match="kind"):
            parse_scenario("hardware: sc-2020\nalgorithm: {kind: annealing, size: 4}\n")

    def test_algorithm_block_required(self):
        with pytest.raises((ScenarioParseError, ScenarioValidationError)):
            parse_scenario("hardware: sc-2020\n")

    def test_non_mapping_document(self):
        with pytest.raises((ScenarioParseError, ScenarioValidationError)):
            parse_scenario("- just\n- a list\n")

    def test_invalid_yaml_syntax(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("hardware: [unclosed\n")


class TestSimulationBlock:
    def test_random_block(self):
        s = parse_scenario(MINIMAL + """
simulation:
  kind: random
  qubits: 6
  depths: [25, 50, 100, 200]
  pairs_per_layer: 2
  noise: {eps2: 2.0e-3}
  trajectories: 4000
  seed: 1
""")
        sim = s.simulation
        assert sim.kind == "random"
        assert sim.depths == (25, 50, 100, 200)
        assert sim.noise == ErrorBudget(eps2=2e-3)
        assert sim.trajectories == 4000

    def test_noise_defaults_to_hardware_budget(self):
        s = parse_scenario("""
hardware: sc-2014
algorithm: {kind: shor, size: 16}
simulation: {kind: random, qubits: 4, depths: [10]}
""")
        assert s.simulation.noise == s.hardware.budget

    def test_grover_defaults_resolved_at_parse(self):
        s = parse_scenario(MINIMAL + "simulation: {kind: grover, qubits: 4}\n")
        assert s.simulation.iterations == 3
        assert s.simulation.marked == "1111"

    def test_grover_explicit_marked(self):
        s = parse_scenario(
            MINIMAL + "simulation: {kind: grover, qubits: 3, marked: '101', iterations: 1}\n")
        assert s.simulation.marked == "101"
        assert s.simulation.iterations == 1

    def test_random_block_requires_depths(self):
        with pytest.raises((ScenarioParseError, ScenarioValidationError), match="depths"):
            parse_scenario(MINIMAL + "simulation: {kind: random, qubits: 4}\n")

    def test_grover_block_rejects_random_keys(self):
        with pytest.raises(ScenarioParseError, match="depths"):
            parse_scenario(MINIMAL + "simulation: {kind: grover, qubits: 4, depths: [10]}\n")
        with pytest.raises(ScenarioParseError, match="'simulation.fit'"):
            parse_scenario(MINIMAL + "simulation: {kind: grover, qubits: 4, fit: [idle]}\n")

    @pytest.mark.parametrize("key, default", [("noise", ErrorBudget(eps2=1e-3)),
                                              ("iterations", 3)])
    def test_null_means_the_default(self, key, default):
        s = parse_scenario(MINIMAL + f"simulation: {{kind: grover, qubits: 4, {key}: null}}\n")
        assert getattr(s.simulation, key) == default

    @pytest.mark.parametrize("key", ["marked", "trajectories", "seed", "qubits"])
    def test_null_is_rejected(self, key):
        block = {"kind": "grover", "qubits": 4, key: None}
        with pytest.raises(ScenarioValidationError, match=rf"simulation\.{key} must be a"):
            parse_scenario(MINIMAL + yaml.safe_dump({"simulation": block}))

    def test_unknown_kind_is_named_before_its_keys(self):
        with pytest.raises(ScenarioValidationError, match="kind must be 'random' or 'grover'"):
            parse_scenario(MINIMAL + "simulation: {kind: bogus, qubits: 4, depths: [10]}\n")

    @pytest.mark.parametrize("block, message", [
        ("{size: 4}", "algorithm.kind is required"),
        ("{kind: shor}", "algorithm.size is required"),
        ("{kind: annealing, size: 4}", "algorithm: kind must be one of"),
    ])
    def test_algorithm_required_keys_and_kind(self, block, message):
        with pytest.raises(ScenarioValidationError, match=message):
            parse_scenario(f"hardware: sc-2020\nalgorithm: {block}\n")

    def test_fit_channels_validated(self):
        with pytest.raises(ScenarioValidationError, match="fit"):
            parse_scenario(MINIMAL + """
simulation:
  kind: random
  qubits: 4
  depths: [10]
  fit: [two_qubit, bogus]
""")

    def test_qubit_ceiling(self):
        with pytest.raises(ScenarioValidationError):
            parse_scenario(MINIMAL + "simulation: {kind: random, qubits: 17, depths: [10]}\n")


class TestSimulationSettings:
    def test_defaults_resolved_by_the_dataclass(self):
        sim = SimulationSettings(kind="grover", qubits=5, noise=ErrorBudget())
        assert (sim.iterations, sim.marked) == (4, "11111")
        sim = SimulationSettings(kind="random", qubits=4, noise=ErrorBudget(), depths=(5,),
                                 fit_channels=("two_qubit", "idle", "two_qubit"))
        assert sim.fit_channels == ("two_qubit", "idle")

    @pytest.mark.parametrize("changes, message", [
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"trajectories": 0}, rf"trajectories must be an integer in \[1, {sys.maxsize}\], got 0"),
        ({"qubits": 1}, r"qubits must be an integer in \[2, 16\], got 1"),
        ({"depths": (5, 0)}, r"depths\[1\] must be an integer >= 1, got 0"),
        ({"pairs_per_layer": 3}, r"pairs_per_layer must be an integer in \[1, 2\]"),
        ({"fit_channels": ()}, "fit_channels must be a non-empty list"),
        ({"kind": "bogus"}, "kind must be 'random' or 'grover'"),
        # a field of the other kind would be echoed, and the echo would not parse
        ({"marked": "11"}, "marked belongs to kind 'grover', not 'random'"),
        ({"iterations": 3}, "iterations belongs to kind 'grover', not 'random'"),
        ({"kind": "grover"}, "depths belongs to kind 'random', not 'grover'"),
    ])
    def test_replace_checks_every_invariant(self, changes, message):
        sim = SimulationSettings(kind="random", qubits=4, noise=ErrorBudget(), depths=(5,))
        with pytest.raises(ValueError, match=message):
            sim.replace(**changes)


class TestRoundTrip:
    def test_minimal_round_trip(self):
        s = parse_scenario(MINIMAL)
        again = parse_scenario(yaml.safe_dump(scenario_to_dict(s)))
        assert again == s

    def test_full_round_trip(self):
        s = parse_scenario("""
hardware:
  preset: best-2023
  eps2: 5.0e-3
algorithm: {kind: grover, size: 40, routing_overhead: 2.0}
qec: {eps_nc: 1.0e-9, nc_max: 50000}
cryo: {wall_power_per_fridge: 2.0e+4}
simulation:
  kind: grover
  qubits: 4
  noise: {eps2: 1.0e-3}
  trajectories: 500
  seed: 3
""")
        again = parse_scenario(yaml.safe_dump(scenario_to_dict(s)))
        assert again == s

    def test_random_sim_round_trip(self):
        s = parse_scenario(MINIMAL + """
simulation:
  kind: random
  qubits: 6
  depths: [25, 50]
  pairs_per_layer: 2
  fit: [two_qubit]
""")
        again = parse_scenario(yaml.safe_dump(scenario_to_dict(s)))
        assert again == s

    def test_grover_sim_round_trip_resolves_defaults(self):
        s = parse_scenario(MINIMAL + "simulation: {kind: grover, qubits: 5, seed: 2}\n")
        echo = scenario_to_dict(s)["simulation"]
        assert echo["iterations"] == 4 and echo["marked"] == "11111"
        assert "depths" not in echo and "fit" not in echo
        assert parse_scenario(yaml.safe_dump(scenario_to_dict(s))) == s

    @pytest.mark.parametrize("name", tuple(PRESETS))
    def test_explicit_preset_hardware_round_trip(self, name):
        text = yaml.safe_dump({"hardware": hardware_to_dict(PRESETS[name]),
                               "algorithm": {"kind": "shor", "size": 16}})
        s = parse_scenario(text)
        assert s.hardware == PRESETS[name]
        assert parse_scenario(yaml.safe_dump(scenario_to_dict(s))) == s
