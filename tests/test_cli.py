"""Command-line front end: subcommands, exit codes, output formats."""

import json
import sys

import pytest
import yaml

from qfeas.cli import entry_point, main
from qfeas.scenario import parse_scenario

SHOR_2048 = """
hardware: sc-2020
algorithm: {kind: shor, size: 2048}
"""

CHEM_FEASIBLE = """
hardware:
  name: hypothetical
  eps2: 1.0e-13
  t2: 1.0e-4
  gate_time_1q: 1.0e-8
  gate_time_2q: 1.0e-7
  cycle_time: 1.0e-6
  time_per_qubit_layer: 1.0e-6
  yield_p: 0.99
  area_per_qubit: 1.0e-6
  dissipation_per_qubit: 1.0e-9
algorithm: {kind: chemistry, size: 30}
"""

GROVER_FLOOR = """
hardware: sc-2020
algorithm: {kind: grover, size: 100}
qec: {eps_nc: 1.0e-4}
"""

SIM_RANDOM = """
hardware: sc-2020
algorithm: {kind: shor, size: 16}
simulation:
  kind: random
  qubits: 4
  depths: [10, 20]
  noise: {eps2: 5.0e-3}
  trajectories: 200
  seed: 5
"""

SIM_ZERO_NOISE = """
hardware: sc-2020
algorithm: {kind: shor, size: 16}
simulation:
  kind: random
  qubits: 4
  depths: [10, 20]
  noise: {}
  trajectories: 50
  seed: 0
"""

SIM_GROVER = """
hardware: sc-2020
algorithm: {kind: grover, size: 16}
simulation:
  kind: grover
  qubits: 3
  iterations: 2
  noise: {}
  trajectories: 50
  seed: 0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def machine(capsys, argv):
    code = main(argv + ["--format", "machine"])
    return code, json.loads(capsys.readouterr().out)


class TestEstimateCommand:
    def test_infeasible_factoring_exits_2(self, tmp_path, capsys):
        code = main(["estimate", write(tmp_path, "s.yaml", SHOR_2048)])
        out = capsys.readouterr().out
        assert code == 2
        assert "infeasible" in out
        assert "1.164e-11" in out

    def test_feasible_chemistry_exits_0(self, tmp_path, capsys):
        code, doc = machine(capsys, ["estimate", write(tmp_path, "c.yaml", CHEM_FEASIBLE)])
        assert code == 0
        assert doc["status"] == "feasible"
        assert doc["feasibility"]["required_eps2"] == pytest.approx(1.372e-12, rel=1e-3)

    def test_unreachable_floor_exits_3(self, tmp_path, capsys):
        code, doc = machine(capsys, ["estimate", write(tmp_path, "g.yaml", GROVER_FLOOR)])
        assert code == 3
        assert doc["status"] == "qec-unreachable"
        assert doc["qec_error"]["type"] == "FloorUnreachableError"
        assert "grover" in doc["qec_error"]["message"]

    def test_machine_document_fields(self, tmp_path, capsys):
        _, doc = machine(capsys, ["estimate", write(tmp_path, "s.yaml", SHOR_2048)])
        feas = doc["feasibility"]
        assert feas["two_qubit_count"] == 85899345920
        assert feas["gap_factor"] == pytest.approx(8.59e7, rel=1e-3)
        scaling = doc["scaling"]
        assert scaling["n_logical"] == 4096
        assert scaling["plan"]["n_c"] == 120
        assert scaling["yield"]["underflowed"] is True

    def test_scenario_echo_parses_back(self, tmp_path, capsys):
        path = write(tmp_path, "s.yaml", SHOR_2048)
        _, doc = machine(capsys, ["estimate", path])
        again = parse_scenario(yaml.safe_dump(doc["scenario"]))
        assert again == parse_scenario(SHOR_2048)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write(tmp_path, "s.yaml", SHOR_2048)
        main(["estimate", path, "--format", "machine"])
        first = capsys.readouterr().out
        main(["estimate", path, "--format", "machine"])
        assert capsys.readouterr().out == first


class TestSimulateCommand:
    def test_zero_noise_means_unit_fidelity(self, tmp_path, capsys):
        code, doc = machine(capsys, ["simulate", write(tmp_path, "z.yaml", SIM_ZERO_NOISE)])
        assert code == 0
        rows = doc["simulation"]["circuits"]
        assert [r["mean_fidelity"] for r in rows] == [1.0, 1.0]
        assert [r["std_error"] for r in rows] == [0.0, 0.0]

    def test_noisy_fit_recovers_injected_scale(self, tmp_path, capsys):
        code, doc = machine(capsys, ["simulate", write(tmp_path, "n.yaml", SIM_RANDOM)])
        assert code == 0
        fit = doc["simulation"]["fit"]
        rate = fit["rates"]["two_qubit"]
        # shallow 4-qubit circuits keep a 2^-4 overlap after an error,
        # which biases the slope low; only the scale is checked here
        assert rate == pytest.approx(5e-3, rel=0.4)
        assert fit["injected"]["two_qubit"] == 5e-3
        lo, hi = fit["ci95"]["two_qubit"]
        assert lo < rate < hi

    def test_rows_carry_counts_and_digests(self, tmp_path, capsys):
        _, doc = machine(capsys, ["simulate", write(tmp_path, "n.yaml", SIM_RANDOM)])
        rows = doc["simulation"]["circuits"]
        assert [r["counts"]["n2"] for r in rows] == [20, 40]
        assert all(len(r["digest"]) == 64 for r in rows)

    def test_grover_success_near_closed_form(self, tmp_path, capsys):
        code, doc = machine(capsys, ["simulate", write(tmp_path, "g.yaml", SIM_GROVER)])
        assert code == 0
        sim = doc["simulation"]
        assert sim["ideal_success_probability"] == pytest.approx(0.9453125, rel=1e-12)
        assert sim["success_probability"] == pytest.approx(0.9453125, abs=1e-9)

    def test_table_mentions_the_fit(self, tmp_path, capsys):
        code = main(["simulate", write(tmp_path, "n.yaml", SIM_RANDOM)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fitted two_qubit" in out

    def test_seed_override_changes_output(self, tmp_path, capsys):
        path = write(tmp_path, "n.yaml", SIM_RANDOM)
        _, a = machine(capsys, ["simulate", path])
        _, b = machine(capsys, ["simulate", path, "--seed", "99"])
        assert b["seed"] == 99
        assert a["simulation"]["circuits"][0]["mean_fidelity"] != \
            b["simulation"]["circuits"][0]["mean_fidelity"]

    def test_trajectory_override(self, tmp_path, capsys):
        path = write(tmp_path, "n.yaml", SIM_RANDOM)
        _, doc = machine(capsys, ["simulate", path, "--trajectories", "20"])
        assert doc["trajectories"] == 20

    def test_missing_simulation_block_fails(self, tmp_path, capsys):
        code = main(["simulate", write(tmp_path, "s.yaml", SHOR_2048)])
        err = capsys.readouterr().err
        assert code == 1
        assert "simulation" in err

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--trajectories", "0")])
    def test_bad_override_fails_before_any_trajectory(self, tmp_path, capsys, monkeypatch,
                                                      flag, value):
        def no_run(scenario):
            raise AssertionError("simulated with an invalid override")
        monkeypatch.setattr("qfeas.cli.run_simulate", no_run)
        path = write(tmp_path, "n.yaml", SIM_GROVER)
        assert main(["simulate", path, flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"qfeas: error: {flag[2:]} must be") and err.count("\n") == 1

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write(tmp_path, "n.yaml", SIM_RANDOM)
        main(["simulate", path, "--format", "machine"])
        first = capsys.readouterr().out
        main(["simulate", path, "--format", "machine"])
        assert capsys.readouterr().out == first


class TestFitCommand:
    DATA = "# N0 N1 N2 logF\n50 0 50 -0.11\n100 0 100 -0.21\n0 0 200 -0.405\n"

    def test_fit_from_file(self, tmp_path, capsys):
        code, doc = machine(capsys, ["fit", write(tmp_path, "d.txt", self.DATA),
                                     "--channels", "two_qubit"])
        assert code == 0
        assert doc["fit"]["rates"]["two_qubit"] == pytest.approx(2e-3, rel=0.1)

    def test_auto_channel_selection(self, tmp_path, capsys):
        data = "0 0 50 -0.1\n0 0 100 -0.2\n"
        code, doc = machine(capsys, ["fit", write(tmp_path, "d.txt", data)])
        assert code == 0
        assert doc["fit"]["channels"] == ["two_qubit"]

    def test_too_few_rows(self, tmp_path, capsys):
        code = main(["fit", write(tmp_path, "d.txt", "0 0 50 -0.1\n")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_row(self, tmp_path, capsys):
        code = main(["fit", write(tmp_path, "d.txt", "0 0 50\n0 0 100 -0.2\n")])
        assert code == 1

    def test_rank_deficient_exit(self, tmp_path, capsys):
        data = "0 10 0 -0.01\n0 20 0 -0.02\n"
        code = main(["fit", write(tmp_path, "d.txt", data), "--channels", "two_qubit"])
        err = capsys.readouterr().err
        assert code == 1
        assert "separate" in err


class TestPresetsCommand:
    def test_table_lists_all(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("sc-2009", "sc-2014", "sc-2020", "best-2023"):
            assert name in out

    def test_machine_document(self, capsys):
        code, doc = machine(capsys, ["presets"])
        assert code == 0
        assert doc["presets"]["sc-2020"]["eps2"] == 0.001


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["explode"]) == 1

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_missing_file(self, capsys):
        assert main(["estimate", "/nonexistent/sc.yaml"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_yaml(self, tmp_path, capsys):
        assert main(["estimate", write(tmp_path, "bad.yaml", "hardware: [unclosed\n")]) == 1

    def test_unknown_scenario_key(self, tmp_path, capsys):
        text = SHOR_2048 + "qec: {epsilon3: 1.0e-9}\n"
        assert main(["estimate", write(tmp_path, "bad.yaml", text)]) == 1
        assert "epsilon3" in capsys.readouterr().err

    def test_removed_cryo_key_is_unknown(self, tmp_path, capsys):
        text = SHOR_2048 + "cryo: {cooling_power_4k: 2.0}\n"
        assert main(["estimate", write(tmp_path, "bad.yaml", text)]) == 1
        err = capsys.readouterr().err
        assert "qfeas: error: unknown key 'cryo.cooling_power_4k'" in err.splitlines()[0]

    def test_bad_format_value(self, tmp_path, capsys):
        assert main(["estimate", write(tmp_path, "s.yaml", SHOR_2048),
                     "--format", "rtf"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestOutputContract:
    @pytest.mark.parametrize("algorithm", [
        "{kind: grover, size: 2100}",
        "{kind: shor, size: %d}" % 10 ** 103,
        "{kind: chemistry, size: %d}" % 10 ** 52,
    ], ids=["grover", "shor", "chemistry"])
    def test_count_beyond_float_range_exits_1(self, tmp_path, capsys, algorithm):
        text = f"hardware: sc-2020\nalgorithm: {algorithm}\n"
        assert main(["estimate", write(tmp_path, "big.yaml", text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qfeas: error: two-qubit count is beyond the float range")

    def test_zero_yield_is_strict_json(self, tmp_path, capsys):
        text = "hardware: {preset: sc-2020, yield_p: 0.0}\nalgorithm: {kind: shor, size: 2048}\n"
        code = main(["estimate", write(tmp_path, "y.yaml", text), "--format", "machine"])
        assert code == 2
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert doc["scaling"]["yield"]["log_value"] is None
        assert doc["scaling"]["yield"]["underflowed"] is True

    @pytest.mark.parametrize("extra", [["--format", "table"], ["--format", "machine"],
                                       ["--output", "out.json"]])
    def test_non_finite_document_fails_in_every_format(self, tmp_path, capsys,
                                                      monkeypatch, extra):
        # a runtime of 1e+16 gates x 1e+300 s is inf, which strict JSON cannot hold
        text = ("hardware: {preset: sc-2020, gate_time_2q: 1.0e+300}\n"
                "algorithm: {kind: shor, size: 100000}\n")
        monkeypatch.chdir(tmp_path)
        assert main(["estimate", write(tmp_path, "inf.yaml", text)] + extra) == 1
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "out.json").exists()
        assert err.startswith("qfeas: error: ") and err.count("\n") == 1

    def test_non_finite_fit_fails_in_every_format(self, tmp_path, capsys):
        data = "1e200 1e200 0 -1\n1e200 2e200 0 -2\n3e200 1e200 0 -2\n"
        path = write(tmp_path, "d.txt", data)
        for fmt in ("table", "machine"):
            assert main(["fit", path, "--format", fmt]) == 1
            assert "covariance is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("count, extra", [
        ("1000000000000000", []),
        ("200", ["--trajectories", "1000000000000000"]),
    ], ids=["scenario", "flag"])
    def test_unholdable_trajectory_count_exits_1(self, tmp_path, capsys, count, extra):
        # 10**15 float64 values are 7 PiB, beyond any 64-bit address space
        text = SIM_RANDOM.replace("trajectories: 200", f"trajectories: {count}")
        assert main(["simulate", write(tmp_path, "t.yaml", text)] + extra) == 1
        assert capsys.readouterr().err.startswith("qfeas: error: Unable to allocate")


class TestEntryPoint:
    def test_console_script_exits_with_main_code(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["qfeas", "presets", "--format", "machine"])
        with pytest.raises(SystemExit) as exc:
            entry_point()
        assert exc.value.code == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert "sc-2020" in doc["presets"]


class TestOutputFile:
    def test_output_written_even_with_table_stdout(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.yaml", SHOR_2048)
        out_path = tmp_path / "report.json"
        code = main(["estimate", scenario, "--output", str(out_path)])
        assert code == 2
        stdout = capsys.readouterr().out
        assert "verdict" in stdout  # table still on stdout
        doc = json.loads(out_path.read_text())
        assert doc["status"] == "infeasible"

    def test_output_file_equals_machine_stdout(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.yaml", SHOR_2048)
        out_path = tmp_path / "report.json"
        main(["estimate", scenario, "--format", "machine", "--output", str(out_path)])
        stdout = capsys.readouterr().out
        assert out_path.read_text() == stdout
