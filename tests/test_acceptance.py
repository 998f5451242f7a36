"""End-to-end acceptance checks.

Each test is one numbered criterion and prints a single PASS/FAIL line
with the measured numbers, bypassing pytest capture so the lines appear
in plain `pytest -v` runs.  Tolerances are pinned here and nowhere else;
statistical checks state their seed and trajectory counts inline.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
import yaml

from qfeas import ErrorBudget, OpCounts, fidelity, required_error_rate
from qfeas.algorithms import (
    SECONDS_PER_YEAR,
    chemistry_two_qubit_count,
    grover_sequential_runtime,
    grover_two_qubit_count,
)
from qfeas.cli import main
from qfeas.engineering import decoder_compute, syndrome_data_rate
from qfeas.qec import (
    CodeOptimum,
    FloorUnreachableError,
    QecCode,
    error_floor,
    logical_error_rate,
    optimal_code_size,
    required_code_size,
)
from qfeas.scenario import parse_scenario, scenario_to_dict
from qfeas.sim.circuit import Circuit, random_circuit
from qfeas.sim.engine import NoiseModel, estimate_fidelity
from qfeas.sim.fit import fit_error_rates
from qfeas.sim.grover import (
    build_grover_circuit,
    grover_success_probability,
    ideal_success_probability,
)


@pytest.fixture
def announce(capsys):
    def _announce(num, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        line = f"[criterion {num:02d}] {status} {name}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, line
    return _announce


def test_01_factoring_rate_requirement(announce):
    required = required_error_rate(
        OpCounts(n2=10 * 2048**3), math.exp(-1), "two_qubit")
    delta = abs(required - 1.164e-11)
    announce(1, "factoring 2048-bit rate requirement", delta <= 1e-14,
             f"required eps2 = {required:.6e}, |delta| = {delta:.2e} <= 1e-14")


def test_02_search_requirement_and_runtime(announce):
    n2 = grover_two_qubit_count(100)
    required = required_error_rate(OpCounts(n2=n2), math.exp(-1), "two_qubit")
    years = grover_sequential_runtime(100, 1e-6) / SECONDS_PER_YEAR
    ok_n2 = abs(n2 / 1.1259e17 - 1) <= 1e-4
    ok_req = abs(required / 8.88e-18 - 1) <= 0.01
    ok_years = abs(years / 3.6e3 - 1) <= 0.02
    announce(2, "100-bit search requirement and sequential runtime",
             ok_n2 and ok_req and ok_years,
             f"N2 = {n2:.5e}, required eps2 = {required:.3e}, "
             f"runtime = {years:.1f} years at 1 us per gate")


def test_03_chemistry_rate_requirement(announce):
    required = required_error_rate(
        OpCounts(n2=chemistry_two_qubit_count(30)), 0.999, "two_qubit")
    rel = abs(required / 1.372e-12 - 1)
    announce(3, "30-electron chemistry rate requirement", rel <= 1e-3,
             f"required eps2 = {required:.6e}, rel dev {rel:.2e} <= 1e-3")


def test_04_syndrome_bandwidth_is_a_petaflop(announce):
    rate = syndrome_data_rate(10**9, 1e-6)
    ops = decoder_compute(rate, 1)
    announce(4, "syndrome bandwidth and decoder load", rate == 1e15 and ops == 1e15,
             f"rate = {rate:.4g} bit/s, decoder = {ops:.4g} ops/s, both exact")


def test_05_logical_error_law_and_scan_optimum(announce):
    code = QecCode()

    at_threshold = all(
        logical_error_rate(code.eps_th, code, nc) == 1.0
        for nc in (1, 2, 3, 5, 10, 100, 4096))

    # one decade below threshold at n_c = 4: the squared ratio lands one
    # binary ulp above the decimal value 0.01
    v4 = logical_error_rate(1e-3, code, 4)
    ok_decade = abs(v4 - 0.01) <= 2 * math.ulp(0.01)

    rng = np.random.default_rng(20260815)
    mismatches = 0
    for _ in range(1000):
        eps2 = 10.0 ** rng.uniform(-5, math.log10(9.9e-3))
        eps_nc = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-8, -2)
        nc_max = int(rng.integers(1, 2500))
        draw_code = QecCode(eps_nc=eps_nc, nc_max=nc_max)
        best_nc, best = 1, logical_error_rate(eps2, draw_code, 1)
        for nc in range(2, nc_max + 1):
            value = logical_error_rate(eps2, draw_code, nc)
            if value < best:
                best_nc, best = nc, value
        if optimal_code_size(eps2, draw_code) != CodeOptimum(best_nc, best):
            mismatches += 1

    announce(5, "logical error law and exhaustive-scan agreement",
             at_threshold and ok_decade and mismatches == 0,
             f"at-threshold exact, eps_L(n_c=4) = {v4!r}, "
             f"scan mismatches 0/1000 draws")


def test_06_floor_reachability(announce):
    rng = np.random.default_rng(77)
    failures = []
    for i in range(100):
        eps2 = 10.0 ** rng.uniform(-5, math.log10(9.9e-3))
        eps_nc = 10.0 ** rng.uniform(-8, -2)
        code = QecCode(eps_nc=eps_nc, nc_max=2000)
        floor = float(error_floor(eps2, code))
        try:
            required_code_size(eps2, code, floor * (1 - 1e-6))
            failures.append((i, "no error below floor"))
        except FloorUnreachableError:
            pass
        try:
            nc = required_code_size(eps2, code, floor)
            if logical_error_rate(eps2, code, nc) > floor * (1 + 1e-9):
                failures.append((i, "floor target not met"))
        except FloorUnreachableError:
            failures.append((i, "floor itself unreachable"))
    announce(6, "non-correctable floor gates the target", not failures,
             f"100 draws: unreachable below floor x (1 - 1e-6), reachable at it"
             + (f"; failures: {failures[:3]}" if failures else ""))


def test_07_fidelity_decay_fit(announce):
    noise = NoiseModel(ErrorBudget(eps2=2e-3))
    depths = (25, 50, 100, 200)
    n_traj = 4000
    observations = []
    n2_100 = None
    for j, depth in enumerate(depths):
        circuit = random_circuit(6, depth, 1000 + j, pairs_per_layer=2)
        est = estimate_fidelity(circuit, noise, n_traj, seed=j * n_traj)
        observations.append((circuit.counts(), math.log(est.mean)))
        if circuit.counts().n2 == 100:
            n2_100 = est
    fit = fit_error_rates(observations, ["two_qubit"])
    fitted = fit.rates["two_qubit"]
    rel = abs(fitted - 2e-3) / 2e-3

    deviation = abs(n2_100.mean - 0.8186)
    band = 3 * n2_100.std_error
    announce(7, "fidelity decay law recovered from trajectories",
             rel <= 0.15 and deviation <= band,
             f"fitted eps2 = {fitted:.4e} (dev {rel:.1%} <= 15%), "
             f"mean(N2=100) = {n2_100.mean:.4f} within 3 sigma = {band:.4f} "
             f"of 0.8186; {n_traj} trajectories per depth")


def test_08_search_closed_form(announce):
    checks = []
    for n, k in ((2, 1), (3, 2), (4, 3), (5, 4)):
        est = grover_success_probability(
            n, "1" * n, k, NoiseModel(ErrorBudget()), 5, seed=0)
        closed = ideal_success_probability(n, k)
        # noiseless: sigma = 0, so the band reduces to numerical error
        checks.append(abs(est.mean - closed) <= 3 * est.std_error + 1e-9)
    anchor_32 = abs(ideal_success_probability(3, 2) - 0.9453) <= 1e-3
    anchor_21 = ideal_success_probability(2, 1) == 1.0
    announce(8, "search success matches the closed form",
             all(checks) and anchor_32 and anchor_21,
             "(n,k) in {(2,1),(3,2),(4,3),(5,4)}; "
             f"p(3,2) = {ideal_success_probability(3, 2):.6f}, p(2,1) = 1.0")


def test_09_noisy_search_collapse(announce):
    n, k, n_traj = 5, 4, 800
    rates = (0.0, 0.001, 0.002, 0.004, 0.008, 0.016, 0.032)
    points = []
    for i, eps2 in enumerate(rates):
        est = grover_success_probability(
            n, "1" * n, k, NoiseModel(ErrorBudget(eps2=eps2)), n_traj,
            seed=7000 + i * n_traj)
        points.append((eps2, est.mean, est.std_error))

    no_significant_rise = all(
        p2 <= p1 + 3 * math.hypot(s1, s2)
        for (_, p1, s1), (_, p2, s2) in zip(points, points[1:]))
    first, last = points[0], points[-1]
    collapsed = last[1] < first[1] - 3 * math.hypot(first[2], last[2])

    above = [eps for eps, p, _ in points if p > 0.15]
    below = [eps for eps, p, _ in points if p < 0.15]
    crossing = bool(above) and bool(below)
    bracket = f"0.15 crossing in eps2 ({max(above):g}, {min(below):g})" \
        if crossing else "no 0.15 crossing found"

    announce(9, "search success collapses with two-qubit noise",
             no_significant_rise and collapsed and crossing,
             f"{first[1]:.3f} -> {last[1]:.3f} over eps2 {rates[0]:g}..{rates[-1]:g}, "
             f"{bracket}; {n_traj} trajectories per point")


def test_10_determinism_and_round_trips(announce, tmp_path):
    scenario_text = """
hardware: sc-2020
algorithm: {kind: shor, size: 512}
simulation:
  kind: random
  qubits: 4
  depths: [10, 20]
  noise: {eps2: 5.0e-3}
  trajectories: 100
  seed: 5
"""
    path = tmp_path / "scenario.yaml"
    path.write_text(scenario_text, encoding="utf-8")

    def capture(args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(args)
        return buf.getvalue()

    est_a = capture(["estimate", str(path), "--format", "machine"])
    est_b = capture(["estimate", str(path), "--format", "machine"])
    sim_a = capture(["simulate", str(path), "--format", "machine"])
    sim_b = capture(["simulate", str(path), "--format", "machine"])
    byte_identical = est_a == est_b and sim_a == sim_b and json.loads(est_a)

    scenario = parse_scenario(scenario_text)
    scenario_rt = parse_scenario(yaml.safe_dump(scenario_to_dict(scenario))) == scenario

    circuits = (random_circuit(6, 50, 3, pairs_per_layer=2),
                build_grover_circuit(4, "1010", 3))
    circuit_rt = all(Circuit.from_text(c.to_text()) == c for c in circuits)

    inversion = True
    for target in (0.9, math.exp(-1), 0.999, 0.1):
        rate = required_error_rate(OpCounts(n2=12345), target, "two_qubit")
        achieved = fidelity(ErrorBudget(eps2=rate), OpCounts(n2=12345)).value
        inversion &= abs(achieved / target - 1) <= 1e-12

    announce(10, "determinism and round-trips",
             bool(byte_identical) and scenario_rt and circuit_rt and inversion,
             "machine reports byte-identical; scenario, circuit text, and "
             "rate/fidelity inversion all round-trip")
