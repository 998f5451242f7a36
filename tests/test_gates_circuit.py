"""Gate set, circuit container, text serialization, and random-circuit generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfeas import OpCounts
from qfeas.sim import MAX_QUBITS
from qfeas.sim.circuit import Circuit, random_circuit
from qfeas.sim.gates import (
    BadTargetError,
    Gate,
    cnot,
    cz,
    h,
    idle,
    rx,
    rz,
    s,
    t,
    x,
    y,
    z,
)

from gate_oracle import gate_matrix

SQ2 = 1 / math.sqrt(2)


class TestGateMatrices:
    def test_hadamard(self):
        np.testing.assert_allclose(gate_matrix(h(0)), np.array([[SQ2, SQ2], [SQ2, -SQ2]]))

    def test_paulis(self):
        np.testing.assert_allclose(gate_matrix(x(0)), [[0, 1], [1, 0]])
        np.testing.assert_allclose(gate_matrix(y(0)), [[0, -1j], [1j, 0]])
        np.testing.assert_allclose(gate_matrix(z(0)), [[1, 0], [0, -1]])

    def test_phase_family(self):
        np.testing.assert_allclose(gate_matrix(s(0)), [[1, 0], [0, 1j]])
        np.testing.assert_allclose(gate_matrix(t(0)), [[1, 0], [0, np.exp(0.25j * np.pi)]])

    def test_t_squared_is_s(self):
        tt = gate_matrix(t(0)) @ gate_matrix(t(0))
        np.testing.assert_allclose(tt, gate_matrix(s(0)), atol=1e-15)

    def test_rz_is_diagonal_phase_pair(self):
        m = gate_matrix(rz(0, 0.8))
        np.testing.assert_allclose(m, np.diag([np.exp(-0.4j), np.exp(0.4j)]))

    def test_rx_pi_is_x_up_to_phase(self):
        m = gate_matrix(rx(0, math.pi))
        np.testing.assert_allclose(m, -1j * gate_matrix(x(0)), atol=1e-15)

    def test_cz_and_cnot(self):
        np.testing.assert_allclose(gate_matrix(cz(0, 1)), np.diag([1, 1, 1, -1]))
        expect = np.eye(4)[[0, 1, 3, 2]]
        np.testing.assert_allclose(gate_matrix(cnot(0, 1)), expect)

    def test_idle_is_identity(self):
        np.testing.assert_allclose(gate_matrix(idle(0)), np.eye(2))

    @pytest.mark.parametrize("g", [h(0), s(0), t(0), rx(0, 1.234), rz(0, -2.5), cz(0, 1), cnot(1, 0)])
    def test_everything_is_unitary(self, g):
        m = gate_matrix(g)
        np.testing.assert_allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-14)


class TestGateValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("SWAP", (0, 1))

    def test_arity_enforced(self):
        with pytest.raises(BadTargetError):
            Gate("CZ", (0,))
        with pytest.raises(BadTargetError):
            Gate("H", (0, 1))

    def test_duplicate_targets(self):
        with pytest.raises(BadTargetError):
            Gate("CNOT", (3, 3))

    def test_angle_required_or_forbidden(self):
        with pytest.raises(ValueError):
            Gate("RZ", (0,))
        with pytest.raises(ValueError):
            Gate("H", (0,), theta=0.1)

    def test_angle_must_be_finite(self):
        with pytest.raises(ValueError):
            rz(0, float("inf"))


class TestCircuit:
    def test_counts_tally_by_arity(self):
        c = Circuit(3, (h(0), idle(1), t(2), cz(0, 1), cnot(1, 2)))
        assert c.counts() == OpCounts(1, 2, 2)
        # repeated objects count once per use, as Python ints
        pair = cnot(0, 1)
        counts = Circuit(2, (pair, h(0), pair, pair)).counts()
        assert counts == OpCounts(0, 1, 3)
        assert [type(v) for v in (counts.n0, counts.n1, counts.n2)] == [int, int, int]
        assert Circuit(2, ()).counts() == OpCounts(0, 0, 0)

    def test_register_bounds_checked(self):
        with pytest.raises(BadTargetError):
            Circuit(2, (x(2),))

    def test_bad_gate_after_repeated_objects_is_named_by_its_index(self):
        """Each distinct Gate object is checked once, but a failure still
        names the first bad index, not where the object first appeared."""
        good, pair = h(0), cnot(0, 1)
        with pytest.raises(BadTargetError, match=r"^gates\[5\] \(X\) targets \(2,\)"):
            Circuit(2, (good, pair, good, pair, good, x(2), good, x(3)))
        outside = cz(0, 2)
        with pytest.raises(BadTargetError, match=r"^gates\[3\] \(CZ\)"):
            Circuit(2, (good, good, pair, outside, good, outside))
        with pytest.raises(TypeError, match=r"^gates\[4\] is not a Gate"):
            Circuit(2, (good, pair, good, pair, "H 0", good))

    @pytest.mark.parametrize("times", [0, 1, 2, 5])
    def test_repeated_equals_the_flat_circuit(self, times):
        """``Circuit.repeated`` numbers one copy of the body and tiles its
        codes; every field equals the flat circuit's, equal-valued but
        distinct objects keep their own numbers."""
        turn = rz(1, 0.3)
        head = (h(0), h(1), x(2))
        body = (x(2), cnot(0, 1), turn, cnot(0, 1), head[0], turn, rz(1, 0.3), cz(1, 2))
        flat = Circuit(3, head + body * times)
        rep = Circuit.repeated(3, head, body, times)
        assert rep == flat and rep.n_qubits == flat.n_qubits
        assert len(rep.gates) == len(head) + times * len(body)
        assert all(a is b for a, b in zip(rep.gates, flat.gates, strict=True))
        assert all(a is b for a, b in zip(rep.distinct, flat.distinct, strict=True))
        assert rep.code.dtype == flat.code.dtype and np.array_equal(rep.code, flat.code)
        assert all(rep.distinct[c] is gate for c, gate in zip(rep.code.tolist(), rep.gates))
        assert len(rep.distinct) == (3 if times == 0 else 9)

    def test_repeated_names_a_bad_gate_by_its_first_index(self):
        good, pair = h(0), cnot(0, 1)
        with pytest.raises(BadTargetError, match=r"^gates\[1\] \(X\) targets \(2,\)"):
            Circuit.repeated(2, (good, x(2), good), (pair, x(3)), 3)
        with pytest.raises(BadTargetError, match=r"^gates\[4\] \(CZ\)"):
            Circuit.repeated(2, (good, pair), (good, pair, cz(0, 2), good), 4)
        with pytest.raises(TypeError, match=r"^gates\[3\] is not a Gate"):
            Circuit.repeated(2, (good,), (pair, good, "H 0"), 2)
        # a body repeated no times holds no gate to check
        assert Circuit.repeated(2, (good,), (x(2),), 0) == Circuit(2, (good,))

    def test_size_limits(self):
        with pytest.raises(ValueError):
            Circuit(0, ())
        with pytest.raises(ValueError):
            Circuit(MAX_QUBITS + 1, ())
        assert Circuit(MAX_QUBITS, ()).n_qubits == MAX_QUBITS

    def test_iteration_preserves_order(self):
        gates = (h(0), cz(0, 1), t(1))
        assert tuple(Circuit(2, gates)) == gates


class TestTextFormat:
    def test_round_trip_with_angles_and_comments(self):
        c = Circuit(3, (h(0), rz(1, 0.1 + 0.2), rx(2, -math.pi), cz(0, 2), idle(1)))
        text = c.to_text()
        back = Circuit.from_text("# preamble comment\n" + text)
        assert back == c
        # repr round-trip keeps every bit of the angle
        assert back.gates[1].theta == c.gates[1].theta

    def test_digest_is_stable(self):
        c = Circuit(2, (h(0), cz(0, 1)))
        assert c.digest() == Circuit(2, (h(0), cz(0, 1))).digest()
        assert len(c.digest()) == 64

    def test_digest_sees_every_gate(self):
        a = Circuit(2, (h(0), cz(0, 1)))
        b = Circuit(2, (h(1), cz(0, 1)))
        assert a.digest() != b.digest()

    def test_missing_header(self):
        with pytest.raises(ValueError, match="qubits"):
            Circuit.from_text("H 0\n")

    def test_unknown_gate_reports_line(self):
        with pytest.raises(ValueError, match="line 3"):
            Circuit.from_text("qubits 2\nH 0\nFOO 1\n")

    def test_bad_argument_count_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            Circuit.from_text("qubits 2\nCZ 0\n")

    def test_angle_parse(self):
        c = Circuit.from_text("qubits 1\nRZ 0 0.5\n")
        assert c.gates[0] == rz(0, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_circuits_round_trip(self, n, depth, seed):
        c = random_circuit(n, depth, seed)
        assert Circuit.from_text(c.to_text()) == c


class TestRandomCircuit:
    def test_structure_at_depth_one(self):
        c = random_circuit(2, 1, 0)
        assert c.counts() == OpCounts(0, 2, 1)

    def test_counts_scale_linearly_with_depth(self):
        for depth in (1, 3, 10):
            c = random_circuit(6, depth, 9)
            assert c.counts() == OpCounts(0, 6 * depth, 3 * depth)

    def test_pairs_per_layer_controls_n2(self):
        c = random_circuit(6, 50, 1, pairs_per_layer=2)
        assert c.counts() == OpCounts(0, 300, 100)

    def test_deterministic_in_seed(self):
        assert random_circuit(5, 20, 7).digest() == random_circuit(5, 20, 7).digest()

    def test_different_seeds_differ(self):
        assert random_circuit(5, 20, 7).digest() != random_circuit(5, 20, 8).digest()

    def test_single_qubit_layer_uses_declared_set(self):
        c = random_circuit(4, 30, 3)
        kinds = {g.kind for g in c if not g.is_two_qubit}
        assert kinds <= {"H", "T", "RX"}
        assert {g.kind for g in c if g.is_two_qubit} == {"CZ"}

    def test_cz_pairs_never_overlap_within_a_layer(self):
        c = random_circuit(7, 40, 11)
        layer_width = 7 + 3  # gates per layer: one 1q gate per qubit, then 3 CZ
        gates = list(c)
        for start in range(0, len(gates), layer_width):
            touched = [q for g in gates[start + 7:start + 10] for q in g.targets]
            assert len(touched) == len(set(touched))

    def test_pairs_per_layer_bounds(self):
        with pytest.raises(ValueError):
            random_circuit(6, 3, 0, pairs_per_layer=4)
        with pytest.raises(ValueError):
            random_circuit(6, 3, 0, pairs_per_layer=0)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            random_circuit(1, 3, 0)
        with pytest.raises(ValueError):
            random_circuit(4, 0, 0)
