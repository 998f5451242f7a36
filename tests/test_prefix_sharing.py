"""Rows that join a block late, and the generator keyed per trajectory.

``_run_block`` lets a noisy row join just after its first insertion's
gate as a copy of the ideal row 0; a block without an ideal row runs
every row from |0...0>.  Each row must still match the gate-by-gate
oracle ``serial_run`` bit for bit, in both block layouts: below
``_WIDE`` rows a block is row-major, from ``_WIDE`` rows on it stores
the rows innermost.  ``_blocks`` draws every
trajectory with ``_draws``, from one Philox generator that each
trajectory's key is set into; it must give the stream of a fresh
``Generator(Philox(seed))``.  ``_philox_keys`` derives those keys for
many seeds at once and must agree with numpy's ``SeedSequence``.

On two qubits or more a block runs each stretch of CNOT and RZ gates as
a phase polynomial, flushed only before another gate and at the end;
joins and insertions inside a stretch act at their gate, after a replay
of the stretch's CNOTs up to it.  Grover's phase networks are such
stretches, and the rows must still match the oracle there, and have the
same bits in any block.
"""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qfeas import ErrorBudget
from qfeas.sim import engine
from qfeas.sim.circuit import Circuit, random_circuit
from qfeas.sim.engine import (
    _WIDE,
    NoiseModel,
    _Plan,
    _blocks,
    _draws,
    _philox_keys,
    _run_block,
    mean_over_trajectories,
    noise_sites,
    run_with_insertions,
    sample_insertions,
)
from qfeas.sim.gates import Gate
from qfeas.sim.grover import build_grover_circuit, controlled_phase_gates

from gate_oracle import serial_run

SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3)


def _state_hash(state):
    return float(int.from_bytes(hashlib.sha256(state.tobytes()).digest()[:6], "big"))


def _serial(circuit, noise, n_traj, seed):
    """Mean and standard error of the state hash, one trajectory at a time."""
    sites = noise_sites(circuit, noise)
    values = np.array([_state_hash(serial_run(
        circuit, sample_insertions(sites, seed + i))) for i in range(n_traj)])
    std_error = float(values.std(ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else 0.0
    return float(values.mean()).hex(), std_error.hex()


def _batched(circuit, noise, n_traj, seed, rows):
    row_bytes = 16 << circuit.n_qubits
    with mock.patch.object(engine, "_BATCH_BYTES", rows * row_bytes):
        mean, std_error = mean_over_trajectories(
            circuit, noise, n_traj, seed, lambda ideal, state: _state_hash(state))
    return mean.hex(), std_error.hex()


CIRCUIT = Circuit(3, (
    Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("RX", (2,), 0.7), Gate("T", (1,)),
    Gate("CZ", (1, 2)), Gate("H", (2,)), Gate("RZ", (0,), -1.3), Gate("CNOT", (2, 0)),
))
LAST = len(CIRCUIT.gates) - 1

#: Block sizes on each side of ``_WIDE``: row-major, then rows innermost.
WIDTHS = (7, _WIDE)


def _run(circuit, block):
    """``_run_block`` on the circuit's plan, with a scratch area of its own."""
    scratch = np.empty(len(block) << circuit.n_qubits, dtype=np.complex128)
    return _run_block(_Plan(circuit), block, scratch)


def _assert_rows_match_oracle(circuit, block):
    states = _run(circuit, block)
    assert states.shape == (len(block), 1 << circuit.n_qubits)
    for row, insertions in zip(states, block):
        assert row.tobytes() == serial_run(circuit, insertions).tobytes()


def _filler(width, lowest):
    """Rows that fill a block to ``width``, with their first insertion at
    gate ``lowest`` or later, cycling over gates, qubits and Paulis."""
    return [{lowest + k % (LAST + 1 - lowest): (Gate("XYZ"[k % 3], (k % 3,)),)}
            for k in range(width)]


def test_rows_join_after_gate_zero_the_last_gate_and_together():
    x0, z1, y2 = Gate("X", (0,)), Gate("Z", (1,)), Gate("Y", (2,))
    noisy = [
        {0: (x0,)},                      # joins after gate 0
        {0: (z1,), 4: (y2,)},
        {3: (y2,)},                      # rows join together after gate 3
        {3: (x0, z1)},
        {3: (z1,), LAST: (x0,)},
        {LAST: (y2,)},                   # joins after the last gate
    ]
    for width in WIDTHS:
        block = [{}] + sorted(noisy + _filler(width - 1 - len(noisy), 1), key=min)
        assert len(block) == width
        _assert_rows_match_oracle(CIRCUIT, block)
        assert _run(CIRCUIT, block)[0].tobytes() == serial_run(CIRCUIT, {}).tobytes()


def test_block_without_ideal_row_runs_every_row_from_the_start():
    # no ideal row 0, so the rows need not be ordered by first insertion
    rows = [{LAST: (Gate("X", (1,)),)}, {0: (Gate("Z", (0,)),)}]
    for width in WIDTHS:
        _assert_rows_match_oracle(CIRCUIT, rows + _filler(width - len(rows), 0)[::-1])


def test_blocks_are_ordered_by_first_insertion_and_led_by_the_ideal_row():
    circuit = random_circuit(4, 12, 5)
    sites = noise_sites(circuit, NoiseModel(ErrorBudget(eps1=0.05, eps2=0.1)))
    blocks = list(_blocks(sites, 40, 9, 5))
    assert len(blocks) > 2
    for owners, block in blocks:
        assert len(block) <= 5
        lead = len(block) - len(owners)
        assert lead == 1 and block[0] == {}  # every block: 5 rows > 2
        firsts = [min(insertions) for insertions in block[lead:]]
        assert firsts == sorted(firsts)
        for i, insertions in zip(owners, block[lead:]):
            assert insertions == sample_insertions(sites, 9 + i)
    owners = sorted(i for owners, _ in blocks for i in owners)
    assert owners == [i for i in range(40) if sample_insertions(sites, 9 + i)]


@pytest.mark.parametrize("rows", [2, 3, _WIDE])
def test_later_blocks_match_the_serial_oracle(rows):
    """At two rows a later block holds no ideal row; at three, and at a
    block wide enough to store its rows innermost, it leads with its own."""
    n_traj = 30 if rows < _WIDE else 150
    circuit = random_circuit(4, 10, 3)
    noise = NoiseModel(ErrorBudget(eps0=0.02, eps1=0.03, eps2=0.08))
    blocks = list(_blocks(noise_sites(circuit, noise), n_traj, 17, rows))
    assert len(blocks) > 3
    assert all(len(block) - len(owners) == (rows > 2) for owners, block in blocks[1:])
    assert all(len(block) == rows for _, block in blocks[:-1])
    for _, block in blocks:
        _assert_rows_match_oracle(circuit, block)
    assert _batched(circuit, noise, n_traj, 17, rows) == _serial(circuit, noise, n_traj, 17)


def test_one_qubit_circuit_matches_the_serial_oracle():
    noise = NoiseModel(ErrorBudget(eps1=0.2))
    for gates in (
        (Gate("H", (0,)), Gate("T", (0,)), Gate("RZ", (0,), 0.3),
         Gate("RX", (0,), 1.1), Gate("S", (0,)), Gate("H", (0,))),
        # a stretch of RZ: the serial run multiplies a single amplitude per
        # pass, which numpy rounds by another loop than a pass of two
        (Gate("H", (0,)), Gate("RX", (0,), 0.4), Gate("RZ", (0,), 0.3),
         Gate("RZ", (0,), -1.7), Gate("T", (0,)), Gate("RZ", (0,), 2.9)),
    ):
        circuit = Circuit(1, gates)
        _assert_rows_match_oracle(circuit, [{}])
        _assert_rows_match_oracle(circuit, [{2: (Gate("X", (0,)),)}])
        # eight rows would fit, but one-qubit rows still run one per block
        assert _batched(circuit, noise, 25, 4, 8) == _serial(circuit, noise, 25, 4)


def test_fifteen_qubits_at_two_rows_per_block_match_the_serial_oracle():
    circuit = random_circuit(15, 2, 8)
    noise = NoiseModel(ErrorBudget(eps2=0.1))
    rows = max(1, engine._BATCH_BYTES // (16 << 15))
    assert rows == 2
    assert len(list(_blocks(noise_sites(circuit, noise), 6, 21, rows))) > 2
    mean, std_error = mean_over_trajectories(
        circuit, noise, 6, 21, lambda ideal, state: _state_hash(state))
    assert (mean.hex(), std_error.hex()) == _serial(circuit, noise, 6, 21)


#: Row counts of the phase-network tests: row-major, then rows innermost.
NETWORK_WIDTHS = (1, 2, 3, 4, _WIDE, _WIDE + 1)


def _grover(n):
    """Two search iterations, so each of the four phase networks (CNOT
    and RZ stretches) repeats the Gate objects of the others."""
    return build_grover_circuit(n, format(5 % (1 << n), f"0{n}b"), 2)


def _network_rows(circuit, count):
    """``count`` rows whose insertions follow CNOT and RZ gates inside the
    phase networks, so they join, and are inserted, mid-stretch: a first
    insertion on every target of its gate and, in some rows, a later one."""
    network = [g for g, gate in enumerate(circuit.gates) if gate.kind in ("CNOT", "RZ")]
    rows = []
    for k in range(count):
        first = network[(7 * k + 3) % len(network)]
        insertions = {first: tuple(Gate("XYZ"[(k + j) % 3], (q,))
                                   for j, q in enumerate(circuit.gates[first].targets))}
        later = network[(11 * k + 5) % len(network)]
        if later > first:
            insertions[later] = (Gate("YZX"[k % 3], circuit.gates[later].targets[-1:]),)
        rows.append(insertions)
    return rows


@pytest.mark.parametrize("width", NETWORK_WIDTHS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_phase_network_blocks_match_the_serial_oracle(n, width):
    """Rows join and take insertions at CNOT and RZ gates inside a
    stretch, in blocks led by the ideal row and in blocks without it; the
    second circuit ends inside its first phase network, just after the
    RZ that follows its first CNOT."""
    circuit = _grover(n)
    first_cnot = [gate.kind for gate in circuit.gates].index("CNOT")
    for circuit in (circuit, Circuit(n, circuit.gates[:first_cnot + 2])):
        led = [{}] + sorted(_network_rows(circuit, width - 1), key=min)
        _assert_rows_match_oracle(circuit, led)
        _assert_rows_match_oracle(circuit, _network_rows(circuit, width))


@pytest.mark.parametrize("rows", NETWORK_WIDTHS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_noisy_search_matches_the_serial_oracle(n, rows):
    circuit = _grover(n)
    rate = 3.0 / len(circuit.gates)  # about three insertions a trajectory
    noise = NoiseModel(ErrorBudget(eps1=rate, eps2=rate))
    n_traj = 2 * rows + 8
    firsts = [circuit.gates[min(insertions)].kind
              for _, block in _blocks(noise_sites(circuit, noise), n_traj, 31, rows)
              for insertions in block if insertions]
    assert {"CNOT", "RZ"} <= set(firsts)
    assert _batched(circuit, noise, n_traj, 31, rows) == _serial(circuit, noise, n_traj, 31)


def test_rz_on_qubit_n_minus_2_of_two():
    """RZ on qubit 0 of two, whose serial passes hold two amplitudes."""
    circuit = Circuit(2, (
        Gate("H", (0,)), Gate("RX", (1,), 0.8), Gate("RZ", (0,), 0.45), Gate("CNOT", (1, 0)),
        Gate("RZ", (0,), -2.1), Gate("CNOT", (0, 1)), Gate("RZ", (1,), 1.3),
        Gate("RZ", (0,), 0.7), Gate("T", (0,))))
    for width in NETWORK_WIDTHS:
        rows = [{k % 8 + 1: (Gate("XYZ"[k % 3], (k % 2,)),)} for k in range(width)]
        _assert_rows_match_oracle(circuit, [{}] + sorted(rows[1:], key=min))
        _assert_rows_match_oracle(circuit, rows)


def test_rz_by_zero_and_minus_zero_keep_their_own_factors():
    """RZ(0.0) and RZ(-0.0) add a signed zero to a coefficient, on
    amplitudes that a Y left with signed zeros; rows with insertions
    inside such a stretch still match the oracle."""
    y0, y1 = Gate("Y", (0,)), Gate("Y", (1,))
    for prefix, first, second in (((y0,), 0.0, -0.0), ((y0, y1), -0.0, 0.0)):
        circuit = Circuit(2, (*prefix, Gate("RZ", (0,), first), Gate("RZ", (1,), second)))
        for width in (1, _WIDE):
            rows = sorted(_network_rows(circuit, width - 1), key=min)
            _assert_rows_match_oracle(circuit, [{}] + rows)


def test_a_search_row_has_the_same_bits_in_any_block():
    """One noisy search trajectory, run alone, as a row of a 4-row
    row-major block and as a row of a 16-row block stored rows
    innermost, gives the same bits: a stretch is flushed only where the
    circuit puts it, so no other row of a block moves its rounding."""
    marked = "10110101"
    circuit = build_grover_circuit(8, marked, 3)
    sites = noise_sites(circuit, NoiseModel(ErrorBudget(eps2=2e-3)))
    noisy = [ins for ins in (sample_insertions(sites, s) for s in range(40)) if ins][:_WIDE - 1]
    assert len(noisy) == _WIDE - 1
    # a trajectory that joins its blocks after another row, with an X or a
    # Y, which moves amplitudes inside a stretch
    ordered = sorted(noisy, key=min)
    trajectory = next(ins for ins in ordered[2:-1]
                      if any(p.kind != "Z" for paulis in ins.values() for p in paulis))
    narrow = [{}] + sorted([ordered[0], trajectory, ordered[-1]], key=min)
    wide = [{}] + ordered
    index = int(marked, 2)

    def probability(state):
        return float(state[index].real ** 2 + state[index].imag ** 2).hex()

    runs = [run_with_insertions(circuit, trajectory),
            _run(circuit, narrow)[narrow.index(trajectory)],
            _run(circuit, wide)[wide.index(trajectory)]]
    assert len({probability(state) for state in runs}) == 1
    assert len({state.tobytes() for state in runs}) == 1


def _edge_circuit():
    """Four qubits: an H layer, then stretches separated by one kernel
    gate each.  ``net`` (29 gates) appears four times, and its second
    and third appearances stand on either side of ``other``, so a block
    flushes ``net`` whole, then ``other``, then ``net`` again; ``(CNOT,)``
    is a stretch of one gate, and the circuit ends inside ``net``."""
    net = tuple(controlled_phase_gates(range(4), 0.9))
    other = tuple(controlled_phase_gates(range(1, 4), -0.4))
    gates = (*(Gate("H", (q,)) for q in range(4)), *net, Gate("X", (1,)), *net,
             Gate("H", (2,)), *other, Gate("T", (0,)), *net, Gate("H", (3,)),
             Gate("CNOT", (0, 3)), Gate("RX", (1,), 0.3), *net)
    return Circuit(4, gates)


def _edge_points(circuit):
    """For the second, the one-gate and the last stretch: its first, a
    middle and its last gate, and the kernel gates just before and just
    after it (the last stretch ends the circuit)."""
    kinds = [gate.kind for gate in circuit.gates] + ["END"]
    starts = [g for g in range(len(circuit.gates))
              if kinds[g] in ("CNOT", "RZ") and kinds[g - 1] not in ("CNOT", "RZ")]
    points = []
    for first in (starts[1], starts[4], starts[5]):
        stop = next(g for g in range(first, len(kinds)) if kinds[g] not in ("CNOT", "RZ"))
        points += [first - 1, first, (first + stop - 1) // 2, stop - 1, stop]
    return sorted({g for g in points if g < len(circuit.gates)})


def _edge_rows(circuit):
    """Rows that join at each edge point (their first insertion) and
    rows that join at gate 0 and take an insertion at it; a CNOT site
    inserts on both its targets."""
    rows = []
    for k, g in enumerate(_edge_points(circuit)):
        targets = circuit.gates[g].targets
        paulis = tuple(Gate("XYZ"[(k + j) % 3], (q,)) for j, q in enumerate(targets))
        rows.append({g: paulis})
        rows.append({0: (Gate("ZXY"[k % 3], (k % 4,)),), g: paulis[::-1]})
    return rows


@pytest.mark.parametrize("width", [4, 6, _WIDE])
def test_rows_join_and_take_insertions_at_stretch_edges(width):
    """Blocks of 4 and 6 rows are row-major, 16 rows innermost; in a
    block led by the ideal row a row joins at its first insertion, and
    without it every row runs from the start.  Every row matches the
    oracle bit for bit, whichever steps its block flushes whole."""
    circuit = _edge_circuit()
    rows = _edge_rows(circuit)
    assert len(rows) == 22
    for count, lead in ((width - 1, [{}]), (width, [])):
        for start in range(0, len(rows), count):
            chunk = (rows[start:] + rows)[:count]
            _assert_rows_match_oracle(circuit, lead + (sorted(chunk, key=min) if lead else chunk))


#: RZ angles, signed zeros as often as the rest: an RZ(0.0) or RZ(-0.0)
#: on a mask that an X has negated leaves a zero whose sign depends on
#: which coefficients that X negated.
_ANGLES = st.sampled_from([0.0, -0.0]) | st.floats(-4.0, 4.0)


@st.composite
def _stretch_blocks(draw):
    """A circuit on 2-6 qubits: Y on qubit 0 and some others, H on some,
    a random CNOT/RZ stretch, one H, and the same stretch again; and a
    block of 4 or ``_WIDE`` rows, led by the ideal row (the others join
    at their first insertion) or not.  A row takes up to four insertions
    of X, Y or Z, X the most often, after any gate and on any qubit."""
    n = draw(st.integers(2, 6))
    qubit = st.integers(0, n - 1)
    cnot = st.lists(qubit, min_size=2, max_size=2, unique=True).map(
        lambda pair: Gate("CNOT", tuple(pair)))
    rz = st.builds(lambda q, theta: Gate("RZ", (q,), theta), qubit, _ANGLES)
    stretch = draw(st.lists(cnot | rz, min_size=1, max_size=16))
    prefix = [Gate(kind, (q,)) for q in range(n) for kind in "YH"
              if (kind, q) == ("Y", 0) or draw(st.booleans())]
    circuit = Circuit(n, (*prefix, *stretch, Gate("H", (draw(qubit),)), *stretch))
    pauli = st.builds(lambda kind, q: Gate(kind, (q,)), st.sampled_from("XXXYZ"), qubit)
    row = st.dictionaries(st.integers(0, len(circuit.gates) - 1),
                          st.lists(pauli, min_size=1, max_size=3).map(tuple),
                          min_size=1, max_size=4)
    width, led = draw(st.sampled_from([4, _WIDE])), draw(st.booleans())
    rows = draw(st.lists(row, min_size=width - led, max_size=width - led))
    return circuit, [{}] + sorted(rows, key=min) if led else rows


def _stretch_case(stretch, *rows):
    """A case shaped as ``_stretch_blocks`` draws them, on 3 qubits: Y on
    qubit 0, the stretch (gates 1 to len(stretch)), H on qubit 1 and the
    stretch again; a 4-row block led by the ideal row."""
    circuit = Circuit(3, (Gate("Y", (0,)), *stretch, Gate("H", (1,)), *stretch))
    return circuit, [{}] + sorted(rows, key=min)


def _paulis(*names):
    """Pauli gates from names such as "X0": kind, then qubit."""
    return tuple(Gate(name[0], (int(name[1:]),)) for name in names)


_RZ_ONLY = (Gate("RZ", (0,), 0.3), Gate("RZ", (1,), -1.1), Gate("RZ", (0,), 0.7))
_CNOT_ONLY = (Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2)), Gate("CNOT", (2, 0)))
_RZ_ENDS = (Gate("RZ", (0,), 0.5), Gate("CNOT", (0, 1)), Gate("RZ", (1,), -0.8),
            Gate("CNOT", (1, 2)), Gate("RZ", (2,), 1.3))


@settings(max_examples=60, deadline=None)
@given(case=_stretch_blocks())
# the edges of the replayed CNOTs' slice: a stretch of RZs only, with no
# CNOT to replay and no gather; one of CNOTs only, with no phase column;
# and Paulis just after the first and the last gate of a stretch that
# starts and ends with an RZ
@example(case=_stretch_case(_RZ_ONLY, {1: _paulis("X0")}, {2: _paulis("Y1"), 3: _paulis("X0")},
                            {3: _paulis("Z2", "X1"), 5: _paulis("X2")}))
@example(case=_stretch_case(_CNOT_ONLY, {1: _paulis("X0")}, {2: _paulis("Y1"), 3: _paulis("Z0")},
                            {3: _paulis("X2"), 7: _paulis("Y0")}))
@example(case=_stretch_case(_RZ_ENDS, {1: _paulis("X0")}, {1: _paulis("Y2"), 5: _paulis("X1")},
                            {5: _paulis("X2", "Z1"), 11: _paulis("X0")}))
def test_insertions_inside_random_stretches_match_the_serial_oracle(case):
    """Every row matches the oracle bit for bit, with joins, several X's
    on one row and Paulis on any qubit inside a stretch.

    An X negates only the coefficients already set whose mask has an odd
    overlap with its column, as the oracle's dict does.  Negating every
    odd-overlap mask instead makes an unset coefficient -0.0 where the
    dict has none, and an RZ(0.0) on it later leaves -0.0 where the dict
    has 0.0.  No input told the two rules apart.  Under the other rule,
    5,000 examples built 33,801 such rows' coefficients, and 27,658 had
    other bits (2,805 a zero of the other sign on a mask an RZ had set),
    yet every row matched the oracle: the coefficients differ only in the
    sign of a zero, the Walsh-Hadamard transform passes that on only to a
    zero angle, and exp(1j * angle) is 1 + 0j for either sign."""
    circuit, block = case
    _assert_rows_match_oracle(circuit, block)


def _same_state(a, b):
    sa, sb = a.bit_generator.state, b.bit_generator.state
    assert sa["state"]["key"].tolist() == sb["state"]["key"].tolist()
    assert sa["state"]["counter"].tolist() == sb["state"]["counter"].tolist()
    assert (sa["buffer_pos"], sa["has_uint32"], sa["uinteger"]) == \
        (sb["buffer_pos"], sb["has_uint32"], sb["uinteger"])


def test_rekeyed_generator_gives_a_fresh_generators_stream():
    # both sites fire, so a draw ends with integers(0, 15), integers(0, 3)
    sites = noise_sites(Circuit(3, (Gate("CZ", (0, 1)), Gate("H", (2,)))),
                        NoiseModel(ErrorBudget(eps1=1.0, eps2=1.0)))
    rng = np.random.Generator(np.random.Philox(12345))
    for s in SEEDS:
        rng.random(3)
        rng.integers(0, 15)  # leaves half of a uint64 in the uint32 buffer
        assert list(_draws(rng, sites, s, 1)) == [(0, sample_insertions(sites, s))]
        fresh = np.random.Generator(np.random.Philox(s))
        fresh.random(2)
        fresh.integers(0, 15)
        fresh.integers(0, 3)
        _same_state(rng, fresh)
        assert rng.random(5).tolist() == fresh.random(5).tolist()
        assert [int(rng.integers(0, 15)) for _ in range(4)] == \
            [int(fresh.integers(0, 15)) for _ in range(4)]
        assert [int(rng.integers(0, 3)) for _ in range(3)] == \
            [int(fresh.integers(0, 3)) for _ in range(3)]
        assert rng.random(2).tolist() == fresh.random(2).tolist()


@pytest.mark.parametrize("base", SEEDS)
def test_rekeyed_draws_match_sample_insertions(base):
    """Every trajectory here follows one whose draw called integers."""
    circuit = random_circuit(4, 6, 2)
    sites = noise_sites(circuit, NoiseModel(ErrorBudget(eps0=0.1, eps1=0.2, eps2=0.3)))
    rng = np.random.Generator(np.random.Philox(base))
    assert all(sample_insertions(sites, base + i) for i in range(8))
    drawn = list(_draws(rng, sites, base, 8))
    assert drawn == [(i, sample_insertions(sites, base + i)) for i in range(8)]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 128 - 1), count=st.integers(1, 3))
@example(seed=0, count=1)
@example(seed=2 ** 32 - 1, count=2)
@example(seed=2 ** 32, count=1)
@example(seed=2 ** 64 - 1, count=2)
@example(seed=2 ** 64, count=1)
@example(seed=2 ** 96, count=1)
@example(seed=2 ** 128 - 1, count=3)  # the last array seed, then two fallbacks
@example(seed=2 ** 128, count=1)
@example(seed=2 ** 200 + 5, count=2)
def test_philox_keys_match_seed_sequence(seed, count):
    want = [np.random.SeedSequence(seed + i).generate_state(2, np.uint64).tolist()
            for i in range(count)]
    keys = _philox_keys(seed, count)
    assert keys.dtype == np.uint64
    assert keys.tolist() == want


@pytest.mark.parametrize("base", [2 ** 64 - 20, 2 ** 128 - 20])
def test_blocks_draw_sample_insertions_across_seed_boundaries(base):
    """Trajectory seeds that cross 2^64 (a carry into the high words) and
    2^128 (the ``SeedSequence`` fallback)."""
    sites = noise_sites(random_circuit(4, 6, 2), NoiseModel(ErrorBudget(eps1=0.03, eps2=0.06)))
    want = [sample_insertions(sites, base + i) for i in range(40)]
    drawn = {i: insertions for owners, block in _blocks(sites, 40, base, 8)
             for i, insertions in zip(owners, block[len(block) - len(owners):])}
    assert 0 < len(drawn) < 40
    assert drawn == {i: insertions for i, insertions in enumerate(want) if insertions}
