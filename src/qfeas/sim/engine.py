"""State-vector engine with Monte-Carlo stochastic Pauli noise.

Gates act through strided slice arithmetic on complex128 amplitudes (no
matrix products), so a run is a fixed sequence of elementwise operations
and a rerun reproduces its output bit for bit.  ``_run_block`` is the one
circuit runner: it runs a block of rows, each one register of 2^n
amplitudes, in one of two layouts:

* a block of fewer than ``_WIDE`` rows is stored row-major, a
  (rows, 2^n) array;
* a block of ``_WIDE`` rows or more is stored rows innermost, a
  (2^n, rows) array, so each pass walks contiguous runs of (low
  amplitudes x rows) instead of one short run per row.

A rows-innermost block runs under a ufunc buffer of ``_WIDE_BUFSIZE``
elements.  numpy copies a pass through its iterator buffer when the
pass's contiguous runs are short against the buffer, and with one to a
thousand joined rows almost every such pass is; a small buffer lets
those passes run in place.  numpy's buffer size (thread-local state, a
context variable since numpy 2.0) is the caller's again once
``_run_block`` returns or raises.  A row-major block keeps the default.

Its kernel, ``_apply_inplace``, applies a one-qubit gate or a CZ to
either layout as a (lead, 2^n, trail) view, the rows riding in ``lead``
or in ``trail``.

Each circuit is compiled once into a plan (``_Plan``), a list of
steps: a kernel gate, or on n >= 2 qubits a whole stretch of CNOT and
RZ gates, such as a Grover phase network (the Gray-code networks of
Welch, Greenbaum, Mostame and Aspuru-Guzik, arXiv:1306.3991), which runs
as a phase polynomial (Amy, Maslov and Mosca, arXiv:1303.2042).  The
plan is built without a Python loop over the gates: it reads the
circuit's numbering of its distinct Gate objects (``Circuit.distinct``
and ``Circuit.code``, made once when the circuit is built), and a numpy
array of their kinds, spread by the codes, gives the stretch edges.

With x the position of an amplitude at the start of a stretch, each
qubit q has a mask m_q, whose parity with x is q's current bit, and a
column d_q, the x whose current index has qubit q's bit alone (column q
of the inverse map); both are Python ints.  A CNOT(c, t) moves no
amplitude: it does m_t ^= m_c and d_c ^= d_t.  An RZ(theta) on q
subtracts theta/2 from the coefficient c[m_q] of the pending phase, sum
over m of c[m] * (-1)^parity(m & x).  Stretches of the same Gate
objects, in the same order, share one ``_Stretch``, read once per plan
in one Python pass, the only one over its Gate objects: for each RZ in
order, its offset, its qubit's mask there and its half angle, as
arrays; each CNOT's (control, target) pair; and the two arrays of the
flush.  The coefficients are one ``np.subtract.at`` of the half angles
into an array indexed by mask, so each is 0.0 - half at its mask's
first RZ with every later half subtracted in order.  Every occurrence
of a stretch is flushed where the circuit puts it, after its last gate,
by the same arrays: one multiply by its phase column (one
Walsh-Hadamard transform of the coefficients, then ``exp(1j *
angle)``), then one gather that moves the amplitude at x to the index
whose bit q is parity(m_q & x).  Parities are XORs over mask bits, so
no popcount is needed.

Where rows join or take insertions inside a stretch, the block replays
the stretch's CNOTs up to each such gate (up to offset o, the first
o + 1 less the RZs up to there), and an insertion acts there on its
own row: Z negates the amplitudes where parity(m_q & x) is
odd; X moves the amplitude at x to x ^ d_q; Y is i X Z.  An X also
negates, in that row's coefficients, each one already set whose mask has
an odd overlap with d_q.  So a row that took an X keeps the RZ count and
the column of each X, and at the flush builds its own coefficients, one
``np.subtract.at`` segment per X, and multiplies by their phases instead
of the phase column.  A joining row is a copy of row 0's unflushed
amplitudes.  These steps are exact, and every rounded step runs at the
same points on the same values whatever block a row is in, so a row's
bits do not depend on the other rows of its block.

Every row has the bits of the oracle the tests hold it against,
``serial_run`` in ``tests/gate_oracle.py``: it runs one register alone,
applies each stretch by the same definition and sends every other gate
through ``_apply_inplace``.  Every amplitude sees the same operations
in the same order, and numpy rounds a complex product by a scalar and
by an array element of that value alike, in passes of two amplitudes or
more.  It rounds a product on a single amplitude by another loop, and
on one qubit a pass holds one amplitude; so 1-qubit trajectories run
one row per block, gate by gate.

Noisy trajectories run as the rows of such blocks, each block capped at
``_BATCH_BYTES``.  Every step is applied once to the rows that have
joined the block, and a Pauli insertion afterwards to its own row.  In a
block led by the noiseless row, a row joins at its first insertion: just
after that gate it starts as a copy of the noiseless row, whose every
operation up to there it shares.  The noise sites (``_Sites``) are two
arrays read off the circuit's channels, the gates' indices and their
rates; the Pauli gates of an insertion are built the first time, in a
process, that a site with those targets draws that Pauli.

An observable is ``observe(ideal, state)``, a float from the noiseless
final state and one trajectory's; its mean and standard error over the
trajectories come back as an :class:`Estimate`.  The noiseless (ideal)
run is the trajectory with no insertions: it rides as row 0 of the first
block, and a trajectory that draws no insertion is not simulated but
contributes ``observe(ideal, ideal)``.  A circuit with no noise site runs
the ideal alone, draws nothing, and gives
``Estimate(observe(ideal, ideal), 0.0)``.

Noise realization per trajectory, given the trajectory seed:

1. the trajectory's generator is in the state of a fresh
   ``Generator(Philox(seed))``.  One generator serves a whole run, and
   before each trajectory it is given that seed's key, counter 0 and an
   empty buffer.  The keys of seeds below 2^128 are derived many at a
   time by array operations that repeat ``SeedSequence(seed)``'s word
   hash; from 2^128 on a seed has more than four entropy words, and its
   key comes from ``SeedSequence`` itself;
2. one block ``rng.random(len(sites))`` is drawn, where sites are the
   gates with a nonzero rate for their channel (IDLE -> eps0, other
   one-qubit -> eps1, two-qubit -> eps2), in circuit order;
3. for each site whose uniform fell below its rate, in the same order,
   one ``rng.integers(0, n_choices)`` picks the Pauli to insert after
   that gate: uniformly from {X, Y, Z} on the target of a one-qubit or
   IDLE site, uniformly from the 15 non-identity two-qubit Pauli
   products, ordered (I,X), (I,Y), (I,Z), (X,I), (X,X), ... on a
   two-qubit site.

Trajectories use seeds seed, seed+1, ..., so the whole estimate is a
pure function of (circuit, noise, n_traj, seed).
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from ..model import ErrorBudget, Record
from .circuit import Circuit
from .gates import _SQ2, _T_PHASE, Gate

#: A register state: 2^n complex128 amplitudes, qubit 0 = high bit.
QuantumState = np.ndarray

PAULI_1Q = ("X", "Y", "Z")

_PAULI_NAMES = ("I", "X", "Y", "Z")

#: The 15 non-identity two-qubit Pauli products, row-major over
#: (first qubit, second qubit) with (I, I) skipped.
PAULI_PAIRS = tuple(
    (_PAULI_NAMES[k // 4], _PAULI_NAMES[k % 4]) for k in range(1, 16)
)


class NoiseModel(Record):
    """Stochastic Pauli insertion driven by an :class:`ErrorBudget`."""

    budget: ErrorBudget

    @property
    def is_null(self) -> bool:
        b = self.budget
        return b.eps0 == 0.0 and b.eps1 == 0.0 and b.eps2 == 0.0


class Estimate(NamedTuple):
    """Mean of an observable over trajectories, with its standard error."""

    mean: float
    std_error: float


def _rz_phases(theta: float) -> tuple[complex, complex]:
    """RZ(theta)'s factors on target bit 0 and target bit 1."""
    half = theta / 2.0
    return cmath.exp(-1j * half), cmath.exp(1j * half)


def _one_qubit(gate: Gate, a: np.ndarray, b: np.ndarray, scratch: np.ndarray) -> None:
    """A one-qubit gate on the amplitude pairs (a, b): target bit 0, 1.

    ``scratch`` is a flat complex128 area of at least 2 * a.size
    amplitudes that holds H's and RX's temporaries (H: a - b; RX: the
    products sv * b and sv * a), each shaped like ``a``; its contents
    before and after the call mean nothing.
    """
    kind = gate.kind
    if kind == "X":
        tmp = a.copy()
        a[:] = b
        b[:] = tmp
    elif kind == "Z":
        b *= -1.0
    elif kind == "H":
        tmp = np.subtract(a, b, out=scratch[:a.size].reshape(a.shape))
        a += b
        a *= _SQ2
        np.multiply(tmp, _SQ2, out=b)
    elif kind == "T":
        b *= _T_PHASE
    elif kind == "S":
        b *= 1j
    elif kind == "Y":
        tmp = a.copy()
        np.multiply(b, -1j, out=a)
        np.multiply(tmp, 1j, out=b)
    elif kind == "RZ":
        phase_0, phase_1 = _rz_phases(gate.theta)
        a *= phase_0
        b *= phase_1
    elif kind == "RX":
        c = math.cos(gate.theta / 2.0)
        sv = -1j * math.sin(gate.theta / 2.0)
        sv_b = np.multiply(sv, b, out=scratch[:a.size].reshape(a.shape))
        sv_a = np.multiply(sv, a, out=scratch[a.size:2 * a.size].reshape(a.shape))
        a *= c
        a += sv_b
        b *= c
        b += sv_a
    else:
        raise AssertionError(f"unhandled kind {kind!r}")


def _apply_inplace(state: np.ndarray, gate: Gate, n: int, scratch: np.ndarray) -> None:
    """Apply a one-qubit gate or a CZ in place to ``state``, a (lead,
    2^n, trail) view of a block's joined rows or of one row (see the
    module docstring), with ``scratch`` of at least state.size amplitudes
    for ``_one_qubit``.  A CNOT never reaches the kernel: on n >= 2
    qubits it is part of a stretch."""
    kind = gate.kind
    if kind == "IDLE":
        return
    lead, _, trail = state.shape
    if not gate.is_two_qubit:
        q = gate.targets[0]
        m = state.reshape(lead << q, 2, 1 << (n - q - 1), trail)
        _one_qubit(gate, m[:, 0], m[:, 1], scratch)
        return
    if kind != "CZ":
        raise AssertionError(f"unhandled kind {kind!r}")
    p0, p1 = sorted(gate.targets)
    v = state.reshape(lead << p0, 2, 1 << (p1 - p0 - 1), 2, 1 << (n - p1 - 1), trail)
    v[:, 1, :, 1] *= -1.0


#: One trajectory's insertions: gate index -> Pauli gates applied after it.
_Insertions = dict[int, tuple[Gate, ...]]


@functools.cache
def _pauli_gates(targets: tuple[int, ...], pick: int) -> tuple[Gate, ...]:
    """The Pauli gates of ``pick`` on ``targets``, built once per process:
    on 16 qubits at most 3 * 16 one-qubit and 15 * 240 two-qubit entries."""
    if len(targets) == 2:
        return tuple(Gate(p, (q,)) for p, q in zip(PAULI_PAIRS[pick], targets) if p != "I")
    return (Gate(PAULI_1Q[pick], targets),)


def _paulis(rng: np.random.Generator, targets: tuple[int, ...]) -> tuple[Gate, ...]:
    """The Pauli gates a firing site inserts: one ``rng.integers`` draw."""
    return _pauli_gates(targets, int(rng.integers(0, 15 if len(targets) == 2 else 3)))


class _Sites(Record):
    """A circuit's insertion sites, in circuit order: site s is gate
    ``index[s]`` of ``gates``, which fires at ``rate[s]``.  Zero-rate
    channels contribute none.  Its fields are arrays, so it compares and
    hashes by identity."""

    index: np.ndarray
    rate: np.ndarray
    gates: tuple[Gate, ...]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __len__(self) -> int:
        return self.index.size

    def fire(self, rng: np.random.Generator) -> _Insertions:
        """One trajectory's insertions drawn from ``rng``: one block
        ``rng.random(len(self))``, then one Pauli draw for each site whose
        uniform fell below its rate, in order (see the module docstring)."""
        fired = self.index[rng.random(self.index.size) < self.rate].tolist()
        return {g: _paulis(rng, self.gates[g].targets) for g in fired}


def noise_sites(circuit: Circuit, noise: NoiseModel) -> _Sites:
    """Insertion sites in circuit order: the gates whose channel's rate is
    nonzero (IDLE -> eps0, other one-qubit -> eps1, two-qubit -> eps2),
    with their rates, read off ``circuit.channels()``."""
    budget = noise.budget
    rates = np.array([budget.eps0, budget.eps1, budget.eps2])
    channel = circuit.channels()
    index = np.flatnonzero((rates != 0.0)[channel])
    return _Sites(index, rates[channel[index]], circuit.gates)


def sample_insertions(sites: _Sites, traj_seed: int) -> _Insertions:
    """Draw one trajectory's insertions with a fresh
    ``Generator(Philox(traj_seed))``; see the module docstring for the
    exact draw order.  This is the reference for the batched loop's
    ``_draws``."""
    return sites.fire(np.random.Generator(np.random.Philox(traj_seed)))


_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """init * mult^k mod 2^32 for k = 0..calls, as a uint32 column."""
    values = [init]
    for _ in range(calls):
        values.append(values[-1] * mult & _MASK32)
    return np.array(values, dtype=np.uint32)[:, None]


# numpy's SeedSequence hashes a seed below 2^128 as a pool of four uint32
# words (a missing word hashes as zero) and derives Philox's key from the
# pool.  Each call of its hashmix step takes the next value of a multiplier
# that advances whatever the data, so every call's constants are known in
# advance: 16 calls mix the pool, 4 draw the key's words.  The columns
# broadcast over seeds.
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_KEY_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 4)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)

#: Seeds from here on have more than four entropy words, which
#: ``SeedSequence`` mixes in by another loop; their keys come from it.
_ARRAY_SEEDS = 1 << 128


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s hashmix of row k of ``words`` (uint32, r rows),
    with the multiplier at ``consts[k]``; ``consts`` holds r + 1 values."""
    hashed = words ^ consts[:-1]
    hashed *= consts[1:]
    hashed ^= hashed >> 16
    return hashed


def _philox_keys(first: int, count: int) -> np.ndarray:
    """The Philox keys of seeds first, ..., first + count - 1, count at
    most 2^32, as a (count, 2) uint64 array: row i is
    ``SeedSequence(first + i).generate_state(2, np.uint64)``, the key
    ``Philox(first + i)`` starts from.  Seeds below ``_ARRAY_SEEDS`` are
    hashed together, a few uint32 array operations over all of them; the
    others one at a time by ``SeedSequence``."""
    keys = np.empty((count, 2), dtype=np.uint64)
    hashed = max(0, min(count, _ARRAY_SEEDS - first))
    if hashed:
        # the seeds' four 32-bit words, lowest first: the lowest counts up
        # and wraps at most once, carrying into the others
        pool = np.empty((4, hashed), dtype=np.uint32)
        pool[0] = np.arange(hashed, dtype=np.uint32)
        pool[0] += np.uint32(first & _MASK32)
        carry = min(hashed, (1 << 32) - (first & _MASK32))
        for k in (1, 2, 3):
            pool[k, :carry] = first >> 32 * k & _MASK32
            pool[k, carry:] = first + carry >> 32 * k & _MASK32
        pool = _hashmix(pool, _POOL_HASH[:5])
        # every word mixes into every other; a source word does not change
        # while it mixes, so its three hashes are taken at once
        for src in range(4):
            dst = [d for d in range(4) if d != src]
            mixed = pool[dst] * _MIX_L
            mixed -= _hashmix(pool[src], _POOL_HASH[4 + 3 * src:8 + 3 * src]) * _MIX_R
            mixed ^= mixed >> 16
            pool[dst] = mixed
        # a key is two little-endian uint64s, as SeedSequence views them
        words = np.ascontiguousarray(_hashmix(pool, _KEY_HASH).T, dtype="<u4")
        keys[:hashed] = words.view("<u8")
    for i in range(hashed, count):
        keys[i] = np.random.SeedSequence(first + i).generate_state(2, np.uint64)
    return keys


def _draws(rng: np.random.Generator, sites: _Sites, first: int,
           count: int) -> Iterator[tuple[int, _Insertions]]:
    """Draw the insertions of trajectories 0..count-1, with seeds first,
    first + 1, ..., and yield (i, ``sample_insertions(sites, first + i)``)
    for each trajectory i that draws at least one; the others yield
    nothing.

    ``rng``, a Philox generator, is put in the state of a fresh
    ``Generator(Philox(first + i))`` before trajectory i: that seed's key,
    counter 0 and an empty output buffer.  Keys are derived for as many
    trajectories at a time as keep them within about one block's bytes.
    """
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    # a key held as a Python list takes about 170 bytes, so a chunk of
    # keys stays below one block's bytes
    chunk = max(1, _BATCH_BYTES >> 8)
    for start in range(0, count, chunk):
        keys = _philox_keys(first + start, min(chunk, count - start)).tolist()
        for i, key in enumerate(keys, start):
            state["state"]["key"] = key
            rng.bit_generator.state = state
            insertions = sites.fire(rng)
            if insertions:
                yield i, insertions


def run_with_insertions(circuit: Circuit, insertions: _Insertions) -> QuantumState:
    """Run the circuit from |0...0>, applying each insertion right after
    its gate: the circuit's plan walked as a block of one row.  In the
    package only ``run_ideal`` calls it; ``perfbench/replay.py`` times
    it."""
    scratch = np.empty(1 << circuit.n_qubits, dtype=np.complex128)
    return _run_block(_Plan(circuit), [insertions], scratch)[0]


def run_ideal(circuit: Circuit) -> QuantumState:
    """The noiseless run of the whole circuit from |0...0>."""
    return run_with_insertions(circuit, {})


#: Amplitudes per ``np.vdot`` call in ``state_fidelity``.  OpenBLAS
#: splits a longer dot product across threads, so its bits depend on the
#: thread count; chunks of 4,096 were measured to give the same bits at
#: 1, 2 and 4 threads.
_VDOT_CHUNK = 4096


def _chunked_vdot(a: QuantumState, b: QuantumState) -> complex:
    """``np.vdot`` summed over consecutive chunks of ``_VDOT_CHUNK``
    amplitudes, in order."""
    return sum(np.vdot(a[i:i + _VDOT_CHUNK], b[i:i + _VDOT_CHUNK])
               for i in range(0, a.size, _VDOT_CHUNK))


def state_fidelity(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>|^2 normalized by both norms; exactly 1.0 for identical states.
    Its bits do not depend on the BLAS thread count: up to 12 qubits each
    dot product is one ``np.vdot`` call, beyond that a chunked sum."""
    vdot = np.vdot if a.size <= _VDOT_CHUNK else _chunked_vdot
    overlap = vdot(a, b)
    denom = vdot(a, a).real * vdot(b, b).real
    return float((overlap.real ** 2 + overlap.imag ** 2) / denom)


#: Cap on the bytes of one block of trajectory states: a block holds
#: max(1, _BATCH_BYTES // (16 * 2^n)) rows of 2^n amplitudes.
_BATCH_BYTES = 1 << 20

#: Blocks of at least this many rows are stored rows innermost.  Rows join
#: a block late, and stored innermost a few joined rows make short runs:
#: at 2 to 4 rows on 10 qubits row-major is faster, from 16 rows on rows
#: innermost is 10-25% faster on 6 and 10 qubits.  Search blocks hold at
#: most 4 rows, decay blocks about 100 to 560.
_WIDE = 16

#: Elements of numpy's ufunc buffer while a rows-innermost block runs.
#: numpy 2.4 copies a pass through its buffer (8,192 elements by
#: default) whenever the pass's contiguous runs are shorter than about a
#: third of it: ``a *= c`` over 32 runs of 2,500 amplitudes took 111 us
#: with the default buffer and 40 us with this one, over 32 runs of 2,731
#: 44 us with either.  A wide block's runs are as short as its joined
#: rows, 1 to 1,024.  The blocks of a seed-101 decay scenario (87
#: to 544 rows, 6 qubits) ran in 0.070 s for buffers of 16 to 256
#: elements, 0.073 s at 512, 0.087 s at 1,024 and 0.123 s at 8,192 (2-vCPU
#: Xeon, numpy 2.4.6, best of 7).  A buffered and an unbuffered pass run
#: the same inner loop on the same values, so no bit moves.
_WIDE_BUFSIZE = 256


def _xor_span(values: list[int]) -> np.ndarray:
    """a[x] = the XOR of values[p] over the set bits p of x (bit 0 the
    lowest), for every x below 2^len(values), as an intp array: n XOR
    passes that double the array, no parity counts."""
    a = np.zeros(1 << len(values), dtype=np.intp)
    for p, value in enumerate(values):
        np.bitwise_xor(a[:1 << p], value, out=a[1 << p:2 << p])
    return a


def _odd(n: int, mask: int) -> np.ndarray:
    """parity(mask & x) for every x below 2^n, as a bool array."""
    return _xor_span([mask >> p & 1 for p in range(n)]).astype(bool)


def _phases(angle: np.ndarray) -> np.ndarray:
    """exp(1j * phase) as a 2^n array, phase[x] the sum over m of
    angle[m] * (-1)^parity(m & x): one Walsh-Hadamard transform of
    ``angle``, which it overwrites, its butterflies taken from the lowest
    bit up."""
    other = np.empty_like(angle)
    for p in range(angle.size.bit_length() - 1):
        a, b = angle.reshape(-1, 2, 1 << p), other.reshape(-1, 2, 1 << p)
        np.add(a[:, 0], a[:, 1], out=b[:, 0])
        np.subtract(a[:, 0], a[:, 1], out=b[:, 1])
        angle, other = other, angle
    return np.exp(1j * angle)


def _gather(view: np.ndarray, source: np.ndarray, scratch: np.ndarray) -> None:
    """Move the amplitude at ``source[y]`` of every row of ``view``, a
    (lead, 2^n, trail) view, to y, through ``scratch``."""
    moved = scratch[:view.size].reshape(view.shape)
    np.take(view, source, axis=1, out=moved, mode="clip")
    np.copyto(view, moved)


def _cnot(masks: list[int], columns: list[int], pair: tuple[int, int]) -> None:
    """Apply CNOT(c, t), ``pair`` = (c, t), to a stretch's masks and
    columns: m_t ^= m_c and d_c ^= d_t."""
    control, target = pair
    masks[target] ^= masks[control]
    columns[control] ^= columns[target]


class _Stretch(NamedTuple):
    """A stretch of CNOT and RZ gates on n >= 2 qubits, read once (see
    the module docstring): for each RZ in order, its ``offset`` in the
    stretch, its qubit's ``mask`` there and its ``half`` angle; each
    CNOT's (control, target) pair in order, ``cnots``; and the flush's
    ``phase`` column and gather ``source``, each None where the flush
    skips that pass."""

    offset: np.ndarray
    mask: np.ndarray
    half: np.ndarray
    cnots: list[tuple[int, int]]
    phase: np.ndarray | None
    source: np.ndarray | None

    @classmethod
    def read(cls, unit: list[int], gates: tuple[Gate, ...]) -> "_Stretch":
        """One pass over the gates from the identity map ``unit``, the
        only one that reads them.  The flush's gather moves to index y the
        amplitude at the XOR of the final columns of y's bits."""
        masks, columns, rz, cnots = unit.copy(), unit.copy(), [], []
        for j, gate in enumerate(gates):
            if gate.kind == "CNOT":
                cnots.append(gate.targets)
                _cnot(masks, columns, gate.targets)
            else:
                rz.append((j, masks[gate.targets[0]], gate.theta / 2.0))
        offset, mask, half = zip(*rz) if rz else ((), (), ())
        stretch = cls(np.array(offset, dtype=np.intp), np.array(mask, dtype=np.intp),
                      np.array(half, dtype=np.float64), cnots, None, None)
        return stretch._replace(
            phase=stretch.phases(len(unit))[:, None] if rz else None,
            source=None if columns == unit else _xor_span(columns[::-1]))

    def phases(self, n: int, xs: Sequence[tuple[int, int]] = ()) -> np.ndarray:
        """The 2^n phases of the coefficients at the end of the stretch,
        for a row whose X's inside it are ``xs``, each as (RZ gates before
        it, column d), in order.  The coefficients are built by one
        ``np.subtract.at`` of half angles per segment between X's, and each
        X negates those already set whose mask has an odd overlap with d."""
        angle = np.zeros(1 << n)
        present = np.zeros(1 << n, dtype=bool)
        done = 0
        for count, column in xs:
            np.subtract.at(angle, self.mask[done:count], self.half[done:count])
            present[self.mask[done:count]] = True
            np.negative(angle, out=angle, where=present & _odd(n, column))
            done = count
        np.subtract.at(angle, self.mask[done:], self.half[done:])
        return _phases(angle)


class _Plan:
    """A circuit compiled once for ``_run_block`` and the noise sites (see
    the module docstring).  ``steps`` lists (first, stop, stretch): a
    kernel gate ``gates[first]``, with stop = first + 1 and stretch None,
    or on n >= 2 qubits a stretch gates[first:stop] of CNOT and RZ with
    its ``_Stretch``, one object for all the stretches of the same Gate
    objects.  The plan numbers nothing itself: a stretch is keyed by the
    circuit's codes of its gates."""

    def __init__(self, circuit: Circuit) -> None:
        n, gates, code = circuit.n_qubits, circuit.gates, circuit.code
        self.n, self.gates = n, gates
        self.unit = [1 << (n - 1 - q) for q in range(n)]  # each qubit's mask and column
        in_stretch = np.array([n >= 2 and gate.kind in ("CNOT", "RZ")
                               for gate in circuit.distinct], dtype=np.int8)[code]
        # stretch edges alternate: a first gate, then the gate after the last
        edges = np.flatnonzero(np.diff(in_stretch, prepend=0, append=0)).tolist()
        stretches: dict[bytes, _Stretch] = {}  # keyed by the codes of its gates
        self.steps: list[tuple[int, int, _Stretch | None]] = []
        done = 0
        for first, stop in zip(edges[::2], edges[1::2]):
            self.steps += [(g, g + 1, None) for g in range(done, first)]
            key = code[first:stop].tobytes()
            if key not in stretches:
                stretches[key] = _Stretch.read(self.unit, gates[first:stop])
            self.steps.append((first, stop, stretches[key]))
            done = stop
        self.steps += [(g, g + 1, None) for g in range(done, len(gates))]


def _run_block(plan: _Plan, block: list[_Insertions],
               scratch: np.ndarray) -> np.ndarray:
    """Run each entry of ``block`` as one row of a block of registers,
    walking ``plan``'s steps, and return the block as a contiguous (rows,
    2^n) array.

    ``scratch``, a flat complex128 area of at least rows * 2^n amplitudes
    that the run owns, holds the temporaries of H and RX and of a
    stretch's gather.  A block of at least ``_WIDE`` rows is stored rows
    innermost, as a (2^n, rows) array, so that every pass of a gate walks
    the joined rows of each amplitude as one contiguous run; once the
    last step has run it is transposed back to contiguous rows in
    ``scratch``, and the array returned is that view of ``scratch``.  A
    narrower block is stored row-major, as the (rows, 2^n) array it
    returns.  A rows-innermost block walks its steps under a ufunc buffer
    of ``_WIDE_BUFSIZE`` elements, since the default one makes numpy copy
    nearly every pass over its joined rows; the caller's buffer size is
    set back before the block returns or raises.

    Each step acts once on the rows that have joined, the first
    ``active``; an insertion then acts on its own row, so every row sees
    the operations of a run of its own in their order.  If row 0 is the
    ideal run (no insertions), the other rows, ordered by their first
    insertion, join as copies of row 0 just after that insertion's gate:
    up to there a row sees exactly the ideal run's operations.  Otherwise
    every row runs from |0...0>.

    A kernel step goes through ``_apply_inplace``, and so does an
    insertion after it.  Every stretch step ends in its ``_Stretch``'s
    flush: one multiply by its phase column, then one gather.  Where rows
    join or take insertions inside the stretch, its CNOTs up to each such
    gate, a slice of the stretch's ``cnots``, are replayed, the joins and
    Paulis act there (see the module docstring), and a row that took an X
    multiplies by its own phases, through a contiguous copy, in place of
    the phase column.
    Either way a stretch is flushed where the circuit puts it, whatever
    rows the block holds.
    """
    n, gates = plan.n, plan.gates
    wide = len(block) >= _WIDE
    states = np.zeros((1 << n, len(block)) if wide else (len(block), 1 << n),
                      dtype=np.complex128)
    grid = states.T if wide else states  # grid[r] is row r's amplitudes

    def head(active: int) -> np.ndarray:
        """The joined rows as a (lead, 2^n, trail) view."""
        return grid[:active].T[None] if wide else grid[:active, :, None]

    active = len(block)
    joined: dict[int, int] = {}  # gate index -> rows joined once its joins are in
    if not block[0]:
        active = 1
        for r, insertions in enumerate(block[1:], start=2):
            joined[min(insertions)] = r
    grid[:active, 0] = 1.0
    after: dict[int, list[tuple[int, tuple[Gate, ...]]]] = {}
    for r, insertions in enumerate(block):
        for index, paulis in insertions.items():
            after.setdefault(index, []).append((r, paulis))
    view = head(active)

    def join(g: int) -> None:
        """The rows that join after gate g, as copies of row 0."""
        nonlocal active, view
        if g in joined:
            grid[active:joined[g]] = grid[0]
            active = joined[g]
            view = head(active)

    marks = iter(sorted(after))
    mark = next(marks, len(gates))  # the next gate with an insertion after it
    bufsize = np.setbufsize(_WIDE_BUFSIZE) if wide else None
    try:
        for first, stop, stretch in plan.steps:
            if stretch is None:
                _apply_inplace(view, gates[first], n, scratch)
                if mark == first:
                    join(first)
                    for r, paulis in after[first]:
                        for pauli in paulis:
                            _apply_inplace(grid[r][None, :, None], pauli, n, scratch)
                    mark = next(marks, len(gates))
                continue
            xs: dict[int, list[tuple[int, int]]] = {}  # row -> its X's here
            masks, columns, done = plan.unit.copy(), plan.unit.copy(), 0
            while mark < stop:
                # of the gates up to offset mark - first, count are RZs, the rest CNOTs
                count = int(np.searchsorted(stretch.offset, mark - first, side="right"))
                cnots = mark - first + 1 - count
                for pair in stretch.cnots[done:cnots]:
                    _cnot(masks, columns, pair)
                done = cnots
                join(mark)
                for r, paulis in after[mark]:
                    row = grid[r]
                    for pauli in paulis:
                        q, kind = pauli.targets[0], pauli.kind
                        if kind != "X":
                            np.negative(row, out=row, where=_odd(n, masks[q]))
                        if kind != "Z":
                            moved = scratch[:row.size]
                            np.take(row, np.arange(row.size) ^ columns[q], out=moved, mode="clip")
                            row[:] = moved
                            xs.setdefault(r, []).append((count, columns[q]))
                        if kind == "Y":
                            row *= 1j
                mark = next(marks, len(gates))
            if stretch.phase is not None:
                # a row that took an X multiplies by its own phases through a
                # contiguous copy, as a one-row run does, and is put back
                # over the block's multiply
                own = []
                for k, (r, row_xs) in enumerate(xs.items()):
                    row = scratch[k << n:(k + 1) << n]
                    np.copyto(row, grid[r])
                    row *= stretch.phases(n, row_xs)
                    own.append((r, row))
                view *= stretch.phase
                for r, row in own:
                    grid[r] = row
            if stretch.source is not None:
                _gather(view, stretch.source, scratch)
    finally:
        if wide:
            np.setbufsize(bufsize)
    if not wide:
        return states
    out = scratch[:states.size].reshape(grid.shape)
    np.copyto(out, grid)
    return out


def _blocks(sites: _Sites, n_traj: int, seed: int,
            rows: int) -> Iterator[tuple[list[int], list[_Insertions]]]:
    """Draw the trajectories' insertions in order and yield those that drew
    at least one as (trajectories, insertions) blocks of at most ``rows``,
    ordered by first insertion; a trajectory that drew none is in no block.
    The first block, yielded even when no trajectory drew anything,
    begins with the ideal row; a later block does when it holds more
    than two rows, since below that the ideal row costs more gate-rows
    than the late joins save.  The draws come from ``_draws``, with one
    generator for the whole run."""
    rng = np.random.Generator(np.random.Philox(seed))
    head: list[_Insertions] = [{}]
    noisy: list[tuple[int, _Insertions]] = []

    def block() -> tuple[list[int], list[_Insertions]]:
        noisy.sort(key=lambda entry: min(entry[1]))
        return [i for i, _ in noisy], head + [insertions for _, insertions in noisy]

    for i, insertions in _draws(rng, sites, seed, n_traj):
        if len(head) + len(noisy) == rows:
            yield block()
            head, noisy = [{}] if rows > 2 else [], []
        noisy.append((i, insertions))
    yield block()


def mean_over_trajectories(
        circuit: Circuit, noise: NoiseModel, n_traj: int, seed: int,
        observe: Callable[[QuantumState, QuantumState], float]) -> Estimate:
    """Mean and standard error of ``observe(ideal, state)`` over n_traj
    trajectories' final states; trajectory i uses seed+i.  The ideal run
    and the trajectories that drew an insertion run as the rows of blocks
    of at most ``_BATCH_BYTES``; see the module docstring.  One scratch
    area, the size of the largest block, serves every block in turn (see
    ``_run_block``).  A count whose per-trajectory values cannot be held
    raises MemoryError with a message that names ``trajectories``."""
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    n = circuit.n_qubits
    plan = _Plan(circuit)
    sites = noise_sites(circuit, noise)
    if not len(sites):
        ideal = _run_block(plan, [{}], np.empty(1 << n, dtype=np.complex128))[0]
        return Estimate(observe(ideal, ideal), 0.0)
    # On one qubit, T and RZ multiply a single amplitude per row, and numpy
    # rounds a one-element complex product differently from the same
    # product inside its vector loop; so those rows run one at a time.
    rows = 1 if n == 1 else max(1, _BATCH_BYTES // (16 << n))
    try:
        values = np.empty(n_traj, dtype=np.float64)
        clean = np.ones(n_traj, dtype=bool)  # the trajectories in no block
    except (MemoryError, ValueError) as exc:  # ValueError: beyond the address space
        raise MemoryError(f"trajectories: {n_traj} is too many to hold in memory "
                          "(9 bytes each)") from exc
    scratch = np.empty(0, dtype=np.complex128)
    ideal = None
    for owners, block in _blocks(sites, n_traj, seed, rows):
        if scratch.size < len(block) << n:
            scratch = np.empty(len(block) << n, dtype=np.complex128)
        states = _run_block(plan, block, scratch)
        if ideal is None:
            ideal = states[0].copy()
        for r, i in enumerate(owners, start=len(block) - len(owners)):
            values[i] = observe(ideal, states[r])
        clean[owners] = False
        del states  # free this block before the next one is allocated
    values[clean] = observe(ideal, ideal)
    std_error = float(values.std(ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else 0.0
    return Estimate(float(values.mean()), std_error)


def estimate_fidelity(circuit: Circuit, noise: NoiseModel, n_traj: int,
                      seed: int) -> Estimate:
    """Mean overlap with the ideal state over n_traj trajectories; a
    trajectory with no insertions contributes exactly 1.0."""
    return mean_over_trajectories(circuit, noise, n_traj, seed, state_fidelity)
