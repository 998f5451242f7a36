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

Its kernel, ``_apply_inplace``, applies a one-qubit gate or a CZ to
either layout as a (lead, 2^n, trail) view, the rows riding in ``lead``
or in ``trail``.

On n >= 2 qubits a block runs each stretch of CNOT and RZ gates, such
as a Grover phase network (the Gray-code networks of Welch, Greenbaum,
Mostame and Aspuru-Guzik, arXiv:1306.3991), as a phase polynomial (Amy,
Maslov and Mosca, arXiv:1303.2042).  With x the position of an
amplitude at the start of the stretch, the frame holds, as Python ints,
each qubit's mask m_q, whose parity with x is that qubit's current bit,
and its column d_q, the x whose current index has qubit q's bit alone
(column q of the inverse map).  A CNOT(c, t) moves no amplitude: it does
m_t ^= m_c and d_c ^= d_t.  An RZ(theta) on q adds -theta/2 to the
coefficient of m_q in a dict.  The frame is flushed only where the
circuit puts it, before any other gate and after the last: each
distinct dict's phases, sum over m of c[m] * (-1)^parity(m & x), come
from one Walsh-Hadamard transform of it, then ``exp(1j * angle)`` and
one multiply of its rows, and one gather moves the amplitude at x to
the index whose bit q is parity(m_q & x).  Parities are XORs over mask
bits, so no popcount is needed.

An insertion or a join inside a stretch acts in the frame, on its own
row: Z negates the amplitudes where parity(m_q & x) is odd; X moves the
amplitude at x to x ^ d_q, and the row takes its own copy of the dict
with every coefficient whose mask has an odd overlap with d_q negated;
Y is i X Z.  A joining row is a copy of row 0's unflushed amplitudes
and shares row 0's dict.  These steps are exact, and every rounded step
runs at the same points on the same values whatever block a row is in,
so a row's bits do not depend on the other rows of its block.

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
``_BATCH_BYTES``.  Every gate is applied once to the rows that have
joined the block, and a Pauli insertion afterwards to its own row.  In a
block led by the noiseless row, a row joins at its first insertion: just
after that gate it starts as a copy of the noiseless row, whose every
operation up to there it shares.  A noise site stores only its gate's
index, rate and targets; the Pauli gates of an insertion are built the
first time, in a process, that a site with those targets draws that Pauli.

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
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from ..model import ErrorBudget
from .circuit import Circuit
from .gates import _SQ2, _T_PHASE, CHANNEL_OF_KIND, Gate

#: A register state: 2^n complex128 amplitudes, qubit 0 = high bit.
QuantumState = np.ndarray

PAULI_1Q = ("X", "Y", "Z")

_PAULI_NAMES = ("I", "X", "Y", "Z")

#: The 15 non-identity two-qubit Pauli products, row-major over
#: (first qubit, second qubit) with (I, I) skipped.
PAULI_PAIRS = tuple(
    (_PAULI_NAMES[k // 4], _PAULI_NAMES[k % 4]) for k in range(1, 16)
)


@dataclass(frozen=True)
class NoiseModel:
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
    for ``_one_qubit``.  A CNOT never reaches the kernel: blocks on
    n >= 2 qubits run it in a ``_Frame``."""
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


#: One potential insertion point: (gate index, firing rate, gate targets).
_Site = tuple[int, float, tuple[int, ...]]

#: One trajectory's insertions: gate index -> Pauli gates applied after it.
_Insertions = dict[int, tuple[Gate, ...]]


def noise_sites(circuit: Circuit, noise: NoiseModel) -> list[_Site]:
    """Insertion sites in circuit order; zero-rate channels contribute none."""
    budget = noise.budget
    rates = (budget.eps0, budget.eps1, budget.eps2)
    return [(i, rate, gate.targets) for i, gate in enumerate(circuit.gates)
            if (rate := rates[CHANNEL_OF_KIND[gate.kind]]) != 0.0]


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


def sample_insertions(sites: list[_Site], traj_seed: int) -> _Insertions:
    """Draw one trajectory's insertions with a fresh
    ``Generator(Philox(traj_seed))``, one site at a time; see the module
    docstring for the exact draw order.  This is the reference for the
    batched loop's ``_draws``."""
    rng = np.random.Generator(np.random.Philox(traj_seed))
    if not sites:
        return {}
    uniforms = rng.random(len(sites))
    return {index: _paulis(rng, targets)
            for u, (index, rate, targets) in zip(uniforms.tolist(), sites) if u < rate}


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


def _draws(rng: np.random.Generator, sites: list[_Site], first: int,
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
    rates = np.array([rate for _, rate, _ in sites], dtype=np.float64)
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
            fired = (rng.random(len(sites)) < rates).nonzero()[0]
            if fired.size:
                yield i, {sites[s][0]: _paulis(rng, sites[s][2]) for s in fired.tolist()}


def run_with_insertions(circuit: Circuit, insertions: _Insertions) -> QuantumState:
    """Run the circuit from |0...0>, applying each insertion right after
    its gate, as a block of one row.  In the package only ``run_ideal``
    calls it; ``perfbench/replay.py`` times it."""
    scratch = np.empty(1 << circuit.n_qubits, dtype=np.complex128)
    return _run_block(circuit, [insertions], scratch)[0]


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


def _xor_span(values: list[int]) -> np.ndarray:
    """a[x] = the XOR of values[p] over the set bits p of x (bit 0 the
    lowest), for every x below 2^len(values), as an intp array: n XOR
    passes that double the array, no parity counts."""
    a = np.zeros(1 << len(values), dtype=np.intp)
    for p, value in enumerate(values):
        np.bitwise_xor(a[:1 << p], value, out=a[1 << p:2 << p])
    return a


class _Frame:
    """The phase-polynomial frame of a stretch of CNOT and RZ gates on
    n >= 2 qubits, for one block (see the module docstring).  With x the
    position of an amplitude at the start of the stretch, qubit q's bit
    of its logical index is parity(masks[q] & x), and columns[q] is the x
    whose logical index has qubit q's bit alone.  A row's pending phase
    at x is the sum over m of c[m] * (-1)^parity(m & x), with c the
    ``shared`` coefficients or, once an X acted on the row inside the
    stretch, the row's ``own``.  Masks and columns are Python ints, qubit
    0 the high bit."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.unit = [1 << (n - 1 - q) for q in range(n)]
        self.reset()

    def reset(self) -> None:
        """Start a stretch: the identity map and no phase."""
        self.masks = self.unit.copy()
        self.columns = self.unit.copy()
        self.shared: dict[int, float] = {}
        self.own: dict[int, dict[int, float]] = {}
        self.coefficients = [self.shared]  # shared, then every row's own
        self.pending = False

    def cnot(self, control: int, target: int) -> None:
        self.masks[target] ^= self.masks[control]
        self.columns[control] ^= self.columns[target]
        self.pending = True

    def rz(self, q: int, theta: float) -> None:
        mask, half = self.masks[q], theta / 2.0
        for c in self.coefficients:
            c[mask] = c.get(mask, 0.0) - half
        self.pending = True

    def pauli(self, grid: np.ndarray, r: int, gate: Gate, scratch: np.ndarray) -> None:
        """An X, Y or Z on row r, ``grid[r]`` its 2^n amplitudes, inside
        the stretch (see the module docstring)."""
        q, kind, row = gate.targets[0], gate.kind, grid[r]
        if kind != "X":
            odd = _xor_span([self.masks[q] >> p & 1 for p in range(self.n)])
            np.negative(row, out=row, where=odd.astype(bool))
        if kind != "Z":
            column = self.columns[q]
            moved = scratch[:row.size]
            np.take(row, np.arange(row.size) ^ column, out=moved, mode="clip")
            row[:] = moved
            c = self.own.get(r, self.shared)
            self.own[r] = {m: -v if (m & column).bit_count() & 1 else v
                           for m, v in c.items()}
            self.coefficients = [self.shared, *self.own.values()]
        if kind == "Y":
            row *= 1j

    def _phases(self, c: dict[int, float]) -> np.ndarray:
        """exp(1j * angle) as a 2^n column, angle[x] the sum over m of
        c[m] * (-1)^parity(m & x): one Walsh-Hadamard transform, its
        butterflies taken from the lowest bit up."""
        angle = np.zeros(1 << self.n)
        angle[list(c)] = list(c.values())
        other = np.empty_like(angle)
        for p in range(self.n):
            a, b = angle.reshape(-1, 2, 1 << p), other.reshape(-1, 2, 1 << p)
            np.add(a[:, 0], a[:, 1], out=b[:, 0])
            np.subtract(a[:, 0], a[:, 1], out=b[:, 1])
            angle, other = other, angle
        return np.exp(1j * angle)[:, None]

    def flush(self, view: np.ndarray, grid: np.ndarray, scratch: np.ndarray) -> None:
        """End the stretch on the joined rows, ``view`` as a (lead, 2^n,
        trail) view and ``grid[r]`` row r: multiply each row by its
        coefficients' phases, then gather the amplitude at x to its
        logical index, and start a new stretch."""
        if self.shared:
            phase = self._phases(self.shared)
            if not self.own:
                view *= phase
            else:
                # row by row through a contiguous copy, as a one-row run
                # multiplies, whatever the layout's stride
                row = scratch[:1 << self.n]
                for r in range(view.size >> self.n):
                    c = self.own.get(r)
                    np.copyto(row, grid[r])
                    row *= (phase if c is None else self._phases(c))[:, 0]
                    grid[r] = row
        if self.columns != self.unit:
            # the amplitude for logical index y sits at the XOR of the
            # columns of y's set bits
            source = _xor_span(self.columns[::-1])
            moved = scratch[:view.size].reshape(view.shape)
            np.take(view, source, axis=1, out=moved, mode="clip")
            np.copyto(view, moved)
        self.reset()


def _run_block(circuit: Circuit, block: list[_Insertions],
               scratch: np.ndarray) -> np.ndarray:
    """Run each entry of ``block`` as one row of a block of registers and
    return the block as a contiguous (rows, 2^n) array.

    ``scratch``, a flat complex128 area of at least rows * 2^n amplitudes
    that the run owns, holds the temporaries of H and RX.  A block of at
    least ``_WIDE`` rows is stored rows innermost, as a (2^n, rows)
    array, so that every pass of a gate walks the joined rows of each
    amplitude as one contiguous run; once the last gate has run it is
    transposed back to contiguous rows in ``scratch``, and the array
    returned is that view of ``scratch``.  A narrower block is stored
    row-major, as the (rows, 2^n) array it returns.

    Each gate acts once on the rows that have joined, the first
    ``active``; an insertion then acts on its own row, so every row sees
    the operations of a run of its own in their order.  If row 0 is the
    ideal run (no insertions), the other rows, ordered by their first
    insertion, join as copies of row 0 just after that insertion's gate:
    up to there a row sees exactly the ideal run's operations.  Otherwise
    every row runs from |0...0>.

    On n >= 2 qubits each stretch of CNOT and RZ gates runs in a
    ``_Frame``, flushed before any other gate and after the last one:
    where the circuit puts it, whatever rows the block holds.  An
    insertion or a join inside a stretch acts in the frame, on the
    amplitudes not yet flushed; an insertion where no stretch is pending
    goes through ``_apply_inplace``.  A one-qubit RZ pass holds one
    amplitude, so one-qubit blocks run gate by gate (see the module
    docstring).
    """
    n = circuit.n_qubits
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
    frame = _Frame(n) if n >= 2 else None
    view = head(active)
    for g, gate in enumerate(circuit.gates):
        kind = gate.kind
        if kind == "CNOT":
            frame.cnot(*gate.targets)
        elif kind == "RZ" and frame is not None:
            frame.rz(gate.targets[0], gate.theta)
        else:
            if frame is not None and frame.pending:
                frame.flush(view, grid, scratch)
            _apply_inplace(view, gate, n, scratch)
        inserted = after.get(g)
        if inserted is None:
            continue
        if g in joined:
            grid[active:joined[g]] = grid[0]
            active = joined[g]
            view = head(active)
        for r, paulis in inserted:
            for pauli in paulis:
                if frame is not None and frame.pending:
                    frame.pauli(grid, r, pauli, scratch)
                else:
                    _apply_inplace(grid[r][None, :, None], pauli, n, scratch)
    if frame is not None and frame.pending:
        frame.flush(view, grid, scratch)
    if not wide:
        return states
    out = scratch[:states.size].reshape(grid.shape)
    np.copyto(out, grid)
    return out


def _blocks(sites: list[_Site], n_traj: int, seed: int,
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
    ``_run_block``)."""
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    sites = noise_sites(circuit, noise)
    if not sites:
        ideal = run_ideal(circuit)
        return Estimate(observe(ideal, ideal), 0.0)
    n = circuit.n_qubits
    # On one qubit, T and RZ multiply a single amplitude per row, and numpy
    # rounds a one-element complex product differently from the same
    # product inside its vector loop; so those rows run one at a time.
    rows = 1 if n == 1 else max(1, _BATCH_BYTES // (16 << n))
    values = np.empty(n_traj, dtype=np.float64)
    clean = np.ones(n_traj, dtype=bool)  # the trajectories in no block
    scratch = np.empty(0, dtype=np.complex128)
    ideal = None
    for owners, block in _blocks(sites, n_traj, seed, rows):
        if scratch.size < len(block) << n:
            scratch = np.empty(len(block) << n, dtype=np.complex128)
        states = _run_block(circuit, block, scratch)
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
