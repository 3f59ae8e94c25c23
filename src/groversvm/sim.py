"""Dense statevector simulator with the minimal gate set the circuits here need.

Conventions used by every module in this package:

* Qubit 0 is the least-significant bit of the computational-basis index, so
  the basis state with index ``i`` has qubit ``q`` set iff ``(i >> q) & 1``.
* Multi-qubit registers are given as ordered qubit lists; position ``p`` in
  the list contributes bit ``p`` of the register's integer value.
* Every supported gate kind is an involution, so a circuit is inverted simply
  by reversing its gate list.

Public states are immutable.  :func:`run` copies its initial amplitudes once
into a private buffer (:func:`run_from_zero` writes |0...0> there instead),
updates that buffer gate by gate, and hands it to the returned state without
a copy; the norm is checked once, with ``np.vdot``.  Each gate shape (qubit
count, kind, targets, controls) gets an in-place kernel planned once and kept
in a bounded cache, so a repeated gate costs only its array work.  Kernels
view the buffer in the ``(2,)*n`` layout (axis ``a`` holds qubit ``n-1-a``)
or in a coarser reshape of it that gives the same bits.

Permutation gates are fused: each maximal run of consecutive X gates is one
strided copy of the ``(2,)*n`` view, reversed on every axis flipped an odd
number of times, and each run of two or more CNOT/MCX gates is one gather
through an int32 index array built by applying the run to an ``arange``.
The arrays are kept in a least-recently-used cache keyed by the run's gate
shapes and bounded by ``_PERMUTATION_CACHE_BYTES``; the same run reversed is
the inverse permutation, a scatter through the same array.  A run whose
array would not fit is applied gate by gate.  Either way the amplitudes are
bit for bit those of the per-gate kernels.

On a state of many tiles of ``_CACHE_ROW`` amplitudes, a run of consecutive
Hadamard, phase-oracle and diffusion gates (a search block) goes tile by
tile: when every gate acts on qubits ``lo`` and up, each block of columns of
the ``(2**(n-lo), 2**lo)`` view is copied into a cache-sized tile, every gate
of the run is applied to it with the per-gate kernels, and it is copied
back, so the run streams the state through memory twice rather than once
per gate.  Gates on low qubits split a run and go one at a time, as do
diffusions whose register is not the top block of qubits and runs too short
to repay the copies (see ``_TILE_MIN_SWEEPS`` and its neighbours).  Each
amplitude gets the same operations in the same order, so the bits are those
of the per-gate path.

From |0...0> (:func:`run_from_zero`), on a state of at least
``_PREFIX_MIN_QUBITS`` qubits, the longest run of leading gates that leaves
at least two qubits untouched runs on only the qubits it touches, renumbered
in order, and is written into a full-width buffer once (see
:func:`_from_zero`).  The run stops before a diffusion on a middle block of
qubits, whose mean would be summed in another order on the smaller state.
Each block of the full state fixes the untouched qubits and gets the same
operations, so the block where they are all 0 is the small result.  Every
other block starts at +0, and an oracle turns its marked entries into -0;
so when any oracle in the run marks a value, the run is applied once more
to an all +0 state, and that result fills those blocks.  Signed zeros
included, the bits are those of the full-width run.

A batch of circuits that differ only in their oracles (:func:`run_many`, as
for one Grover search per data point) runs as rows of one buffer, a chunk at
a time.  The gates before the first phase oracle run once and are copied
into every row.  After that, a Hadamard or a bottom-block diffusion is one
kernel call over the whole chunk, since its kernel never mixes amplitudes
of two rows; each phase oracle negates each row's own marked entries;
other gates go row by row.  So numpy calls are paid once per chunk rather
than once per circuit, and each row keeps the bits of its own run.

A phase-oracle gate carries the register values it marks and the oracle it
bills.  :func:`apply`, :func:`run` and :func:`run_many` bill each oracle one
query per time its gate is listed, counted from the gate list by
:func:`_bill`; no code that applies gates bills, so no path can change a
query count.  All randomness is injected through explicit seeds or
generators; a negative integer seed is a :class:`StructuralError`.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import groupby
from typing import Sequence

import numpy as np

from .errors import ContractViolationError, ResourceCapError, StructuralError

QUBIT_CAP = 24  # dense complex128 beyond this is not a desk-scale simulation

_NORM_ATOL = 1e-9
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_CACHE_ROW = 1 << 16  # amplitudes in a Hadamard row and in a tile: 1 MiB of complex128
_TILE_BITS = _CACHE_ROW.bit_length() - 1  # a tile is a state of this many qubits
# Where tiling beat gate-by-gate runs in measurements at 18 to 22 qubits: on a
# state of at least 2**_TILE_MIN_DROP tiles, with tile rows of at least
# 2**_TILE_MIN_ROW_BITS amplitudes (at least 1, or a diffusion's register
# would be summed in another order), for runs of at least _TILE_MIN_SWEEPS
# Hadamard or diffusion gates.
_TILE_MIN_DROP = 4
_TILE_MIN_ROW_BITS = 5
_TILE_MIN_SWEEPS = 8
# From-zero runs start on fewer qubits only from this width up: below it, in
# measurements at 10 to 20 qubits, the added calls cost more than the smaller
# sweeps save (kernel circuits ran 1.2-1.5x slower at 10-12 qubits, 0.86-0.93x
# at 14 and 0.68-0.82x at 16-20).
_PREFIX_MIN_QUBITS = 16
# Worst-case bytes of fused-run index arrays held at once: four int32 arrays
# at 20 qubits, one at 22.  A run whose array would exceed it is applied gate
# by gate.
_PERMUTATION_CACHE_BYTES = 16 << 20
# Amplitudes in the buffer ``run_many`` runs a chunk of states in (256 KiB);
# states of half of it or more run one at a time.  On 200 12-qubit searches,
# chunks of 4, 8 and 16 states took 0.68, 0.65 and 0.63 of the time of one at
# a time; in a faithful preprocessing run, 8 states raised peak RSS by 0.3 MB
# more than 4 did, and 16 states by 0.7 MB more.
_BATCH_AMPLITUDES = _CACHE_ROW >> 2

HADAMARD = "hadamard"
PAULI_X = "pauli_x"
CNOT = "cnot"
MCX = "mcx"
PHASE_ORACLE = "phase_oracle"
DIFFUSION = "diffusion"

GATE_KINDS = (HADAMARD, PAULI_X, CNOT, MCX, PHASE_ORACLE, DIFFUSION)


def as_rng(seed) -> np.random.Generator:
    """Accept a non-negative integer seed, a SeedSequence, or a ready Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise StructuralError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def seed32(seed) -> int:
    """A non-negative integer seed reduced to its low 32 bits, for SeedSequence entropy."""
    value = int(seed)
    if value < 0:
        raise StructuralError(f"seed must be a non-negative integer, got {seed}")
    return value & 0xFFFFFFFF


def _check_norm(amps: np.ndarray) -> None:
    norm_sq = np.vdot(amps, amps).real
    if abs(norm_sq - 1.0) > _NORM_ATOL:
        raise ContractViolationError(f"state not normalized: |norm^2 - 1| = {abs(norm_sq - 1.0):.3e}")


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over ``2**num_qubits`` basis states."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise StructuralError("num_qubits must be at least 1")
        if self.num_qubits > QUBIT_CAP:
            raise ResourceCapError(
                f"{self.num_qubits} qubits exceeds the dense cap of {QUBIT_CAP}"
            )
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.num_qubits,):
            raise StructuralError(
                f"expected {1 << self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        _check_norm(amps)
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _adopt(cls, num_qubits: int, amps: np.ndarray) -> "StateVector":
        """Wrap a private buffer without copying it; the caller must not write to it again."""
        _check_norm(amps)
        amps.flags.writeable = False
        state = object.__new__(cls)
        object.__setattr__(state, "num_qubits", num_qubits)
        object.__setattr__(state, "amplitudes", amps)
        return state

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        return cls.basis(num_qubits, 0)

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> "StateVector":
        if not 0 <= index < (1 << num_qubits):
            raise StructuralError(f"basis index {index} out of range for {num_qubits} qubits")
        amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(num_qubits, amps)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def fidelity(self, other: "StateVector") -> float:
        if other.num_qubits != self.num_qubits:
            raise StructuralError("qubit counts differ")
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)


@dataclass(frozen=True)
class Gate:
    """One gate instance.

    A phase oracle flips the sign of the basis states whose target-register
    value is in ``marked``, and bills ``oracle`` (an object with
    ``charge_queries``, or None) one query per application.  Neither field
    is part of the gate's shape, so gates that differ only there compare equal.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    marked: tuple[int, ...] = field(default=(), compare=False)
    oracle: object = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise StructuralError(f"unknown gate kind {self.kind!r}")
        targets = tuple(int(q) for q in self.targets)
        controls = tuple(int(q) for q in self.controls)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "controls", controls)
        if len(set(targets)) != len(targets) or len(set(controls)) != len(controls):
            raise StructuralError("duplicate qubit in gate")
        if set(targets) & set(controls):
            raise StructuralError("targets and controls must be disjoint")
        if any(q < 0 for q in targets + controls):
            raise StructuralError("negative qubit index")
        if self.kind in (HADAMARD, PAULI_X) and len(targets) != 1:
            raise StructuralError(f"{self.kind} takes exactly one target")
        if self.kind in (HADAMARD, PAULI_X) and controls:
            raise StructuralError(f"{self.kind} does not support controls; use cnot/mcx")
        if self.kind == CNOT and (len(targets) != 1 or len(controls) != 1):
            raise StructuralError("cnot takes one control and one target")
        if self.kind == MCX and (len(targets) != 1 or not controls):
            raise StructuralError("mcx takes one target and at least one control")
        marked = tuple(int(v) for v in self.marked)
        object.__setattr__(self, "marked", marked)
        if self.kind == PHASE_ORACLE:
            if not targets or controls:
                raise StructuralError("phase oracle acts on a nonempty uncontrolled register")
            if any(not 0 <= v < 1 << len(targets) for v in marked):
                raise StructuralError(f"marked value out of range for {len(targets)} qubits")
            if len(set(marked)) != len(marked):
                raise StructuralError("repeated marked value")
        elif marked or self.oracle is not None:
            raise StructuralError(f"{self.kind} marks no values and bills no oracle")
        if self.kind == DIFFUSION and (not targets or controls):
            raise StructuralError("diffusion acts on a nonempty uncontrolled register")

    def max_qubit(self) -> int:
        return max(self.targets + self.controls)


def hadamard(qubit: int) -> Gate:
    return Gate(HADAMARD, (qubit,))


def pauli_x(qubit: int, controls: Sequence[int] = ()) -> Gate:
    controls = tuple(controls)
    if not controls:
        return Gate(PAULI_X, (qubit,))
    if len(controls) == 1:
        return Gate(CNOT, (qubit,), controls)
    return Gate(MCX, (qubit,), controls)


def cnot(control: int, target: int) -> Gate:
    return Gate(CNOT, (target,), (control,))


def mcx(controls: Sequence[int], target: int) -> Gate:
    return Gate(MCX, (target,), tuple(controls))


def phase_oracle(register: Sequence[int], marked: Sequence[int], oracle=None) -> Gate:
    return Gate(PHASE_ORACLE, tuple(register), (), tuple(marked), oracle)


def diffusion(register: Sequence[int]) -> Gate:
    return Gate(DIFFUSION, tuple(register))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over a fixed qubit count."""

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise StructuralError("num_qubits must be at least 1")
        if self.num_qubits > QUBIT_CAP:
            raise ResourceCapError(
                f"{self.num_qubits} qubits exceeds the dense cap of {QUBIT_CAP}"
            )
        for gate in {id(gate): gate for gate in self.gates}.values():  # each object once
            if gate.max_qubit() >= self.num_qubits:
                raise StructuralError(
                    f"gate on qubit {gate.max_qubit()} exceeds circuit width {self.num_qubits}"
                )

    def inverse(self) -> "Circuit":
        # Valid because every supported gate kind is self-inverse.
        return Circuit(self.num_qubits, tuple(reversed(self.gates)))

    def __len__(self) -> int:
        return len(self.gates)


@lru_cache(maxsize=128)
def _register_values(num_qubits: int, register: tuple[int, ...]) -> np.ndarray:
    """Integer value of ``register`` for every basis index; position p is bit p."""
    idx = np.arange(1 << num_qubits, dtype=np.int64)
    values = np.zeros_like(idx)
    for p, q in enumerate(register):
        values |= ((idx >> q) & 1) << p
    values.flags.writeable = False
    return values


def _register_matrix(amps: np.ndarray, num_qubits: int, register: tuple[int, ...]):
    """Reshape to (complement, register) with register position p as value bit p."""
    reg_axes = {num_qubits - 1 - q for q in register}
    rest = [a for a in range(num_qubits) if a not in reg_axes]
    order = rest + [num_qubits - 1 - q for q in reversed(register)]
    mat = amps.reshape((2,) * num_qubits).transpose(order).reshape(-1, 1 << len(register))
    return mat, order


def _register_unmatrix(mat: np.ndarray, num_qubits: int, order: list[int]) -> np.ndarray:
    inv = np.argsort(order)
    return mat.reshape((2,) * num_qubits).transpose(inv).reshape(-1)


def _check_register(num_qubits: int, register: Sequence[int]):
    register = tuple(int(q) for q in register)
    if not register:
        raise StructuralError("empty register")
    if len(set(register)) != len(register):
        raise StructuralError("duplicate qubit in register")
    for q in register:
        if not 0 <= q < num_qubits:
            raise StructuralError(f"qubit {q} out of range for {num_qubits} qubits")
    return register


def _fixed(num_qubits: int, bits) -> tuple:
    """Index into the ``(2,)*n`` view fixing qubit ``q`` to ``b`` for each ``(q, b)``."""
    index = [slice(None)] * num_qubits
    for q, b in bits:
        index[num_qubits - 1 - q] = b
    return tuple(index) + (Ellipsis,)  # a 0-d view, not a scalar, when every axis is fixed


def _hadamard_plan(num_qubits: int, q: int):
    # The butterfly pairs the two halves of every block of 2**(q+1) amplitudes.
    # A state larger than _CACHE_ROW amplitudes is done one row at a time, so
    # that a row stays in cache from the butterfly to its scaling.  When a
    # contiguous run of 2**q amplitudes fits in one 64-byte cache line, numpy's
    # inner loops over it would be that short, so the butterfly runs over the
    # 2**q interleaved strided slices of the row instead.
    run = 1 << q
    row = min(1 << num_qubits, max(2 * run, _CACHE_ROW))
    columns = range(run) if run <= 4 else (slice(None),)

    def apply_row(block, marked=None):
        a = block.reshape(-1, 2, run)
        for r in columns:
            a0, a1 = a[:, 0, r], a[:, 1, r]
            total = a0 + a1
            np.subtract(a0, a1, out=a1)
            a0[...] = total
        block *= _INV_SQRT2

    if row == 1 << num_qubits:
        return apply_row

    def apply(psi, marked):
        for block in psi.reshape(-1, row):
            apply_row(block)

    return apply


def _swap_plan(num_qubits: int, target: int, controls: tuple[int, ...]):
    # Fix every control to 1 and swap the target-0 and target-1 slices.  Each
    # fixed qubit keeps an axis of 2; each run of adjacent free qubits is one axis.
    fixed = set(controls) | {target}
    shape, lower, upper = [], [], []
    for is_fixed, qubits in groupby(range(num_qubits - 1, -1, -1), key=fixed.__contains__):
        qubits = list(qubits)
        if is_fixed:
            shape.extend([2] * len(qubits))
            lower.extend(int(q != target) for q in qubits)
            upper.extend([1] * len(qubits))
        else:
            shape.append(1 << len(qubits))
            lower.append(slice(None))
            upper.append(slice(None))
    shape = tuple(shape)
    lower = tuple(lower) + (Ellipsis,)  # a 0-d view, not a scalar, when every axis is fixed
    upper = tuple(upper) + (Ellipsis,)

    def apply(psi, marked):
        view = psi.reshape(shape)
        view[lower], view[upper] = view[upper], view[lower].copy()

    return apply


def _phase_plan(num_qubits: int, targets: tuple[int, ...]):
    if targets == tuple(range(num_qubits)):
        def negate(psi, value):
            psi[value] = -psi[value]  # the register value is the basis index
    else:
        shape = (2,) * num_qubits

        def negate(psi, value):
            view = psi.reshape(shape)
            index = _fixed(num_qubits, ((q, (value >> p) & 1) for p, q in enumerate(targets)))
            view[index] = -view[index]

    def apply(psi, marked):
        # Negate the sub-view of each marked register value: the cost grows
        # with the marked amplitudes, and an oracle marking no value touches none.
        for value in marked:
            negate(psi, value)

    return apply


def _diffusion_plan(num_qubits: int, targets: tuple[int, ...]):
    # 2 * mean - psi, the mean taken over the register for each value of the
    # other qubits.  A register that is the bottom (or top) block of qubits is
    # the trailing (or leading) axis of a 2-D view; numpy sums both in the
    # same order as over the matching axes of the (2,)*n view.
    width = len(targets)
    register = set(targets)
    if register == set(range(width)):
        shape, axis = (-1, 1 << width), 1
    elif register == set(range(num_qubits - width, num_qubits)):
        shape, axis = (1 << width, -1), 0
    else:
        shape, axis = (2,) * num_qubits, tuple(num_qubits - 1 - q for q in targets)
    count = 1 << width

    def apply(psi, marked):
        view = psi.reshape(shape)
        mean = np.add.reduce(view, axis=axis, keepdims=True)
        np.true_divide(mean, count, out=mean)
        np.subtract(2.0 * mean, view, out=view)

    return apply


@lru_cache(maxsize=4096)
def _plan(num_qubits: int, kind: str, targets: tuple[int, ...], controls: tuple[int, ...]):
    """The in-place kernel ``apply(psi, marked)`` for one gate shape on ``num_qubits``.

    ``marked`` is a phase oracle's ``Gate.marked``; the other kinds ignore it.
    """
    if kind == HADAMARD:
        return _hadamard_plan(num_qubits, targets[0])
    if kind in (PAULI_X, CNOT, MCX):
        return _swap_plan(num_qubits, targets[0], controls)
    if kind == PHASE_ORACLE:
        return _phase_plan(num_qubits, targets)
    if kind == DIFFUSION:
        return _diffusion_plan(num_qubits, targets)
    raise StructuralError(f"unhandled gate kind {kind!r}")


def _apply_inplace(psi: np.ndarray, num_qubits: int, gate: Gate) -> None:
    """Apply ``gate`` to the contiguous buffer ``psi`` in place."""
    _plan(num_qubits, gate.kind, gate.targets, gate.controls)(psi, gate.marked)


def _bill(gates) -> None:
    """Charge each phase oracle's ``oracle`` one query per time its gate is in ``gates``."""
    for oracle, count in Counter(g.oracle for g in gates if g.oracle is not None).items():
        oracle.charge_queries(count)


def _apply_raw(amps: np.ndarray, num_qubits: int, gate: Gate) -> np.ndarray:
    """Return a new amplitude array: a copy of ``amps`` with ``gate`` applied; bills nothing."""
    psi = np.array(amps, dtype=np.complex128)
    _apply_inplace(psi, num_qubits, gate)
    return psi


def apply(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate and return the new state (norm preserved by construction)."""
    if gate.max_qubit() >= state.num_qubits:
        raise StructuralError(
            f"gate on qubit {gate.max_qubit()} out of range for {state.num_qubits} qubits"
        )
    _bill((gate,))
    amps = _apply_raw(state.amplitudes, state.num_qubits, gate)
    return StateVector._adopt(state.num_qubits, amps)


class _PermutationCache:
    """Gather indices of fused CNOT/MCX runs, least recently used evicted first.

    An entry is keyed by the qubit count and the run's ``(target, controls)``
    shapes.  Its int32 array ``perm`` satisfies ``out = psi[perm]`` for the run
    applied gate by gate.  The run reversed is the inverse permutation, since
    every gate is an involution, so it is the scatter ``out[perm] = psi`` with
    the same entry.  The arrays never hold more than ``max_bytes`` in total.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()

    def lookup(self, num_qubits: int, gates: list[Gate]):
        """``(perm, inverse)`` for the run, or None if an array would exceed the bound."""
        shapes = tuple((gate.targets[0], gate.controls) for gate in gates)
        for key, inverse in (((num_qubits, shapes), False), ((num_qubits, shapes[::-1]), True)):
            perm = self._entries.get(key)
            if perm is not None:
                self._entries.move_to_end(key)
                return perm, inverse
        nbytes = 4 << num_qubits
        if nbytes > self.max_bytes:
            return None
        perm = np.arange(1 << num_qubits, dtype=np.int32)
        for gate in gates:
            _apply_inplace(perm, num_qubits, gate)
        perm.flags.writeable = False
        while self.nbytes + nbytes > self.max_bytes:
            self.nbytes -= self._entries.popitem(last=False)[1].nbytes
        self._entries[num_qubits, shapes] = perm
        self.nbytes += nbytes
        return perm, False


_PERMUTATIONS = _PermutationCache(_PERMUTATION_CACHE_BYTES)
_FUSED = {PAULI_X: PAULI_X, CNOT: MCX, MCX: MCX}  # run kind of each permutation gate kind
_FROM_ZERO = object()  # ``run``'s initial state from ``run_from_zero``: |0...0>, never built
_TILED = "tiled"  # run kind of a gate that can be applied tile by tile


def _run_key(num_qubits: int):
    """The run kind ``run`` groups each gate by: a ``_FUSED`` kind, ``_TILED`` or None.

    A Hadamard, phase oracle or diffusion is ``_TILED`` when the state holds
    at least ``2**_TILE_MIN_DROP`` tiles and every qubit the gate acts on
    lies far enough above ``drop`` that a tile row holds at least
    ``2**_TILE_MIN_ROW_BITS`` amplitudes (see :func:`_apply_tiled`).  A
    diffusion must also act on the top block of qubits: its register mean is
    then a reduction over the leading axis, summed in the same order in a
    tile as in the whole state.
    """
    drop = num_qubits - _TILE_BITS
    if drop < _TILE_MIN_DROP:
        return lambda gate: _FUSED.get(gate.kind)

    def key(gate):
        kind = _FUSED.get(gate.kind)
        if kind is not None:
            return kind
        low = min(gate.targets)
        if low < drop + _TILE_MIN_ROW_BITS or (
            gate.kind == DIFFUSION and low != num_qubits - len(gate.targets)
        ):
            return None
        return _TILED

    return key


def _apply_tiled(psi: np.ndarray, num_qubits: int, gates, tile: np.ndarray) -> None:
    """Apply ``_TILED`` gates to ``psi`` one tile of ``_CACHE_ROW`` amplitudes at a time.

    Every gate acts on qubits ``lo`` and up only, so it acts on each column of
    the ``(2**(n-lo), 2**lo)`` view of the state alone.  A block of columns
    copied into ``tile`` is a state of ``_TILE_BITS`` qubits in which qubit
    ``q`` is qubit ``q - drop``; every gate runs on it with the per-gate
    kernel of that width, which computes each amplitude with the same
    operations, and the block is copied back.
    """
    drop = num_qubits - _TILE_BITS
    steps = [
        (_plan(_TILE_BITS, gate.kind, tuple(q - drop for q in gate.targets), ()), gate.marked)
        for gate in gates
    ]
    lo = min(min(gate.targets) for gate in gates)
    width = 1 << (lo - drop)
    view = psi.reshape(-1, 1 << lo)
    block = tile.reshape(-1, width)
    for start in range(0, 1 << lo, width):
        columns = view[:, start : start + width]
        np.copyto(block, columns)
        for plan, marked in steps:
            plan(tile, marked)
        np.copyto(columns, block)


def _flip_into(out: np.ndarray, psi: np.ndarray, num_qubits: int, gates) -> None:
    """Write ``psi`` with the X gates applied into ``out``: one strided copy."""
    flipped = [False] * num_qubits
    for gate in gates:
        axis = num_qubits - 1 - gate.targets[0]
        flipped[axis] = not flipped[axis]
    shape = (2,) * num_qubits
    index = tuple(slice(None, None, -1) if f else slice(None) for f in flipped)
    np.copyto(out.reshape(shape), psi.reshape(shape)[index])


def _evolve(psi: np.ndarray, num_qubits: int, gates) -> np.ndarray:
    """Apply ``gates`` to the buffer ``psi``; return the buffer that holds the result.

    Each run of consecutive X gates is one strided copy, each run of two or
    more CNOT/MCX gates is one gather (or scatter) through a cached index
    array, and each ``_TILED`` run with at least ``_TILE_MIN_SWEEPS``
    Hadamard or diffusion gates is applied tile by tile; the amplitudes are
    those of applying the gates one at a time.
    """
    n = num_qubits
    spare = None
    for kind, gates in groupby(gates, key=_run_key(n)):
        gates = list(gates)
        if kind == _TILED and sum(gate.kind != PHASE_ORACLE for gate in gates) >= _TILE_MIN_SWEEPS:
            if spare is None:
                spare = np.empty(_CACHE_ROW, dtype=np.complex128)
            _apply_tiled(psi, n, gates, spare[:_CACHE_ROW])
            continue
        found = _PERMUTATIONS.lookup(n, gates) if kind == MCX and len(gates) > 1 else None
        if kind != PAULI_X and found is None:
            for gate in gates:
                _apply_inplace(psi, n, gate)
            continue
        if spare is None or spare.size < psi.size:
            spare = None  # free a tile-sized buffer before making a state-sized one
            spare = np.empty_like(psi)
        if kind == PAULI_X:
            _flip_into(spare, psi, n, gates)
        else:
            perm, inverse = found
            if inverse:
                spare[perm] = psi
            else:
                # "clip" takes no whole-output buffer; slices bound the int64
                # copy numpy makes of the int32 indices to one cache row.
                for start in range(0, perm.size, _CACHE_ROW):
                    stop = start + _CACHE_ROW
                    np.take(psi, perm[start:stop], out=spare[start:stop], mode="clip")
        psi, spare = spare, psi
    return psi


def _zero_prefix(num_qubits: int, gates) -> tuple[int, int]:
    """Length and qubit mask of the leading gates ``run`` applies to fewer qubits.

    On a state of at least ``_PREFIX_MIN_QUBITS`` qubits, the prefix is the
    longest run of leading gates that leaves at least two qubits untouched
    and holds no diffusion on a middle block of qubits.  A top-block register
    that would be the whole smaller state gets the untouched qubit below it,
    so that its mean is still summed down columns, in the order of the full
    width.
    """
    n = num_qubits
    touched = length = 0
    if n < _PREFIX_MIN_QUBITS:
        return length, touched
    top_low = n  # lowest qubit of a top-block diffusion in the prefix
    for gate in gates:
        mask = 0
        for q in gate.targets + gate.controls:
            mask |= 1 << q
        if (touched | mask).bit_count() > n - 2:
            break
        if gate.kind == DIFFUSION and mask & (mask + 1):  # not the bottom block
            if mask >> (n - len(gate.targets)) != (1 << len(gate.targets)) - 1:
                break  # a middle block
            top_low = min(top_low, n - len(gate.targets))
        touched |= mask
        length += 1
    if touched & -touched == 1 << top_low:
        touched |= 1 << (top_low - 1)
    return length, touched


def _from_zero(num_qubits: int, gates) -> tuple[np.ndarray, tuple]:
    """|0...0> with the gates of its ``_zero_prefix`` applied, and the gates left.

    The prefix runs on a state of only the qubits it touches, renumbered in
    order, and is written into one block of a new full-width buffer.  Every
    other block, where some untouched qubit is 1, starts at +0 and gets the
    same operations, which can turn marked entries into -0: if any oracle
    marks a value, the prefix runs once more on all +0, and that result
    fills those blocks.
    """
    n = num_qubits
    length, touched = _zero_prefix(n, gates)
    if not length:
        psi = np.zeros(1 << n, dtype=np.complex128)
        psi[0] = 1.0
        return psi, gates
    position = {q: p for p, q in enumerate(q for q in range(n) if touched >> q & 1)}
    small = {}
    for gate in gates[:length]:
        if id(gate) not in small:
            small[id(gate)] = replace(
                gate,
                targets=tuple(position[q] for q in gate.targets),
                controls=tuple(position[q] for q in gate.controls),
            )
    prefix = [small[id(gate)] for gate in gates[:length]]
    width = len(position)
    block = np.zeros(1 << width, dtype=np.complex128)
    block[0] = 1.0
    block = _evolve(block, width, prefix)
    # Each run of adjacent qubits, touched or not, is one axis of the view.
    runs = [
        (inside, 1 << len(list(qubits)))
        for inside, qubits in groupby(range(n - 1, -1, -1), key=lambda q: touched >> q & 1)
    ]
    shape = [size for _, size in runs]
    kept = [size if inside else 1 for inside, size in runs]  # 1 on untouched axes
    if any(gate.marked for gate in prefix):
        rest = _evolve(np.zeros(1 << width, dtype=np.complex128), width, prefix)
        psi = np.empty(1 << n, dtype=np.complex128)
        np.copyto(psi.reshape(shape), rest.reshape(kept))
    else:
        psi = np.zeros(1 << n, dtype=np.complex128)
    psi.reshape(shape)[tuple(slice(size) for size in kept)] = block.reshape(kept)
    return psi, gates[length:]


def run(circuit: Circuit, initial: StateVector) -> StateVector:
    """Apply every gate of ``circuit`` in order to a private copy of ``initial``.

    The gates go through :func:`_evolve`; from |0...0> (``run_from_zero``)
    the leading gates that touch few qubits go through :func:`_from_zero`
    first.  Either way the amplitudes are those of applying the gates one at
    a time to the whole state.  The oracles are billed from the circuit's gate
    list, and the norm is checked once, on the returned state, which takes
    over the buffer without a copy.
    """
    n = circuit.num_qubits
    gates = circuit.gates
    if initial is _FROM_ZERO:
        psi, gates = _from_zero(n, gates)
    elif n != initial.num_qubits:
        raise StructuralError(f"circuit width {n} != state width {initial.num_qubits}")
    else:
        psi = initial.amplitudes.copy()
    _bill(circuit.gates)
    return StateVector._adopt(n, _evolve(psi, n, gates))


def run_from_zero(circuit: Circuit) -> StateVector:
    """``run`` from |0...0>, written straight into ``run``'s buffer."""
    return run(circuit, _FROM_ZERO)


def _rows_apart(gate: Gate) -> bool:
    """Whether the gate's kernel, run over several states laid end to end, acts on each alone.

    A Hadamard pairs amplitudes within blocks of at most one state, and a
    diffusion on the bottom block of qubits sums contiguous runs of one state.
    """
    return gate.kind == HADAMARD or (
        gate.kind == DIFFUSION and set(gate.targets) == set(range(len(gate.targets)))
    )


def run_many(circuits: Sequence[Circuit]):
    """Yield ``run_from_zero(c)`` for each circuit, in order, running them as one batch.

    Every circuit must have the same width and, at each position, a gate of
    the same kind on the same targets and controls; otherwise a
    :class:`StructuralError` is raised before any oracle is billed.  Every
    circuit's oracles are billed when the first state is asked for.  The
    gates before the first phase oracle run once, from |0...0>, and that
    state is copied into every row of one buffer of ``_BATCH_AMPLITUDES``
    amplitudes, a chunk of rows at a time.  From there each gate runs over
    the chunk: a phase oracle negates each row's own marked entries; a gate
    whose kernel keeps rows apart (see :func:`_rows_apart`) runs once over
    the chunk, and any other gate row by row.  States of half the buffer or
    more run one at a time, as in ``run``.  Every amplitude has the bits
    ``run_from_zero`` gives it, the norm of each state is checked, and each
    yielded state owns a copy of its row.
    """
    circuits = list(circuits)
    if not circuits:
        return
    n = circuits[0].num_qubits
    gates = circuits[0].gates
    for circuit in circuits[1:]:
        # Circuits built from shared gate objects compare most positions by identity.
        if circuit.num_qubits != n or circuit.gates != gates:
            raise StructuralError("batched circuits must have the same width and gate shapes")
    positions = [p for p, gate in enumerate(gates) if gate.kind == PHASE_ORACLE]
    _bill(circuit.gates[p] for circuit in circuits for p in positions)
    split = positions[0] if positions else len(gates)
    rows = _BATCH_AMPLITUDES >> n
    if rows < 2:  # fewer than two states fit the buffer: one at a time, as ``run`` does
        for circuit in circuits:
            psi, rest = _from_zero(n, circuit.gates)
            yield StateVector._adopt(n, _evolve(psi, n, rest))
        return
    shared, rest = _from_zero(n, gates[:split])
    shared = _evolve(shared, n, rest)  # holds no phase oracle
    chunk = np.empty((min(rows, len(circuits)), 1 << n), dtype=np.complex128)
    steps = [(p, gate.kind, _plan(n, gate.kind, gate.targets, gate.controls), _rows_apart(gate))
             for p, gate in enumerate(gates[split:], split)]
    for start in range(0, len(circuits), rows):
        batch = circuits[start : start + rows]
        block = chunk[: len(batch)]
        block[...] = shared
        for p, kind, plan, apart in steps:
            if kind == PHASE_ORACLE:
                for row, circuit in zip(block, batch):
                    plan(row, circuit.gates[p].marked)
            elif apart:
                plan(block.reshape(-1), None)
            else:
                for row in block:
                    plan(row, None)
        for row in block:
            yield StateVector._adopt(n, row.copy())


def prob_all_zero(state: StateVector, register: Sequence[int]) -> float:
    """Probability that measuring ``register`` yields the all-zero bitstring."""
    register = _check_register(state.num_qubits, register)
    zero = state.amplitudes.reshape((2,) * state.num_qubits)
    zero = zero[_fixed(state.num_qubits, ((q, 0) for q in register))]
    return float(np.sum(np.abs(zero) ** 2))


def register_probabilities(state: StateVector, register: Sequence[int]) -> np.ndarray:
    """Born distribution over the values of ``register`` (length ``2**len(register)``)."""
    register = _check_register(state.num_qubits, register)
    if register == tuple(range(state.num_qubits)):
        return state.probabilities()  # the value is the basis index: one weight per bin
    values = _register_values(state.num_qubits, register)
    return np.bincount(values, weights=np.abs(state.amplitudes) ** 2, minlength=1 << len(register))


def sample_measurement(
    state: StateVector, register: Sequence[int], shots: int, rng_seed
) -> dict[str, int]:
    """Draw ``shots`` i.i.d. measurements of ``register``.

    Returns a histogram keyed by bitstring, written most-significant-first,
    where position ``p`` of the register list contributes bit ``p`` of the
    value.  Identical seeds give identical histograms.
    """
    register = _check_register(state.num_qubits, register)
    if shots < 1:
        raise StructuralError("shots must be at least 1")
    probs = register_probabilities(state, register)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    rng = as_rng(rng_seed)
    counts = rng.multinomial(shots, probs)
    width = len(register)
    return {format(v, f"0{width}b"): int(counts[v]) for v in np.flatnonzero(counts).tolist()}


def subsystem_fidelity(
    state: StateVector, register: Sequence[int], target_amplitudes: np.ndarray
) -> float:
    """Fidelity of the reduced state on ``register`` with a pure target state."""
    register = _check_register(state.num_qubits, register)
    target = np.asarray(target_amplitudes, dtype=np.complex128)
    if target.shape != (1 << len(register),):
        raise StructuralError("target state has the wrong dimension for the register")
    mat, _ = _register_matrix(state.amplitudes, state.num_qubits, register)
    overlaps = mat @ target.conj()
    return float(np.sum(np.abs(overlaps) ** 2))
