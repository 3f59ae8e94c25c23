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
in a bounded cache, so a repeated gate costs only its array work.

A kernel that fixes, flips or sums a set of qubits views the buffer with one
axis per maximal run of adjacent qubits inside or outside the set (see
:func:`_view`), an inside run indexed by the integer its bits spell, its
lowest qubit as bit 0.  X, CNOT and MCX swap slices of that view, a phase
oracle negates them (on the whole register in order, the value is the basis
index) and :func:`prob_all_zero` reads one, so every amplitude keeps its
bits.  A diffusion, the one reduction, sums over the register's axes: numpy
sums the last axis pairwise and every other axis in index order, so the
bits of a register's mean depend only on whether the register holds qubit 0.
The prefix rule below keeps that fact.

Runs of gates are reduced before they run, each run one step of
:func:`_evolve`; :func:`_spans` alone decides where a step begins and ends.
Hadamards on distinct qubits commute and each squares to the identity, so
each maximal run of consecutive Hadamard gates applies H once to each qubit
it hits an odd number of times, in the order of their first hits.  A run
that hits no qubit twice is its own gate list and keeps the per-gate bits;
in one that does, the amplitudes move by rounding only, since two Hadamards
on a qubit give the identity only in exact arithmetic.  Permutation gates
are fused: each maximal run of consecutive X gates is one strided copy of
the view of the qubits it flips an odd number of times, reversed on their
axes.  Each run of two or more CNOT/MCX gates is one gather through an int32
index array built by applying the run to an ``arange``.  The arrays are kept
in a least-recently-used cache keyed by the run's gate shapes and bounded by
``_PERMUTATION_CACHE_BYTES``.  A run whose array would not fit is applied
gate by gate.  Either way the amplitudes are bit for bit those of the
per-gate kernels.

Grover rounds are applied in closed form.  A maximal run of two or more
repeats of one phase oracle and diffusion pair, in either order, is one
step (see :func:`_rounds_plan`) when the diffusion's register is at least
``_ROUNDS_MIN_QUBITS`` adjacent qubits listed low to high and no column
(value of the qubits outside it) holds two marked values.
Every round negates a column's part orthogonal to the uniform and the marked
state (Boyer, Brassard, Hoyer and Tapp, quant-ph/9605034), so ``k`` rounds
are the register sum, a gather of the marked amplitudes, a 2 x 2 matrix
power per column, one broadcast pass and a scatter, instead of ``2k`` state
sweeps.  The amplitudes move by rounding only: the tests hold them within
1e-13 of the per-gate kernels.  The register sum is the diffusion's, and
every column is computed alike at any width, so the from-zero prefix below
still gives the bits of the full-width run.  After H on a whole register
from |0...0>, neither the register sum nor the marked amplitude depends on
which value is marked, and every other amplitude gets the same update: the
rounds for one mark leave the state of those for another with the two
values' amplitudes swapped, bit for bit.  These rounds and the Hadamard runs
that hit a qubit twice are the only steps that move amplitudes by rounding;
every other step keeps the per-gate bits.

From |0...0> (:func:`run_from_zero`), on a state of at least
``_PREFIX_MIN_QUBITS`` qubits, the longest run of leading gates that leaves
at least two qubits untouched runs on only the qubits it touches, renumbered
in order (see :func:`_prefix_block`), and is written into a full-width
buffer once (see :func:`_from_zero`).  The run stops before a diffusion on
non-adjacent qubits, and a split ends on a step boundary of the full-width
run (see :func:`_spans`).  A register above qubit 0 with no touched qubit
below it gets the qubit just below it, so a register holds qubit 0 of the
smaller state only if it holds qubit 0 of the full one.  Each block of the
full state fixes the untouched qubits and gets the same operations, so the
block where they are all 0 is the small result.  Every other block starts
at +0, and an oracle turns its marked entries into -0; so when any oracle
in the run marks a value, the run is applied once more to an all +0 state,
and that result fills those blocks.  Signed zeros included, the bits are
those of the full-width run.

:func:`zero_probability` reads one register of a circuit run from |0...0>,
so it runs only the register's backward light cone.  Walking the gates
backward from a live set that starts as the register, a gate that shares no
qubit with the set is dropped; any other gate is kept and adds its qubits to
the set.  A dropped gate shares no qubit with any kept gate after it, so it
commutes to the end of the circuit, where it acts on unmeasured qubits only
and cannot change the register's distribution.  The whole gate list is
billed, so every listed oracle gate is still billed once, run or not.  The
probability may move by rounding: a dropped gate changes how the unmeasured
amplitudes round, or the order in which the readout sums their weights, and
dropping gates can join two Hadamard runs into one.

Nor does it run the kept gates' tail: the longest run of trailing
:func:`_spans` steps that are X runs, CNOT/MCX runs or lone phase oracles,
after them a last Hadamard step, whose gates act on register qubits only,
since no other qubit is live after them.  Those steps move and negate
amplitudes, and the Hadamards mix each amplitude only with others that
differ on the qubits they hit, so the readout needs only the ``2**(n - r +
h)`` amplitudes where the ``r - h`` register qubits the Hadamard step does
not hit are 0.  Walking the tail backward over an int64 array of those
indices (:func:`_walk`: an xor per X, an xor where the controls are set per
CNOT/MCX, a sign flip where an oracle marks the value, and one modular add
or subtract per run equal to an adder :func:`_adder` keeps, in either order)
finds where each comes from in the head's state, and whether it is negated.
That block of amplitudes is gathered, takes the Hadamard step through
:func:`_evolve` on the free qubits renumbered in order, and is summed where
the Hadamard qubits are 0, as :func:`prob_all_zero` sums.  Moves and sign
flips are exact, and a Hadamard's arithmetic on an amplitude does not
depend on the state's width, so the bits are those of running the tail.
An empty tail leaves the amplitudes where the register is 0, summed in
basis-index order as :func:`prob_all_zero` sums them, so there is one
readout.  The index array has ``2**(n - r + h)`` entries, fewer than the
state has whenever some register qubit is not hit by the Hadamard step,
and no permutation is cached.

The head, the kept gates before the tail, runs sparse in
:func:`_head_state`: the nonzero entries of its from-zero prefix block, in
a small array beside the int64 basis index of each.  X runs, lone CNOT/MCX
gates and oracles move them by :func:`_walk`, the tail's rule walked
forward; a CNOT/MCX run on at most ``_CACHE_ROW`` amplitudes moves them in
one gather through the cached array of the run reversed.  A Hadamard step
groups them by their index with its qubits cleared, runs the kernels of
:func:`_evolve`'s step, in its order, on a block with one row per group,
and drops exact zeros: each butterfly gets the operands of the full-width
one, an absent partner reading 0.  A diffusion, a rounds step, or a
Hadamard step whose block would pass ``2**n >> _SPARSE_SHIFT`` entries
scatters the entries into a zeroed full-width buffer, where the rest runs.
A head that ends sparse allocates no full-width array: the tail's indices
are looked up among its entries, one it lacks reading 0, and
:func:`register_distribution` bins the entries' ``abs(a)**2`` by register
value in basis-index order, the order in which :func:`register_probabilities`
sums each value's weights.  The ideal kernel's head and the pattern matcher
(N nonzero amplitudes at every gate) end sparse; the faithful kernel's head
densifies at its rounds.  Every nonzero amplitude has the value
``run_from_zero`` gives it, at the same index.  Only zeros may differ, in
sign (+0 where ``_from_zero`` writes -0, or where an absent partner stands
for a -0, and so the zero imaginary parts of the mixes that follow) or by
being left out.  No nonzero sum or product depends on the sign of a zero
operand, and neither does ``abs(a)**2``, so the probabilities keep their bits.

A phase-oracle gate carries the register values it marks and the oracle it
bills.  :func:`apply`, :func:`run`, :func:`zero_probability` and
:func:`register_distribution` bill each oracle one query per time its gate
is listed, counted from the gate list by :func:`_bill`; no code that applies
gates bills, so no path can change a query count.  All randomness is injected
through explicit seeds or generators.  Qubit counts and indices, marked
values, basis indices, shot counts and seeds are Python or numpy integers
(not bool) in range, else a :class:`StructuralError`: :func:`_check_int` is
the rule, and :func:`_ints` and :func:`_int_array` apply it to sequences.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain, groupby
from typing import Sequence

import numpy as np

from .errors import ContractViolationError, ResourceCapError, StructuralError

QUBIT_CAP = 24  # dense complex128 beyond this is not a desk-scale simulation

_NORM_ATOL = 1e-9
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Amplitudes in a Hadamard row and in a gather's slice of indices: 1 MiB of
# complex128.  A butterfly's temporary is at most half a row.
_CACHE_ROW = 1 << 16
# From-zero runs start on fewer qubits only from this width up: below it, in
# measurements at 10 to 20 qubits, the added calls cost more than the smaller
# sweeps save (kernel circuits ran 1.2-1.5x slower at 10-12 qubits, 0.86-0.93x
# at 14 and 0.68-0.82x at 16-20).
_PREFIX_MIN_QUBITS = 16
# A sparse head densifies at a Hadamard step whose block would pass 2**n >>
# _SPARSE_SHIFT entries.  At 16 and 20 qubits, on 1/16 of the amplitudes a
# sparse one-qubit Hadamard step took 1.0-1.4x the time of a dense one and a
# sparse MCX gate 0.2-0.9x; on 1/8 the MCX took 0.6-1.4x, on 1/4 1.5-2.2x.
_SPARSE_SHIFT = 4
# Worst-case bytes of fused-run index arrays held at once: four int32 arrays
# at 20 qubits, one at 22.  A run whose array would exceed it is applied gate
# by gate.
_PERMUTATION_CACHE_BYTES = 16 << 20
# Modular adder networks kept at once (see _adder): a kernel circuit uses one
# shape, and Tier-1 asks for a few dozen in all.
_ADDER_CACHE_SIZE = 32
# Registers of fewer qubits take their rounds gate by gate: a closed-form run
# holds about ten arrays of one entry per column, which would outgrow the state
# below this width, and on such registers k is at most 2 at the optimum.
_ROUNDS_MIN_QUBITS = 4
# Slack of a certified one-shot draw (see _one_shot): each bin before the
# likeliest stays this far below half of what is left, and its double this far
# below its threshold; the likeliest bin's double lies _SHOT_EDGE inside its own.
# Both dwarf the rounding of a threshold, a few units in the last place.
_SHOT_MARGIN = 1e-9
_SHOT_EDGE = 1e-12

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
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(check_seed(seed))


def _is_int(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_power_of_two(value) -> bool:
    """An integer (see :func:`_is_int`) that is a positive power of two."""
    return _is_int(value) and value >= 1 and (value & (value - 1)) == 0


def _rule(lo: int | None, hi: int | None, power_of_two: bool = False, many: bool = False) -> str:
    """What :func:`_check_int` asks of a value, or, with ``many``, of each entry of a sequence."""
    rule = f"integer power{'s' * many} of two" if power_of_two else "integer" + "s" * many
    if hi is not None:
        rule += f" in [{lo}, {hi}]"
    elif lo == 0 and not power_of_two:
        rule = "non-negative " + rule
    elif lo is not None and (lo > 1 or not power_of_two):
        rule += f" of at least {lo}"
    return rule if many else ("a " if rule.startswith("non") else "an ") + rule


def _check_int(
    value, what: str, lo: int | None = 0, hi: int | None = None, *,
    power_of_two: bool = False, error: type[Exception] = StructuralError,
) -> int:
    """``value`` as a Python int, or ``error`` naming ``what``.

    The package's one integer rule: ``value`` must be a Python or numpy
    integer (not a bool) in ``[lo, hi]``, a bound of None being no bound,
    and a power of two when ``power_of_two`` is set.
    """
    # A plain int, the common case, is taken as is without a call.
    n = value if type(value) is int else int(value) if _is_int(value) else None
    if (n is not None and (lo is None or lo <= n) and (hi is None or n <= hi)
            and (not power_of_two or _is_power_of_two(n))):
        return n
    raise error(f"{what} must be {_rule(lo, hi, power_of_two)}, got {value!r}")


def _check_real(value, what: str, hi: float | None = None, *, positive: bool = False,
                error: type[Exception] = StructuralError) -> float:
    """``value`` as a Python float, or ``error`` naming ``what``: the package's one
    real-number rule.  ``value`` must be a Python or numpy integer or float (not
    a bool), finite, at least 0 (above 0 if ``positive``) and at most ``hi``."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if math.isfinite(x) and (x > 0.0 if positive else x >= 0.0) and (hi is None or x <= hi):
        return x
    rule = "a positive finite number" if positive else "a finite non-negative number"
    raise error(f"{what} must be {rule}{'' if hi is None else f' of at most {hi}'}, got {value!r}")


def _ints(values, what: str, lo: int | None = None, hi: int | None = None) -> tuple[int, ...]:
    """``values`` as a tuple of Python ints in ``[lo, hi]``, or a :class:`StructuralError`."""
    values = tuple(values)
    ints = (values if set(map(type, values)).issubset((int,))  # the common case, without a loop
            else tuple(map(int, values)) if all(map(_is_int, values)) else None)
    if ints is None or ints and (
            lo is not None and min(ints) < lo or hi is not None and max(ints) > hi):
        raise StructuralError(f"{what} must be {_rule(lo, hi, many=True)}, got {values!r}")
    return ints


def _int_array(values, what: str, lo: int, hi: int) -> np.ndarray:
    """``values`` as an int64 array of integers in ``[lo, hi]``, or a :class:`StructuralError`.

    An array needs an integer dtype unless it is empty (``np.asarray([])`` is
    float64).  A list, nested or not, goes through :func:`_ints` entry by
    entry, so a bool, which numpy would read as 0 or 1, and a ragged list's
    rows are rejected.
    """
    if not isinstance(values, np.ndarray):
        try:  # as objects, a ragged list's rows are entries, not numpy's ValueError
            entries = np.asarray(values, dtype=object)
        except ValueError:  # arrays of unequal shapes, which numpy cannot nest at all
            entries = None
        if entries is not None:
            ints = _ints(entries.flat, what, lo, hi)
            return np.array(ints, dtype=np.int64).reshape(entries.shape)
    elif not values.size:
        return values.astype(np.int64)
    # The ufunc reductions skip the Python wrappers of ndarray.min and max.
    elif (values.dtype.kind in "iu" and lo <= np.minimum.reduce(values, axis=None)
            and np.maximum.reduce(values, axis=None) <= hi):
        return values.astype(np.int64, copy=False)
    raise StructuralError(f"{what} must be {_rule(lo, hi, many=True)}, got {values!r}")


def _real_array(values, what: str, hi: float, *,
                error: type[Exception] = StructuralError) -> np.ndarray:
    """``values`` flattened to a float64 array of :func:`_check_real` numbers of at most ``hi``.

    An array of integer or float dtype takes one vectorised check.  Anything
    else, and an array that fails that check, goes through
    :func:`_check_real` entry by entry, so a bool or a string entry raises
    ``error`` naming ``what``.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        entries = values.astype(np.float64, copy=False).ravel()
        # A NaN fails both comparisons, since the reductions propagate it.
        if not entries.size or (np.minimum.reduce(entries) >= 0.0
                                and np.maximum.reduce(entries) <= hi):
            return entries
    else:
        try:
            entries = np.asarray(values, dtype=object).ravel()
        except ValueError:  # arrays of unequal shapes, which numpy cannot nest at all
            entries = [values]
    return np.array([_check_real(v, what, hi, error=error) for v in entries], dtype=np.float64)


def check_seed(seed) -> int:
    """A non-negative Python or numpy integer seed (not a bool) as a Python int, whole."""
    return _check_int(seed, "seed")


def _derived_seed(*parts) -> int:
    """A seed drawn from ``SeedSequence(parts)``, each part a seed (see :func:`check_seed`)."""
    return int(np.random.SeedSequence([check_seed(p) for p in parts]).generate_state(1)[0])


def _check_width(num_qubits) -> int:
    """``num_qubits`` as an int of at least 1; a :class:`ResourceCapError` above the cap."""
    num_qubits = _check_int(num_qubits, "num_qubits", 1)
    if num_qubits > QUBIT_CAP:
        raise ResourceCapError(f"{num_qubits} qubits exceeds the dense cap of {QUBIT_CAP}")
    return num_qubits


def _check_norm(amps: np.ndarray) -> None:
    norm_sq = np.vdot(amps, amps).real
    if not abs(norm_sq - 1.0) <= _NORM_ATOL:  # not "> atol", which passes a NaN norm
        raise ContractViolationError(f"state not normalized: |norm^2 - 1| = {abs(norm_sq - 1.0):.3e}")


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over ``2**num_qubits`` basis states."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_width(self.num_qubits)
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
        num_qubits = _check_width(num_qubits)  # before allocating 2**num_qubits amplitudes
        index = _check_int(index, "basis index", 0, (1 << num_qubits) - 1)
        amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(num_qubits, amps)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


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
        targets = _ints(self.targets, "qubits", 0)
        controls = _ints(self.controls, "qubits", 0)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "controls", controls)
        if len(set(targets)) != len(targets) or len(set(controls)) != len(controls):
            raise StructuralError("duplicate qubit in gate")
        if set(targets) & set(controls):
            raise StructuralError("targets and controls must be disjoint")
        if self.kind in (HADAMARD, PAULI_X) and len(targets) != 1:
            raise StructuralError(f"{self.kind} takes exactly one target")
        if self.kind in (HADAMARD, PAULI_X) and controls:
            raise StructuralError(f"{self.kind} does not support controls; use cnot/mcx")
        if self.kind == CNOT and (len(targets) != 1 or len(controls) != 1):
            raise StructuralError("cnot takes one control and one target")
        if self.kind == MCX and (len(targets) != 1 or not controls):
            raise StructuralError("mcx takes one target and at least one control")
        marked = _ints(self.marked, "marked values", 0, (1 << len(targets)) - 1)
        object.__setattr__(self, "marked", marked)
        if self.kind == PHASE_ORACLE:
            if not targets or controls:
                raise StructuralError("phase oracle acts on a nonempty uncontrolled register")
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
        _check_width(self.num_qubits)
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


def _register_matrix(amps: np.ndarray, num_qubits: int, register: tuple[int, ...]):
    """Reshape to (complement, register) with register position p as value bit p."""
    reg_axes = {num_qubits - 1 - q for q in register}
    rest = [a for a in range(num_qubits) if a not in reg_axes]
    order = rest + [num_qubits - 1 - q for q in reversed(register)]
    return amps.reshape((2,) * num_qubits).transpose(order).reshape(-1, 1 << len(register))


def _check_register(num_qubits: int, register: Sequence[int]):
    register = _ints(register, "register qubits", 0, num_qubits - 1)
    if not register:
        raise StructuralError("empty register")
    if len(set(register)) != len(register):
        raise StructuralError("duplicate qubit in register")
    return register


def _hadamard_plan(num_qubits: int, q: int):
    # The butterfly pairs the two halves of every block of 2**(q+1) amplitudes.
    # A state larger than _CACHE_ROW amplitudes is done one row at a time, so
    # that a row stays in cache from the butterfly to its scaling.  When a
    # contiguous run of 2**q amplitudes fits in one 64-byte cache line, numpy's
    # inner loops over it would be that short, so the butterfly runs over the
    # 2**q interleaved strided slices of the row instead.  Otherwise it runs
    # over column slices of at most half a row, so that its temporary stays
    # that small when one block outgrows a row.
    run = 1 << q
    row = min(1 << num_qubits, max(2 * run, _CACHE_ROW))
    half = _CACHE_ROW // 2
    columns = range(run) if run <= 4 else [slice(s, s + half) for s in range(0, run, half)]

    def apply_row(block, marked=None):
        a = block.reshape(-1, 2, run)
        for r in columns:
            a0, a1 = a[:, 0, r], a[:, 1, r]
            total = a0 + a1
            np.subtract(a0, a1, out=a1)
            a0[...] = total
            del total  # before the next slice makes its own
        block *= _INV_SQRT2

    if row == 1 << num_qubits:
        return apply_row

    def apply(psi, marked):
        for block in psi.reshape(-1, row):
            apply_row(block)

    return apply


def _runs(num_qubits: int, qubits) -> list[tuple[bool, tuple[int, ...]]]:
    """``(inside, run)`` for each maximal run of adjacent qubits in or out of ``qubits``.

    Runs, and the qubits of each, are listed from the top qubit down, so a
    view of the state has one axis of ``2**len(run)`` entries per run.
    """
    inside = set(qubits).__contains__
    return [(key, tuple(run)) for key, run in groupby(range(num_qubits - 1, -1, -1), key=inside)]


def _view(num_qubits: int, bits: dict) -> tuple[tuple, tuple]:
    """The one-axis-per-run view's shape, and its index fixing each qubit ``q`` to ``bits[q]``.

    A run of fixed qubits is indexed by the integer its bits spell, its lowest qubit as bit 0.
    """
    runs = _runs(num_qubits, bits)
    shape = tuple(1 << len(run) for _, run in runs)
    index = [sum(bits[q] << (q - run[-1]) for q in run) if i else slice(None) for i, run in runs]
    return shape, (*index, Ellipsis)  # a 0-d view, not a scalar, when every axis is fixed


def _swap_plan(num_qubits: int, target: int, controls: tuple[int, ...]):
    # Fix every control to 1 and swap the target-0 and target-1 slices.
    ones = dict.fromkeys(controls, 1)
    shape, lower = _view(num_qubits, {**ones, target: 0})
    _, upper = _view(num_qubits, {**ones, target: 1})

    def apply(psi, marked):
        view = psi.reshape(shape)
        view[lower], view[upper] = view[upper], view[lower].copy()

    return apply


def _phase_plan(num_qubits: int, targets: tuple[int, ...]):
    if targets == tuple(range(num_qubits)):
        def negate(psi, value):
            psi[value] = -psi[value]  # the register value is the basis index
    else:
        shape = _view(num_qubits, dict.fromkeys(targets, 0))[0]
        indices = {}  # view index of each register value marked so far

        def negate(psi, value):
            index = indices.get(value)
            if index is None:
                bits = {q: (value >> p) & 1 for p, q in enumerate(targets)}
                index = indices[value] = _view(num_qubits, bits)[1]
            marked = psi.reshape(shape)[index]
            np.negative(marked, out=marked)

    def apply(psi, marked):
        # Negate the sub-view of each marked register value: the cost grows
        # with the marked amplitudes, and an oracle marking no value touches none.
        for value in marked:
            negate(psi, value)

    return apply


def _diffusion_plan(num_qubits: int, targets: tuple[int, ...]):
    # 2 * mean - psi, the mean taken over the register for each value of the
    # other qubits: a reduction over the register's axes of the merged-run
    # view, summed as the module docstring states.
    runs = _runs(num_qubits, targets)
    shape = tuple(1 << len(run) for _, run in runs)
    axis = tuple(a for a, (inside, _) in enumerate(runs) if inside)
    if len(axis) == 1:
        axis = axis[0]  # an int axis is cheaper per call than a tuple
    count = 1 << len(targets)

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
    queries = Counter(g.oracle for g in gates)
    queries.pop(None, None)
    for oracle, count in queries.items():
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
    applied gate by gate.  The run reversed, the inverse permutation since
    every gate is an involution, is an entry of its own.  The arrays never
    hold more than ``max_bytes`` in total.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()

    def lookup(self, num_qubits: int, gates: list[Gate]):
        """The run's ``perm``, built once, or None if its array would exceed the bound."""
        key = (num_qubits, tuple((gate.targets[0], gate.controls) for gate in gates))
        perm = self._entries.get(key)
        if perm is not None:
            self._entries.move_to_end(key)
            return perm
        nbytes = 4 << num_qubits
        if nbytes > self.max_bytes:
            return None
        perm = np.arange(1 << num_qubits, dtype=np.int32)
        for gate in gates:
            _apply_inplace(perm, num_qubits, gate)
        perm.flags.writeable = False
        while self.nbytes + nbytes > self.max_bytes:
            self.nbytes -= self._entries.popitem(last=False)[1].nbytes
        self._entries[key] = perm
        self.nbytes += nbytes
        return perm


_PERMUTATIONS = _PermutationCache(_PERMUTATION_CACHE_BYTES)
# (register, addend bit 0) -> (addend, _adder's gates), least recently used first
_ADDERS: OrderedDict = OrderedDict()
# Run kind of each gate kind whose consecutive gates ``_evolve`` applies as one step.
_FUSED = {HADAMARD: HADAMARD, PAULI_X: PAULI_X, CNOT: MCX, MCX: MCX}
_FROM_ZERO = object()  # ``run``'s initial state from ``run_from_zero``: |0...0>, never built
_ROUNDS = "rounds"  # step kind of a run of oracle-diffusion rounds applied in closed form
_PAIRED = {PHASE_ORACLE: DIFFUSION, DIFFUSION: PHASE_ORACLE}


def _same(gate: Gate, other: Gate) -> bool:
    """Whether ``gate`` acts as ``other`` does: the same object, or the same shape and marks."""
    return gate is other or (gate == other and gate.marked == other.marked)


@lru_cache(maxsize=256)
def _round_power(size: int, rounds: int, oracle_first: bool) -> tuple[float, ...]:
    """Row by row, ``rounds`` oracle-diffusion rounds on the ``(alpha, beta)`` of a column.

    A column ``v = w + alpha * 1 + beta * e_t`` of a ``size``-value register
    marked at ``t`` has ``sum(w) = 0`` and ``w_t = 0``.  On ``(alpha, beta)``
    the oracle is ``[[1, 0], [-2, -1]]`` and the diffusion is
    ``[[1, 2/size], [0, -1]]``, and both negate ``w``.  The power is taken in
    integers, with the diffusion scaled by ``size``, and each entry is
    rounded once.
    """
    oracle, diffusion = ((1, 0), (-2, -1)), ((size, 2), (0, -size))

    def product(a, b):
        return tuple(tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1)) for i in (0, 1))

    step = product(diffusion, oracle) if oracle_first else product(oracle, diffusion)
    power, scale = ((1, 0), (0, 1)), size**rounds
    while rounds:
        if rounds & 1:
            power = product(power, step)
        step = product(step, step)
        rounds >>= 1
    return tuple(entry / scale for row in power for entry in row)


@lru_cache(maxsize=1024)
def _fuse_test(targets: tuple[int, ...], register: tuple[int, ...]):
    """``fuses(marked)``: whether :func:`_rounds_plan` takes rounds of an oracle and a diffusion.

    The oracle acts on ``targets`` and marks ``marked``, and the diffusion
    acts on ``register``.  They fuse when the register is at least ``_ROUNDS_MIN_QUBITS`` adjacent
    qubits listed low to high and no column (value of the qubits outside the
    register) holds two marked values.  A marked value spells the oracle's
    qubits and covers every value of the qubits it leaves free, so one that
    leaves a register qubit free marks two values of a column; otherwise two
    marked values share a column iff they agree on the oracle's qubits
    outside the register.  Only ``fuses`` reads the marks.
    """
    low = register[0]
    if len(register) < _ROUNDS_MIN_QUBITS or register != tuple(range(low, low + len(register))):
        return lambda marked: False
    if not set(register).issubset(targets):
        return lambda marked: not marked
    outside = sum(1 << p for p, q in enumerate(targets) if q not in register)
    return lambda marked: len({value & outside for value in marked}) == len(marked)


def _spread(qubits) -> np.ndarray:
    """The int64 basis index of each value of ``qubits``, every other qubit 0.

    Entry ``v`` sets qubit ``qubits[p]`` iff bit ``p`` of ``v`` is set.
    """
    indices = np.zeros(1, dtype=np.int64)
    for q in qubits:
        indices = np.concatenate([indices, indices | 1 << q])
    return indices


def _column_marks(num_qubits: int, oracle: Gate, register: tuple[int, ...]) -> np.ndarray:
    """Each column's marked register value, -1 where it has none.

    ``register`` is adjacent qubits listed low to high, and no column holds
    two marked values (see :func:`_fuse_test`).  A column fixes every qubit
    outside it, and columns are numbered in basis-index order.
    """
    n = num_qubits
    lo, width = register[0], len(register)
    if oracle.targets == tuple(range(n)):
        spelled = np.array(oracle.marked, dtype=np.int64)  # the marked value is the basis index
    else:
        spelled = np.array([sum((v >> p & 1) << q for p, q in enumerate(oracle.targets))
                            for v in oracle.marked], dtype=np.int64)
    free = _spread([q for q in range(n) if q not in oracle.targets])
    indices = (spelled[:, None] | free).reshape(-1)
    marks = np.full(1 << (n - width), -1, dtype=np.int64)
    columns = indices >> (lo + width) << lo | indices & (1 << lo) - 1
    marks[columns] = indices >> lo & (1 << width) - 1
    return marks


def _rounds_plan(num_qubits: int, first: Gate, second: Gate, rounds: int):
    """The kernel ``apply(psi)`` of ``rounds`` repeats of ``first`` then ``second``.

    The pair must pass :func:`_fuse_test`.  Each column gets the closed form of
    :func:`_round_power` from its register sum and its marked amplitude: with
    ``s = (-1)**rounds`` and ``(alpha', beta')`` the rounds' image,
    ``v <- s * v + (alpha' - s * alpha) * 1``, and ``alpha' + beta'`` at
    ``t``.  A column with no mark gets the diffusion's power, in the same
    coordinates at ``t = 0``.  Every column is computed alike whatever the
    state's width, and the register sum is the diffusion's, so from-zero
    prefixes keep the bits of the full-width run.
    """
    oracle, diffusion = (first, second) if first.kind == PHASE_ORACLE else (second, first)
    register, low = diffusion.targets, diffusion.targets[0]
    marks = _column_marks(num_qubits, oracle, register)
    runs = _runs(num_qubits, register)
    shape = tuple(1 << len(run) for _, run in runs)
    axis = [inside for inside, _ in runs].index(True)
    kept = shape[:axis] + (1,) + shape[axis + 1 :]
    size = 1 << len(register)
    # The basis index of each column's marked amplitude, or of its value 0.
    columns = np.arange(marks.size)
    marked_at = columns >> low << len(register) | np.maximum(marks, 0)
    marked_at = (marked_at << low | columns & (1 << low) - 1).reshape(kept)
    odd = rounds % 2
    plain = (1.0, 2 / size, 0.0, -1.0) if odd else (1.0, 0.0, 0.0, 1.0)  # the diffusion's power
    fused = _round_power(size, rounds, first is oracle)
    coefficients = np.where((marks >= 0).reshape(kept)[..., None], fused, plain)
    c00, c01, c10, c11 = np.moveaxis(coefficients, -1, 0)

    def apply(psi):
        view = psi.reshape(shape)
        total = np.add.reduce(view, axis=axis, keepdims=True)
        marked = psi[marked_at]
        alpha = (total - marked) / (size - 1)
        beta = marked - alpha
        alpha_out = c00 * alpha + c01 * beta
        beta_out = c10 * alpha + c11 * beta
        if odd:
            np.subtract(alpha_out + alpha, view, out=view)
        else:
            view += alpha_out - alpha
        psi[marked_at] = alpha_out + beta_out

    return apply


def _round_runs(gates):
    """``(start, stop)`` of each run of rounds in ``gates`` that ``_rounds_plan`` applies.

    A run is a maximal repeat, two or more times, of one oracle and diffusion
    pair in either order that passes :func:`_fuse_test`.  No plan is built here.
    """
    kinds = [gate.kind for gate in gates]
    if DIFFUSION not in kinds:
        return
    count = len(kinds)
    i = 0
    while i + 4 <= count:
        if _PAIRED.get(kinds[i]) != kinds[i + 1]:
            i += 1
            continue
        first, second = gates[i], gates[i + 1]
        j = i + 2
        while j + 1 < count and _same(gates[j], first) and _same(gates[j + 1], second):
            j += 2
        oracle, diffusion = (first, second) if first.kind == PHASE_ORACLE else (second, first)
        if j - i < 4 or not _fuse_test(oracle.targets, diffusion.targets)(oracle.marked):
            i = j - 1  # read from the next gate on, the same pair neither runs further nor fuses
            continue
        yield i, j
        i = j


def _spans(gates):
    """``(kind, start, stop)`` for each step of :func:`_evolve`, in order.

    A ``_ROUNDS`` step is a run of rounds from :func:`_round_runs`.  Between
    those runs, each maximal run of one ``_FUSED`` kind is a step of that
    kind, and every other gate is a step of kind None on its own.  No other
    code decides where a step begins and ends.
    """
    start = 0
    for begin, end in chain(_round_runs(gates), [(len(gates), len(gates))]):
        while start < begin:
            kind = _FUSED.get(gates[start].kind)
            stop = start + 1
            while kind is not None and stop < begin and _FUSED.get(gates[stop].kind) == kind:
                stop += 1
            yield kind, start, stop
            start = stop
        if begin < end:
            yield _ROUNDS, begin, end
            start = end


@lru_cache(maxsize=4096)
def _flip_view(num_qubits: int, flipped: frozenset) -> tuple[tuple, tuple]:
    """The view's shape, and its index reversing the axis of each run of ``flipped`` qubits.

    Reversing an axis of ``2**k`` entries flips all ``k`` of its qubits.  Kept
    per set: building the view's tuples on every X run raised the peak RSS.
    """
    shape, index = _view(num_qubits, dict.fromkeys(flipped, 0))
    return shape, tuple(slice(None, None, -1) if isinstance(i, int) else i for i in index)


def _flip_into(out: np.ndarray, psi: np.ndarray, num_qubits: int, gates) -> None:
    """Write ``psi`` with the X gates applied into ``out``: one strided copy."""
    flipped = set()
    for gate in gates:
        flipped ^= set(gate.targets)
    shape, index = _flip_view(num_qubits, frozenset(flipped))
    np.copyto(out.reshape(shape), psi.reshape(shape)[index])


def _odd_hits(step) -> list[tuple[int, ...]]:
    """The targets a Hadamard run applies H to: those it hits an odd number of times, in
    the order of their first hits."""
    counts = Counter(gate.targets for gate in step)
    return [targets for targets, count in counts.items() if count % 2]


def _evolve(psi: np.ndarray, num_qubits: int, gates, spans=None) -> np.ndarray:
    """Apply ``gates`` to the buffer ``psi``; return the buffer that holds the result.

    Each step of ``spans``, by default :func:`_spans` of ``gates``, is
    applied whole.  A run of rounds is one closed form; a Hadamard run
    applies H once to each qubit it hits an odd number of times, in the
    order of first hits; an X run is one strided copy, and a CNOT/MCX run of
    two or more gates one gather through a cached index array.
    """
    n = num_qubits
    spare = None
    for kind, start, stop in _spans(gates) if spans is None else spans:
        if kind == _ROUNDS:
            _rounds_plan(n, gates[start], gates[start + 1], (stop - start) // 2)(psi)
            continue
        step = gates[start:stop]
        if kind == HADAMARD:
            for targets in _odd_hits(step):
                _plan(n, HADAMARD, targets, ())(psi, ())
            continue
        perm = _PERMUTATIONS.lookup(n, step) if kind == MCX and len(step) > 1 else None
        if kind != PAULI_X and perm is None:
            for gate in step:
                _apply_inplace(psi, n, gate)
            continue
        if spare is None:
            spare = np.empty_like(psi)
        if kind == PAULI_X:
            _flip_into(spare, psi, n, step)
        else:
            # "clip" takes no whole-output buffer; slices bound the int64
            # copy numpy makes of the int32 indices to one cache row.
            for row in range(0, perm.size, _CACHE_ROW):
                rows = slice(row, row + _CACHE_ROW)
                np.take(psi, perm[rows], out=spare[rows], mode="clip")
        psi, spare = spare, psi
    return psi


def _zero_prefix(num_qubits: int, gates) -> tuple[int, int]:
    """Length and qubit mask of the leading gates ``run`` applies to fewer qubits.

    On a state of at least ``_PREFIX_MIN_QUBITS`` qubits, the prefix is the
    longest run of whole leading :func:`_spans` that leaves at least two
    qubits untouched and holds no diffusion on non-adjacent qubits, so it
    ends on a step boundary of the full-width run.  If no touched qubit lies
    below the lowest diffusion register above qubit 0, the qubit just below
    that register is touched too, so that the register does not hold qubit 0
    of the smaller state.
    """
    n = num_qubits
    if n < _PREFIX_MIN_QUBITS:
        return 0, 0
    touched = length = 0
    low = n  # lowest qubit of a diffusion register above qubit 0 in the prefix
    for _, start, stop in _spans(gates):
        span, span_low, scattered = touched, low, False
        for gate in gates[start:stop]:
            mask = _mask(gate)
            span |= mask
            if gate.kind == DIFFUSION:
                scattered |= (mask + (mask & -mask)) & mask != 0  # not adjacent qubits
                if mask & 1 == 0:
                    span_low = min(span_low, (mask & -mask).bit_length() - 1)
        if scattered or span.bit_count() > n - 2:
            break
        touched, low, length = span, span_low, stop
    if touched & -touched == 1 << low:  # no touched qubit below the register
        touched |= 1 << (low - 1)
    return length, touched


def _mask(gate: Gate) -> int:
    """The bits of the qubits ``gate`` acts on."""
    mask = 0
    for q in gate.targets + gate.controls:
        mask |= 1 << q
    return mask


def _prefix_block(num_qubits: int, gates) -> tuple[int, list[int], list[Gate], np.ndarray]:
    """|0...0> with the gates of its ``_zero_prefix`` applied, on the qubits they touch.

    Returns ``(length, qubits, prefix, block)``: the prefix's length, the
    touched qubits in order, the prefix's gates with qubit ``qubits[p]``
    renumbered ``p``, and the result.  Entry ``v`` of the block is the
    amplitude where qubit ``qubits[p]`` is bit ``p`` of ``v`` and every
    untouched qubit is 0.  With no prefix the block is |0...0>'s one amplitude.
    """
    length, touched = _zero_prefix(num_qubits, gates)
    qubits = [q for q in range(num_qubits) if touched >> q & 1]
    position = {q: p for p, q in enumerate(qubits)}
    small = {}
    for gate in gates[:length]:
        if id(gate) not in small:
            small[id(gate)] = replace(
                gate,
                targets=tuple(position[q] for q in gate.targets),
                controls=tuple(position[q] for q in gate.controls),
            )
    prefix = [small[id(gate)] for gate in gates[:length]]
    block = np.zeros(1 << len(qubits), dtype=np.complex128)
    block[0] = 1.0
    return length, qubits, prefix, _evolve(block, len(qubits), prefix)


def _from_zero(num_qubits: int, gates) -> tuple[np.ndarray, tuple]:
    """|0...0> with the gates of its ``_zero_prefix`` applied, and the gates left.

    The :func:`_prefix_block` is written into one block of a new full-width
    buffer.  Every other block, where some untouched qubit is 1, starts at
    +0 and gets the same operations, which can turn marked entries into -0:
    if any oracle marks a value, the prefix runs once more on all +0, and
    that result fills those blocks.
    """
    n = num_qubits
    length, qubits, prefix, block = _prefix_block(n, gates)
    runs = _runs(n, qubits)  # one axis per run of adjacent qubits, touched or not
    shape = [1 << len(run) for _, run in runs]
    kept = [1 << len(run) if inside else 1 for inside, run in runs]  # 1 on untouched axes
    if any(gate.marked for gate in prefix):
        rest = _evolve(np.zeros(block.size, dtype=np.complex128), len(qubits), prefix)
        psi = np.empty(1 << n, dtype=np.complex128)
        np.copyto(psi.reshape(shape), rest.reshape(kept))
    else:
        psi = np.zeros(1 << n, dtype=np.complex128)
    psi.reshape(shape)[tuple(slice(size) for size in kept)] = block.reshape(kept)
    return psi, gates[length:]


def _moves(kind, first: Gate) -> bool:
    """Whether a :func:`_spans` step of ``kind`` that begins with ``first`` only moves
    and negates amplitudes: an X run, a CNOT/MCX run or a lone phase oracle."""
    return kind in (PAULI_X, MCX) or kind is None and first.kind == PHASE_ORACLE


def _values(index: np.ndarray, qubits) -> np.ndarray:
    """The value of the register ``qubits`` at each basis index: ``qubits[p]`` is bit ``p``."""
    low = qubits[0] if len(qubits) else 0
    if list(qubits) == list(range(low, low + len(qubits))):  # adjacent, low to high: one shift
        return index >> low & (1 << len(qubits)) - 1
    return sum((index >> q & 1) << p for p, q in enumerate(qubits))


def _index_bits(values: np.ndarray, qubits) -> np.ndarray:
    """The basis-index bits that spell each of ``values`` on the register ``qubits``:
    :func:`_values` inverted, every other qubit 0."""
    low = qubits[0]
    if list(qubits) == list(range(low, low + len(qubits))):
        return values << low
    return sum((values >> p & 1) << q for p, q in enumerate(qubits))


def _adder(register: tuple[int, ...], addend: tuple[int, ...]) -> tuple[Gate, ...]:
    """The multi-controlled-X network mapping |i>|j> to |(i+j) mod 2^n>|j>, built once per shape.

    For each addend bit b, targets ripple from the top register bit down to
    bit b, each controlled on the intervening register bits and the addend
    bit.  There is no carry-out, so the sum wraps mod 2^n.  ``register`` and
    ``addend`` are tuples of ints of one nonzero width with no qubit listed
    twice, else a :class:`StructuralError` before any gate is built: only
    such a network adds, which is what :func:`_walk` relies on.  The
    networks of the last ``_ADDER_CACHE_SIZE`` first gates asked for are
    kept, one per first gate, and a call for a kept network returns its gates.
    """
    n = len(register)
    if len(addend) != n:
        raise StructuralError("register and addend must have equal width")
    if not n:
        raise StructuralError("an adder's register must hold at least one qubit")
    if len(set(register + addend)) != 2 * n:
        raise StructuralError(f"an adder's qubits must be distinct, got {register} and {addend}")
    key = (register, addend[0])  # the first gate's qubits
    kept = _ADDERS.pop(key, None)
    if kept is None or kept[0] != addend:
        kept = addend, tuple(pauli_x(register[tgt], register[b:tgt] + (addend[b],))
                             for b in range(n) for tgt in range(n - 1, b - 1, -1))
        if len(_ADDERS) >= _ADDER_CACHE_SIZE:
            _ADDERS.popitem(last=False)
    _ADDERS[key] = kept
    return kept[1]


def _adder_runs(gates) -> list[tuple[int, int, tuple, tuple, int]]:
    """``(start, stop, register, addend, sign)`` of each run of ``gates`` equal to a network
    :func:`_adder` keeps: in its order (``sign`` 1) or reversed (-1).

    An n-bit network's first gate is its only gate with n controls: the
    register's low n - 1 qubits, then addend bit 0, with the top register
    qubit its target.  So each MCX gate names the one kept network that can
    start there or, reversed, end there, and the gates are compared with it.
    The runs found are taken from the first on, the longest of those that
    start together, each skipping any that overlaps one taken.
    """
    found = []
    for i, gate in enumerate(gates):
        if gate.kind != MCX:
            continue
        register = gate.controls[:-1] + gate.targets
        kept = _ADDERS.get((register, gate.controls[-1]))
        if kept is None:
            continue
        addend, adder = kept
        for sign, start in ((1, i), (-1, i - len(adder) + 1)):
            # Frozen gates compare by identity first, so a shared network compares fast.
            if start >= 0 and tuple(gates[start:start + len(adder)][::sign]) == adder:
                found.append((start, start + len(adder), register, addend, sign))
    runs, end = [], 0
    for run in sorted(found, key=lambda run: (run[0], -run[1])):
        if run[0] >= end:
            runs.append(run)
            end = run[1]
    return runs


def _walk(index: np.ndarray, negated: np.ndarray, gates) -> None:
    """Carry the int64 basis indices ``index`` through X, CNOT, MCX and phase-oracle ``gates``.

    In the order given, each X, CNOT or MCX gate flips its target bit where
    its controls are set, and each oracle flips ``negated`` where the
    index's register value is marked; both arrays are updated in place.
    Walked forward, this moves amplitudes as the gates do.  Every gate is an
    involution, so walked over the gates reversed, it finds where each
    index's amplitude came from and whether it was negated on the way.  A
    run of :func:`_adder_runs` moves the indices in one step, as its gates
    would: its register takes ``(register + sign * addend) mod 2**n``.
    """
    start = 0
    end = (len(gates), len(gates), (), (), 0)  # no run: the gates left are walked one by one
    for begin, stop, register, addend, sign in _adder_runs(gates) + [end]:
        for gate in gates[start:begin]:
            if gate.kind == PAULI_X:
                index ^= 1 << gate.targets[0]
            elif gate.kind != PHASE_ORACLE:  # a bool times the bit: faster than a where= mask
                controls = _mask(gate) ^ 1 << gate.targets[0]
                index ^= (index & controls == controls) * (1 << gate.targets[0])
            elif gate.marked:
                value = _values(index, gate.targets)
                one = len(gate.marked) == 1
                negated ^= value == gate.marked[0] if one else np.isin(value, gate.marked)
        if begin < stop:
            value = _values(index, register)
            added = _values(index, addend)
            moved = value + added if sign > 0 else value - added
            moved &= (1 << len(register)) - 1  # two's complement: a difference wraps too
            index ^= _index_bits(value ^ moved, register)
        start = stop


def _sparse_hadamards(num_qubits: int, index: np.ndarray, amplitudes: np.ndarray, hits):
    """The sparse state ``(index, amplitudes)`` after H on each of ``hits`` (a step's
    :func:`_odd_hits`), or None, with nothing changed, if its block would pass the bound."""
    qubits = sorted(q for (q,) in hits)
    bases, rows = np.unique(index & ~sum(1 << q for q in qubits), return_inverse=True)
    if bases.size << len(qubits) > 1 << num_qubits >> _SPARSE_SHIFT:
        return None
    block = np.zeros((bases.size, 1 << len(qubits)), dtype=np.complex128)
    block[rows, _values(index, qubits)] = amplitudes
    block = block.reshape(-1)  # the h-qubit kernels take any whole number of rows
    for (q,) in hits:
        _plan(len(qubits), HADAMARD, (qubits.index(q),), ())(block, ())
    kept = np.flatnonzero(block)
    return (bases[:, None] | _spread(qubits)).reshape(-1)[kept], block[kept]


def _sparse_moves(num_qubits: int, index: np.ndarray, amplitudes: np.ndarray, step):
    """The sparse state ``(index, amplitudes)`` after a :func:`_moves` step."""
    # A run gathers through the reverse run's array, which maps each index to
    # where the run takes it.  64 14-qubit pattern matchers took 29 ms with
    # their 72-gate shift runs gathered, 91 ms with them walked and 86 ms
    # dense.  At 20 qubits, past the arrays, the faithful kernel's 55-gate
    # adder moves its 4,096 indices by one add in 16 us (0.23 ms gate by gate).
    if _FUSED.get(step[0].kind) == MCX and len(step) > 1 and 1 << num_qubits <= _CACHE_ROW:
        perm = _PERMUTATIONS.lookup(num_qubits, step[::-1])
        if perm is not None:
            return perm[index].astype(np.int64), amplitudes
    negated = np.zeros(index.size, dtype=bool)
    _walk(index, negated, step)
    return index, np.negative(amplitudes, out=amplitudes, where=negated)


def _head_state(num_qubits: int, gates) -> tuple[np.ndarray, np.ndarray | None]:
    """``(amplitudes, index)``: ``run_from_zero``'s nonzero amplitudes for ``gates`` and
    their basis indices, or the whole state and None once a step densifies it.

    See the module docstring.  Nothing is billed, and the norm is checked
    once, on what is returned.
    """
    n = num_qubits
    length, qubits, _, block = _prefix_block(n, gates)
    kept = np.flatnonzero(block)
    block, index = block[kept], _spread(qubits)[kept]
    spans = [span for span in _spans(gates) if span[1] >= length]
    for i, (kind, start, stop) in enumerate(spans):
        step = gates[start:stop]
        if kind == HADAMARD:
            moved = _sparse_hadamards(n, index, block, _odd_hits(step))
        else:
            moved = _sparse_moves(n, index, block, step) if _moves(kind, step[0]) else None
        if moved is None:
            psi = np.zeros(1 << n, dtype=np.complex128)
            psi[index] = block
            block, index = _evolve(psi, n, gates, spans[i:]), None
            break
        index, block = moved
    _check_norm(block)
    return block, index


def run(circuit: Circuit, initial: StateVector) -> StateVector:
    """Apply every gate of ``circuit`` in order to a private copy of ``initial``.

    The gates go through :func:`_evolve`; from |0...0> (``run_from_zero``)
    the leading gates that touch few qubits go through :func:`_from_zero`
    first, with the bits of running them on the whole state.  The oracles
    are billed from the circuit's gate list, and the norm is checked once, on
    the returned state, which takes over the buffer without a copy.
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


def prob_all_zero(state: StateVector, register: Sequence[int]) -> float:
    """Probability that measuring ``register`` yields the all-zero bitstring."""
    register = _check_register(state.num_qubits, register)
    return _zero_weight(state.amplitudes, state.num_qubits, register)


def _zero_weight(amps: np.ndarray, num_qubits: int, qubits) -> float:
    """The summed ``abs(a)**2`` of the amplitudes where every qubit of ``qubits`` is 0."""
    shape, index = _view(num_qubits, dict.fromkeys(qubits, 0))
    return float(np.sum(np.abs(amps.reshape(shape)[index]) ** 2))


def _light_cone(circuit: Circuit, register: tuple[int, ...]):
    """The gates :func:`zero_probability` drops, runs and reads through.

    Returns ``(dropped, head, moves, hadamards)``.  Walking back from
    ``register``, a gate that shares no qubit with the gates kept after it is
    dropped.  The kept gates' tail is the longest run of trailing
    :func:`_spans` steps that are X runs, CNOT/MCX runs or lone phase
    oracles (the moves), after them a last Hadamard step (the hadamards),
    whose gates act on register qubits only, since no other qubit is live
    after them.  The head is the kept gates before the tail.
    """
    live = set(register)
    kept, dropped = [], []
    for gate in reversed(circuit.gates):
        qubits = gate.targets + gate.controls
        if live.isdisjoint(qubits):
            dropped.append(gate)
        else:
            live.update(qubits)
            kept.append(gate)
    kept.reverse()
    split = last = len(kept)
    for kind, start, stop in reversed(list(_spans(kept))):
        if kind == HADAMARD and stop == len(kept):
            last = start
        elif not _moves(kind, kept[start]):
            break
        split = start
    return dropped, kept[:split], kept[split:last], kept[last:]


def zero_probability(circuit: Circuit, register: Sequence[int]) -> float:
    """``prob_all_zero(run_from_zero(circuit), register)``, running only the register's light cone.

    The gates outside it are billed but not run, the head runs through
    :func:`_head_state`, and the readout is pulled back through the light
    cone's tail; see the module docstring.
    """
    n = circuit.num_qubits
    register = _check_register(n, register)
    dropped, head, moves, hadamards = _light_cone(circuit, register)
    _bill(circuit.gates)
    amplitudes, at = _head_state(n, head)
    # The block spans the values of the free qubits: those outside the
    # register and those the Hadamard step hits.
    hit = {gate.targets[0] for gate in hadamards}
    free = [q for q in range(n) if q not in register or q in hit]
    index = _spread(free)
    negated = np.zeros(index.size, dtype=bool)
    _walk(index, negated, moves[::-1])  # the index each amplitude of the block comes from
    if at is None:
        block = amplitudes[index]
    else:  # an index the sparse head does not hold reads 0
        order = np.argsort(at)
        found = order[np.minimum(np.searchsorted(at, index, sorter=order), at.size - 1)]
        block = np.where(at[found] == index, amplitudes[found], 0)
    np.negative(block, out=block, where=negated)
    position = {q: p for p, q in enumerate(free)}
    block = _evolve(block, len(free), [hadamard(position[gate.targets[0]]) for gate in hadamards])
    return _zero_weight(block, len(free), [position[q] for q in hit])


def register_probabilities(state: StateVector, register: Sequence[int]) -> np.ndarray:
    """Born distribution over the values of ``register`` (length ``2**len(register)``)."""
    register = _check_register(state.num_qubits, register)
    if register == tuple(range(state.num_qubits)):
        return state.probabilities()  # the value is the basis index: one weight per bin
    # Down the rows of a C-ordered matrix numpy adds the weights of each value
    # in basis-index order; a strided view could be summed pairwise instead.
    mat = _register_matrix(state.probabilities(), state.num_qubits, register)
    return np.add.reduce(np.ascontiguousarray(mat), axis=0)


def register_distribution(circuit: Circuit, register: Sequence[int]) -> np.ndarray:
    """``register_probabilities(run_from_zero(circuit), register)``, bit for bit, with
    the whole circuit run as a :func:`_head_state` (see the module docstring)."""
    n = circuit.num_qubits
    register = _check_register(n, register)
    _bill(circuit.gates)
    amplitudes, index = _head_state(n, circuit.gates)
    if index is None:
        return register_probabilities(StateVector._adopt(n, amplitudes), register)
    order = np.argsort(index)
    return np.bincount(_values(index[order], register), np.abs(amplitudes[order]) ** 2,
                       minlength=1 << len(register))


def sample_measurement(
    state: StateVector, register: Sequence[int], shots: int, rng_seed
) -> dict[str, int]:
    """Draw ``shots`` i.i.d. measurements of ``register``.

    Returns a histogram keyed by bitstring, written most-significant-first,
    where position ``p`` of the register list contributes bit ``p`` of the
    value.  Identical seeds give identical histograms: the counts are
    ``Generator.multinomial(shots, p)`` of the normalised Born weights, and
    one shot is drawn by :func:`_draw`, which gives the same outcome.
    """
    register = _check_register(state.num_qubits, register)
    _check_int(shots, "shots", 1)
    probs = register_probabilities(state, register)
    width = len(register)
    if shots == 1:
        return {format(_draw(probs, rng_seed), f"0{width}b"): 1}
    counts = as_rng(rng_seed).multinomial(shots, probs / probs.sum())
    return {format(v, f"0{width}b"): int(counts[v]) for v in np.flatnonzero(counts).tolist()}


def _draw(weights: np.ndarray, rng_seed) -> int:
    """One measurement outcome of the Born ``weights``: they are normalised, and
    :func:`_one_shot` draws with ``as_rng(rng_seed)``.  The package's one draw rule."""
    return _one_shot(weights / weights.sum(), as_rng(rng_seed))


def _one_shot(probs: np.ndarray, rng: np.random.Generator) -> int:
    """``np.flatnonzero(rng.multinomial(1, probs))[0]``, leaving ``rng`` in the same state.

    numpy walks the bins ``j = 0 ... d - 2`` with ``rem = 1 - p_0 - ... -
    p_{j-1}``, and at each draws Binomial(1, r) with ``r = p_j / rem``: a bin
    with ``r = 0`` draws nothing, and any other draws one double ``U`` and
    fires iff ``U > exp(log(1 - r))`` when ``r <= 1/2``, or iff ``U <=
    exp(log(1 - (1 - r)))`` when ``r > 1/2``.  The first bin that fires takes
    the shot; the last bin takes it without a draw.

    That walk is read off directly when the likeliest bin ``c`` holds more
    than half of what is left before it and no earlier bin as much as ``1/2 -
    _SHOT_MARGIN`` of that.  Each of the ``k`` nonzero bins before ``c`` then
    draws one double, and all ``k`` must lie ``_SHOT_MARGIN`` below
    ``1 - max(p[:c]) / rem_c``, under every one of their thresholds; bin
    ``c``, unless it is last, draws one more, which must fire with
    ``_SHOT_EDGE`` to spare.  Anything else, including every input numpy
    rejects (a negative or NaN entry, or ``sum(p[:-1])`` above ``1 +
    1e-12``), restores the generator's state and asks numpy.
    """
    c = int(probs.argmax())  # a NaN anywhere is the argmax, and fails the ratio test
    head = probs[:c]
    rem = float(np.subtract.reduce(head, initial=1.0))  # numpy's rem_c: one subtraction at a time
    top = float(head.max(initial=0.0))
    low = probs.min()
    if (rem > 0 and 0.5 < probs[c] / rem <= 1 and top / rem <= 0.5 - _SHOT_MARGIN and low >= 0
            and np.add.reduce(probs[:-1]) <= 1 + 1e-13):
        last = c == probs.size - 1
        k = c if low > 0 else int(np.count_nonzero(head))
        state = rng.bit_generator.state
        draws = rng.random(k + (not last))
        if draws[:k].max(initial=0.0) <= 1 - top / rem - _SHOT_MARGIN:
            if last or draws[k] <= math.exp(math.log(1 - (1 - probs[c] / rem))) - _SHOT_EDGE:
                return c
        rng.bit_generator.state = state
    return int(np.flatnonzero(rng.multinomial(1, probs))[0])


def subsystem_fidelity(
    state: StateVector, register: Sequence[int], target_amplitudes: np.ndarray
) -> float:
    """Fidelity of the reduced state on ``register`` with a normalized pure target state."""
    register = _check_register(state.num_qubits, register)
    target = np.asarray(target_amplitudes, dtype=np.complex128)
    if target.shape != (1 << len(register),):
        raise StructuralError("target state has the wrong dimension for the register")
    _check_norm(target)
    mat = _register_matrix(state.amplitudes, state.num_qubits, register)
    overlaps = mat @ target.conj()
    return float(np.sum(np.abs(overlaps) ** 2))
