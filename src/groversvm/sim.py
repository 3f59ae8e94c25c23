"""Dense statevector simulator with the minimal gate set the circuits here need.

Conventions used by every module in this package:

* Qubit 0 is the least-significant bit of the computational-basis index, so
  the basis state with index ``i`` has qubit ``q`` set iff ``(i >> q) & 1``.
* Multi-qubit registers are given as ordered qubit lists; position ``p`` in
  the list contributes bit ``p`` of the register's integer value.
* Every supported gate kind is an involution, so a circuit is inverted simply
  by reversing its gate list.

Public states are immutable.  :func:`run` copies its initial amplitudes once
into a private buffer, updates that buffer in place gate by gate through its
``(2,)*n`` view (axis ``a`` holds qubit ``n-1-a``), and wraps the result in one
new state at the end.  It calls each phase oracle's predicate exactly once per
application, which is what query accounting relies on.  All randomness is
injected through explicit seeds or generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolationError, ResourceCapError, StructuralError

QUBIT_CAP = 24  # dense complex128 beyond this is not a desk-scale simulation

_NORM_ATOL = 1e-9
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

HADAMARD = "hadamard"
PAULI_X = "pauli_x"
CNOT = "cnot"
MCX = "mcx"
PHASE_ORACLE = "phase_oracle"
DIFFUSION = "diffusion"

GATE_KINDS = (HADAMARD, PAULI_X, CNOT, MCX, PHASE_ORACLE, DIFFUSION)


def as_rng(seed) -> np.random.Generator:
    """Accept an integer seed, a SeedSequence, or a ready Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


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
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > _NORM_ATOL:
            raise ContractViolationError(f"state not normalized: |norm^2 - 1| = {abs(norm_sq - 1.0):.3e}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

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

    ``oracle_predicate`` (phase oracles only) is called once per application
    with the array of all register values ``0 .. 2**len(targets)-1`` and must
    return a boolean array; basis states whose target-register value maps to
    True get their sign flipped.  Instrumented predicates may use the
    one-call-per-application guarantee for query accounting.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    oracle_predicate: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, compare=False
    )

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
        if self.kind == PHASE_ORACLE:
            if not targets or controls:
                raise StructuralError("phase oracle acts on a nonempty uncontrolled register")
            if self.oracle_predicate is None:
                raise StructuralError("phase oracle requires a predicate")
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


def phase_oracle(register: Sequence[int], predicate) -> Gate:
    return Gate(PHASE_ORACLE, tuple(register), (), predicate)


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
        for gate in self.gates:
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


def _apply_inplace(psi: np.ndarray, num_qubits: int, gate: Gate) -> None:
    """Apply ``gate`` to the contiguous buffer ``psi`` in place."""
    view = psi.reshape((2,) * num_qubits)
    if gate.kind == HADAMARD:
        a = psi.reshape(-1, 2, 1 << gate.targets[0])
        a0, a1 = a[:, 0, :], a[:, 1, :]
        total = a0 + a1
        np.subtract(a0, a1, out=a1)
        a0[...] = total
        psi *= _INV_SQRT2
    elif gate.kind in (PAULI_X, CNOT, MCX):
        # Fix every control to 1 and swap the target-0 and target-1 slices.
        controls = [(c, 1) for c in gate.controls]
        lower = _fixed(num_qubits, controls + [(gate.targets[0], 0)])
        upper = _fixed(num_qubits, controls + [(gate.targets[0], 1)])
        view[lower], view[upper] = view[upper], view[lower].copy()
    elif gate.kind == PHASE_ORACLE:
        width = len(gate.targets)
        table = np.asarray(gate.oracle_predicate(np.arange(1 << width, dtype=np.int64)))
        if table.shape != (1 << width,):
            raise ContractViolationError(
                f"oracle predicate returned shape {table.shape}, expected ({1 << width},)"
            )
        # Negate the sub-view of each marked register value: the cost grows
        # with the marked amplitudes, and an all-false table touches none.
        for value in np.flatnonzero(table).tolist():
            index = _fixed(num_qubits, ((q, (value >> p) & 1) for p, q in enumerate(gate.targets)))
            view[index] = -view[index]
    elif gate.kind == DIFFUSION:
        axes = tuple(num_qubits - 1 - q for q in gate.targets)
        mean = view.mean(axis=axes, keepdims=True)
        np.subtract(2.0 * mean, view, out=view)
    else:
        raise StructuralError(f"unhandled gate kind {gate.kind!r}")


def _apply_raw(amps: np.ndarray, num_qubits: int, gate: Gate) -> np.ndarray:
    """Return a new amplitude array: a copy of ``amps`` with ``gate`` applied."""
    psi = np.array(amps, dtype=np.complex128)
    _apply_inplace(psi, num_qubits, gate)
    return psi


def apply(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate and return the new state (norm preserved by construction)."""
    if gate.max_qubit() >= state.num_qubits:
        raise StructuralError(
            f"gate on qubit {gate.max_qubit()} out of range for {state.num_qubits} qubits"
        )
    return StateVector(state.num_qubits, _apply_raw(state.amplitudes, state.num_qubits, gate))


def run(circuit: Circuit, initial: StateVector) -> StateVector:
    """Apply every gate of ``circuit`` in order to a private copy of ``initial``.

    Each phase oracle's predicate is called exactly once per application, and
    the norm is checked once, on the returned state.
    """
    if circuit.num_qubits != initial.num_qubits:
        raise StructuralError(
            f"circuit width {circuit.num_qubits} != state width {initial.num_qubits}"
        )
    psi = initial.amplitudes.copy()
    for gate in circuit.gates:
        _apply_inplace(psi, circuit.num_qubits, gate)
    return StateVector(circuit.num_qubits, psi)


def run_from_zero(circuit: Circuit) -> StateVector:
    return run(circuit, StateVector.zero(circuit.num_qubits))


def prob_all_zero(state: StateVector, register: Sequence[int]) -> float:
    """Probability that measuring ``register`` yields the all-zero bitstring."""
    register = _check_register(state.num_qubits, register)
    zero = state.amplitudes.reshape((2,) * state.num_qubits)
    zero = zero[_fixed(state.num_qubits, ((q, 0) for q in register))]
    return float(np.sum(np.abs(zero) ** 2))


def register_probabilities(state: StateVector, register: Sequence[int]) -> np.ndarray:
    """Born distribution over the values of ``register`` (length ``2**len(register)``)."""
    register = _check_register(state.num_qubits, register)
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
