"""Grover search over indicator oracles, the modular adder, and interval feature maps.

Query accounting: an :class:`IndicatorOracle` bumps its counter once per
classical evaluation.  Its phase and billing gates carry the oracle, and the
simulator bills it one query per time such a gate is listed in a circuit it
runs.  The ``ideal`` backend writes the marked basis state exactly (the
perfect-search idealization) but still bills the same number of queries a
real run would consume, via identity-action billing gates.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidIntervalError,
    StructuralError,
    UnsupportedSizeError,
)
from .ledger import QueryLedger
from . import sim
from .sim import Circuit, Gate, StateVector

BACKENDS = ("ideal", "faithful")
# Faithful searches per ``sim.run_many`` batch, whose circuits are all held at
# once (about 1.5 KB each at 12 qubits): one batch of a 200-point preprocessing
# run raised its peak RSS by 0.25 MB more than batches of 64 did.
_BATCH_SEARCHES = 64


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


def num_qubits_for(domain_size: int) -> int:
    if not _is_power_of_two(domain_size):
        raise StructuralError(f"domain size {domain_size} is not a power of two")
    return domain_size.bit_length() - 1


class IndicatorOracle:
    """Black-box indicator of a single marked element of Z_N with a query counter.

    A single instance is not safe to share between concurrent tasks (the
    counter is mutable); distinct instances are independent.
    """

    def __init__(self, domain_size: int, marked: int):
        if not _is_power_of_two(domain_size):
            raise StructuralError(f"domain size {domain_size} is not a power of two")
        if domain_size < 4:
            raise UnsupportedSizeError("domain size below 4 is not supported")
        if not 0 <= marked < domain_size:
            raise StructuralError(f"marked index {marked} out of range")
        self.domain_size = int(domain_size)
        self.marked = int(marked)
        self.query_count = 0

    @property
    def num_qubits(self) -> int:
        return self.domain_size.bit_length() - 1

    def evaluate(self, value: int) -> int:
        """Classical query: 1 on the marked element, 0 elsewhere."""
        if not 0 <= value < self.domain_size:
            raise StructuralError(f"query value {value} out of range")
        self.query_count += 1
        return int(value == self.marked)

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        """Vectorized classical queries; charges one query per element."""
        values = np.asarray(values)
        if values.size and (values.min() < 0 or values.max() >= self.domain_size):
            raise StructuralError("query value out of range")
        self.query_count += int(values.size)
        return (values == self.marked).astype(np.int64)

    def charge_queries(self, count: int) -> None:
        if count < 0:
            raise StructuralError("cannot charge a negative query count")
        self.query_count += int(count)

    def phase_gate(self, register) -> Gate:
        """Sign flip on the marked value; one query per circuit application."""
        return sim.phase_oracle(register, (self.marked,), self)

    def billing_gate(self, register) -> Gate:
        """Identity action that still bills one query per application (ideal backend)."""
        return sim.phase_oracle(register, (), self)


class MultiMarkedOracle:
    """Set-membership indicator; exists to demonstrate the uncompute failure."""

    def __init__(self, domain_size: int, marked_set):
        if not _is_power_of_two(domain_size) or domain_size < 4:
            raise UnsupportedSizeError("domain size must be a power of two, at least 4")
        marked = frozenset(int(v) for v in marked_set)
        if not marked:
            raise StructuralError("marked set must be nonempty")
        if any(not 0 <= v < domain_size for v in marked):
            raise StructuralError("marked element out of range")
        self.domain_size = int(domain_size)
        self.marked_set = marked

    @property
    def num_qubits(self) -> int:
        return self.domain_size.bit_length() - 1

    def evaluate(self, value: int) -> int:
        if not 0 <= value < self.domain_size:
            raise StructuralError(f"query value {value} out of range")
        return int(value in self.marked_set)


@dataclass(frozen=True)
class GroverConfig:
    """Backend selection plus an optional iteration-count override."""

    backend: str = "ideal"
    iterations: int | None = None

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise StructuralError(f"backend must be one of {BACKENDS}")
        if self.iterations is not None and self.iterations < 0:
            raise StructuralError("iterations must be non-negative")


def optimal_iterations(domain_size: int, marked_count: int = 1) -> int:
    """Iteration count k = round(pi / (4 asin(sqrt(t/N))) - 1/2)."""
    if not _is_power_of_two(domain_size):
        raise StructuralError(f"domain size {domain_size} is not a power of two")
    if domain_size < 4:
        raise UnsupportedSizeError(
            "domain sizes below 4 are rejected: the rotation angle is degenerate"
        )
    if not 1 <= marked_count <= domain_size:
        raise StructuralError("marked count out of range")
    theta = math.asin(math.sqrt(marked_count / domain_size))
    return max(0, round(math.pi / (4.0 * theta) - 0.5))


def resolve_iterations(domain_size: int, config: GroverConfig, marked_count: int = 1) -> int:
    if config.iterations is not None:
        return config.iterations
    return optimal_iterations(domain_size, marked_count)


def theoretical_success_probability(
    domain_size: int, marked_count: int = 1, iterations: int | None = None
) -> float:
    """Closed form sin^2((2k+1) asin(sqrt(t/N))) for k amplification rounds."""
    if iterations is None:
        iterations = optimal_iterations(domain_size, marked_count)
    theta = math.asin(math.sqrt(marked_count / domain_size))
    return math.sin((2 * iterations + 1) * theta) ** 2


def search_gates(oracle: IndicatorOracle, iterations: int, register) -> list[Gate]:
    """Uniform superposition followed by ``iterations`` oracle+diffusion rounds."""
    register = tuple(register)
    # One gate object per role, listed ``iterations`` times: the simulator
    # bills the oracle once per listed gate, so k queries are billed.
    rounds = [oracle.phase_gate(register), sim.diffusion(register)] * iterations
    return [sim.hadamard(q) for q in register] + rounds


def search_circuit(oracle: IndicatorOracle, iterations: int | None = None) -> Circuit:
    n = oracle.num_qubits
    if iterations is None:
        iterations = optimal_iterations(oracle.domain_size)
    return Circuit(n, tuple(search_gates(oracle, iterations, range(n))))


def grover_search(
    oracle: IndicatorOracle, config: GroverConfig | None = None, rng_seed=0
) -> tuple[int, QueryLedger]:
    """Locate the marked element; charges k oracle queries either way.

    The ideal backend returns the marked element deterministically; the
    faithful backend simulates the amplitude-amplification circuit and samples
    a single measurement, so it fails with probability cos^2((2k+1) theta).
    """
    return grover_search_many([oracle], config, [rng_seed])[0]


def grover_search_many(
    oracles, config: GroverConfig | None, rng_seeds
) -> list[tuple[int, QueryLedger]]:
    """``grover_search`` on each oracle with its own seed; one ``(found, ledger)`` each.

    The oracles must share one domain size.  The faithful backend builds the
    Hadamard and diffusion gates once and one phase gate per oracle, runs the
    circuits as :func:`sim.run_many` batches of ``_BATCH_SEARCHES``, and
    samples each state with its own seed.  A ledger bills the oracle's
    counter change, split evenly between the searches of an oracle listed
    more than once.
    """
    config = config or GroverConfig()
    oracles = list(oracles)
    rng_seeds = list(rng_seeds)
    if len(rng_seeds) != len(oracles):
        raise StructuralError(f"{len(rng_seeds)} seeds for {len(oracles)} oracles")
    if not oracles:
        return []
    N = oracles[0].domain_size
    if any(oracle.domain_size != N for oracle in oracles):
        raise StructuralError("batched searches must share one domain size")
    k = resolve_iterations(N, config)
    before = {id(oracle): oracle.query_count for oracle in oracles}
    if config.backend == "ideal":
        for oracle in oracles:
            oracle.charge_queries(k)
        found = [oracle.marked for oracle in oracles]
        shots = 0
    else:
        n = oracles[0].num_qubits
        register = tuple(range(n))
        hadamards = [sim.hadamard(q) for q in register]
        diffusion = sim.diffusion(register)
        found = []
        for start in range(0, len(oracles), _BATCH_SEARCHES):
            circuits = [
                Circuit(n, tuple(hadamards + [oracle.phase_gate(register), diffusion] * k))
                for oracle in oracles[start : start + _BATCH_SEARCHES]
            ]
            states = sim.run_many(circuits)
            seeds = rng_seeds[start : start + _BATCH_SEARCHES]
            found += [
                int(next(iter(sim.sample_measurement(state, register, 1, seed))), 2)
                for state, seed in zip(states, seeds)
            ]
        shots = 1
    listed = Counter(id(oracle) for oracle in oracles)
    return [
        (value, QueryLedger(
            oracle_queries=(oracle.query_count - before[id(oracle)]) // listed[id(oracle)],
            shots=shots,
        ))
        for value, oracle in zip(found, oracles)
    ]


def grover_success_probability(
    domain_size: int, marked: int, iterations: int | None = None
) -> float:
    """Probability of measuring the marked element after the simulated circuit."""
    oracle = IndicatorOracle(domain_size, marked)
    state = sim.run_from_zero(search_circuit(oracle, iterations))
    return float(sim.register_probabilities(state, range(oracle.num_qubits))[marked])


def adder_gates(register, addend) -> list[Gate]:
    """Multi-controlled-X network mapping |i>|j> to |(i+j) mod 2^n>|j>.

    For each addend bit b, targets ripple from the top register bit down to
    bit b, each controlled on the intervening register bits and the addend
    bit.  There is no carry-out, so the sum wraps mod 2^n.
    """
    register = tuple(register)
    addend = tuple(addend)
    if len(register) != len(addend):
        raise StructuralError("register and addend must have equal width")
    n = len(register)
    gates: list[Gate] = []
    for b in range(n):
        for tgt in range(n - 1, b - 1, -1):
            controls = tuple(register[b:tgt]) + (addend[b],)
            gates.append(sim.pauli_x(register[tgt], controls))
    return gates


def adder_circuit(n: int) -> Circuit:
    """Adder on 2n qubits: register = qubits [0, n), addend = qubits [n, 2n)."""
    if n < 1:
        raise StructuralError("adder needs at least one qubit per register")
    return Circuit(2 * n, tuple(adder_gates(range(n), range(n, 2 * n))))


def _ideal_write_gates(oracle: IndicatorOracle, iterations: int, register) -> list[Gate]:
    register = tuple(register)
    gates = [oracle.billing_gate(register)] * iterations
    for b, q in enumerate(register):
        if (oracle.marked >> b) & 1:
            gates.append(sim.pauli_x(q))
    return gates


def grover_block_gates(
    oracle: IndicatorOracle, iterations: int, register, backend: str
) -> list[Gate]:
    """The search subroutine as used inside feature maps (|0..0> -> |marked>)."""
    if backend == "ideal":
        return _ideal_write_gates(oracle, iterations, register)
    return search_gates(oracle, iterations, register)


def _check_interval_width(interval_width: int, domain_size: int) -> int:
    """The interval width M as an int; it must be a power of two in [1, N)."""
    M = int(interval_width)
    if not _is_power_of_two(M) or not 1 <= M < domain_size:
        raise InvalidIntervalError(
            f"interval width must be a power of two in [1, {domain_size}), got {M}"
        )
    return M


def interval_map_gates(register, ancilla, block: list[Gate], interval_width: int) -> list[Gate]:
    """Interval map around a search ``block`` that writes |t> on ``ancilla``.

    H on the low log2 M register qubits, the block, the adder, then the block
    reversed to uncompute the ancilla (every gate kind is an involution).
    """
    M = _check_interval_width(interval_width, 1 << len(register))
    hadamards = [sim.hadamard(q) for q in register[: M.bit_length() - 1]]
    return hadamards + block + adder_gates(register, ancilla) + block[::-1]


def feature_map_circuit(
    oracle: IndicatorOracle, interval_width: int, config: GroverConfig | None = None
) -> Circuit:
    """Four-stage interval-state preparation on 2n qubits.

    Register qubits [0, n) end in the uniform interval state of width M
    starting at the marked element (wrapping mod N); ancilla qubits [n, 2n)
    are searched, added into the register, then uncomputed.  One execution
    charges the oracle exactly 2k queries (k per search block).
    """
    config = config or GroverConfig()
    n = oracle.num_qubits
    ancilla = tuple(range(n, 2 * n))
    k = resolve_iterations(oracle.domain_size, config)
    block = grover_block_gates(oracle, k, ancilla, config.backend)
    gates = interval_map_gates(tuple(range(n)), ancilla, block, interval_width)
    return Circuit(2 * n, tuple(gates))


def interval_state_analytic(start: int, interval_width: int, domain_size: int) -> StateVector:
    """Uniform superposition over M consecutive indices (mod N) from ``start``."""
    N = int(domain_size)
    M = int(interval_width)
    n = num_qubits_for(N)
    if not 0 <= start < N:
        raise StructuralError(f"start index {start} out of range")
    if not 1 <= M <= N:
        raise InvalidIntervalError(f"interval width must lie in [1, {N}], got {M}")
    amps = np.zeros(N, dtype=np.complex128)
    amps[(start + np.arange(M)) % N] = 1.0 / math.sqrt(M)
    return StateVector(n, amps)


def _superposition_write(amps: np.ndarray, num_qubits: int, register, target_vec, inverse=False):
    """Unitary on the register factor rotating |0..0> onto ``target_vec``.

    Acts as the identity on the orthogonal complement of span{|0..0>, target}.
    This is the exact idealization of amplitude amplification for an
    arbitrary marked superposition; for a basis-state target it reduces to
    the plain write used by the ideal backend.
    """
    target = np.asarray(target_vec, dtype=np.complex128)
    mat, order = sim._register_matrix(amps, num_qubits, tuple(register))
    mat = mat.copy()
    c = float(target[0].real)
    w = target.copy()
    w[0] -= c
    s = float(np.linalg.norm(w))
    if s < 1e-12:
        return amps.copy()
    e2 = w / s
    if inverse:
        s = -s
    a1 = mat[:, 0].copy()
    a2 = mat @ e2.conj()
    mat[:, 0] += (c - 1.0) * a1 - s * a2
    mat += np.outer(s * a1 + (c - 1.0) * a2, e2)
    return sim._register_unmatrix(mat, num_qubits, order)


def multi_marked_ancilla_fidelity(oracle: MultiMarkedOracle, interval_width: int) -> float:
    """Ancilla all-zero fidelity after the feature-map pipeline.

    The search block is idealized as an exact rotation onto the even
    superposition of the marked elements, so any deviation from fidelity 1 is
    structural: the adder entangles the registers and uncomputation cannot
    disentangle them.  A singleton marked set degenerates to the single-element
    feature map and returns 1.
    """
    N = oracle.domain_size
    n = oracle.num_qubits
    mu = _check_interval_width(interval_width, N).bit_length() - 1
    register = tuple(range(n))
    ancilla = tuple(range(n, 2 * n))

    target = np.zeros(N, dtype=np.complex128)
    target[sorted(oracle.marked_set)] = 1.0 / math.sqrt(len(oracle.marked_set))

    amps = np.zeros(1 << (2 * n), dtype=np.complex128)
    amps[0] = 1.0
    for q in register[:mu]:
        amps = sim._apply_raw(amps, 2 * n, sim.hadamard(q))
    amps = _superposition_write(amps, 2 * n, ancilla, target)
    for gate in adder_gates(register, ancilla):
        amps = sim._apply_raw(amps, 2 * n, gate)
    amps = _superposition_write(amps, 2 * n, ancilla, target, inverse=True)
    state = StateVector(2 * n, amps)
    return sim.prob_all_zero(state, ancilla)
