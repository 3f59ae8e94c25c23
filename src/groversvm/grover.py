"""Grover search over indicator oracles, the modular adder, and interval feature maps.

Query accounting: an :class:`IndicatorOracle` bumps its counter once per
classical evaluation.  Its phase and billing gates carry the oracle, and the
simulator bills it one query per time such a gate is listed in a circuit it
runs.  The ``ideal`` backend writes the marked basis state exactly (the
perfect-search idealization) but still bills the same number of queries a
real run would consume, via identity-action billing gates.
:func:`grover_search_many` charges each oracle the k queries of its search
itself, on either backend; the gates it simulates bill nothing.
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
from .sim import Circuit, Gate, StateVector, _check_int

BACKENDS = ("ideal", "faithful")


def num_qubits_for(domain_size: int) -> int:
    return _check_int(domain_size, "domain size", 1, power_of_two=True).bit_length() - 1


class IndicatorOracle:
    """Black-box indicator of a single marked element of Z_N with a query counter.

    A single instance is not safe to share between concurrent tasks (the
    counter is mutable); distinct instances are independent.
    """

    def __init__(self, domain_size: int, marked: int):
        N = _check_int(domain_size, "domain size", 1, power_of_two=True)
        if N < 4:
            raise UnsupportedSizeError("domain size below 4 is not supported")
        self.domain_size = N
        self.marked = _check_int(marked, "marked index", 0, N - 1)
        self.query_count = 0

    @property
    def num_qubits(self) -> int:
        return self.domain_size.bit_length() - 1

    def evaluate(self, value: int) -> int:
        """Classical query: 1 on the marked element, 0 elsewhere."""
        value = _check_int(value, "query value", 0, self.domain_size - 1)
        self.query_count += 1
        return int(value == self.marked)

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        """Vectorized classical queries; charges one query per element."""
        values = sim._int_array(values, "query values", 0, self.domain_size - 1)
        self.query_count += int(values.size)
        return (values == self.marked).astype(np.int64)

    def evaluate_range(self, lo: int, hi: int) -> bool:
        """Classical queries on every value in ``[lo, hi)``: charges ``hi - lo``
        queries and answers whether the marked element is among them."""
        lo = _check_int(lo, "query range start", 0, self.domain_size)
        hi = _check_int(hi, "query range end", lo, self.domain_size)
        self.query_count += hi - lo
        return lo <= self.marked < hi

    def charge_queries(self, count: int) -> None:
        self.query_count += _check_int(count, "query count")

    def phase_gate(self, register) -> Gate:
        """Sign flip on the marked value; one query per circuit application."""
        return sim.phase_oracle(register, (self.marked,), self)

    def billing_gate(self, register) -> Gate:
        """Identity action that still bills one query per application (ideal backend)."""
        return sim.phase_oracle(register, (), self)


class MultiMarkedOracle:
    """Set-membership indicator; exists to demonstrate the uncompute failure."""

    def __init__(self, domain_size: int, marked_set):
        self.domain_size = _check_int(
            domain_size, "domain size", 4, power_of_two=True, error=UnsupportedSizeError
        )
        marked = frozenset(sim._ints(marked_set, "marked elements", 0, self.domain_size - 1))
        if not marked:
            raise StructuralError("marked set must be nonempty")
        self.marked_set = marked

    @property
    def num_qubits(self) -> int:
        return self.domain_size.bit_length() - 1


@dataclass(frozen=True)
class GroverConfig:
    """Backend selection plus an optional iteration-count override."""

    backend: str = "ideal"
    iterations: int | None = None

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise StructuralError(f"backend must be one of {BACKENDS}")
        if self.iterations is not None:
            _check_int(self.iterations, "iterations")


def _check_search(domain_size: int, marked_count: int) -> tuple[int, int]:
    """``(N, t)`` as ints: N an integer power of two and t an integer in [1, N]."""
    N = _check_int(domain_size, "domain size", 1, power_of_two=True)
    return N, _check_int(marked_count, "marked count", 1, N)


def optimal_iterations(domain_size: int, marked_count: int = 1) -> int:
    """Iteration count k = round(pi / (4 asin(sqrt(t/N))) - 1/2)."""
    N, t = _check_search(domain_size, marked_count)
    if N < 4:
        raise UnsupportedSizeError(
            "domain sizes below 4 are rejected: the rotation angle is degenerate"
        )
    theta = math.asin(math.sqrt(t / N))
    return max(0, round(math.pi / (4.0 * theta) - 0.5))


def resolve_iterations(domain_size: int, config: GroverConfig, marked_count: int = 1) -> int:
    if config.iterations is not None:
        return config.iterations
    return optimal_iterations(domain_size, marked_count)


def theoretical_success_probability(
    domain_size: int, marked_count: int = 1, iterations: int | None = None
) -> float:
    """Closed form sin^2((2k+1) asin(sqrt(t/N))) for k amplification rounds.

    An explicit k must be a non-negative integer; it also serves N = 2, the matcher's shortest text.
    """
    N, t = _check_search(domain_size, marked_count)
    if iterations is None:
        iterations = optimal_iterations(N, t)
    else:
        iterations = _check_int(iterations, "iterations")
    theta = math.asin(math.sqrt(t / N))
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

    The oracles must share one domain size.  Each oracle is charged the k
    queries of its search, on either backend; the simulated gates bill
    nothing.  The faithful backend draws one measurement per search with its
    own seed, by ``sim.sample_measurement``'s draw rule (``sim._draw``).
    When the k rounds are one closed-form step of ``sim`` (or k = 0), one
    search marking 0 is simulated from |0...0>, and each search reads its
    distribution from that state with the weights of 0 and its own mark
    swapped: the bits its own circuit gives (see the ``sim`` module
    docstring).  Any other batch, on N <= 8 or at k = 1, simulates each
    search's own circuit.  A ledger bills the oracle's counter change, split
    evenly between the searches of an oracle listed more than once.
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
    n = oracles[0].num_qubits
    # Built before any charge: above sim.QUBIT_CAP it raises with nothing billed.
    shared = _unbilled_search(n, 0, k) if config.backend == "faithful" else None
    before = {id(oracle): oracle.query_count for oracle in oracles}
    for oracle in oracles:
        oracle.charge_queries(k)
    if shared is None:
        found = [oracle.marked for oracle in oracles]
        shots = 0
    else:
        spans = list(sim._spans(shared.gates))
        fused = k == 0 or spans[-1] == (sim._ROUNDS, n, len(shared.gates))
        # The register is the state: one weight per value.
        probs = sim.run_from_zero(shared).probabilities() if fused else None
        found = []
        for oracle, seed in zip(oracles, rng_seeds):
            t = oracle.marked
            if fused:
                own = probs.copy()
                own[0], own[t] = probs[t], probs[0]
            else:
                own = sim.run_from_zero(_unbilled_search(n, t, k)).probabilities()
            found.append(sim._draw(own, seed))
        shots = 1
    listed = Counter(id(oracle) for oracle in oracles)
    return [
        (value, QueryLedger(
            oracle_queries=(oracle.query_count - before[id(oracle)]) // listed[id(oracle)],
            shots=shots,
        ))
        for value, oracle in zip(found, oracles)
    ]


def _unbilled_search(num_qubits: int, marked: int, iterations: int) -> Circuit:
    """``search_circuit``'s gates with a phase oracle that marks ``marked`` and bills nothing."""
    register = tuple(range(num_qubits))
    rounds = [sim.phase_oracle(register, (marked,)), sim.diffusion(register)] * iterations
    return Circuit(num_qubits, tuple([sim.hadamard(q) for q in register] + rounds))


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
    bit.  There is no carry-out, so the sum wraps mod 2^n.  The two
    registers must have one nonzero width and no qubit in common or listed
    twice.  The gates of the pairs of registers used last are kept
    (``sim._adder``), and each call gets a new list of the shared gates.
    """
    register = sim._ints(register, "adder register qubits", 0)
    addend = sim._ints(addend, "adder addend qubits", 0)
    return list(sim._adder(register, addend))


def adder_circuit(n: int) -> Circuit:
    """Adder on 2n qubits: register = qubits [0, n), addend = qubits [n, 2n)."""
    _check_int(n, "adder register width", 1)
    return Circuit(2 * n, tuple(adder_gates(range(n), range(n, 2 * n))))


def _ideal_write_gates(oracle: IndicatorOracle, iterations: int, register) -> list[Gate]:
    register = tuple(register)
    gates = [oracle.billing_gate(register)] * iterations
    for b, q in enumerate(register):
        if (oracle.marked >> b) & 1:
            gates.append(sim.pauli_x(q))
    return gates


def interval_map_gates(register, ancilla, block: list[Gate], interval_width: int) -> list[Gate]:
    """Interval map around a search ``block`` that writes |t> on ``ancilla``.

    H on the low log2 M register qubits, the block, the adder, then the block
    reversed to uncompute the ancilla (every gate kind is an involution).
    """
    M = _check_int(
        interval_width, "interval width", 1, (1 << len(register)) - 1,
        power_of_two=True, error=InvalidIntervalError,
    )
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
    M = _check_int(  # before any gate is built
        interval_width, "interval width", 1, oracle.domain_size - 1,
        power_of_two=True, error=InvalidIntervalError,
    )
    n = oracle.num_qubits
    ancilla = tuple(range(n, 2 * n))
    k = resolve_iterations(oracle.domain_size, config)
    if config.backend == "ideal":
        block = _ideal_write_gates(oracle, k, ancilla)
    else:
        block = search_gates(oracle, k, ancilla)
    gates = interval_map_gates(tuple(range(n)), ancilla, block, M)
    return Circuit(2 * n, tuple(gates))


def interval_state_analytic(start: int, interval_width: int, domain_size: int) -> StateVector:
    """Uniform superposition over M consecutive indices (mod N) from ``start``."""
    n = num_qubits_for(domain_size)
    N = 1 << n
    start = _check_int(start, "start index", 0, N - 1)
    M = _check_int(interval_width, "interval width", 1, N, error=InvalidIntervalError)
    amps = np.zeros(N, dtype=np.complex128)
    amps[(start + np.arange(M)) % N] = 1.0 / math.sqrt(M)
    return StateVector(n, amps)


def multi_marked_ancilla_fidelity(oracle: MultiMarkedOracle, interval_width: int) -> float:
    """Ancilla all-zero fidelity after the feature-map pipeline.

    The search block is idealized as a unitary R that rotates the ancilla from
    |0..0> onto the even superposition |S> of the marked elements.  So the
    pipeline starts from |0..0>|S>, and since <0..0| R^-1 = <S| the all-zero
    probability after uncomputing is sum_x |<S|a_x>|^2, where a_x is the
    ancilla's amplitude vector when the register holds x: the ancilla's
    fidelity with |S> after the Hadamards and the adder.  Any deviation from
    1 is structural: the adder entangles the registers and uncomputation
    cannot disentangle them.  A singleton marked set degenerates to the
    single-element feature map and returns 1.
    """
    N = oracle.domain_size
    n = oracle.num_qubits
    ancilla = tuple(range(n, 2 * n))
    # R and R^-1 live in the initial state and the fidelity target: no block.
    gates = interval_map_gates(tuple(range(n)), ancilla, [], interval_width)

    target = np.zeros(N, dtype=np.complex128)
    target[sorted(oracle.marked_set)] = 1.0 / math.sqrt(len(oracle.marked_set))
    initial = np.zeros(N * N, dtype=np.complex128)
    initial[::N] = target  # register |0..0>, ancilla |S>
    state = sim.run(Circuit(2 * n, tuple(gates)), StateVector(2 * n, initial))
    return sim.subsystem_fidelity(state, ancilla, target)
