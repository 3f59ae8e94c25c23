"""Quantum pattern matching on cyclic binary strings, its feature map, and a KMP baseline.

The quantum matcher works on three registers (index, text, pattern): encode
the strings, superpose the index, cyclically shift the text by the index
value, XOR the text prefix into the pattern register, then amplify the
component whose pattern register is all zero.  With a unique cyclic
occurrence the index register ends up peaked on the match location.

Qubit layout for a text of length N = 2^n and a pattern of length L:
index register [0, n), text register [n, n+N), pattern register
[n+N, n+N+L); text position i lives on qubit n+i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .grover import GroverConfig, _is_power_of_two, interval_map_gates, interval_state_analytic
from .kernel import _overlap, kernel_exact
from . import sim
from .sim import Circuit, Gate, StateVector


@dataclass
class PatternLedger:
    """Cost counters: symbolic circuit time steps, amplification rounds, comparisons."""

    gate_steps: int = 0
    amplification_rounds: int = 0
    classical_char_comparisons: int = 0

    def __post_init__(self):
        for name in ("gate_steps", "amplification_rounds", "classical_char_comparisons"):
            if getattr(self, name) < 0:
                raise StructuralError(f"{name} must be non-negative")

    def add(self, other: "PatternLedger") -> None:
        self.gate_steps += other.gate_steps
        self.amplification_rounds += other.amplification_rounds
        self.classical_char_comparisons += other.classical_char_comparisons


def _as_bits(value) -> np.ndarray:
    if isinstance(value, str):
        if any(ch not in "01" for ch in value):
            raise StructuralError("binary strings may contain only '0' and '1'")
        bits = np.array([int(ch) for ch in value], dtype=np.int64)
    else:
        bits = np.asarray(value, dtype=np.int64)
        if bits.ndim != 1 or not np.all(np.isin(bits, (0, 1))):
            raise StructuralError("bit arrays must be one-dimensional with values 0/1")
    return bits


def cyclic_match_locations(text, pattern) -> list[int]:
    """All start positions where ``pattern`` occurs cyclically in ``text``."""
    T = _as_bits(text)
    P = _as_bits(pattern)
    if P.size == 0 or P.size > T.size:
        return []
    hits = []
    for k in range(T.size):
        window = T[(k + np.arange(P.size)) % T.size]
        if np.array_equal(window, P):
            hits.append(k)
    return hits


@dataclass(frozen=True)
class TextInstance:
    """A binary text with exactly one cyclic occurrence of ``pattern``.

    The occurrence location is derived at construction; instances with zero
    or multiple cyclic occurrences are rejected, matching the one-location
    guarantee of the learning problem.
    """

    text: np.ndarray
    pattern: np.ndarray
    location: int = -1

    def __post_init__(self):
        text = _as_bits(self.text)
        pattern = _as_bits(self.pattern)
        if text.size < 2 or not _is_power_of_two(text.size):
            raise StructuralError("text length must be a power of two, at least 2")
        if not 1 <= pattern.size <= text.size:
            raise StructuralError("pattern length must lie in [1, len(text)]")
        hits = cyclic_match_locations(text, pattern)
        if len(hits) != 1:
            raise StructuralError(
                f"pattern must occur cyclically exactly once, found {len(hits)} occurrences"
            )
        text.flags.writeable = False
        pattern.flags.writeable = False
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "location", hits[0])

    @property
    def text_length(self) -> int:
        return int(self.text.size)

    @property
    def pattern_length(self) -> int:
        return int(self.pattern.size)

    @property
    def index_qubits(self) -> int:
        return self.text_length.bit_length() - 1

    @property
    def total_qubits(self) -> int:
        return self.index_qubits + self.text_length + self.pattern_length


def random_instance(
    text_length: int, pattern, location: int, rng_seed, max_retries: int = 200
) -> TextInstance:
    """Random text containing ``pattern`` cyclically at exactly ``location``."""
    P = _as_bits(pattern)
    N = int(text_length)
    if not 0 <= location < N:
        raise StructuralError("location out of range")
    rng = sim.as_rng(rng_seed)
    for _ in range(max_retries):
        text = rng.integers(0, 2, size=N)
        text[(location + np.arange(P.size)) % N] = P
        if len(cyclic_match_locations(text, P)) == 1:
            return TextInstance(text, P)
    raise StructuralError("could not build a unique-occurrence text within the retry bound")


def _registers(instance: TextInstance, offset: int = 0):
    n, N, L = instance.index_qubits, instance.text_length, instance.pattern_length
    index = tuple(range(offset, offset + n))
    text = tuple(range(offset + n, offset + n + N))
    pattern = tuple(range(offset + n + N, offset + n + N + L))
    return index, text, pattern


def _write_gates(bits: np.ndarray, qubits) -> list[Gate]:
    return [sim.pauli_x(q) for bit, q in zip(bits, qubits) if bit]


def encode(instance: TextInstance) -> StateVector:
    """Basis state |0^n>|text>|pattern> prepared with bit flips from |0...0>."""
    _, text_q, pattern_q = _registers(instance)
    gates = _write_gates(instance.text, text_q) + _write_gates(instance.pattern, pattern_q)
    return sim.run_from_zero(Circuit(instance.total_qubits, tuple(gates)))


def _cswap(control: int, a: int, b: int) -> list[Gate]:
    return [sim.cnot(b, a), sim.mcx((control, a), b), sim.cnot(b, a)]


def _rotation_swaps(qubits, amount: int) -> list[tuple[int, int]]:
    """Swap sequence realizing a left rotation by ``amount`` (reversal trick)."""

    def reversal(seq):
        return [(seq[i], seq[len(seq) - 1 - i]) for i in range(len(seq) // 2)]

    qubits = list(qubits)
    return reversal(qubits[:amount]) + reversal(qubits[amount:]) + reversal(qubits)


def cyclic_shift_gates(index_qubits, text_qubits) -> list[Gate]:
    """Shift the text register left by the index value: bit i picks up t_{(i+k) mod N}.

    Realized as one controlled rotation by 2^b per index bit b, each rotation
    decomposed into three reversal layers of controlled swaps.
    """
    gates: list[Gate] = []
    N = len(text_qubits)
    for b, control in enumerate(index_qubits):
        amount = (1 << b) % N
        if amount == 0:
            continue
        for a, c in _rotation_swaps(text_qubits, amount):
            gates.extend(_cswap(control, a, c))
    return gates


def cyclic_shift_circuit(text_length: int) -> Circuit:
    """Index-controlled cyclic shift on n + N qubits (index first, then text)."""
    N = int(text_length)
    if N < 2 or not _is_power_of_two(N):
        raise StructuralError("text length must be a power of two, at least 2")
    n = N.bit_length() - 1
    index = tuple(range(n))
    text = tuple(range(n, n + N))
    return Circuit(n + N, tuple(cyclic_shift_gates(index, text)))


def amplification_rounds_for(text_length: int) -> int:
    return int(math.pi / 4.0 * math.sqrt(text_length))


def pattern_symbolic_steps(text_length: int, pattern_length: int) -> int:
    """Time-step count of the matcher under the reference cost model.

    Each controlled rotation of the shift costs one step per index bit
    (control fan-out), so a full shift is (log N)^2 steps; the reflections
    cost log-depth of their register width.  The total therefore scales as
    sqrt(N) ((log N)^2 + log L).
    """
    N, L = int(text_length), int(pattern_length)
    n = N.bit_length() - 1
    prep = 1 + 1 + n * n + 1  # encode, hadamard layer, shift, xor layer
    good_flip = max(1, math.ceil(math.log2(max(L, 2)))) + 1
    zero_flip = max(1, math.ceil(math.log2(n + N + L))) + 1
    rounds = amplification_rounds_for(N)
    return prep + rounds * (good_flip + 2 * prep + zero_flip)


def _ledger(instance: TextInstance, config: GroverConfig) -> PatternLedger:
    """Cost of one matcher run: the override or the default round count, and its steps."""
    N = instance.text_length
    rounds = config.iterations if config.iterations is not None else amplification_rounds_for(N)
    return PatternLedger(
        gate_steps=pattern_symbolic_steps(N, instance.pattern_length),
        amplification_rounds=rounds,
    )


def _prep_gates(instance: TextInstance, offset: int = 0) -> list[Gate]:
    """State preparation: encode, index superposition, controlled shift, XOR."""
    index_q, text_q, pattern_q = _registers(instance, offset)
    gates = _write_gates(instance.text, text_q) + _write_gates(instance.pattern, pattern_q)
    gates.extend(sim.hadamard(q) for q in index_q)
    gates.extend(cyclic_shift_gates(index_q, text_q))
    gates.extend(sim.cnot(text_q[j], pattern_q[j]) for j in range(len(pattern_q)))
    return gates


def _amplification_gates(
    instance: TextInstance, prep: list[Gate], rounds: int, offset: int = 0
) -> list[Gate]:
    index_q, text_q, pattern_q = _registers(instance, offset)
    block = tuple(index_q) + tuple(text_q) + tuple(pattern_q)
    flip_good = sim.phase_oracle(pattern_q, (0,))
    flip_zero = sim.phase_oracle(block, (0,))
    gates: list[Gate] = []
    for _ in range(rounds):
        gates.append(flip_good)
        gates.extend(reversed(prep))
        gates.append(flip_zero)
        gates.extend(prep)
    return gates


def match_circuit(instance: TextInstance, rounds: int | None = None) -> Circuit:
    """Full matcher on n + N + L qubits: preparation plus amplification rounds."""
    if rounds is None:
        rounds = amplification_rounds_for(instance.text_length)
    prep = _prep_gates(instance)
    gates = prep + _amplification_gates(instance, prep, rounds)
    return Circuit(instance.total_qubits, tuple(gates))


def pattern_match(
    instance: TextInstance, config: GroverConfig | None = None, rng_seed=0
) -> tuple[int, float, PatternLedger]:
    """Locate the pattern; returns (measured location, success probability, ledger).

    The faithful backend simulates the matcher and samples the index register
    once, so the returned location is wrong with probability
    1 - success_prob; callers verify it classically.  The ideal backend
    returns the true location with the closed-form success probability the
    circuit would achieve.
    """
    config = config or GroverConfig()
    ledger = _ledger(instance, config)
    rounds = ledger.amplification_rounds
    if config.backend == "ideal":
        theta = math.asin(math.sqrt(1.0 / instance.text_length))
        success = math.sin((2 * rounds + 1) * theta) ** 2
        return instance.location, success, ledger
    state = sim.run_from_zero(match_circuit(instance, rounds))
    index_q = _registers(instance)[0]
    probs = sim.register_probabilities(state, index_q)
    success = float(probs[instance.location])
    hist = sim.sample_measurement(state, index_q, 1, rng_seed)
    found = int(next(iter(hist)), 2)
    return found, success, ledger


@dataclass(frozen=True)
class FeatureMapOutcome:
    """Result of the pattern feature map: interval state plus uncompute quality."""

    register_state: StateVector
    ancilla_zero_fidelity: float
    ledger: PatternLedger
    full_state: StateVector | None = None


def _pattern_block_gates(instance: TextInstance, rounds: int, backend: str, offset: int):
    if backend == "faithful":
        prep = _prep_gates(instance, offset)
        return prep + _amplification_gates(instance, prep, rounds, offset)
    # Ideal: write the matcher's output state |t>|shifted text>|0^L> directly.
    index_q, text_q, _ = _registers(instance, offset)
    t = instance.location
    shifted = instance.text[(np.arange(instance.text_length) + t) % instance.text_length]
    t_bits = np.array([(t >> b) & 1 for b in range(len(index_q))])
    return _write_gates(t_bits, index_q) + _write_gates(shifted, text_q)


def feature_map_gates(
    instance: TextInstance, interval_width: int, config: GroverConfig | None = None
) -> tuple[list[Gate], int]:
    """Gate list of the feature map and its total qubit count.

    Upper register [0, n) receives the interval state; the matcher runs on an
    ancilla block of n+N+L qubits whose index sub-register is added into the
    upper register before the matcher is uncomputed.
    """
    config = config or GroverConfig()
    n = instance.index_qubits
    rounds = _ledger(instance, config).amplification_rounds
    block = _pattern_block_gates(instance, rounds, config.backend, offset=n)
    gates = interval_map_gates(tuple(range(n)), tuple(range(n, 2 * n)), block, interval_width)
    return gates, n + instance.total_qubits


def pattern_feature_map(
    instance: TextInstance,
    interval_width: int,
    config: GroverConfig | None = None,
    mode: str = "circuit",
) -> FeatureMapOutcome:
    """Interval state of width M starting at the match location.

    ``circuit`` mode runs the full pipeline (qubit cap permitting) and
    reports the ancilla block's all-zero fidelity; ``analytic`` mode locates
    the pattern classically and builds the interval state directly, charging
    the symbolic step count the circuit would have used.
    """
    config = config or GroverConfig()
    n = instance.index_qubits
    ledger = _ledger(instance, config)
    if mode == "analytic":
        register = interval_state_analytic(instance.location, interval_width, instance.text_length)
        return FeatureMapOutcome(register, 1.0, ledger)
    if mode != "circuit":
        raise StructuralError("mode must be 'circuit' or 'analytic'")
    gates, total = feature_map_gates(instance, interval_width, config)
    state = sim.run_from_zero(Circuit(total, tuple(gates)))
    ancilla = tuple(range(n, total))
    fidelity = sim.prob_all_zero(state, ancilla)
    # Conditional on the ancilla block being zero, the register amplitudes are
    # the leading 2^n entries (the register occupies the low-order qubits).
    register_amps = state.amplitudes[: 1 << n].copy()
    norm = np.linalg.norm(register_amps)
    if norm < 1e-9:
        raise StructuralError("feature map produced no ancilla-zero component")
    register = StateVector(n, register_amps / norm)
    return FeatureMapOutcome(register, fidelity, ledger, state)


def pattern_kernel(
    a: TextInstance, b: TextInstance, interval_width: int, mode: str = "exact"
) -> float:
    """Interval kernel of two texts through their match locations.

    ``exact`` matches classically and applies the closed form; the circuit
    modes run the feature map of ``a`` forward and of ``b`` in reverse and
    return the overlap magnitude read off the upper register, exactly as the
    indicator kernel does.
    """
    if a.text_length != b.text_length:
        raise StructuralError("texts must have the same length")
    if not np.array_equal(a.pattern, b.pattern):
        raise StructuralError("kernel requires a shared pattern")
    N = a.text_length
    if mode == "exact":
        return kernel_exact(a.location, b.location, interval_width, N)
    if mode not in ("circuit_ideal", "circuit_faithful"):
        raise StructuralError("mode must be exact, circuit_ideal, or circuit_faithful")
    config = GroverConfig(backend=mode.removeprefix("circuit_"))
    forward, total = feature_map_gates(a, interval_width, config)
    backward, total_b = feature_map_gates(b, interval_width, config)
    if total != total_b:
        raise StructuralError("instances disagree on circuit width")
    return _overlap(forward, backward, total, range(a.index_qubits))


def kmp_search(text, pattern) -> tuple[int | None, PatternLedger]:
    """First cyclic occurrence via KMP over the doubled text, counting comparisons.

    Returns the smallest start position in [0, N) or None; every character
    comparison is charged, and the total is at most 2(2N + L).
    """
    T = _as_bits(text)
    P = _as_bits(pattern)
    ledger = PatternLedger()
    N, L = T.size, P.size
    if L == 0 or L > N:
        return None, ledger
    doubled = np.concatenate([T, T])

    comparisons = 0
    prefix = np.zeros(L, dtype=np.int64)
    k = 0
    for i in range(1, L):
        while k > 0:
            comparisons += 1
            if P[k] == P[i]:
                break
            k = prefix[k - 1]
        else:
            comparisons += 1
        if P[k] == P[i]:
            k += 1
        prefix[i] = k

    k = 0
    found = None
    for i in range(doubled.size):
        while k > 0:
            comparisons += 1
            if P[k] == doubled[i]:
                break
            k = prefix[k - 1]
        else:
            comparisons += 1
        if P[k] == doubled[i]:
            k += 1
        if k == L:
            start = i - L + 1
            if start < N:
                found = start
                break
            k = prefix[k - 1]
    ledger.classical_char_comparisons = comparisons
    return found, ledger


def pattern_label(
    start: int, location: int, text_length: int, rule: str = "halfspace"
) -> int:
    """Class label of a text from its match location.

    ``halfspace`` assigns +1 on the contiguous half [start, start + (N-2)/2],
    mirroring the indicator-function concept.  ``log_width`` is the narrow
    variant with width (log2(N) - 2)/2, which collapses below one index for
    small N and exists only behind this flag.
    """
    N = int(text_length)
    if not 0 <= location < N:
        raise StructuralError("location out of range")
    if not 0 <= start < N:
        raise StructuralError("start out of range")
    if rule == "halfspace":
        width = (N - 2) / 2.0
    elif rule == "log_width":
        width = (math.log2(N) - 2) / 2.0
    else:
        raise StructuralError("rule must be 'halfspace' or 'log_width'")
    return 1 if start <= location <= start + width else -1
