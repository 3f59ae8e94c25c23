"""The interval kernel in exact, circuit, and shot-sampled modes, plus Gram assembly.

The kernel of two single-marked indicator functions is the triangular bump
``(M - d)/M`` in the cyclic distance ``d = min(|i-j|, N-|i-j|)``, zero beyond
``d = M``.  The compute-uncompute circuit realizes it physically: the
probability of the all-zero readout equals the squared state overlap, so the
circuit evaluator returns the square root of that probability, which for
interval states is exactly the triangular value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InvalidIntervalError, StructuralError
from .grover import GroverConfig, IndicatorOracle, MultiMarkedOracle, feature_map_circuit
from .ledger import QueryLedger
from . import sim

MODE_TAGS = ("exact", "circuit_ideal", "circuit_faithful", "sampled")
MAX_SHOTS = 2**63 - 1  # numpy's binomial draws take an int64 trial count


def check_shots(shots, error: type[Exception] = StructuralError) -> int:
    """``shots`` as an int in [1, MAX_SHOTS], or ``error``: the one shot-count rule."""
    return sim._check_int(shots, "shots", 1, MAX_SHOTS, error=error)


@dataclass(frozen=True)
class KernelMode:
    tag: str
    shots: int | None = None

    def __post_init__(self):
        if self.tag not in MODE_TAGS:
            raise StructuralError(f"mode tag must be one of {MODE_TAGS}")
        if self.tag == "sampled":
            check_shots(self.shots)
        elif self.shots is not None:
            raise StructuralError(f"mode {self.tag!r} takes no shot count")

    @classmethod
    def exact(cls) -> "KernelMode":
        return cls("exact")

    @classmethod
    def circuit_ideal(cls) -> "KernelMode":
        return cls("circuit_ideal")

    @classmethod
    def circuit_faithful(cls) -> "KernelMode":
        return cls("circuit_faithful")

    @classmethod
    def sampled(cls, shots: int) -> "KernelMode":
        return cls("sampled", shots)


def cyclic_distance(i: int, j: int, domain_size: int) -> int:
    """min(|i - j| mod N, N - |i - j| mod N) for integers i, j and a positive integer N."""
    i = sim._check_int(i, "cyclic distance index i", None)
    j = sim._check_int(j, "cyclic distance index j", None)
    N = sim._check_int(domain_size, "cyclic distance domain size", 1)
    d = abs(i - j) % N
    return min(d, N - d)


def _check_interval(interval_width: int, domain_size: int) -> tuple[int, int]:
    """``(M, N)`` as ints, integers with 1 <= M < N/2 so that the two kernel
    branches cannot overlap under cyclic distance; else :class:`InvalidIntervalError`."""
    N = sim._check_int(domain_size, "kernel domain size", 1, error=InvalidIntervalError)
    M = sim._check_int(
        interval_width, "interval width", 1, (N - 1) // 2, error=InvalidIntervalError
    )
    return M, N


def kernel_exact(i: int, j: int, interval_width: int, domain_size: int) -> float:
    """Closed-form interval kernel (M - d)/M with cyclic distance d, 0 past M."""
    M, N = _check_interval(interval_width, domain_size)
    i = sim._check_int(i, "kernel index i", 0, N - 1)
    j = sim._check_int(j, "kernel index j", 0, N - 1)
    d = cyclic_distance(i, j, N)
    if d >= M:
        return 0.0
    return (M - d) / M


def kernel_exact_many(a, b, interval_width: int, domain_size: int) -> np.ndarray:
    """:func:`kernel_exact` broadcast over index arrays ``a`` and ``b``.

    Each entry has the same bits as the scalar form: ``(M - d) / M`` on exact
    int64 values is the same IEEE division numpy and Python both perform.
    """
    M, N = _check_interval(interval_width, domain_size)
    a = sim._int_array(a, "kernel indices", 0, N - 1)
    b = sim._int_array(b, "kernel indices", 0, N - 1)
    # One int64 buffer worked in place; asarray keeps 0-d operands and results arrays.
    d = np.asarray(np.subtract(a, b))
    np.abs(d, out=d)
    np.remainder(d, N, out=d)
    np.minimum(d, N - d, out=d)  # the cyclic distance
    np.minimum(d, M, out=d)
    np.subtract(M, d, out=d)  # M - d, and 0 from distance M on
    return np.asarray(d / M)


def multi_marked_fidelity(oracle: MultiMarkedOracle, interval_width: int) -> float:
    """:func:`grover.multi_marked_ancilla_fidelity` in closed form, at any domain size.

    After the Hadamards and the adder, the register holds the interval that
    starts at the ancilla's value, and the intervals of ``a`` and ``b``
    overlap in ``K(a, b)``.  So tracing the register out leaves the ancilla
    in ``(1/t) sum_{a,b in S} K(a, b) |a><b|``, whose fidelity with the even
    superposition of the ``t`` marked elements is
    ``F = (1/t^2) sum_{a,b in S} K(a, b)``: the mean interval kernel over
    ordered pairs of marked elements.  F is exactly ``1/t`` when the marked
    elements lie pairwise at cyclic distance M or more, at least ``1/t``
    always (``K >= 0``), and 1 only for ``t = 1``.  The interval width must
    satisfy ``1 <= M < N/2``, as for :func:`kernel_exact`.
    """
    marked = np.array(sorted(oracle.marked_set), dtype=np.int64)
    K = kernel_exact_many(marked[:, None], marked[None, :], interval_width, oracle.domain_size)
    return float(K.sum() / marked.size**2)


def _overlap(forward, backward, num_qubits: int, register) -> float:
    """sqrt(P(register all zero)) after ``forward`` then ``backward`` reversed, from |0...0>.

    The probability is clamped to [0, 1]: rounding can carry a self-overlap just above 1.
    """
    circuit = sim.Circuit(num_qubits, tuple(forward) + tuple(reversed(backward)))
    return math.sqrt(min(1.0, max(0.0, sim.zero_probability(circuit, register))))


def kernel_circuit(
    oracle_i: IndicatorOracle,
    oracle_j: IndicatorOracle,
    interval_width: int,
    config: GroverConfig | None = None,
) -> tuple[float, QueryLedger]:
    """Evaluate the kernel by running the feature map forward then adjoint.

    Returns the state-overlap magnitude, i.e. the square root of the all-zero
    probability on the first register, matching :func:`kernel_exact`.  One
    evaluation charges 4k oracle queries, 2k on each oracle (all 4k on it
    when one oracle is passed as both), and the ledger bills that change.
    """
    config = config or GroverConfig()
    if oracle_i.domain_size != oracle_j.domain_size:
        raise StructuralError("oracles must share a domain size")
    _check_interval(interval_width, oracle_i.domain_size)
    # One oracle passed as both arguments is billed once, not twice.
    oracles = (oracle_i,) if oracle_i is oracle_j else (oracle_i, oracle_j)
    before = sum(o.query_count for o in oracles)
    forward = feature_map_circuit(oracle_i, interval_width, config)
    backward = feature_map_circuit(oracle_j, interval_width, config)
    value = _overlap(forward.gates, backward.gates, forward.num_qubits, range(oracle_i.num_qubits))
    queries = sum(o.query_count for o in oracles) - before
    return value, QueryLedger(oracle_queries=queries)


def kernel_sampled(true_value: float, shots: int, rng_seed) -> float:
    """Binomial shot estimate of a kernel value: Binomial(R, K)/R.

    Mean K, variance K(1-K)/R; the endpoints 0 and 1 are reproduced exactly.
    Each shot is modelled as a Bernoulli(K) trial.  The circuit of
    :func:`kernel_circuit` does not give that: the frequency of its all-zero
    outcome estimates P = K**2, and K is the square root of P.  This model is
    kept, since every sampled Gram matrix and report depends on its draws;
    which of the two the paper's shot-noise claim should use is open.
    """
    check_shots(shots)
    true_value = sim._check_real(true_value, "kernel value", 1.0, error=ContractViolationError)
    rng = sim.as_rng(rng_seed)
    return float(rng.binomial(shots, true_value)) / shots


# numpy's SeedSequence constants (O'Neill's seed_seq_fe hash; stable under NEP 19).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _entropy_words(value: int) -> list[int]:
    """SeedSequence's coercion of one non-negative integer: 32-bit words, low first."""
    value = sim.check_seed(value)
    words = []
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words or [0]


def _wrap32(value):
    """Reduce a Python integer to 32 bits; uint32 arrays wrap by themselves."""
    return value & _MASK32 if isinstance(value, int) else value


def _seed_states(key_prefix, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence([*key_prefix, *key]).generate_state(4, uint64)`` for every row of ``keys``.

    The entropy-pool mixing and the output hash run once per step over all
    keys, in uint32 arithmetic that wraps exactly as the reference does.
    Words shared by every key stay Python integers until mixed with a column.
    """
    entropy = [w for p in key_prefix for w in _entropy_words(p)]
    entropy += list(np.ascontiguousarray(keys.T, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = _wrap32(value * hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = _wrap32(_wrap32(_MIX_MULT_L * x) - _wrap32(_MIX_MULT_R * y))
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = np.empty((keys.shape[0], 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = _wrap32(value * hash_const)
        state[:, i] = value ^ (value >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _fixed_seed_type():
    # Built on first use: importing numpy.random here would add to every
    # ``import groversvm``, and numpy loads it lazily.
    from numpy.random.bit_generator import ISeedSequence

    class FixedSeed(ISeedSequence):
        """Hands a bit generator four precomputed uint64 seed words."""

        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ContractViolationError(
                    f"fixed seed holds 4 uint64 words, not {n_words} of {dtype}"
                )
            return self.words

    return FixedSeed


def kernel_sampled_many(true_values, shots: int, key_prefix, keys) -> np.ndarray:
    """:func:`kernel_sampled` for many entries, each on its own keyed stream.

    Entry ``n`` has the bits of ``kernel_sampled(true_values[n], shots,
    default_rng(SeedSequence([*key_prefix, *keys[n]])))``: the seed words of
    every stream are computed in one vectorised pass and each entry's PCG64
    is seeded from its words directly.  Each value must pass
    :func:`kernel_sampled`'s real-number check (see ``sim._real_array``).
    ``key_prefix`` holds non-negative integers shared by all entries;
    ``keys`` is an (entries, columns) array of values below 2**32.
    """
    check_shots(shots)
    values = sim._real_array(true_values, "kernel value", 1.0, error=ContractViolationError)
    keys = sim._int_array(keys, "stream keys", 0, _MASK32)
    if keys.ndim != 2 or keys.shape[0] != values.size:
        raise StructuralError("keys must hold one row per kernel value")
    if not values.size:
        return values
    from numpy.random import PCG64, Generator

    fixed_seed = _fixed_seed_type()
    counts = [
        Generator(PCG64(fixed_seed(words))).binomial(shots, value)
        for words, value in zip(_seed_states(key_prefix, keys), values.tolist())
    ]
    return np.array(counts, dtype=np.int64) / shots


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric m x m kernel matrix with the mode it was evaluated in."""

    entries: np.ndarray
    mode: KernelMode

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise StructuralError("gram entries must form a square matrix")
        if entries.shape[0] < 1:
            raise StructuralError("gram matrix must be nonempty")
        if not np.array_equal(entries, entries.T):
            raise ContractViolationError("gram matrix must be exactly symmetric")
        entries = entries.copy()
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


def gram_matrix(
    oracles,
    interval_width: int,
    mode: KernelMode,
    rng_seed=0,
) -> GramMatrix:
    """Assemble the Gram matrix over a list of indicator oracles.

    Each unordered off-diagonal pair is evaluated once and mirrored; the
    diagonal is 1 a priori for a pure-state kernel, so sampled mode never
    spends shots on it.  Sampled entries use a per-pair RNG stream keyed by
    (seed, i, j), as ``default_rng(SeedSequence([seed, i, j]))`` would be,
    making the result independent of evaluation order; the streams of all
    pairs are seeded in one batch by :func:`kernel_sampled_many`.  Pairs
    whose true kernel is 0 take no draw, since Binomial(R, 0) is 0; every
    other pair draws from its own stream, so a skipped pair changes no
    other entry.  Sampled matrices may be indefinite and are returned as
    drawn; ``svm.train`` accepts them.
    """
    oracles = list(oracles)
    if not oracles:
        raise StructuralError("gram matrix needs at least one datum")
    N = oracles[0].domain_size
    if any(o.domain_size != N for o in oracles):
        raise StructuralError("all oracles must share a domain size")
    _check_interval(interval_width, N)
    if mode.tag == "sampled":
        # Checked up front: the draws check the seed only when some pair
        # has a nonzero kernel.
        rng_seed = sim.check_seed(rng_seed)
    if mode.tag in ("circuit_ideal", "circuit_faithful"):
        m = len(oracles)
        entries = np.eye(m, dtype=np.float64)
        config = GroverConfig(backend=mode.tag.removeprefix("circuit_"))
        for i in range(m):
            for j in range(i + 1, m):
                value, _ = kernel_circuit(oracles[i], oracles[j], interval_width, config)
                entries[i, j] = entries[j, i] = value
    else:
        marked = np.array([o.marked for o in oracles], dtype=np.int64)
        entries = kernel_exact_many(marked[:, None], marked[None, :], interval_width, N)
        if mode.tag == "sampled":
            i, j = np.nonzero(entries)
            upper = i < j  # row-major, as np.nonzero(np.triu(entries, 1)) lists them
            i, j = i[upper], j[upper]
            values = kernel_sampled_many(
                entries[i, j], mode.shots, (rng_seed,), np.stack([i, j], axis=1)
            )
            entries[i, j] = entries[j, i] = values
    return GramMatrix(entries, mode)
