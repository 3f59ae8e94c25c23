"""The interval kernel in exact, circuit, and shot-sampled modes, plus Gram assembly.

The kernel of two single-marked indicator functions is the triangular bump
``(M - d)/M`` in the cyclic distance ``d = min(|i-j|, N-|i-j|)``, zero beyond
``d = M``.  The compute-uncompute circuit realizes it physically: the
probability of the all-zero readout equals the squared state overlap, so the
circuit evaluator returns the square root of that probability, which for
interval states is exactly the triangular value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InvalidIntervalError, StructuralError
from .grover import GroverConfig, IndicatorOracle, feature_map_circuit
from .ledger import QueryLedger
from . import sim

MODE_TAGS = ("exact", "circuit_ideal", "circuit_faithful", "sampled")


@dataclass(frozen=True)
class KernelMode:
    tag: str
    shots: int | None = None

    def __post_init__(self):
        if self.tag not in MODE_TAGS:
            raise StructuralError(f"mode tag must be one of {MODE_TAGS}")
        if self.tag == "sampled":
            if self.shots is None or self.shots < 1:
                raise StructuralError("sampled mode requires shots >= 1")
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
    d = abs(int(i) - int(j)) % domain_size
    return min(d, domain_size - d)


def _check_interval(interval_width: int, domain_size: int) -> None:
    if interval_width < 1 or 2 * interval_width >= domain_size:
        raise InvalidIntervalError(
            "interval width must satisfy 1 <= M < N/2 so the two kernel branches "
            f"cannot overlap under cyclic distance (got M={interval_width}, N={domain_size})"
        )


def kernel_exact(i: int, j: int, interval_width: int, domain_size: int) -> float:
    """Closed-form interval kernel (M - d)/M with cyclic distance d, 0 past M."""
    N = int(domain_size)
    M = int(interval_width)
    _check_interval(M, N)
    if not (0 <= i < N and 0 <= j < N):
        raise StructuralError("kernel indices out of range")
    d = cyclic_distance(i, j, N)
    if d >= M:
        return 0.0
    return (M - d) / M


def kernel_exact_many(a, b, interval_width: int, domain_size: int) -> np.ndarray:
    """:func:`kernel_exact` broadcast over index arrays ``a`` and ``b``.

    Each entry has the same bits as the scalar form: ``(M - d) / M`` on exact
    int64 values is the same IEEE division numpy and Python both perform.
    """
    N = int(domain_size)
    M = int(interval_width)
    _check_interval(M, N)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    for idx in (a, b):
        if idx.size and (idx.min() < 0 or idx.max() >= N):
            raise StructuralError("kernel indices out of range")
    d = np.abs(a - b) % N
    d = np.minimum(d, N - d)
    return np.where(d < M, (M - d) / M, 0.0)


def _overlap(forward, backward, num_qubits: int, register) -> float:
    """sqrt(P(register all zero)) after ``forward`` then ``backward`` reversed, from |0...0>."""
    circuit = sim.Circuit(num_qubits, tuple(forward) + tuple(reversed(backward)))
    state = sim.run_from_zero(circuit)
    return math.sqrt(max(0.0, sim.prob_all_zero(state, register)))


def kernel_circuit(
    oracle_i: IndicatorOracle,
    oracle_j: IndicatorOracle,
    interval_width: int,
    config: GroverConfig | None = None,
) -> tuple[float, QueryLedger]:
    """Evaluate the kernel by running the feature map forward then adjoint.

    Returns the state-overlap magnitude, i.e. the square root of the all-zero
    probability on the first register, matching :func:`kernel_exact`.  One
    evaluation charges 4k oracle queries, 2k on each oracle.
    """
    config = config or GroverConfig()
    if oracle_i.domain_size != oracle_j.domain_size:
        raise StructuralError("oracles must share a domain size")
    _check_interval(int(interval_width), oracle_i.domain_size)
    before = oracle_i.query_count + oracle_j.query_count
    forward = feature_map_circuit(oracle_i, interval_width, config)
    backward = feature_map_circuit(oracle_j, interval_width, config)
    value = _overlap(forward.gates, backward.gates, forward.num_qubits, range(oracle_i.num_qubits))
    queries = (oracle_i.query_count + oracle_j.query_count) - before
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
    if shots < 1:
        raise StructuralError("shots must be at least 1")
    if not 0.0 <= true_value <= 1.0:
        raise ContractViolationError(f"kernel value {true_value} outside [0, 1]")
    rng = sim.as_rng(rng_seed)
    return float(rng.binomial(shots, true_value)) / shots


def _pair_rng(seed, i: int, j: int) -> np.random.Generator:
    # Stream depends only on (seed, i, j), never on evaluation order.
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(i), int(j)]))


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


def clip_to_psd(entries: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix onto the PSD cone by clipping eigenvalues."""
    vals, vecs = np.linalg.eigh(entries)
    clipped = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    return (clipped + clipped.T) / 2.0


def gram_matrix(
    oracles,
    interval_width: int,
    mode: KernelMode,
    rng_seed=0,
    clip_psd: bool = False,
) -> GramMatrix:
    """Assemble the Gram matrix over a list of indicator oracles.

    Each unordered off-diagonal pair is evaluated once and mirrored; the
    diagonal is 1 a priori for a pure-state kernel, so sampled mode never
    spends shots on it.  Sampled entries use a per-pair RNG stream derived
    from (seed, i, j), making the result independent of evaluation order.
    Pairs whose true kernel is 0 take no draw, since Binomial(R, 0) is 0;
    every other pair draws from its own stream, so a skipped pair changes no
    other entry.  Sampled matrices may be indefinite; they are passed
    through unchanged unless ``clip_psd`` is set.
    """
    oracles = list(oracles)
    if not oracles:
        raise StructuralError("gram matrix needs at least one datum")
    N = oracles[0].domain_size
    if any(o.domain_size != N for o in oracles):
        raise StructuralError("all oracles must share a domain size")
    _check_interval(int(interval_width), N)
    if mode.tag == "sampled" and int(rng_seed) < 0:
        # Checked up front: SeedSequence would raise a bare ValueError, and
        # only once some pair with a nonzero kernel reached its draw.
        raise StructuralError(f"rng seed must be non-negative (got {rng_seed})")
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
            for i, j in zip(*np.nonzero(np.triu(entries, 1))):
                value = kernel_sampled(entries[i, j], mode.shots, _pair_rng(rng_seed, i, j))
                entries[i, j] = entries[j, i] = value
    if clip_psd:
        entries = clip_to_psd(entries)
        entries = (entries + entries.T) / 2.0
    return GramMatrix(entries, mode)
