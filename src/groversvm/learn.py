"""The cyclic learning problem, its halfspace geometry, and three learners.

Concepts split Z_N into two contiguous halves; data are single-marked
indicator oracles labeled by which half their marked element falls in.  The
learners compared here are:

* ``quantum_kernel_learner`` - SVM on a shot-sampled interval-kernel Gram
  matrix; classification samples kernel values against support vectors only.
* ``preprocessing_learner`` - one search per datum recovers the marked index,
  after which kernels are evaluated classically from the stored indices.
* ``classical_learner`` - brute-force probing of the oracle with a fixed
  query budget.

All shot-sampled kernels draw from the analytic binomial law rather than
re-running circuits, which is statistically identical and keeps R ~ m^4
experiments tractable; the query ledgers charge what the circuits would have
consumed (4k oracle queries per kernel shot, k per preprocessing search).
Closed-form kernel values are computed for whole rows at once; a sampled
entry whose true value is 0 takes no draw (Binomial(R, 0) is 0), and every
other entry draws from its own per-pair stream, so results do not depend on
which entries were skipped or on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .grover import GroverConfig, IndicatorOracle, _is_power_of_two, resolve_iterations
from .grover import grover_search, grover_search_many  # noqa: F401 - the name stays for perfbench/tracing.py
from .kernel import KernelMode, gram_matrix, kernel_exact_many, kernel_sampled
from .ledger import QueryLedger
from .sim import StateVector, as_rng, seed32
from . import svm

_DATASET_RETRIES = 1000
_TEST_STREAM_TAG = 0x7E57


@dataclass(frozen=True)
class Concept:
    """Labeling rule: +1 on the half-interval [start, start + N/2 - 1]."""

    start: int
    domain_size: int

    def __post_init__(self):
        if not _is_power_of_two(self.domain_size) or self.domain_size < 8:
            raise StructuralError("domain size must be a power of two, at least 8")
        if not 0 <= self.start < self.domain_size // 2:
            # start >= N/2 duplicates start - N/2 with swapped labels
            raise StructuralError("concept start must lie in [0, N/2)")

    def label(self, index: int) -> int:
        if not 0 <= index < self.domain_size:
            raise StructuralError(f"index {index} out of range")
        return 1 if self.start <= index <= self.start + (self.domain_size - 2) // 2 else -1

    def positive_region(self) -> np.ndarray:
        return np.arange(self.start, self.start + self.domain_size // 2)

    def negative_region(self) -> np.ndarray:
        N = self.domain_size
        return np.arange(self.start + N // 2, self.start + N) % N


@dataclass
class Dataset:
    """Labeled training oracles for one concept."""

    oracles: list
    labels: np.ndarray
    concept: Concept

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.oracles) != self.labels.size:
            raise StructuralError("oracle and label counts differ")
        for oracle, lbl in zip(self.oracles, self.labels):
            if self.concept.label(oracle.marked) != lbl:
                raise StructuralError("label inconsistent with the concept")

    @property
    def size(self) -> int:
        return len(self.oracles)

    def marked_indices(self) -> np.ndarray:
        return np.array([o.marked for o in self.oracles], dtype=np.int64)


def generate_dataset(concept: Concept, size: int, rng_seed) -> Dataset:
    """Draw ``size`` marked indices uniformly without replacement, both classes present."""
    N = concept.domain_size
    if size > N:
        raise StructuralError(f"cannot draw {size} distinct indices from {N}")
    if size < 2:
        raise StructuralError("training sets need at least 2 points")
    rng = as_rng(rng_seed)
    for _ in range(_DATASET_RETRIES):
        marked = rng.choice(N, size=size, replace=False)
        labels = np.array([concept.label(int(v)) for v in marked])
        if labels.max() == 1 and labels.min() == -1:
            oracles = [IndicatorOracle(N, int(v)) for v in marked]
            return Dataset(oracles, labels, concept)
    raise StructuralError("failed to draw a two-class sample within the retry bound")


def generate_balanced_test(concept: Concept, size: int, rng_seed):
    """Test oracles drawn half from each class, without replacement within a class."""
    N = concept.domain_size
    if size % 2 != 0:
        raise StructuralError("balanced test size must be even")
    half = size // 2
    if half > N // 2:
        raise StructuralError("test size exceeds class populations")
    rng = as_rng(rng_seed)
    plus = rng.choice(concept.positive_region(), size=half, replace=False)
    minus = rng.choice(concept.negative_region(), size=half, replace=False)
    marked = np.concatenate([plus, minus])
    order = rng.permutation(size)
    marked = marked[order]
    oracles = [IndicatorOracle(N, int(v)) for v in marked]
    labels = np.array([concept.label(int(v)) for v in marked])
    return oracles, labels


@dataclass(frozen=True)
class HalfspaceState:
    """Uniform superposition over the N/2 indices of the +1 class."""

    start: int
    domain_size: int

    def support(self) -> np.ndarray:
        return np.arange(self.start, self.start + self.domain_size // 2)

    def statevector(self) -> StateVector:
        N = self.domain_size
        amps = np.zeros(N, dtype=np.complex128)
        amps[self.support() % N] = math.sqrt(2.0 / N)
        return StateVector(N.bit_length() - 1, amps)


def margin_gap(interval_width: int, domain_size: int) -> float:
    """The separation scale Delta = 2M/N."""
    return 2.0 * interval_width / domain_size


def halfspace_overlap(start: int, marked: int, interval_width: int, domain_size: int) -> float:
    """Squared overlap of the halfspace state with the interval state at ``marked``.

    Analytically (2/(N*M)) * c^2 where c counts interval indices inside the
    halfspace support; interior +1-class points give exactly Delta = 2M/N,
    interior -1-class points give exactly 0, and boundary straddlers fall in
    between.
    """
    N = int(domain_size)
    M = int(interval_width)
    if not 0 <= start < N // 2:
        raise StructuralError("halfspace start out of range")
    if not 0 <= marked < N:
        raise StructuralError("marked index out of range")
    if not 1 <= M < N // 2:
        raise StructuralError("interval width must satisfy 1 <= M < N/2")
    lo, hi = start, start + N // 2 - 1
    indices = (marked + np.arange(M)) % N
    count = int(np.count_nonzero((indices >= lo) & (indices <= hi)))
    return 2.0 * count * count / (N * M)


def halfspace_overlap_profile(start: int, interval_width: int, domain_size: int) -> np.ndarray:
    """``halfspace_overlap`` for every marked index at once (vectorized)."""
    N = int(domain_size)
    M = int(interval_width)
    inside = np.zeros(N, dtype=np.int64)
    inside[start : start + N // 2] = 1
    counts = np.zeros(N, dtype=np.int64)
    for offset in range(M):
        counts += inside[(np.arange(N) + offset) % N]
    return 2.0 * counts.astype(np.float64) ** 2 / (N * M)


def reference_hyperplane_classify(
    start: int, marked: int, interval_width: int, domain_size: int
) -> int:
    """Analytic hyperplane (halfspace direction, bias -Delta/2); errs only near the boundary."""
    overlap = halfspace_overlap(start, marked, interval_width, domain_size)
    return 1 if overlap - margin_gap(interval_width, domain_size) / 2.0 >= 0.0 else -1


def classical_accuracy_bound(budget: int, domain_size: int) -> float:
    """Upper bound min(1, 1/2 + 3X/(2N)) on the brute-force learner's accuracy."""
    if not 0 <= budget <= domain_size:
        raise StructuralError("budget must lie in [0, N]")
    return min(1.0, 0.5 + 1.5 * budget / domain_size)


def classical_learner_classify(
    oracle: IndicatorOracle, concept_start: int, budget: int, rng_seed
) -> tuple[int, QueryLedger]:
    """Brute-force strategy: probe budget-many +1-class indices, else guess -1.

    The concept threshold is assumed known; the budget buys oracle probes
    only.  Probes are distinct indices drawn uniformly from the +1 region
    (capped at its size), each charged as one classical evaluation.  A budget
    that covers the region probes all of it, and then nothing is drawn.
    """
    N = oracle.domain_size
    if not 0 <= budget <= N:
        raise StructuralError("budget must lie in [0, N]")
    region = np.arange(concept_start, concept_start + N // 2)
    n_probes = min(budget, region.size)
    found = False
    if n_probes > 0:
        if n_probes == region.size:
            probes = region
        else:
            probes = as_rng(rng_seed).choice(region, size=n_probes, replace=False)
        found = bool(oracle.evaluate_batch(probes).any())
    ledger = QueryLedger(classical_evaluations=n_probes)
    return (1 if found else -1), ledger


@dataclass
class LearnerResult:
    """Predictions plus the training/inference query split for one run."""

    predictions: np.ndarray
    train_ledger: QueryLedger
    infer_ledger: QueryLedger
    support_count: int = 0
    model: svm.SvmModel | None = None

    @property
    def ledger(self) -> QueryLedger:
        return self.train_ledger.merged(self.infer_ledger)

    def accuracy(self, true_labels) -> float:
        true_labels = np.asarray(true_labels)
        return float(np.mean(self.predictions == true_labels))


def default_interval_width(train_size: int, domain_size: int) -> int:
    """Smallest power of two with m*M >= 2N, capped at N/8.

    The coverage target makes training intervals overlap so that test points
    near any index see nonzero kernel values against some support vector.
    """
    width = 1
    while train_size * width < 2 * domain_size:
        width *= 2
    return max(1, min(width, domain_size // 8))


def default_shots(train_size: int) -> int:
    """Noise-robustness default R = m^4."""
    return train_size**4


def quantum_kernel_learner(
    train: Dataset,
    test_oracles,
    interval_width: int,
    shots: int,
    box_bound: float,
    config: GroverConfig | None = None,
    rng_seed=0,
) -> LearnerResult:
    """Train on a shot-sampled Gram matrix, classify against support vectors only.

    Every kernel value costs ``shots`` circuit executions at 4k oracle queries
    each; classifying one test point therefore costs d * shots * 4k queries
    for d support vectors.  Kernel values are drawn from the ideal closed form,
    so a faithful ``config`` is a :class:`StructuralError`.  Each ledger bills
    the change in the oracles' counters over its phase.
    """
    config = config or GroverConfig()
    if config.backend != "ideal":
        raise StructuralError("the quantum-kernel learner samples the ideal kernel only")
    if shots < 1:
        raise StructuralError("shots must be at least 1")
    N = train.concept.domain_size
    k = resolve_iterations(N, config)
    m = train.size
    oracles = list({id(o): o for o in [*train.oracles, *test_oracles]}.values())
    start = sum(o.query_count for o in oracles)

    gram = gram_matrix(
        train.oracles, interval_width, KernelMode.sampled(shots), rng_seed=rng_seed
    )
    n_pairs = m * (m - 1) // 2
    for oracle in train.oracles:
        oracle.charge_queries(2 * k * shots * (m - 1))
    trained = sum(o.query_count for o in oracles)
    train_ledger = QueryLedger(oracle_queries=trained - start, shots=n_pairs * shots)

    model = svm.train(gram, train.labels, box_bound=box_bound)
    support = model.support_indices
    train_marked = train.marked_indices()
    test_marked = np.array([o.marked for o in test_oracles], dtype=np.int64)

    # Test point t against support vector sv draws from the stream keyed by
    # (seed, tag, t, sv); entries whose true kernel is 0 take no draw.
    rows = np.zeros((test_marked.size, m))
    rows[:, support] = kernel_exact_many(
        test_marked[:, None], train_marked[support][None, :], interval_width, N
    )
    stream_seed = seed32(rng_seed)
    for t_idx, sv in zip(*np.nonzero(rows)):
        stream = np.random.SeedSequence([stream_seed, _TEST_STREAM_TAG, int(t_idx), int(sv)])
        rows[t_idx, sv] = kernel_sampled(rows[t_idx, sv], shots, np.random.default_rng(stream))
    for oracle in test_oracles:
        oracle.charge_queries(2 * k * shots * support.size)
    for sv in support:
        train.oracles[sv].charge_queries(2 * k * shots * len(test_oracles))
    predictions = np.array([svm.decide(model, row)[1] for row in rows], dtype=np.int64)
    n_entries = len(test_oracles) * support.size
    infer_ledger = QueryLedger(
        oracle_queries=sum(o.query_count for o in oracles) - trained, shots=n_entries * shots
    )
    return LearnerResult(predictions, train_ledger, infer_ledger, model.support_count, model)


def preprocessing_learner(
    train: Dataset,
    test_oracles,
    interval_width: int,
    box_bound: float,
    config: GroverConfig | None = None,
    rng_seed=0,
) -> LearnerResult:
    """Search once per datum, store the indices, evaluate kernels classically.

    Training costs k oracle queries per training point; classifying one test
    point costs k queries regardless of the support-vector count or any shot
    budget, because stored indices make every kernel evaluation classical.
    """
    config = config or GroverConfig()
    N = train.concept.domain_size
    m = train.size
    seeds = np.random.SeedSequence(seed32(rng_seed)).spawn(m + len(test_oracles))

    train_ledger = QueryLedger()
    searches = grover_search_many(train.oracles, config, seeds[:m])
    recovered = np.array([value for value, _ in searches], dtype=np.int64)
    for _, ledger in searches:
        train_ledger.add(ledger)

    entries = kernel_exact_many(recovered[:, None], recovered[None, :], interval_width, N)
    model = svm.train(entries, train.labels, box_bound=box_bound)

    infer_ledger = QueryLedger()
    searches = grover_search_many(test_oracles, config, seeds[m:])
    found = np.array([value for value, _ in searches], dtype=np.int64)
    for _, ledger in searches:
        infer_ledger.add(ledger)
    rows = kernel_exact_many(found[:, None], recovered[None, :], interval_width, N)
    predictions = np.array([svm.decide(model, row)[1] for row in rows], dtype=np.int64)
    return LearnerResult(predictions, train_ledger, infer_ledger, model.support_count, model)


def classical_learner(
    concept: Concept, test_oracles, budget: int, rng_seed
) -> LearnerResult:
    """Brute-force baseline applied to every test oracle (threshold known for free)."""
    seeds = np.random.SeedSequence(seed32(rng_seed)).spawn(len(test_oracles))
    infer_ledger = QueryLedger()
    predictions = np.empty(len(test_oracles), dtype=np.int64)
    for t_idx, oracle in enumerate(test_oracles):
        predictions[t_idx], ledger = classical_learner_classify(
            oracle, concept.start, budget, seeds[t_idx]
        )
        infer_ledger.add(ledger)
    return LearnerResult(predictions, QueryLedger(), infer_ledger)


LEARNER_KINDS = ("quantum_kernel", "preprocessing", "classical")


@dataclass(frozen=True)
class SweepRow:
    learner: str
    domain_size: int
    mean_queries_per_classification: float
    mean_support_count: float


def _sweep_training_layout(domain_size: int, train_size: int) -> Dataset:
    # Evenly spaced marked indices: the Gram geometry is then scale-invariant,
    # so support counts stay comparable across domain sizes.
    concept = Concept(0, domain_size)
    step = domain_size // train_size
    marked = [i * step for i in range(train_size)]
    oracles = [IndicatorOracle(domain_size, v) for v in marked]
    labels = np.array([concept.label(v) for v in marked])
    return Dataset(oracles, labels, concept)


def complexity_sweep(
    learner: str,
    domain_sizes,
    trials: int,
    rng_seed,
    train_size: int = 8,
    shots: int = 16,
    box_bound: float = 10.0,
    test_points: int = 4,
    config: GroverConfig | None = None,
) -> list[SweepRow]:
    """Mean inference queries per classification for each domain size.

    Uses the ideal backend (the analytic path) so domain sizes far beyond the
    dense-simulation cap stay cheap.  The quantum kernel learner runs at fixed
    training size and shot count so only the search cost scales with N.
    """
    if learner not in LEARNER_KINDS:
        raise StructuralError(f"learner must be one of {LEARNER_KINDS}")
    domain_sizes = [int(N) for N in domain_sizes]
    for N in domain_sizes:
        if not _is_power_of_two(N) or N < 8:
            raise StructuralError("sweep domain sizes must be powers of two, at least 8")
    seed = seed32(rng_seed)
    config = config or GroverConfig(backend="ideal")
    rows = []
    for N in domain_sizes:
        interval = max(1, N // 4)
        dataset = _sweep_training_layout(N, train_size)
        queries = []
        supports = []
        for trial in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence([seed, N, trial]))
            test_marked = rng.integers(0, N, size=test_points)
            test_oracles = [IndicatorOracle(N, int(v)) for v in test_marked]
            # Learner streams depend on (seed, trial) but not N, so sampled
            # Gram noise is identical across domain sizes at a matched trial.
            learner_seed = int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])
            if learner == "quantum_kernel":
                result = quantum_kernel_learner(
                    dataset, test_oracles, interval, shots, box_bound, config,
                    rng_seed=learner_seed,
                )
            elif learner == "preprocessing":
                result = preprocessing_learner(
                    dataset, test_oracles, interval, box_bound, config, rng_seed=learner_seed
                )
            else:
                result = classical_learner(dataset.concept, test_oracles, N // 2, learner_seed)
            queries.append(result.infer_ledger.total_queries / test_points)
            supports.append(result.support_count)
        rows.append(SweepRow(learner, N, float(np.mean(queries)), float(np.mean(supports))))
    return rows


def loglog_slope(xs, ys) -> tuple[float, float]:
    """Least-squares slope of log(y) against log(x) with its standard error."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    if lx.size < 2:
        raise StructuralError("slope fit needs at least two points")
    x_centered = lx - lx.mean()
    sxx = float(np.sum(x_centered**2))
    slope = float(np.sum(x_centered * ly) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    residuals = ly - (slope * lx + intercept)
    dof = max(1, lx.size - 2)
    stderr = math.sqrt(float(np.sum(residuals**2)) / dof / sxx)
    return slope, stderr
