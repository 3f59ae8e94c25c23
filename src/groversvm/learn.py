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
which entries were skipped or on evaluation order.  The streams are keyed as
``default_rng(SeedSequence(key))`` would key them, but the seeds of all of
a matrix's or a test set's entries are computed in one batch
(``kernel.kernel_sampled_many``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .grover import GroverConfig, IndicatorOracle, resolve_iterations
from .grover import grover_search, grover_search_many  # noqa: F401 - the name stays for perfbench/tracing.py
from .kernel import KernelMode, check_shots, gram_matrix, kernel_exact_many, kernel_sampled_many
from .ledger import QueryLedger, merge_ledgers
from .sim import StateVector, _check_int, _derived_seed, _int_array, as_rng, check_seed
from . import svm

_DATASET_RETRIES = 1000
_SWEEP_TEST_POINTS = 4
_TEST_STREAM_TAG = 0x7E57


@dataclass(frozen=True)
class Concept:
    """Labeling rule: +1 on the half-interval [start, start + N/2 - 1] of Z_N; the one
    derivation of its start and domain rule, labels, regions and interval overlaps."""

    start: int
    domain_size: int

    def __post_init__(self):
        N = _check_int(self.domain_size, "domain size", 8, power_of_two=True)
        # start >= N/2 duplicates start - N/2 with swapped labels
        object.__setattr__(self, "start", _check_int(self.start, "concept_start", 0, N // 2 - 1))
        object.__setattr__(self, "domain_size", N)

    @classmethod
    def drawn(cls, domain_size, rng) -> "Concept":
        """The concept of start ``rng.integers(0, N // 2)``: every allowed start alike."""
        N = cls(0, domain_size).domain_size
        return cls(int(rng.integers(0, N // 2)), N)

    def _offset(self, index):
        """``(index - start) mod N``: an int for an index, an int64 array for an index array."""
        N = self.domain_size
        if isinstance(index, (np.ndarray, list, tuple)):
            return (_int_array(index, "indices", 0, N - 1) - self.start) % N
        return (_check_int(index, "index", 0, N - 1) - self.start) % N

    def label(self, index):
        """+1 where ``(index - start) mod N < N/2``, else -1: an int, or an int64 array."""
        inside = self._offset(index) < self.domain_size // 2
        return np.where(inside, 1, -1) if isinstance(inside, np.ndarray) else 1 if inside else -1

    def positive_region(self) -> np.ndarray:
        return np.arange(self.start, self.start + self.domain_size // 2)

    def negative_region(self) -> np.ndarray:
        N = self.domain_size
        return np.arange(self.start + N // 2, self.start + N) % N

    def _width(self, interval_width) -> int:
        """An interval width M as an int, 1 <= M < N/2."""
        return _check_int(interval_width, "interval width", 1, self.domain_size // 2 - 1)

    def _overlap(self, index, interval_width):
        """|<+1 half|interval [index, index + M)>|^2 = 2 c^2 / (N M): with a = (index -
        start) mod N and h = N/2, the interval holds c = (min(M, h - a) if a < h else 0)
        + max(0, a + M - N) indices of the +1 half: from a up to h, and wrapped past N."""
        N, half, M = self.domain_size, self.domain_size // 2, self._width(interval_width)
        a = self._offset(index)
        count = (a < half) * np.minimum(M, half - a) + np.maximum(0, a + M - N)
        return 2.0 * count * count / (N * M)


@dataclass
class Dataset:
    """Labeled training oracles for one concept."""

    oracles: list
    labels: np.ndarray
    concept: Concept

    def __post_init__(self):
        self.labels = _int_array(self.labels, "labels", -1, 1)
        if len(self.oracles) != self.labels.size:
            raise StructuralError("oracle and label counts differ")
        if not np.array_equal(self.concept.label(self.marked_indices()), self.labels):
            raise StructuralError("label inconsistent with the concept")

    @property
    def size(self) -> int:
        return len(self.oracles)

    def marked_indices(self) -> np.ndarray:
        return np.array([o.marked for o in self.oracles], dtype=np.int64)


def generate_dataset(concept: Concept, size: int, rng_seed) -> Dataset:
    """Draw ``size`` marked indices uniformly without replacement, both classes present."""
    N = concept.domain_size
    size = _check_int(size, "training set size", 2, N)  # distinct indices of Z_N
    rng = as_rng(rng_seed)
    for _ in range(_DATASET_RETRIES):
        marked = rng.choice(N, size=size, replace=False)
        labels = concept.label(marked)
        if labels.max() == 1 and labels.min() == -1:
            oracles = [IndicatorOracle(N, int(v)) for v in marked]
            return Dataset(oracles, labels, concept)
    raise StructuralError("failed to draw a two-class sample within the retry bound")


def check_test_size(size, domain_size: int | None, what: str = "balanced test size") -> int:
    """``size`` as an int if a balanced test set of that size can be drawn, else a
    :class:`StructuralError` naming ``what``: an even integer of at least 2, half
    from each class's N/2 indices, so at most ``domain_size`` (no bound if None)."""
    size = _check_int(size, what, 2, domain_size)
    if size % 2:
        raise StructuralError(f"{what} must be even, got {size!r}")
    return size


def generate_balanced_test(concept: Concept, size: int, rng_seed):
    """Test oracles drawn half from each class, without replacement within a class."""
    N = concept.domain_size
    half = check_test_size(size, N) // 2
    rng = as_rng(rng_seed)
    plus = rng.choice(concept.positive_region(), size=half, replace=False)
    minus = rng.choice(concept.negative_region(), size=half, replace=False)
    marked = np.concatenate([plus, minus])[rng.permutation(size)]
    oracles = [IndicatorOracle(N, int(v)) for v in marked]
    return oracles, concept.label(marked)


class HalfspaceState(Concept):
    """Uniform superposition over the N/2 indices of a concept's +1 half."""

    support = Concept.positive_region

    def statevector(self) -> StateVector:
        N = self.domain_size
        amps = np.zeros(N, dtype=np.complex128)
        amps[self.support()] = math.sqrt(2.0 / N)
        return StateVector(N.bit_length() - 1, amps)


def margin_gap(interval_width: int, domain_size: int) -> float:
    """The separation scale Delta = 2M/N, for a ``Concept`` domain size N and 1 <= M < N/2."""
    concept = Concept(0, domain_size)
    return 2.0 * concept._width(interval_width) / concept.domain_size


def halfspace_overlap(start: int, marked, interval_width: int, domain_size: int):
    """Squared overlap of the halfspace state with the interval state at ``marked``.

    Analytically (2/(N*M)) * c^2 where c counts interval indices inside the
    halfspace support (``Concept._overlap``): Delta = 2M/N exactly inside the
    +1 class, 0 inside the -1 class, and between at the boundaries.  A float
    for one index, a float64 array for an index array.
    """
    overlap = Concept(start, domain_size)._overlap(marked, interval_width)
    return overlap if isinstance(overlap, np.ndarray) else float(overlap)


def halfspace_overlap_profile(start: int, interval_width: int, domain_size: int) -> np.ndarray:
    """``halfspace_overlap`` at every marked index 0, ..., N - 1."""
    concept = Concept(start, domain_size)
    return concept._overlap(np.arange(concept.domain_size), interval_width)


def reference_hyperplane_classify(start: int, marked, interval_width: int, domain_size: int):
    """Analytic hyperplane (halfspace direction, bias -Delta/2); errs only near the boundary.
    An int for one marked index, an int64 array for an index array."""
    overlap = halfspace_overlap(start, marked, interval_width, domain_size)
    labels = np.where(overlap - margin_gap(interval_width, domain_size) / 2.0 >= 0.0, 1, -1)
    return labels if isinstance(overlap, np.ndarray) else int(labels)


def classical_accuracy_bound(budget: int, domain_size: int) -> float:
    """Upper bound min(1, 1/2 + 3X/(2N)) on the brute-force learner's accuracy.

    N is a ``Concept`` domain size and the budget X an integer in [0, N].
    """
    N = Concept(0, domain_size).domain_size
    return min(1.0, 0.5 + 1.5 * _check_int(budget, "budget", 0, N) / N)


def classical_learner_classify(
    oracle: IndicatorOracle, concept_start: int, budget: int, rng_seed
) -> tuple[int, QueryLedger]:
    """Brute-force strategy: probe budget-many +1-class indices, else guess -1.

    The concept threshold is assumed known; the budget buys oracle probes
    only.  Probes are distinct indices drawn uniformly from the +1 region
    (capped at its size), each charged as one classical evaluation.  A budget
    that covers the region probes all of it as one range query
    (:meth:`IndicatorOracle.evaluate_range`, charged per index), and then
    nothing is drawn.
    """
    N = oracle.domain_size
    budget = _check_int(budget, "budget", 0, N)
    concept, half = Concept(concept_start, N), N // 2
    n_probes = min(budget, half)
    if n_probes == half:  # one range query over [start, start + N/2), with no array of it
        found = oracle.evaluate_range(concept.start, concept.start + half)
    elif n_probes > 0:
        probes = as_rng(rng_seed).choice(concept.positive_region(), size=n_probes, replace=False)
        found = bool(oracle.evaluate_batch(probes).any())
    else:
        found = False
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

    m is a positive integer and N a ``Concept`` domain size.  The coverage
    target makes training intervals overlap so that test points near any
    index see nonzero kernel values against some support vector.
    """
    train_size = _check_int(train_size, "train size", 1)
    domain_size = Concept(0, domain_size).domain_size
    width = 1
    while train_size * width < 2 * domain_size:
        width *= 2
    return min(width, domain_size // 8)


def default_shots(train_size: int) -> int:
    """Noise-robustness default R = m^4 for a positive integer training size m."""
    return _check_int(train_size, "train size", 1) ** 4


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
    the change in the oracles' counters over its phase.  The Gram entries
    draw from streams keyed by (seed, i, j) and test point t against support
    vector sv from (seed, 0x7E57, t, sv); every stream of a phase is
    seeded in one batch by :func:`kernel_sampled_many`.
    """
    config = config or GroverConfig()
    if config.backend != "ideal":
        raise StructuralError("the quantum-kernel learner samples the ideal kernel only")
    check_shots(shots)
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
    t_idx, sv_idx = np.nonzero(rows)
    rows[t_idx, sv_idx] = kernel_sampled_many(
        rows[t_idx, sv_idx], shots, (check_seed(rng_seed), _TEST_STREAM_TAG),
        np.stack([t_idx, sv_idx], axis=1),
    )
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
    seeds = np.random.SeedSequence(check_seed(rng_seed)).spawn(m + len(test_oracles))

    searches = grover_search_many(train.oracles, config, seeds[:m])
    recovered = np.array([value for value, _ in searches], dtype=np.int64)
    train_ledger = merge_ledgers(ledger for _, ledger in searches)

    entries = kernel_exact_many(recovered[:, None], recovered[None, :], interval_width, N)
    model = svm.train(entries, train.labels, box_bound=box_bound)

    searches = grover_search_many(test_oracles, config, seeds[m:])
    found = np.array([value for value, _ in searches], dtype=np.int64)
    infer_ledger = merge_ledgers(ledger for _, ledger in searches)
    rows = kernel_exact_many(found[:, None], recovered[None, :], interval_width, N)
    predictions = np.array([svm.decide(model, row)[1] for row in rows], dtype=np.int64)
    return LearnerResult(predictions, train_ledger, infer_ledger, model.support_count, model)


def classical_learner(
    concept: Concept, test_oracles, budget: int, rng_seed
) -> LearnerResult:
    """Brute-force baseline applied to every test oracle (threshold known for free)."""
    seeds = np.random.SeedSequence(check_seed(rng_seed)).spawn(len(test_oracles))
    outcomes = [
        classical_learner_classify(oracle, concept.start, budget, seed)
        for oracle, seed in zip(test_oracles, seeds)
    ]
    predictions = np.array([label for label, _ in outcomes], dtype=np.int64)
    infer_ledger = merge_ledgers(ledger for _, ledger in outcomes)
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
    marked = np.arange(train_size) * (domain_size // train_size)
    oracles = [IndicatorOracle(domain_size, int(v)) for v in marked]
    return Dataset(oracles, concept.label(marked), concept)


# The layout is scale-invariant and the learner streams do not depend on N,
# so every domain size repeats the first one's fits: solve each of them once.
@svm.solved_once()
def complexity_sweep(
    learner: str,
    domain_sizes,
    trials: int,
    rng_seed,
    train_size: int = 8,
    shots: int = 16,
    box_bound: float = 10.0,
) -> list[SweepRow]:
    """Mean inference queries per classification for each domain size.

    Uses the ideal backend (the analytic path) so domain sizes far beyond the
    dense-simulation cap stay cheap.  The quantum kernel learner runs at fixed
    training size and shot count so only the search cost scales with N.
    """
    if learner not in LEARNER_KINDS:
        raise StructuralError(f"learner must be one of {LEARNER_KINDS}")
    trials = _check_int(trials, "trials", 1)
    train_size = _check_int(train_size, "train size", 1)
    domain_sizes = [Concept(0, N).domain_size for N in domain_sizes]  # the layout's concept
    seed = check_seed(rng_seed)
    config = GroverConfig(backend="ideal")
    rows = []
    for N in domain_sizes:
        interval = max(1, N // 4)
        dataset = _sweep_training_layout(N, train_size)
        queries = []
        supports = []
        for trial in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence([seed, N, trial]))
            test_marked = rng.integers(0, N, size=_SWEEP_TEST_POINTS)
            test_oracles = [IndicatorOracle(N, int(v)) for v in test_marked]
            # Learner streams depend on (seed, trial) but not N, so sampled
            # Gram noise is identical across domain sizes at a matched trial.
            learner_seed = _derived_seed(seed, trial)
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
            queries.append(result.infer_ledger.total_queries / _SWEEP_TEST_POINTS)
            supports.append(result.support_count)
        rows.append(SweepRow(learner, N, float(np.mean(queries)), float(np.mean(supports))))
    return rows


def loglog_slope(xs, ys) -> tuple[float, float]:
    """Least-squares slope of log(y) against log(x) with its standard error."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise StructuralError("slope fit needs one y per x")
    if not all(np.all(np.isfinite(v) & (v > 0)) for v in (xs, ys)):
        raise StructuralError("slope fit needs finite positive x and y")
    if np.unique(xs).size < 2:
        raise StructuralError("slope fit needs at least two distinct x")
    lx, ly = np.log(xs), np.log(ys)
    x_centered = lx - lx.mean()
    sxx = float(np.sum(x_centered**2))
    slope = float(np.sum(x_centered * ly) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    residuals = ly - (slope * lx + intercept)
    dof = max(1, lx.size - 2)
    stderr = math.sqrt(float(np.sum(residuals**2)) / dof / sxx)
    return slope, stderr
