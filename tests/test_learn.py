"""Concepts, datasets, halfspace geometry, and the three learners with their ledgers."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from groversvm.errors import StructuralError
from groversvm.grover import (
    GroverConfig,
    IndicatorOracle,
    grover_search,
    interval_state_analytic,
    resolve_iterations,
)
from groversvm.kernel import GramMatrix, KernelMode, gram_matrix, kernel_exact, kernel_sampled
from groversvm.ledger import QueryLedger
from groversvm.learn import (
    Concept,
    Dataset,
    HalfspaceState,
    classical_accuracy_bound,
    classical_learner,
    classical_learner_classify,
    complexity_sweep,
    default_interval_width,
    default_shots,
    generate_balanced_test,
    generate_dataset,
    halfspace_overlap,
    halfspace_overlap_profile,
    loglog_slope,
    margin_gap,
    preprocessing_learner,
    quantum_kernel_learner,
    reference_hyperplane_classify,
)
from groversvm import svm


class TestConcept:
    def test_interval_start_is_positive(self):
        assert Concept(0, 16).label(0) == 1

    def test_interval_edge(self):
        concept = Concept(0, 16)
        assert concept.label(7) == 1
        assert concept.label(8) == -1

    def test_below_interval_is_negative(self):
        assert Concept(3, 16).label(2) == -1

    def test_start_range_enforced(self):
        with pytest.raises(StructuralError):
            Concept(8, 16)
        with pytest.raises(StructuralError):
            Concept(-1, 16)

    def test_half_of_domain_is_positive(self):
        concept = Concept(5, 64)
        labels = [concept.label(j) for j in range(64)]
        assert labels.count(1) == 32


class TestDatasetGeneration:
    def test_exhaustive_draw(self):
        concept = Concept(0, 16)
        dataset = generate_dataset(concept, 16, rng_seed=0)
        marked = np.sort(dataset.marked_indices())
        npt.assert_array_equal(marked, np.arange(16))
        assert np.sum(dataset.labels == 1) == 8
        for j in range(8):
            assert dataset.labels[list(dataset.marked_indices()).index(j)] == 1

    def test_determinism(self):
        concept = Concept(3, 32)
        a = generate_dataset(concept, 8, rng_seed=5)
        b = generate_dataset(concept, 8, rng_seed=5)
        npt.assert_array_equal(a.marked_indices(), b.marked_indices())
        npt.assert_array_equal(a.labels, b.labels)

    def test_oversized_rejected(self):
        with pytest.raises(StructuralError):
            generate_dataset(Concept(0, 16), 17, rng_seed=0)

    def test_both_classes_present(self):
        for seed in range(10):
            dataset = generate_dataset(Concept(1, 64), 4, rng_seed=seed)
            assert dataset.labels.max() == 1 and dataset.labels.min() == -1

    def test_label_consistency_enforced(self):
        concept = Concept(0, 16)
        with pytest.raises(StructuralError):
            Dataset([IndicatorOracle(16, 0)], np.array([-1]), concept)


class TestBalancedTest:
    def test_exact_balance(self):
        oracles, labels = generate_balanced_test(Concept(2, 64), 20, rng_seed=1)
        assert np.sum(labels == 1) == 10
        assert np.sum(labels == -1) == 10
        concept = Concept(2, 64)
        for oracle, label in zip(oracles, labels):
            assert concept.label(oracle.marked) == label


class TestHalfspaceOverlap:
    def test_interior_positive_value(self):
        assert halfspace_overlap(0, 3, 2, 16) == pytest.approx(0.25, abs=1e-15)

    def test_interior_negative_is_zero(self):
        assert halfspace_overlap(0, 10, 2, 16) == 0.0

    def test_boundary_straddler(self):
        assert halfspace_overlap(0, 7, 2, 16) == pytest.approx(0.0625, abs=1e-15)

    def test_matches_statevector_oracle(self):
        # Independent oracle: explicit |<halfspace|interval>|^2 inner product.
        for start, marked, M, N in [(0, 3, 2, 16), (0, 7, 2, 16), (5, 20, 4, 64), (3, 60, 8, 64)]:
            phi = HalfspaceState(start, N).statevector().amplitudes
            psi = interval_state_analytic(marked, M, N).amplitudes
            expected = abs(np.vdot(phi, psi)) ** 2
            assert halfspace_overlap(start, marked, M, N) == pytest.approx(expected, abs=1e-12)

    def test_profile_matches_pointwise(self):
        profile = halfspace_overlap_profile(3, 4, 64)
        for t in range(64):
            assert profile[t] == pytest.approx(halfspace_overlap(3, t, 4, 64), abs=1e-12)

    def test_class_fractions(self):
        # At least a 1 - Delta fraction of each class sits at Delta (resp. zero);
        # the sharp count is N/2 - M + 1 (one boundary-exact index beyond the
        # sufficient-condition count of N/2 - M).
        for N, M, start in [(16, 2, 0), (64, 4, 7), (256, 16, 100)]:
            concept = Concept(start, N)
            delta = margin_gap(M, N)
            profile = halfspace_overlap_profile(start, M, N)
            plus = concept.positive_region()
            minus = concept.negative_region()
            at_delta = np.sum(np.isclose(profile[plus], delta, atol=1e-12))
            at_zero = np.sum(profile[minus] == 0.0)
            assert at_delta == N // 2 - M + 1
            assert at_zero == N // 2 - M + 1
            assert at_delta >= (1 - delta) * N / 2
            assert at_zero >= (1 - delta) * N / 2


class TestReferenceHyperplane:
    def test_interior_points(self):
        assert reference_hyperplane_classify(0, 3, 2, 16) == 1
        assert reference_hyperplane_classify(0, 10, 2, 16) == -1

    def test_error_rate_bounded_by_delta(self):
        N, M, start = 64, 4, 0
        concept = Concept(start, N)
        wrong = sum(
            reference_hyperplane_classify(start, t, M, N) != concept.label(t)
            for t in range(N)
        )
        assert wrong / N <= margin_gap(M, N)


class TestClassicalBound:
    def test_endpoints(self):
        assert classical_accuracy_bound(0, 16) == 0.5
        assert classical_accuracy_bound(16, 16) == 1.0

    def test_paper_value(self):
        assert classical_accuracy_bound(4, 16) == pytest.approx(0.875, abs=1e-15)

    def test_learner_finds_marked_inside_probes(self):
        # Probing the whole positive region finds every in-class element.
        oracle = IndicatorOracle(16, 5)
        label, ledger = classical_learner_classify(oracle, 0, 8, rng_seed=0)
        assert label == 1
        assert ledger.classical_evaluations == 8

    def test_zero_budget_always_guesses_negative(self):
        for marked in (2, 11):
            label, ledger = classical_learner_classify(IndicatorOracle(16, marked), 0, 0, 1)
            assert label == -1
            assert ledger.classical_evaluations == 0

    def test_monte_carlo_respects_bound(self):
        N, trials = 256, 4000
        concept = Concept(0, N)
        for budget in (0, N // 8, N // 4):
            rng = np.random.default_rng(17)
            correct = 0
            for _ in range(trials):
                marked = int(rng.integers(0, N))
                label, _ = classical_learner_classify(IndicatorOracle(N, marked), 0, budget, rng)
                correct += label == concept.label(marked)
            bound = classical_accuracy_bound(budget, N)
            sigma = math.sqrt(bound * (1 - bound) / trials)
            assert correct / trials <= bound + 3 * sigma + 1e-12


class TestQuantumKernelLearner:
    def test_per_test_point_query_cost(self):
        # One classification costs d * R * 4k oracle queries (k = 3 at N = 16).
        concept = Concept(0, 16)
        dataset = generate_dataset(concept, 8, rng_seed=1)
        result = quantum_kernel_learner(
            dataset, [IndicatorOracle(16, 5)], 2, shots=10, box_bound=10.0, rng_seed=3
        )
        d = result.support_count
        assert result.infer_ledger.oracle_queries == d * 10 * 12
        assert result.infer_ledger.shots == d * 10

    def test_spec_example_cost_with_four_support_vectors(self):
        # Four well-separated points at N=16 keep all four as support vectors.
        concept = Concept(0, 16)
        oracles = [IndicatorOracle(16, v) for v in (1, 5, 9, 13)]
        labels = np.array([concept.label(o.marked) for o in oracles])
        dataset = Dataset(oracles, labels, concept)
        result = quantum_kernel_learner(
            dataset, [IndicatorOracle(16, 2)], 2, shots=10, box_bound=10.0, rng_seed=0
        )
        assert result.support_count == 4
        assert result.infer_ledger.oracle_queries == 480

    def test_training_cost_scales_with_pairs(self):
        concept = Concept(0, 16)
        dataset = generate_dataset(concept, 6, rng_seed=2)
        result = quantum_kernel_learner(
            dataset, [], 2, shots=8, box_bound=1.0, rng_seed=0
        )
        pairs = 6 * 5 // 2
        assert result.train_ledger.oracle_queries == pairs * 8 * 12
        assert result.train_ledger.shots == pairs * 8

    def test_noiseless_limit_matches_exact_kernel_svm(self):
        # Well-separated data and margin-distant test points: a 1e7-shot
        # surrogate reproduces the exact-kernel decisions everywhere.
        N, M = 64, 8
        concept = Concept(0, N)
        marks = [4, 12, 20, 28, 36, 44, 52, 60]
        oracles = [IndicatorOracle(N, v) for v in marks]
        dataset = Dataset(oracles, np.array([concept.label(v) for v in marks]), concept)
        test_oracles = [IndicatorOracle(N, v) for v in (6, 16, 26, 38, 48, 58)]
        sampled = quantum_kernel_learner(
            dataset, test_oracles, M, shots=10_000_000, box_bound=10.0, rng_seed=5
        )
        exact_gram = gram_matrix(dataset.oracles, M, KernelMode.exact())
        model = svm.train(exact_gram, dataset.labels, box_bound=10.0)
        from groversvm.kernel import kernel_exact

        exact_pred = [
            svm.decide(model, [kernel_exact(t.marked, v, M, N) for v in marks])[1]
            for t in test_oracles
        ]
        npt.assert_array_equal(sampled.predictions, exact_pred)

    def test_accuracy_monotone_in_shots(self):
        N, m, M = 128, 16, 16
        budgets = [m**2, m**3, m**4]
        means = []
        for shots in budgets:
            accs = []
            for seed in range(12):
                concept = Concept(seed % (N // 2), N)
                dataset = generate_dataset(concept, m, rng_seed=seed)
                test_o, test_y = generate_balanced_test(concept, 60, rng_seed=1000 + seed)
                result = quantum_kernel_learner(
                    dataset, test_o, M, shots, 100.0, rng_seed=seed
                )
                accs.append(result.accuracy(test_y))
            means.append(np.mean(accs))
        assert means[1] >= means[0] - 0.02
        assert means[2] >= means[1] - 0.02


    @pytest.mark.parametrize("marks", [[3, 9, 40, 50], [4, 20, 36, 52]])
    def test_negative_seed_rejected_before_any_charge(self, marks):
        # The second set has no nonzero off-diagonal kernel at M = 2.
        concept = Concept(0, 64)
        oracles = [IndicatorOracle(64, v) for v in marks]
        dataset = Dataset(oracles, np.array([concept.label(v) for v in marks]), concept)
        test_oracle = IndicatorOracle(64, 5)
        with pytest.raises(StructuralError):
            quantum_kernel_learner(dataset, [test_oracle], 2, 8, 10.0, rng_seed=-3)
        assert [o.query_count for o in oracles + [test_oracle]] == [0] * 5


def _reference_quantum_kernel_learner(train, test_oracles, M, shots, box_bound, seed):
    """The per-pair and per-entry loops: one stream, one draw and two charges each."""
    N = train.concept.domain_size
    k = resolve_iterations(N, GroverConfig())
    m = train.size
    entries = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            true = kernel_exact(train.oracles[i].marked, train.oracles[j].marked, M, N)
            stream = np.random.default_rng(np.random.SeedSequence([seed, i, j]))
            entries[i, j] = entries[j, i] = kernel_sampled(true, shots, stream)
            train.oracles[i].charge_queries(2 * k * shots)
            train.oracles[j].charge_queries(2 * k * shots)
    model = svm.train(GramMatrix(entries, KernelMode.sampled(shots)), train.labels, box_bound)
    predictions = []
    for t_idx, oracle in enumerate(test_oracles):
        row = np.zeros(m)
        for sv in model.support_indices:
            true = kernel_exact(oracle.marked, train.oracles[sv].marked, M, N)
            stream = np.random.SeedSequence([seed & 0xFFFFFFFF, 0x7E57, t_idx, int(sv)])
            row[sv] = kernel_sampled(true, shots, np.random.default_rng(stream))
            oracle.charge_queries(2 * k * shots)
            train.oracles[sv].charge_queries(2 * k * shots)
        predictions.append(svm.decide(model, row)[1])
    pairs = m * (m - 1) // 2
    entries_inferred = len(test_oracles) * model.support_count
    train_ledger = QueryLedger(pairs * shots * 4 * k, pairs * shots)
    infer_ledger = QueryLedger(entries_inferred * shots * 4 * k, entries_inferred * shots)
    return predictions, model, train_ledger, infer_ledger


def _reference_preprocessing_learner(train, test_oracles, M, box_bound, seed):
    """Per-pair Gram loop and one scalar kernel row per test point."""
    N = train.concept.domain_size
    m = train.size
    seeds = np.random.SeedSequence(seed & 0xFFFFFFFF).spawn(m + len(test_oracles))
    recovered = [grover_search(o, GroverConfig(), seeds[i])[0] for i, o in enumerate(train.oracles)]
    entries = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            entries[i, j] = entries[j, i] = kernel_exact(recovered[i], recovered[j], M, N)
    model = svm.train(entries, train.labels, box_bound=box_bound)
    predictions = []
    for t_idx, oracle in enumerate(test_oracles):
        found, _ = grover_search(oracle, GroverConfig(), seeds[m + t_idx])
        row = np.array([kernel_exact(int(found), int(r), M, N) for r in recovered])
        predictions.append(svm.decide(model, row)[1])
    return predictions, model


def _learner_inputs(N, m, data_seed):
    """A fresh dataset and test set; every training point is also a test point (K = 1)."""
    dataset = generate_dataset(Concept(data_seed % (N // 2), N), m, rng_seed=data_seed)
    marks = [*dataset.marked_indices(), 0, N - 1, N // 2, *range(3, N, N // 7)]
    return dataset, [IndicatorOracle(N, int(v)) for v in marks]


class TestLearnersMatchPerPairLoops:
    @pytest.mark.parametrize("seed", [0, 3, 2**32 + 1])
    @pytest.mark.parametrize("N, m, M, shots", [(256, 24, 8, 16), (64, 12, 15, 4)])
    def test_quantum_kernel_learner_bit_identical(self, N, m, M, shots, seed):
        train, tests = _learner_inputs(N, m, seed % 97)
        result = quantum_kernel_learner(train, tests, M, shots, 10.0, rng_seed=seed)
        ref_train, ref_tests = _learner_inputs(N, m, seed % 97)
        predictions, model, train_ledger, infer_ledger = _reference_quantum_kernel_learner(
            ref_train, ref_tests, M, shots, 10.0, seed
        )
        assert result.support_count == model.support_count > 0
        npt.assert_array_equal(result.predictions, predictions)
        assert np.array_equal(result.model.dual_coeffs, model.dual_coeffs)
        assert result.model.bias == model.bias
        assert result.train_ledger == train_ledger
        assert result.infer_ledger == infer_ledger
        counts = [o.query_count for o in train.oracles + tests]
        assert counts == [o.query_count for o in ref_train.oracles + ref_tests]

    @pytest.mark.parametrize("seed", [0, 5])
    def test_preprocessing_learner_bit_identical(self, seed):
        train, tests = _learner_inputs(64, 12, seed)
        result = preprocessing_learner(train, tests, 8, 10.0, rng_seed=seed)
        ref_train, ref_tests = _learner_inputs(64, 12, seed)
        predictions, model = _reference_preprocessing_learner(ref_train, ref_tests, 8, 10.0, seed)
        npt.assert_array_equal(result.predictions, predictions)
        assert np.array_equal(result.model.dual_coeffs, model.dual_coeffs)
        assert result.model.bias == model.bias


class TestLedgerMatchesOracleCounters:
    def test_quantum_kernel_learner(self):
        train, tests = _learner_inputs(128, 16, 4)
        result = quantum_kernel_learner(train, tests, 16, 8, 10.0, rng_seed=4)
        billed = sum(o.query_count for o in train.oracles + tests)
        assert billed == result.ledger.oracle_queries > 0

    def test_preprocessing_learner(self):
        train, tests = _learner_inputs(128, 16, 4)
        result = preprocessing_learner(train, tests, 16, 10.0, rng_seed=4)
        billed = sum(o.query_count for o in train.oracles + tests)
        assert billed == result.ledger.oracle_queries > 0

    def test_classical_learner(self):
        train, tests = _learner_inputs(128, 16, 4)
        result = classical_learner(train.concept, tests, 20, rng_seed=4)
        assert sum(o.query_count for o in tests) == result.ledger.classical_evaluations > 0


class TestPreprocessingLearner:
    def test_matches_exact_kernel_svm_predictions(self):
        N, M = 64, 8
        concept = Concept(0, N)
        dataset = generate_dataset(concept, 10, rng_seed=3)
        test_oracles = [IndicatorOracle(N, int(v)) for v in range(0, 64, 7)]
        result = preprocessing_learner(dataset, test_oracles, M, 10.0, rng_seed=0)
        exact_gram = gram_matrix(dataset.oracles, M, KernelMode.exact())
        model = svm.train(exact_gram, dataset.labels, box_bound=10.0)
        from groversvm.kernel import kernel_exact

        marks = dataset.marked_indices()
        expected = [
            svm.decide(model, [kernel_exact(t.marked, int(v), M, N) for v in marks])[1]
            for t in test_oracles
        ]
        npt.assert_array_equal(result.predictions, expected)

    def test_ledger_is_one_search_per_datum(self):
        N = 16  # k = 3
        concept = Concept(0, N)
        dataset = generate_dataset(concept, 8, rng_seed=1)
        tests = [IndicatorOracle(N, 3), IndicatorOracle(N, 12)]
        result = preprocessing_learner(dataset, tests, 2, 1.0, rng_seed=0)
        assert result.train_ledger.oracle_queries == 8 * 3
        assert result.infer_ledger.oracle_queries == 2 * 3

    def test_cost_independent_of_shot_budget_and_support(self):
        N = 64  # k = 6
        concept = Concept(0, N)
        dataset = generate_dataset(concept, 12, rng_seed=2)
        result = preprocessing_learner(dataset, [IndicatorOracle(N, 9)], 8, 1.0, rng_seed=0)
        assert result.infer_ledger.oracle_queries == 6


class TestClassicalLearner:
    def test_batch_wrapper(self):
        concept = Concept(0, 32)
        tests = [IndicatorOracle(32, v) for v in (1, 20)]
        result = classical_learner(concept, tests, budget=16, rng_seed=0)
        assert result.predictions[0] == 1  # full positive region probed
        assert result.predictions[1] == -1
        assert result.infer_ledger.classical_evaluations == 32
        assert result.support_count == 0


class TestComplexitySweep:
    def test_classical_slope_is_one(self):
        rows = complexity_sweep("classical", [16, 32, 64, 128, 256], 2, rng_seed=0)
        slope, err = loglog_slope(
            [r.domain_size for r in rows],
            [r.mean_queries_per_classification for r in rows],
        )
        assert slope == pytest.approx(1.0, abs=1e-9)

    def test_preprocessing_slope_near_half(self):
        sizes = [2**p for p in range(4, 13)]
        rows = complexity_sweep("preprocessing", sizes, 2, rng_seed=0)
        slope, err = loglog_slope(
            [r.domain_size for r in rows],
            [r.mean_queries_per_classification for r in rows],
        )
        assert abs(slope - 0.5) <= 0.05

    def test_quantum_to_preprocessing_ratio(self):
        rows_q = complexity_sweep("quantum_kernel", [64, 128, 256, 512], 2, rng_seed=3)
        rows_p = complexity_sweep("preprocessing", [64, 128, 256, 512], 2, rng_seed=3)
        for rq, rp in zip(rows_q, rows_p):
            expected = 4.0 * rq.mean_support_count * 16  # default shots = 16
            ratio = rq.mean_queries_per_classification / rp.mean_queries_per_classification
            assert ratio == pytest.approx(expected, rel=1e-9)

    def test_rejects_bad_sizes(self):
        with pytest.raises(StructuralError):
            complexity_sweep("classical", [10, 16, 32, 64], 1, rng_seed=0)


class TestDefaults:
    def test_interval_width_coverage_rule(self):
        assert default_interval_width(64, 1024) == 32
        assert default_interval_width(32, 1024) == 64
        assert default_interval_width(4, 1024) == 128  # capped at N/8

    def test_shot_default_is_fourth_power(self):
        assert default_shots(8) == 4096


class TestLedgerMerge:
    def test_merge_is_associative_and_componentwise(self):
        from groversvm.ledger import QueryLedger, merge_ledgers

        a = QueryLedger(oracle_queries=3, shots=1, classical_evaluations=4)
        b = QueryLedger(oracle_queries=5, shots=9, classical_evaluations=2)
        c = QueryLedger(oracle_queries=6, shots=5, classical_evaluations=3)
        left = merge_ledgers([a.merged(b), c])
        right = merge_ledgers([a, b.merged(c)])
        assert left == right
        assert left.oracle_queries == 14
        assert left.total_queries == 14 + 9

    def test_total_is_sum_of_parts(self):
        concept = Concept(0, 16)
        dataset = generate_dataset(concept, 4, rng_seed=0)
        result = quantum_kernel_learner(
            dataset, [IndicatorOracle(16, 2)], 2, shots=5, box_bound=1.0, rng_seed=0
        )
        total = result.ledger
        assert total.oracle_queries == (
            result.train_ledger.oracle_queries + result.infer_ledger.oracle_queries
        )
        assert total.shots == result.train_ledger.shots + result.infer_ledger.shots
