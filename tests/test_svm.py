"""SVM dual solver: analytic cases, QP oracle, KKT invariants, and the reference loop."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from groversvm.errors import ContractViolationError, DegenerateProblemError, StructuralError
from groversvm.grover import IndicatorOracle
from groversvm.kernel import GramMatrix, KernelMode, gram_matrix
from groversvm.learn import Concept, default_interval_width, generate_dataset
from groversvm import svm
from groversvm.svm import decide, dual_objective, kkt_gap, train
import svm_reference
from svm_reference import brute_force_qp, train_reference


def random_instance(rng, size=None, N=64, M=8):
    """Random exact-Gram training problem with both classes present."""
    m = size or int(rng.integers(3, 9))
    while True:
        marks = rng.choice(N, size=m, replace=False)
        labels = np.where(marks < N // 2, 1, -1)
        if labels.max() == 1 and labels.min() == -1:
            break
    gram = gram_matrix([IndicatorOracle(N, int(v)) for v in marks], M, KernelMode.exact())
    return gram.entries, labels


class TestTwoPointCases:
    def test_correlated_pair(self):
        model = train(np.array([[1.0, 0.5], [0.5, 1.0]]), [1, -1], box_bound=10.0, tol=1e-8)
        npt.assert_allclose(model.dual_coeffs, [2.0, 2.0], atol=1e-8)
        assert abs(model.bias) < 1e-8
        assert model.stop_reason == "converged" and model.iterations >= 1
        for row, expected in [([1.0, 0.5], 1.0), ([0.5, 1.0], -1.0)]:
            score, label = decide(model, row)
            assert score == pytest.approx(expected, abs=1e-8)
            assert label == (1 if expected > 0 else -1)

    def test_identity_gram(self):
        model = train(np.eye(2), [1, -1], box_bound=10.0)
        npt.assert_allclose(model.dual_coeffs, [1.0, 1.0], atol=1e-8)
        assert abs(model.bias) < 1e-8

    def test_brute_force_agrees_on_two_point_case(self):
        gram = np.array([[1.0, 0.5], [0.5, 1.0]])
        oracle = brute_force_qp(gram, [1, -1], box_bound=10.0)
        npt.assert_allclose(oracle.dual_coeffs, [2.0, 2.0], atol=1e-6)
        assert abs(oracle.bias) < 1e-6


class TestFeasibilityInvariants:
    def test_box_and_equality_constraints(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            K, y = random_instance(rng)
            C = float(rng.choice([0.5, 1.0, 10.0]))
            model = train(K, y, box_bound=C)
            assert np.all(model.dual_coeffs >= 0.0)
            assert np.all(model.dual_coeffs <= C)
            assert abs(np.dot(model.dual_coeffs, model.labels)) <= 1e-8

    def test_kkt_gap_below_tolerance(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            K, y = random_instance(rng)
            model = train(K, y, box_bound=5.0, tol=1e-10)
            assert kkt_gap(K, y, model.dual_coeffs, 5.0) <= 1e-8

    def test_free_support_vectors_sit_on_margin(self):
        rng = np.random.default_rng(3)
        K, y = random_instance(rng, size=8)
        model = train(K, y, box_bound=10.0, tol=1e-10)
        u = K @ (model.dual_coeffs * model.labels) + model.bias
        free = (model.dual_coeffs > 1e-9) & (model.dual_coeffs < 10.0 - 1e-9)
        assert np.all(y[free] * u[free] >= 1.0 - 1e-6)


class TestOracleEquivalence:
    def test_decision_values_match_on_50_instances(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 50:
            K, y = random_instance(rng)
            C = float(rng.choice([0.5, 1.0, 10.0]))
            fast = train(K, y, box_bound=C, tol=1e-10)
            slow = brute_force_qp(K, y, C)
            u_fast = K @ (fast.dual_coeffs * fast.labels) + fast.bias
            u_slow = K @ (slow.dual_coeffs * slow.labels) + slow.bias
            npt.assert_allclose(u_fast, u_slow, atol=1e-4)
            checked += 1

    def test_labels_match_on_unseen_rows(self):
        rng = np.random.default_rng(8)
        K, y = random_instance(rng, size=6)
        fast = train(K, y, box_bound=1.0, tol=1e-10)
        slow = brute_force_qp(K, y, 1.0)
        for _ in range(20):
            row = rng.uniform(0.0, 1.0, size=6)
            score_f, label_f = decide(fast, row)
            score_s, label_s = decide(slow, row)
            assert abs(score_f - score_s) < 1e-4
            if abs(score_f) > 1e-3:
                assert label_f == label_s


class TestBruteForceOracle:
    def test_refuses_large_problems(self):
        with pytest.raises(StructuralError):
            brute_force_qp(np.eye(9), [1] * 8 + [-1], 1.0)

    def test_zero_box_bound_returns_zero_vector(self):
        with pytest.warns(UserWarning):
            model = brute_force_qp(np.eye(4), [1, 1, -1, -1], 0.0)
        npt.assert_array_equal(model.dual_coeffs, np.zeros(4))
        assert model.support_count == 0


class TestSolverProperties:
    def test_objective_monotone_nondecreasing(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            K, y = random_instance(rng, size=8)
            history = []
            train(K, y, box_bound=5.0, objective_history=history)
            assert len(history) >= 1
            diffs = np.diff(history)
            assert np.all(diffs >= -1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        K, y = random_instance(rng, size=7)
        model = train(K, y, box_bound=2.0, tol=1e-10)
        perm = rng.permutation(7)
        model_p = train(K[np.ix_(perm, perm)], y[perm], box_bound=2.0, tol=1e-10)
        npt.assert_allclose(model_p.dual_coeffs, model.dual_coeffs[perm], atol=1e-6)
        for _ in range(10):
            row = rng.uniform(0.0, 1.0, size=7)
            assert decide(model, row)[1] == decide(model_p, row[perm])[1]

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(11)
        K, y = random_instance(rng, size=8)
        a = train(K, y, box_bound=3.0)
        b = train(K, y, box_bound=3.0)
        npt.assert_array_equal(a.dual_coeffs, b.dual_coeffs)
        assert a.bias == b.bias

    @pytest.mark.parametrize("C", [0.1, 1.0, 100.0])
    def test_negative_curvature_pairs(self, C):
        # Symmetric matrices with diagonals in [0, 1) and entries in [-1, 1]
        # have pairs with eta = K_ii + K_jj - 2 K_ij < 0; no package kernel
        # makes one, and the floored step must still ascend and stop cleanly.
        rng = np.random.default_rng(14)
        for _ in range(30):
            m = int(rng.integers(6, 40))
            A = rng.uniform(-1.0, 1.0, size=(m, m))
            K = (A + A.T) / 2.0
            K[np.diag_indices(m)] = rng.uniform(0.0, 1.0, size=m)
            diag = np.diag(K)
            assert np.any(diag[:, None] + diag[None, :] - 2.0 * K < 0.0)
            y = np.resize([1, -1], m)[rng.permutation(m)]
            history = []
            model = train(K, y, box_bound=C, objective_history=history)
            assert np.all(np.diff(history) >= -1e-10)
            assert model.stop_reason in ("converged", "no_progress")
            if model.stop_reason == "converged":
                assert kkt_gap(K, y, model.dual_coeffs, C) <= 1e-7

    def test_indefinite_sampled_gram_trains_to_feasible_point(self):
        oracles = [IndicatorOracle(32, v) for v in (0, 2, 4, 6, 16, 18, 20, 22)]
        gram = gram_matrix(oracles, 8, KernelMode.sampled(2), rng_seed=1)
        labels = np.array([1, 1, 1, 1, -1, -1, -1, -1])
        assert np.linalg.eigvalsh(gram.entries)[0] < 0  # genuinely indefinite input
        model = train(gram, labels, box_bound=1.0)
        assert np.all(model.dual_coeffs >= 0) and np.all(model.dual_coeffs <= 1.0)
        assert abs(np.dot(model.dual_coeffs, model.labels)) <= 1e-8

    def test_objective_matches_helper(self):
        rng = np.random.default_rng(12)
        K, y = random_instance(rng, size=5)
        history = []
        model = train(K, y, box_bound=4.0, objective_history=history)
        assert history[-1] == pytest.approx(dual_objective(K, y, model.dual_coeffs), abs=1e-9)


class TestDecide:
    def test_zero_row_returns_bias(self):
        model = train(np.array([[1.0, 0.5], [0.5, 1.0]]), [1, -1], box_bound=10.0)
        score, label = decide(model, [0.0, 0.0])
        assert score == model.bias
        assert label == 1  # bias 0, ties go positive

    def test_scaling_preserves_labels(self):
        model = train(np.array([[1.0, 0.25], [0.25, 1.0]]), [1, -1], box_bound=10.0)
        scaled = type(model)(
            dual_coeffs=3.0 * model.dual_coeffs,
            labels=model.labels,
            bias=3.0 * model.bias,
            support_indices=model.support_indices,
            box_bound=model.box_bound,
        )
        rng = np.random.default_rng(13)
        for _ in range(25):
            row = rng.uniform(0.0, 1.0, size=2)
            assert decide(model, row)[1] == decide(scaled, row)[1]

    def test_length_mismatch_rejected(self):
        model = train(np.eye(2), [1, -1], box_bound=1.0)
        with pytest.raises(StructuralError):
            decide(model, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        model = train(np.eye(2), [1, -1], box_bound=1.0)
        with pytest.raises(ContractViolationError, match="finite"):
            decide(model, [bad, bad])
        with pytest.raises(ContractViolationError, match="finite"):
            decide(model, [0.5, bad])


class TestValidation:
    def test_single_class_rejected(self):
        with pytest.raises(DegenerateProblemError):
            train(np.eye(3), [1, 1, 1], box_bound=1.0)

    def test_asymmetric_gram_rejected(self):
        with pytest.raises(ContractViolationError):
            train(np.array([[1.0, 0.2], [0.4, 1.0]]), [1, -1], box_bound=1.0)

    def test_nonpositive_box_bound_rejected(self):
        with pytest.raises(StructuralError):
            train(np.eye(2), [1, -1], box_bound=0.0)

    @pytest.mark.parametrize("bound", [np.nan, np.inf, -np.inf])
    def test_non_finite_box_bound_rejected(self, bound):
        # Four points whose C = 100 solution is 0.4 each; NaN used to give
        # [0.519, 0.222, 0.519, 0.222] and inf to act as a large C.
        K = np.array([[1.0, 0.5, 0.5, 0.0], [0.5, 1.0, 0.0, 0.5],
                      [0.5, 0.0, 1.0, 0.5], [0.0, 0.5, 0.5, 1.0]])
        with pytest.raises(StructuralError, match="finite"):
            train(K, [1, -1, 1, -1], box_bound=bound)

    def test_bad_labels_rejected(self):
        with pytest.raises(StructuralError):
            train(np.eye(2), [1, 2], box_bound=1.0)

    @pytest.mark.parametrize("labels", [[True, -1], ["1", "-1"], [1.0, -1.0],
                                        np.array([1.0, -1.0])])
    def test_labels_must_be_integers(self, labels):
        # [True, -1], ["1", "-1"] and float labels were read as +1 and -1.
        with pytest.raises(StructuralError, match="labels must be integers"):
            train(np.eye(2), labels, box_bound=1.0)

    def test_zero_label_rejected(self):
        with pytest.raises(StructuralError, match="labels must be \\+1 or -1"):
            train(np.eye(2), [1, 0], box_bound=1.0)

    @pytest.mark.parametrize("bound", [True, np.bool_(True), "10", None])
    def test_box_bound_must_be_a_real_number(self, bound):
        # True was read as a box bound of 1.0 and "10" as 10.0.
        with pytest.raises(StructuralError, match="box bound must be a positive finite number"):
            train(np.eye(2), [1, -1], box_bound=bound)

    @pytest.mark.parametrize("bound", [0.0, -1.0, np.nan, np.inf, True, "1"])
    def test_kkt_gap_box_bound_must_be_positive_and_finite(self, bound):
        # kkt_gap took any box bound: 0.0 and NaN gave a gap, "1" a bare TypeError.
        with pytest.raises(StructuralError, match="box bound must be a positive finite number"):
            kkt_gap(np.eye(2), [1, -1], np.zeros(2), bound)

    def test_numpy_and_integer_box_bounds_accepted(self):
        K = np.array([[1.0, 0.5], [0.5, 1.0]])
        for bound in (10, np.int64(10), np.float32(10.0)):
            model = train(K, [1, -1], box_bound=bound)
            assert type(model.box_bound) is float and model.box_bound == 10.0
            assert kkt_gap(K, [1, -1], model.dual_coeffs, bound) <= 1e-8

    @pytest.mark.parametrize("tol", [np.nan, -1, -1e-12, np.inf, True, "1e-8", None])
    def test_bad_tolerance_rejected(self, tol):
        # NaN and -1 used to stop on no_progress, and inf to return an
        # untrained model marked converged.
        K = np.array([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(StructuralError, match="tol must be a finite non-negative number"):
            train(K, [1, -1], box_bound=10.0, tol=tol)

    @pytest.mark.parametrize("cap", [-5, -1, 2.5, 3.0, True, "7"])
    def test_bad_iteration_cap_rejected(self, cap):
        # -5 used to return a model with iterations == -5, and 2.5 to raise a bare TypeError.
        K = np.array([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(StructuralError, match="max_iterations must be a non-negative integer"):
            train(K, [1, -1], box_bound=10.0, max_iterations=cap)

    def test_zero_tolerance_and_numpy_arguments_are_accepted(self):
        K = np.array([[1.0, 0.5], [0.5, 1.0]])
        for tol, cap in ((0, None), (np.float32(1e-8), np.int64(50)), (0.0, np.uint8(9))):
            model = train(K, [1, -1], box_bound=10.0, tol=tol, max_iterations=cap)
            assert model.stop_reason == "converged"
            npt.assert_allclose(model.dual_coeffs, [2.0, 2.0], atol=1e-12)
        with pytest.warns(UserWarning, match="iteration cap"):
            model = train(K, [1, -1], box_bound=10.0, max_iterations=0)
        assert (model.iterations, model.stop_reason) == (0, "iteration_cap")

    @pytest.mark.parametrize("wrap", [np.array, lambda K: GramMatrix(K, KernelMode.exact())])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_non_finite_gram_rejected(self, bad, wrap):
        # Infinite entries passed the symmetry checks, and train returned bias = nan.
        K = wrap(np.array([[1.0, bad], [bad, 1.0]]))
        with pytest.raises(ContractViolationError, match="finite"):
            train(K, [1, -1])
        with pytest.raises(ContractViolationError, match="finite"):
            kkt_gap(K, [1, -1], np.zeros(2), 1.0)
        with pytest.raises(ContractViolationError, match="finite"):
            dual_objective(K, [1, -1], np.zeros(2))

    @pytest.mark.parametrize("alpha", [[1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]])
    def test_dual_objective_needs_one_coefficient_per_row(self, alpha):
        # A single coefficient was broadcast and the objective read 0.0.
        with pytest.raises(StructuralError, match="labels and coefficients"):
            dual_objective(np.eye(2), [1, -1], alpha)

    @pytest.mark.parametrize("call", [kkt_gap, dual_objective])
    def test_non_finite_coefficients_rejected(self, call):
        extra = (1.0,) if call is kkt_gap else ()
        with pytest.raises(ContractViolationError, match="finite"):
            call(np.eye(2), [1, -1], np.array([np.nan, 0.5]), *extra)
        with pytest.raises(StructuralError, match="labels"):
            call(np.eye(2), [1, 2], np.zeros(2), *extra)

    @pytest.mark.parametrize("labels, alpha", [([1, -1, 1], [0.5, 0.5]), ([1, -1, 1], [0.5] * 4),
                                               ([1, -1], [0.5, 0.5, 0.0]), ([[1, -1, 1]], [0.5] * 3)])
    def test_kkt_gap_needs_one_label_and_coefficient_per_row(self, labels, alpha):
        # An alpha of the wrong length raised a bare broadcasting ValueError.
        with pytest.raises(StructuralError, match="labels and coefficients"):
            kkt_gap(np.eye(3), labels, np.array(alpha), 1.0)


def gram_case(kind: str, m: int, seed: int):
    """A training problem whose Gram matrix is dense PSD, exact interval or shot-sampled."""
    if kind == "psd":
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(m, 3))
        labels = np.where(X @ [1.0, -0.5, 0.25] + 0.3 * rng.normal(size=m) > 0, 1, -1)
        return X @ X.T, labels
    N = 16 * m
    data = generate_dataset(Concept(int(seed) % N, N), m, seed)
    mode = KernelMode.exact() if kind == "exact" else KernelMode.sampled(4)
    return gram_matrix(data.oracles, N // 4, mode, rng_seed=seed).entries, data.labels


def benchmark_problem(kind: str, m: int, N: int):
    """A training problem of one benchmark fit's shape: exact, or sampled at R = 256."""
    data = generate_dataset(Concept(1, N), m, 1)
    mode = KernelMode.exact() if kind == "exact" else KernelMode.sampled(256)
    gram = gram_matrix(data.oracles, default_interval_width(m, N), mode, rng_seed=1)
    return gram, data.labels


def assert_same_run(K, y, C, **kwargs):
    """``train`` and the reference loop give the same bits; returns the history length."""
    history, reference_history = [], []
    model = train(K, y, C, objective_history=history, **kwargs)
    reference = train_reference(K, y, C, objective_history=reference_history, **kwargs)
    assert np.array_equal(model.dual_coeffs, reference.dual_coeffs)
    assert np.array_equal(model.support_indices, reference.support_indices)
    assert model.bias == reference.bias
    assert history == reference_history
    assert model.iterations == len(history)
    return len(history)


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("m", [8, 128, 512])
    @pytest.mark.parametrize("kind", ["psd", "exact", "sampled"])
    def test_same_bits(self, kind, m):
        K, y = gram_case(kind, m, seed=m + 3)
        if kind == "sampled":
            assert np.linalg.eigvalsh(K)[0] < 0  # genuinely indefinite input
        for C in (1.0, 100.0):
            assert assert_same_run(K, y, C) > 0

    def count_endpoint_steps(self, monkeypatch):
        """Record each eta <= 1e-15 step the reference loop takes."""
        calls = []
        endpoint_step = svm_reference._endpoint_step_reference
        monkeypatch.setattr(
            svm_reference,
            "_endpoint_step_reference",
            lambda *args: calls.append(args[5]) or endpoint_step(*args),
        )
        return calls

    def test_endpoint_step_path(self, monkeypatch):
        # Shot-sampled kernels of 1 off the diagonal give eta = 0 for that pair,
        # where the floored step must land where the endpoint search does.
        calls = self.count_endpoint_steps(monkeypatch)
        for seed in range(4):
            K, y = gram_case("sampled", 32, seed)
            assert_same_run(K, y, 100.0)
        assert calls

    @pytest.mark.parametrize("C", [1.0, 100.0])
    @pytest.mark.parametrize("shots", [1, 4])
    def test_flat_pairs_on_sampled_grams(self, monkeypatch, shots, C):
        calls = self.count_endpoint_steps(monkeypatch)
        for seed in range(10):
            data = generate_dataset(Concept(seed, 512), 32, seed)
            K = gram_matrix(data.oracles, 128, KernelMode.sampled(shots), rng_seed=seed).entries
            assert_same_run(K, data.labels, C)
        assert calls

    def test_iteration_cap_warns_on_both_sides(self):
        K, y = gram_case("exact", 128, seed=5)
        history, reference_history = [], []
        with pytest.warns(UserWarning, match="iteration cap"):
            model = train(K, y, 1.0, max_iterations=7, objective_history=history)
        with pytest.warns(UserWarning, match="iteration cap"):
            reference = train_reference(K, y, 1.0, max_iterations=7,
                                        objective_history=reference_history)
        assert len(history) == 7
        assert history == reference_history
        assert np.array_equal(model.dual_coeffs, reference.dual_coeffs)
        assert model.bias == reference.bias
        assert (model.iterations, model.stop_reason) == (7, "iteration_cap")

    def test_no_progress_stop(self):
        # Concept(5, 256), m=32, R=4, C=100, seed 12 stops on the no-progress
        # rule, far from the KKT tolerance and well below the iteration cap.
        data = generate_dataset(Concept(5, 256), 32, 12)
        K = gram_matrix(data.oracles, 32, KernelMode.sampled(4), rng_seed=12).entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # neither side may reach the cap
            steps = assert_same_run(K, data.labels, 100.0)
        model = train(K, data.labels, 100.0)
        assert steps < 400 * 32
        assert kkt_gap(K, data.labels, model.dual_coeffs, 100.0) > 1e-3
        assert (model.iterations, model.stop_reason) == (steps, "no_progress")

    @pytest.mark.parametrize("kind, seed", [("psd", 3), ("exact", 7)])
    def test_duplicated_points_tie_on_both_sides(self, kind, seed):
        # A point and its copy share their column of K, so their u and g are
        # equal bit for bit at every step: where both sit in I_up, or both in
        # I_low, the pair selection must take the lower index, as the
        # reference's argmax and argmin do.
        K, y = gram_case(kind, 16, seed)
        order = np.tile(np.arange(16), 2)
        K, y = K[np.ix_(order, order)], y[order]
        for C in (1.0, 100.0):
            assert assert_same_run(K, y, C) > 0
            alpha = train(K, y, C).dual_coeffs
            split = alpha[:16] != alpha[16:]  # a tie was broken between the copies
            assert split[y[:16] > 0].any() and split[y[:16] < 0].any()

    @pytest.mark.parametrize("kind, m, N, stop", [
        ("exact", 128, 4096, "converged"), ("sampled", 512, 16384, "no_progress"),
    ])
    def test_benchmark_shapes(self, kind, m, N, stop):
        # The Gram shapes of the search-small (exact) and learner-large
        # (R = 256) fits, at the CLI's default interval width and box bound.
        K, y = benchmark_problem(kind, m, N)
        steps = assert_same_run(K, y, 100.0)
        model = train(K, y, 100.0)
        assert (model.iterations, model.stop_reason) == (steps, stop)

    def test_nearly_symmetric_ndarray_gram(self):
        # Symmetric to 1e-13 but not bit for bit: the update must read
        # columns of K, as the reference does, and not rows.
        for kind in ("psd", "sampled"):
            K, y = gram_case(kind, 64, seed=21)
            skew = 1e-13 * np.triu(np.random.default_rng(4).uniform(-1.0, 1.0, K.shape), 1)
            K = K + skew
            assert not np.array_equal(K, K.T)
            assert assert_same_run(K, y, 100.0) > 0


class TestMemory:
    def test_the_loop_holds_one_copy_of_the_gram(self):
        # The m = 512 Gram is 2 MiB.  The loop keeps one copy, K's columns, and
        # O(m) besides; an ndarray Gram first passes the symmetry check, whose
        # temporaries peak at 4.3 MiB.  Any further m^2 copy, Python list or
        # array, in the loop breaks one of the two bounds.
        import tracemalloc

        gram, y = benchmark_problem("sampled", 512, 16384)
        for K, bound in ((gram, 2.5), (gram.entries, 4.5)):
            tracemalloc.start()
            try:
                train(K, y, 100.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * (1 << 20)


class TestSolvedOnce:
    def counting_solve(self, monkeypatch):
        calls = []
        solve = svm._solve
        monkeypatch.setattr(svm, "_solve", lambda *args: calls.append(1) or solve(*args))
        return calls

    def test_repeat_reuses_solution_with_fresh_arrays(self, monkeypatch):
        K, y = gram_case("sampled", 16, seed=2)
        fresh = train(K, y, 10.0)
        calls = self.counting_solve(monkeypatch)
        labels = y.copy()
        with svm.solved_once():
            first = train(K, labels, 10.0)
            first.dual_coeffs[:] = -1.0  # a caller's edit must not reach the stored solution
            first.support_indices[:] = -1
            second = train(K.copy(), labels, 10.0)
            labels[0] = -labels[0]
            assert np.array_equal(first.labels, y) and np.array_equal(second.labels, y)
            train(K, y, 10.0, tol=1e-6)  # another tolerance is another problem
            train(K, y, 10.0, objective_history=[])  # a history always solves
        assert len(calls) == 3
        assert np.array_equal(second.dual_coeffs, fresh.dual_coeffs)
        assert np.array_equal(second.support_indices, fresh.support_indices)
        assert (second.bias, second.iterations, second.stop_reason) == (
            fresh.bias, fresh.iterations, fresh.stop_reason)

    def test_checks_run_on_every_call(self):
        with svm.solved_once():
            train(np.eye(2), [1, -1], box_bound=1.0)
            with pytest.raises(StructuralError):
                train(np.eye(2), [1, -1], box_bound=np.nan)
            with pytest.raises(DegenerateProblemError):
                train(np.eye(2), [1, 1], box_bound=1.0)

    def test_reused_capped_fit_warns_again(self, monkeypatch):
        K, y = gram_case("exact", 32, seed=5)
        calls = self.counting_solve(monkeypatch)
        with svm.solved_once():
            for _ in range(2):
                with pytest.warns(UserWarning, match="iteration cap"):
                    model = train(K, y, 1.0, max_iterations=3)
                assert (model.iterations, model.stop_reason) == (3, "iteration_cap")
        assert len(calls) == 1

    def test_nothing_survives_the_scope(self, monkeypatch):
        K, y = gram_case("psd", 8, seed=1)
        calls = self.counting_solve(monkeypatch)
        with pytest.raises(RuntimeError):
            with svm.solved_once():
                train(K, y, 1.0)
                raise RuntimeError
        train(K, y, 1.0)
        assert len(calls) == 2
