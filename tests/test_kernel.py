"""Interval kernel modes: closed form, circuit evaluation, and shot sampling."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversvm.errors import (
    ContractViolationError,
    InvalidIntervalError,
    ResourceCapError,
    StructuralError,
)
from groversvm.grover import GroverConfig, IndicatorOracle, interval_state_analytic
from groversvm.kernel import (
    GramMatrix,
    KernelMode,
    clip_to_psd,
    cyclic_distance,
    gram_matrix,
    kernel_circuit,
    kernel_exact,
    kernel_exact_many,
    kernel_sampled,
)


def overlap_oracle(i: int, j: int, M: int, N: int) -> float:
    """Independent oracle: interval-state overlap magnitude by explicit inner product."""
    a = interval_state_analytic(i, M, N).amplitudes
    b = interval_state_analytic(j, M, N).amplitudes
    return float(abs(np.vdot(a, b)))


class TestKernelExact:
    def test_identical_inputs(self):
        assert kernel_exact(7, 7, 4, 16) == 1.0

    def test_nearby_pair(self):
        assert kernel_exact(3, 5, 4, 16) == pytest.approx(0.5, abs=1e-15)

    def test_distant_pair_is_zero(self):
        assert kernel_exact(3, 9, 4, 16) == 0.0

    def test_cyclic_distance_wraps(self):
        assert kernel_exact(1, 15, 4, 16) == pytest.approx(0.5, abs=1e-15)

    def test_matches_inner_product_oracle_exhaustively(self):
        N = 16
        for M in (1, 2, 4):
            for i in range(N):
                for j in range(N):
                    assert kernel_exact(i, j, M, N) == pytest.approx(
                        overlap_oracle(i, j, M, N), abs=1e-12
                    )

    def test_wide_interval_rejected(self):
        with pytest.raises(InvalidIntervalError):
            kernel_exact(0, 1, 8, 16)

    @given(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
        st.sampled_from([1, 2, 4, 8, 16]),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_range(self, i, j, M):
        value = kernel_exact(i, j, M, 64)
        assert value == kernel_exact(j, i, M, 64)
        assert 0.0 <= value <= 1.0
        assert (value == 1.0) == (i == j)


class TestCyclicDistance:
    def test_values(self):
        assert cyclic_distance(1, 15, 16) == 2
        assert cyclic_distance(0, 8, 16) == 8
        assert cyclic_distance(5, 5, 16) == 0


class TestKernelCircuit:
    def test_identical_oracles_give_unity(self):
        value, _ = kernel_circuit(IndicatorOracle(16, 3), IndicatorOracle(16, 3), 4)
        assert abs(value - 1.0) < 1e-10

    def test_ideal_matches_exact(self):
        value, _ = kernel_circuit(IndicatorOracle(16, 3), IndicatorOracle(16, 5), 4)
        assert abs(value - 0.5) < 1e-10

    def test_faithful_within_residual_bound(self):
        value, _ = kernel_circuit(
            IndicatorOracle(16, 3), IndicatorOracle(16, 5), 4, GroverConfig("faithful")
        )
        assert abs(value - 0.5) <= 5 / 16

    def test_ledger_charges_4k_split_evenly(self):
        oracle_i, oracle_j = IndicatorOracle(16, 3), IndicatorOracle(16, 9)
        value, ledger = kernel_circuit(oracle_i, oracle_j, 4)
        assert ledger.oracle_queries == 12  # k = 3
        assert oracle_i.query_count == 6
        assert oracle_j.query_count == 6
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_mismatched_domains_rejected(self):
        with pytest.raises(StructuralError):
            kernel_circuit(IndicatorOracle(16, 3), IndicatorOracle(32, 3), 4)

    def test_above_qubit_cap_rejected(self):
        # N = 2^13 needs 26 qubits; the circuit refuses before any query is billed.
        oracle_i, oracle_j = IndicatorOracle(8192, 3), IndicatorOracle(8192, 9)
        with pytest.raises(ResourceCapError):
            kernel_circuit(oracle_i, oracle_j, 4)
        assert oracle_i.query_count == oracle_j.query_count == 0

    def test_circuit_level_shot_sampling_matches_binomial_model(self):
        # Small-N validation of the analytic sampling shortcut: measuring the
        # real circuit reproduces the binomial law on the all-zero outcome,
        # whose probability is the squared overlap.
        from groversvm import sim
        from groversvm.grover import feature_map_circuit

        forward = feature_map_circuit(IndicatorOracle(16, 3), 4)
        backward = feature_map_circuit(IndicatorOracle(16, 5), 4).inverse()
        state = sim.run(backward, sim.run_from_zero(forward))
        shots = 40_000
        hist = sim.sample_measurement(state, range(4), shots, 77)
        freq = hist.get("0000", 0) / shots
        p = kernel_exact(3, 5, 4, 16) ** 2
        assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / shots)


class TestKernelSampled:
    def test_certain_endpoints_are_exact(self):
        for seed in range(5):
            assert kernel_sampled(1.0, 7, seed) == 1.0
            assert kernel_sampled(0.0, 7, seed) == 0.0

    def test_variance_matches_binomial(self):
        R = 100
        draws = np.array([kernel_sampled(0.5, R, 1000 + i) for i in range(20_000)])
        assert draws.var() == pytest.approx(0.25 / R, rel=0.05)

    @pytest.mark.parametrize("true", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_unbiasedness_within_4_sigma(self, true):
        R = 300
        n_draws = 10_000
        rng = np.random.default_rng(9)
        draws = np.array([kernel_sampled(true, R, rng) for _ in range(n_draws)])
        sigma_mean = math.sqrt(true * (1 - true) / R / n_draws)
        assert abs(draws.mean() - true) <= 4 * sigma_mean + 1e-12

    def test_clt_concentration(self):
        R = 300
        rng = np.random.default_rng(11)
        draws = np.array([kernel_sampled(0.75, R, rng) for _ in range(10_000)])
        assert abs(draws.mean() - 0.75) <= 4 * math.sqrt(0.75 * 0.25 / R / 10_000)

    def test_seed_determinism(self):
        assert kernel_sampled(0.3, 50, 4) == kernel_sampled(0.3, 50, 4)

    def test_contract_violations(self):
        with pytest.raises(ContractViolationError):
            kernel_sampled(1.5, 10, 0)
        with pytest.raises(StructuralError):
            kernel_sampled(0.5, 0, 0)


class TestKernelExactMany:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_scalar_bit_for_bit(self, data):
        N = data.draw(st.integers(3, 1 << 14), label="N")
        M = data.draw(st.integers(1, (N - 1) // 2), label="M")
        i = data.draw(st.one_of(st.integers(0, N - 1), st.sampled_from([0, N - 1])), label="i")
        d = data.draw(
            st.one_of(st.sampled_from([0, M - 1, M, M + 1]), st.integers(0, N // 2)), label="d"
        )
        j = (i + data.draw(st.sampled_from([d, -d]), label="offset")) % N
        scalar = kernel_exact(i, j, M, N)
        assert float(kernel_exact_many(i, j, M, N)).hex() == scalar.hex()
        assert float(kernel_exact_many([j], [i], M, N)[0]).hex() == scalar.hex()

    @pytest.mark.parametrize(
        "i, j",
        [(5, 5), (5, 8), (5, 9), (0, 63), (1, 61), (62, 2), (0, 32), (31, 63)],
    )
    def test_boundary_and_wraparound_cases(self, i, j):
        # M = 4, N = 64: distances 0, 3 (= M-1), 4 (= M), and pairs across 0.
        assert float(kernel_exact_many(i, j, 4, 64)).hex() == kernel_exact(i, j, 4, 64).hex()

    def test_broadcasts_over_a_grid(self):
        a = np.array([0, 3, 15, 7, 8])
        b = np.array([1, 14, 0, 5, 9, 12, 3])
        grid = kernel_exact_many(a[:, None], b[None, :], 4, 16)
        expected = [[kernel_exact(int(x), int(y), 4, 16) for y in b] for x in a]
        assert grid.shape == (5, 7)
        assert np.array_equal(grid, expected)

    def test_out_of_range_rejected(self):
        with pytest.raises(StructuralError):
            kernel_exact_many([0, 16], [1, 2], 4, 16)
        with pytest.raises(StructuralError):
            kernel_exact_many([0], [-1], 4, 16)
        with pytest.raises(InvalidIntervalError):
            kernel_exact_many([0], [1], 8, 16)


def _oracles(marks, N=16):
    return [IndicatorOracle(N, v) for v in marks]


class TestGramMatrix:
    def test_single_point(self):
        gram = gram_matrix(_oracles([3]), 4, KernelMode.exact())
        npt.assert_array_equal(gram.entries, [[1.0]])

    def test_three_point_example(self):
        gram = gram_matrix(_oracles([0, 2, 8]), 4, KernelMode.exact())
        expected = [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]
        npt.assert_allclose(gram.entries, expected, atol=1e-15)

    def test_high_shot_surrogate_close_to_exact(self):
        marks = [0, 2, 5, 8, 11, 14]
        exact = gram_matrix(_oracles(marks), 4, KernelMode.exact())
        sampled = gram_matrix(_oracles(marks), 4, KernelMode.sampled(10_000_000), rng_seed=3)
        assert np.max(np.abs(sampled.entries - exact.entries)) < 0.002

    def test_symmetry_bit_exact_all_modes(self):
        marks = [1, 4, 7, 12]
        for mode in (
            KernelMode.exact(),
            KernelMode.sampled(64),
            KernelMode.circuit_ideal(),
            KernelMode.circuit_faithful(),
        ):
            gram = gram_matrix(_oracles(marks), 4, mode, rng_seed=5)
            assert np.array_equal(gram.entries, gram.entries.T)

    def test_sampled_reproducible(self):
        marks = [0, 3, 6, 9]
        a = gram_matrix(_oracles(marks), 4, KernelMode.sampled(32), rng_seed=17)
        b = gram_matrix(_oracles(marks), 4, KernelMode.sampled(32), rng_seed=17)
        npt.assert_array_equal(a.entries, b.entries)

    def test_circuit_mode_matches_exact(self):
        marks = [0, 2, 8]
        circuit = gram_matrix(_oracles(marks), 4, KernelMode.circuit_ideal())
        exact = gram_matrix(_oracles(marks), 4, KernelMode.exact())
        npt.assert_allclose(circuit.entries, exact.entries, atol=1e-10)

    def test_exact_psd_random_datasets(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            m = int(rng.integers(8, 65))
            marks = rng.choice(256, size=m, replace=False)
            gram = gram_matrix(_oracles(marks, N=256), 16, KernelMode.exact())
            assert gram.min_eigenvalue() >= -1e-8

    def test_exact_diagonal_is_one(self):
        gram = gram_matrix(_oracles([2, 9, 13]), 4, KernelMode.exact())
        npt.assert_array_equal(np.diag(gram.entries), [1.0, 1.0, 1.0])

    def test_empty_data_rejected(self):
        with pytest.raises(StructuralError):
            gram_matrix([], 4, KernelMode.exact())

    def test_clip_psd_flag(self):
        marks = [0, 1, 2, 3, 4, 5, 6, 7]
        noisy = gram_matrix(_oracles(marks), 4, KernelMode.sampled(4), rng_seed=1)
        clipped = gram_matrix(
            _oracles(marks), 4, KernelMode.sampled(4), rng_seed=1, clip_psd=True
        )
        assert clipped.min_eigenvalue() >= -1e-10
        # Same data, only the projection differs.
        assert noisy.entries.shape == clipped.entries.shape

    def test_clip_to_psd_fixed_point_on_psd_input(self):
        gram = gram_matrix(_oracles([0, 2, 8]), 4, KernelMode.exact())
        npt.assert_allclose(clip_to_psd(gram.entries), gram.entries, atol=1e-12)

    def test_mode_validation(self):
        with pytest.raises(StructuralError):
            KernelMode("sampled")
        with pytest.raises(StructuralError):
            KernelMode("exact", shots=5)
        with pytest.raises(StructuralError):
            KernelMode("bogus")


def _reference_gram(oracles, M, mode, seed=0, clip_psd=False):
    """The per-pair loop: one scalar kernel and, when sampled, one draw per pair."""
    N = oracles[0].domain_size
    m = len(oracles)
    entries = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            value = kernel_exact(oracles[i].marked, oracles[j].marked, M, N)
            if mode.tag == "sampled":
                stream = np.random.default_rng(np.random.SeedSequence([seed, i, j]))
                value = kernel_sampled(value, mode.shots, stream)
            entries[i, j] = entries[j, i] = value
    if clip_psd:
        entries = clip_to_psd(entries)
        entries = (entries + entries.T) / 2.0
    return entries


class TestGramMatchesPerPairLoop:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5])
    @pytest.mark.parametrize(
        "N, M, m, shots",
        [
            (256, 4, 48, 64),  # sparse: most pairs are 0 and take no draw
            (64, 15, 24, 16),  # dense: M = N/4 - 1
            (16, 7, 16, 3),  # every index, many duplicate-distance pairs
        ],
    )
    def test_sampled_bit_identical(self, N, M, m, shots, seed):
        marks = np.random.default_rng(N + seed).choice(N, size=m, replace=False)
        oracles = _oracles(marks, N)
        mode = KernelMode.sampled(shots)
        gram = gram_matrix(oracles, M, mode, rng_seed=seed)
        assert np.array_equal(gram.entries, _reference_gram(oracles, M, mode, seed))

    @pytest.mark.parametrize("seed", [2, 9])
    def test_sampled_clip_psd_bit_identical(self, seed):
        marks = np.random.default_rng(seed).choice(64, size=20, replace=False)
        oracles = _oracles(marks, 64)
        mode = KernelMode.sampled(4)
        gram = gram_matrix(oracles, 12, mode, rng_seed=seed, clip_psd=True)
        expected = _reference_gram(oracles, 12, mode, seed, clip_psd=True)
        assert np.array_equal(gram.entries, expected)

    def test_exact_bit_identical_with_repeated_marks(self):
        oracles = _oracles([3, 3, 0, 15, 9, 5, 3], 16)
        gram = gram_matrix(oracles, 4, KernelMode.exact())
        assert np.array_equal(gram.entries, _reference_gram(oracles, 4, KernelMode.exact()))


class TestGramSeedValidation:
    @pytest.mark.parametrize("marks", [[0, 2, 5, 9], [0, 16, 32, 48]])
    def test_negative_seed_rejected(self, marks):
        # The second set has no nonzero off-diagonal kernel, so no pair draws.
        with pytest.raises(StructuralError):
            gram_matrix(_oracles(marks, 64), 4, KernelMode.sampled(8), rng_seed=-1)

    def test_exact_mode_ignores_the_seed(self):
        gram = gram_matrix(_oracles([0, 2]), 4, KernelMode.exact(), rng_seed=-1)
        npt.assert_array_equal(gram.entries, [[1.0, 0.5], [0.5, 1.0]])


class TestGramMatrixType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ContractViolationError):
            GramMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]), KernelMode.exact())

    def test_rejects_non_square(self):
        with pytest.raises(StructuralError):
            GramMatrix(np.ones((2, 3)), KernelMode.exact())
