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
from groversvm.grover import (
    GroverConfig, IndicatorOracle, interval_state_analytic, optimal_iterations,
)
from groversvm.kernel import (
    GramMatrix,
    KernelMode,
    cyclic_distance,
    gram_matrix,
    kernel_circuit,
    kernel_exact,
    kernel_exact_many,
    kernel_sampled,
    kernel_sampled_many,
)
from groversvm.kernel import _fixed_seed_type, _seed_states
from groversvm.learn import Concept, generate_dataset, quantum_kernel_learner


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

    @pytest.mark.parametrize("M", [2.5, 4.0, True, math.nan])
    def test_non_integer_width_rejected(self, M):
        # 2.5 used to give 0.0 and True ran as M = 1; NaN raised a bare ValueError.
        with pytest.raises(InvalidIntervalError):
            kernel_exact(3, 5, M, 16)
        with pytest.raises(InvalidIntervalError):
            kernel_exact_many([3], [5], M, 16)

    @pytest.mark.parametrize("i, j", [(3.7, 5), (3, 5.0), (True, 5), (np.float64(3), 5)])
    def test_non_integer_index_rejected(self, i, j):
        # (3.7, 5) used to give 0.5.
        with pytest.raises(StructuralError):
            kernel_exact(i, j, 4, 16)
        with pytest.raises(StructuralError):
            kernel_exact_many([i], [j], 4, 16)

    @pytest.mark.parametrize("N", [8.7, np.float64(8.9), 16.0, True])
    def test_non_integer_domain_size_rejected(self, N):
        # kernel_exact(0, 7, 2, 8.7) and kernel_exact_many([0], [7], 2, np.float64(8.9))
        # gave 0.5, as if N = 8.
        with pytest.raises(InvalidIntervalError, match="kernel domain size"):
            kernel_exact(0, 7, 2, N)
        with pytest.raises(InvalidIntervalError, match="kernel domain size"):
            kernel_exact_many([0], [7], 2, N)

    def test_numpy_integers_accepted(self):
        assert kernel_exact(np.int64(3), np.uint8(5), np.int32(4), 16) == 0.5
        assert kernel_exact_many(np.uint16([3]), [5], np.int64(4), 16)[0] == 0.5

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

    def test_numpy_integers_pass(self):
        assert cyclic_distance(np.int64(1), np.uint8(15), np.int32(16)) == 2

    @pytest.mark.parametrize("args", [(3.5, 5, 16), (3, 5.0, 16), (True, 5, 16), (3, 5, 16.0),
                                      (3, 5, 0), (3, 5, -16), ("3", 5, 16)])
    def test_rejects_non_integers_and_empty_domains(self, args):
        # (3.5, 5, 16) gave 2 and (3, 5, 0) raised ZeroDivisionError.
        with pytest.raises(StructuralError, match="cyclic distance"):
            cyclic_distance(*args)


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

    def test_one_oracle_passed_twice_is_billed_once(self):
        oracle = IndicatorOracle(16, 3)
        value, ledger = kernel_circuit(oracle, oracle, 4)
        assert ledger.oracle_queries == oracle.query_count == 12  # k = 3
        assert abs(value - 1.0) < 1e-10

    @pytest.mark.parametrize("M", [2.5, 2.0, True, math.nan])
    def test_non_integer_width_rejected_before_any_gate(self, M, monkeypatch):
        # 2.5 used to return (0.0, ...) billed as 12 queries at M = 2.
        from groversvm import kernel

        built = []
        monkeypatch.setattr(kernel, "feature_map_circuit", lambda *args: built.append(args))
        oracle_i, oracle_j = IndicatorOracle(16, 3), IndicatorOracle(16, 5)
        with pytest.raises(InvalidIntervalError):
            kernel_circuit(oracle_i, oracle_j, M)
        assert built == []
        assert oracle_i.query_count == oracle_j.query_count == 0

    def test_mismatched_domains_rejected(self):
        with pytest.raises(StructuralError):
            kernel_circuit(IndicatorOracle(16, 3), IndicatorOracle(32, 3), 4)

    def test_faithful_self_kernels_are_at_most_one(self):
        # Rounding can carry a self-overlap's all-zero probability just above 1
        # (1.0000000000000009 unclamped at N = 64, M = 2); kernel_sampled
        # rejects such a value.
        config = GroverConfig("faithful")
        for N in (16, 64, 128, 256, 512):
            for M in (1, 2, 4):
                for marked in (0, N // 3, N - 1):
                    oracle = IndicatorOracle(N, marked)
                    value, _ = kernel_circuit(oracle, oracle, M, config)
                    assert 0.0 <= value <= 1.0, (N, M, marked)
                    kernel_sampled(value, 8, 0)

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


def _full_circuit_value(i: int, j: int, M: int, N: int, config: GroverConfig) -> float:
    """The circuit kernel with every gate simulated: the reference for the light cone."""
    from groversvm import sim
    from groversvm.grover import feature_map_circuit

    forward = feature_map_circuit(IndicatorOracle(N, i), M, config)
    backward = feature_map_circuit(IndicatorOracle(N, j), M, config)
    circuit = sim.Circuit(forward.num_qubits, forward.gates + backward.gates[::-1])
    n = forward.num_qubits // 2
    return math.sqrt(max(0.0, sim.prob_all_zero(sim.run_from_zero(circuit), range(n))))


class TestLightCone:
    """``kernel_circuit`` simulates only the first register's backward light cone."""

    def test_ideal_values_keep_every_bit(self):
        rng = np.random.default_rng(19)
        grid = [
            (N, M, i, j)
            for N in (8, 16, 32)
            for M in (1, 2, 4, 8)
            if 2 * M < N
            for i in range(N)
            for j in range(i, N)
        ]
        for t in rng.choice(len(grid), size=60, replace=False):
            N, M, i, j = grid[t]
            value, _ = kernel_circuit(IndicatorOracle(N, i), IndicatorOracle(N, j), M)
            assert value.hex() == _full_circuit_value(i, j, M, N, GroverConfig()).hex()

    @pytest.mark.parametrize("N, pairs", [(16, 4), (64, 3), (256, 2), (1024, 1)])
    def test_faithful_values_move_by_rounding_only(self, N, pairs, monkeypatch):
        from groversvm import sim

        config = GroverConfig("faithful")
        k = optimal_iterations(N)
        rng = np.random.default_rng(N)
        ran, splits = [], []
        original, original_cone = sim._head_state, sim._light_cone
        monkeypatch.setattr(sim, "_head_state",
                            lambda n, gates: ran.append(gates) or original(n, gates))
        monkeypatch.setattr(sim, "_light_cone",
                            lambda c, register: splits.append(original_cone(c, register)) or splits[-1])
        for i, j in rng.integers(0, N, size=(pairs, 2)).tolist():
            full = _full_circuit_value(i, j, 4, N, config)
            ran.clear()
            splits.clear()
            value, ledger = kernel_circuit(IndicatorOracle(N, i), IndicatorOracle(N, j), 4, config)
            assert abs(value - full) <= 1e-12
            assert ledger.oracle_queries == 4 * k
            n = N.bit_length() - 1
            gates = 2 * (2 + 2 * (n + 2 * k) + n * (n + 1) // 2)
            [(dropped, head, moves, hadamards)] = splits
            # The last search block (n Hadamards, k rounds) acts on the ancilla only.
            assert len(dropped) == n + 2 * k
            assert len(head) + len(moves) + len(hadamards) == gates - (n + 2 * k)
            # The light cone's tail, the uncompute adder run and the two
            # register Hadamards, is read through; the head runs and ends on the rounds.
            assert len(moves) == n * (n + 1) // 2
            assert {gate.kind for gate in moves} <= {sim.CNOT, sim.MCX}
            assert [gate.kind for gate in hadamards] == [sim.HADAMARD] * 2
            assert ran == [head]
            assert head[-1].kind == sim.DIFFUSION
        if N == 1024:
            assert [len(gates) for gates in ran] == [354 - 60 - 57] and ledger.oracle_queries == 100


class TestKernelSampled:
    def test_certain_endpoints_are_exact(self):
        for seed in range(5):
            assert kernel_sampled(1.0, 7, seed) == 1.0
            assert kernel_sampled(0.0, 7, seed) == 0.0

    def test_negative_seed_is_a_structural_error(self):
        with pytest.raises(StructuralError, match="non-negative"):
            kernel_sampled(0.5, 4, -1)

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

    @pytest.mark.parametrize("value", [True, np.bool_(True), "0.5", None])
    def test_value_must_be_a_real_number(self, value):
        # True drew as a kernel value of 1.0, and "0.5" raised a bare TypeError.
        with pytest.raises(ContractViolationError, match="kernel value must be"):
            kernel_sampled(value, 4, 0)

    def test_numpy_and_integer_values_pass(self):
        assert kernel_sampled(np.float32(0.5), 8, 3) == kernel_sampled(0.5, 8, 3)
        assert kernel_sampled(np.int64(1), 8, 3) == kernel_sampled(1, 8, 3) == 1.0

    @pytest.mark.parametrize("shots", [2.5, 2.0, True, np.bool_(True), float("nan")])
    def test_shots_must_be_integers(self, shots):
        # kernel_sampled(0.5, 2.5, 0) returned 0.4 and kernel_sampled_many
        # [0.4, 0.8]; KernelMode.sampled(2.5) was accepted.
        keys = np.array([[0, 1], [0, 2]])
        for sample in (lambda: kernel_sampled(0.5, shots, 0),
                       lambda: kernel_sampled_many([0.5, 0.5], shots, (0,), keys),
                       lambda: KernelMode.sampled(shots)):
            with pytest.raises(StructuralError, match="shots must be an integer"):
                sample()

    @pytest.mark.parametrize("shots", [2**63, np.uint64(2**63), 2**70])
    def test_shots_beyond_int64_rejected(self, shots):
        # numpy's binomial raised an untyped OverflowError at the first draw,
        # and KernelMode.sampled(2**70) was accepted.
        keys = np.array([[0, 1], [0, 2]])
        for sample in (lambda: kernel_sampled(0.5, shots, 0),
                       lambda: kernel_sampled_many([0.5, 0.5], shots, (0,), keys),
                       lambda: KernelMode.sampled(shots),
                       lambda: quantum_kernel_learner(
                           generate_dataset(Concept(0, 16), 4, 0), [], 2, shots, 1.0)):
            with pytest.raises(StructuralError, match=r"shots must be an integer in \[1, "):
                sample()

    def test_largest_shot_count_draws(self):
        shots = 2**63 - 1
        assert 0.0 < kernel_sampled(0.5, shots, 0) < 1.0
        keys = np.array([[0, 1], [0, 2]])
        assert kernel_sampled_many([0.0, 1.0], shots, (0,), keys).tolist() == [0.0, 1.0]
        assert KernelMode.sampled(shots).shots == shots

    def test_numpy_integer_shots_pass(self):
        assert kernel_sampled(0.5, np.int64(4), 3) == kernel_sampled(0.5, 4, 3)
        keys = np.array([[0, 1], [0, 2]])
        npt.assert_array_equal(kernel_sampled_many([0.5, 0.5], np.uint8(4), (0,), keys),
                               kernel_sampled_many([0.5, 0.5], 4, (0,), keys))
        assert KernelMode.sampled(np.int32(4)).shots == 4


def _per_entry_draws(values, shots, prefix, keys):
    """One generator per entry, seeded from its SeedSequence, then one binomial draw."""
    return np.array(
        [
            np.random.default_rng(np.random.SeedSequence([*prefix, *map(int, key)])).binomial(
                shots, value
            )
            / shots
            for value, key in zip(values, keys)
        ]
    )


class TestKernelSampledMany:
    # Seed 0 and 7 give 3 entropy words with a (seed, i, j) key, 2**32 + 5
    # gives 4 and 2**64 + 3 gives 5, which runs the pool's extra mixing loop.
    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**64 + 3])
    def test_matches_per_entry_generators(self, seed):
        rng = np.random.default_rng(seed % 1000)
        keys = rng.integers(0, 2**32, size=(300, 2))
        keys[:3] = [[0, 0], [0, 1], [2**32 - 1, 2**32 - 1]]
        values = rng.random(300)
        values[:4] = [0.0, 1.0, 0.0, 1.0]
        draws = kernel_sampled_many(values, 37, (seed,), keys)
        assert np.array_equal(draws, _per_entry_draws(values, 37, (seed,), keys))
        assert draws.dtype == np.float64
        assert list(draws[:4]) == [0.0, 1.0, 0.0, 1.0]

    @pytest.mark.parametrize("prefix", [(5, 0x7E57), (2**32 + 5, 0x7E57), (), (1, 2, 3, 4, 5)])
    def test_other_key_shapes_match(self, prefix):
        rng = np.random.default_rng(len(prefix))
        keys = rng.integers(0, 2**32, size=(50, 2))
        values = rng.random(50)
        draws = kernel_sampled_many(values, 256, prefix, keys)
        assert np.array_equal(draws, _per_entry_draws(values, 256, prefix, keys))

    @pytest.mark.parametrize("words", range(1, 10))
    def test_seed_words_match_seed_sequence(self, words):
        keys = np.random.default_rng(words).integers(0, 2**32, size=(40, words))
        expected = [
            np.random.SeedSequence([int(v) for v in key]).generate_state(4, np.uint64)
            for key in keys
        ]
        assert np.array_equal(_seed_states((), keys), expected)

    def test_empty_key_set(self):
        draws = kernel_sampled_many([], 8, (3,), np.empty((0, 2), dtype=np.int64))
        assert draws.shape == (0,) and draws.dtype == np.float64

    def test_contract_violations(self):
        keys = np.zeros((1, 2), dtype=np.int64)
        for bad in (1.5, -0.25, float("nan")):
            with pytest.raises(ContractViolationError):
                kernel_sampled_many([bad], 10, (0,), keys)
        with pytest.raises(StructuralError):
            kernel_sampled_many([0.5], 0, (0,), keys)

    @pytest.mark.parametrize("values", [
        ["0.5", True], ["0.5"], [True], [np.bool_(False)], np.array([True, False]),
        [0.5, None], [0.5, 1 + 0j], np.array([0.5, 2.0]), np.array([0.5, np.nan]),
        np.array(["0.5"]), [[0.5, 0.25], [0.5]],
    ], ids=["string-and-bool", "string", "bool", "numpy-bool", "bool-array", "none", "complex",
            "above-one-array", "nan-array", "string-array", "ragged"])
    def test_values_follow_the_real_number_rule(self, values):
        # ["0.5", True] drew [0.515625, 1.0], where kernel_sampled raises for each.
        keys = np.array([[1, 2], [1, 3]])[: len(values)]
        with pytest.raises(ContractViolationError, match="kernel value must be"):
            kernel_sampled_many(values, 64, (0,), keys)

    def test_integer_and_float_values_pass(self):
        keys = np.array([[1, 2], [1, 3], [1, 4]])
        expected = kernel_sampled_many([0.0, 1.0, 0.5], 64, (0,), keys)
        for values in ([0, 1, 0.5], [np.int64(0), np.float32(1), np.float64(0.5)],
                       np.array([0.0, 1.0, 0.5], dtype=np.float32), np.array([[0.0, 1.0, 0.5]])):
            npt.assert_array_equal(kernel_sampled_many(values, 64, (0,), keys), expected)
        npt.assert_array_equal(kernel_sampled_many(np.array([0, 1], dtype=np.uint8), 64, (0,),
                                                   keys[:2]), [0.0, 1.0])

    def test_key_validation(self):
        with pytest.raises(StructuralError):
            kernel_sampled_many([0.5], 4, (-1,), np.zeros((1, 2), dtype=np.int64))
        with pytest.raises(StructuralError):
            kernel_sampled_many([0.5], 4, (0,), [[0, 2**32]])
        with pytest.raises(StructuralError):
            kernel_sampled_many([0.5, 0.5], 4, (0,), [[0, 1]])

    @pytest.mark.parametrize("keys", [[[1.5, 2.0]], [[1.9, 2.2]], np.array([[True, True]])])
    def test_non_integer_keys_rejected(self, keys):
        # [1.5, 2.0] and [1.9, 2.2] both drew key (1, 2)'s value.
        with pytest.raises(StructuralError, match="stream keys must be integers"):
            kernel_sampled_many([0.5], 64, (0,), keys)

    def test_bool_keys_rejected(self):
        # [[True, 2]] drew key (1, 2)'s value.
        with pytest.raises(StructuralError, match="stream keys must be integers"):
            kernel_sampled_many([0.5], 64, (0,), [[True, 2]])

    def test_fixed_seed_serves_only_four_uint64_words(self):
        words = np.arange(4, dtype=np.uint64)
        fixed = _fixed_seed_type()(words)
        assert fixed.generate_state(4, np.uint64) is words
        for n_words, dtype in [(4, np.uint32), (8, np.uint64), (2, np.uint32)]:
            with pytest.raises(ContractViolationError):
                fixed.generate_state(n_words, dtype)


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

    def test_a_512_point_gram_holds_two_matrices_at_most(self):
        # The distances are worked in one int64 buffer in place, so at most two
        # 2 MiB matrices are live at once: the buffer beside N - d, or beside
        # the float64 result.
        import tracemalloc

        marks = np.random.default_rng(7).integers(0, 1 << 14, size=512)
        tracemalloc.start()
        try:
            grid = kernel_exact_many(marks[:, None], marks[None, :], 64, 1 << 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.shape == (512, 512)
        assert peak < 4.1 * (1 << 20)

    def test_bool_indices_rejected(self):
        # kernel_exact_many([True, 3], [5, 5], 4, 16) answered [0, 0.5], reading True as 1.
        with pytest.raises(StructuralError, match="kernel indices must be integers"):
            kernel_exact_many([True, 3], [5, 5], 4, 16)


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

    def test_mode_validation(self):
        with pytest.raises(StructuralError):
            KernelMode("sampled")
        with pytest.raises(StructuralError):
            KernelMode("exact", shots=5)
        with pytest.raises(StructuralError):
            KernelMode("bogus")


def _reference_gram(oracles, M, mode, seed=0):
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

    @pytest.mark.parametrize("seed", [2.5, 2.0, True, float("nan"), "2", None])
    @pytest.mark.parametrize("marks", [[0, 2, 5, 9], [0, 16, 32, 48]])
    def test_non_integer_seed_rejected(self, marks, seed):
        # 2.5 ran as seed 2.
        with pytest.raises(StructuralError, match="non-negative integer"):
            gram_matrix(_oracles(marks, 64), 4, KernelMode.sampled(8), rng_seed=seed)

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
