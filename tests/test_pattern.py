"""Pattern matcher circuit, its feature map and kernel, KMP baseline, step counts."""

import itertools
import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from groversvm import sim
from groversvm.errors import (
    InvalidIntervalError, ResourceCapError, StructuralError, UnsupportedSizeError,
)
from groversvm.grover import GroverConfig, interval_state_analytic, theoretical_success_probability
from groversvm.pattern import (
    _prep_gates,
    TextInstance,
    amplification_rounds_for,
    cyclic_match_locations,
    cyclic_shift_circuit,
    cyclic_shift_gates,
    encode,
    kmp_search,
    match_circuit,
    pattern_feature_map,
    pattern_kernel,
    pattern_label,
    pattern_match,
    pattern_symbolic_steps,
    random_instance,
)
from groversvm.sim import StateVector


def zero_text_with(pattern: str, location: int, length: int) -> str:
    """All-zero text with the pattern spliced in cyclically; unique for 1-bearing patterns."""
    bits = [0] * length
    for offset, ch in enumerate(pattern):
        bits[(location + offset) % length] = int(ch)
    return "".join(str(b) for b in bits)


class TestTextInstance:
    def test_location_derived(self):
        assert TextInstance("10110010", "110").location == 2

    def test_wrapping_occurrence(self):
        # Pattern 111 written at 15 wraps to positions 15, 0, 1.
        instance = TextInstance(zero_text_with("111", 15, 16), "111")
        assert instance.location == 15

    def test_multiple_occurrences_rejected(self):
        with pytest.raises(StructuralError):
            TextInstance("10100000", "10")

    def test_absent_pattern_rejected(self):
        with pytest.raises(StructuralError):
            TextInstance("00000000", "11")

    def test_full_length_pattern(self):
        instance = TextInstance("10110010", "10110010")
        assert instance.location == 0
        assert instance.pattern_length == instance.text_length

    def test_non_power_of_two_rejected(self):
        with pytest.raises(StructuralError):
            TextInstance("101100", "11")

    @pytest.mark.parametrize("text", ["101100", "1", [1, 0, 1]])
    def test_bad_text_length_is_an_unsupported_size(self, text):
        # The pattern demo tells a bad length from a missing match by this class.
        with pytest.raises(UnsupportedSizeError, match="text length"):
            TextInstance(text, "1")

    @pytest.mark.parametrize("pattern", ["000000000", ""])
    def test_random_instance_checks_the_pattern_length_before_any_retry(self, pattern):
        # Both used to spend every retry, then report no unique-occurrence text.
        with pytest.raises(StructuralError, match=r"pattern length must be an integer in \[1, 8\]"):
            random_instance(8, pattern, 0, 0)

    @pytest.mark.parametrize("pattern, hits", [("00000000", 8), ("01010101", 4), ("01100110", 2)])
    def test_random_instance_rejects_a_text_long_pattern_that_repeats_after_one_draw(
            self, pattern, hits):
        # Such a pattern leaves no random bit: all 200 retries built the same
        # text, then reported no unique-occurrence text.
        rng, once = np.random.default_rng(0), np.random.default_rng(0)
        with pytest.raises(StructuralError, match=f"pattern repeats within the text.* {hits} shifts"):
            random_instance(8, pattern, 3, rng)
        once.integers(0, 2, size=8)
        assert rng.bit_generator.state == once.bit_generator.state  # one draw, no retry
        assert random_instance(8, "01100111", 3, 0).location == 3  # aperiodic: the one text

    def test_random_instance_unique(self):
        for seed in range(5):
            instance = random_instance(16, "101", 7, seed)
            assert instance.location == 7
            assert len(cyclic_match_locations(instance.text, instance.pattern)) == 1

    @pytest.mark.parametrize("read", [
        pytest.param(lambda bits: cyclic_match_locations(bits, [1]), id="match-text"),
        pytest.param(lambda bits: cyclic_match_locations([1, 0, 1, 0], bits), id="match-pattern"),
        pytest.param(lambda bits: kmp_search(bits, [1]), id="kmp-text"),
        pytest.param(lambda bits: TextInstance(bits + [1], [1, 1, 1]), id="instance-text"),
    ])
    def test_bool_bits_rejected(self, read):
        # cyclic_match_locations([True, 0, 1], [1]) answered [0, 2], reading True as bit 1.
        with pytest.raises(StructuralError, match="bits must be integers in \\[0, 1\\]"):
            read([True, 0, 1])

    @pytest.mark.parametrize("location", [2.5, 2.0, float("nan"), True, "2", None])
    def test_random_instance_location_must_be_an_integer(self, location):
        with pytest.raises(StructuralError):
            random_instance(8, "110", location, 0)

    @pytest.mark.parametrize("length", [8.7, 8.0, float("nan"), True, "8"])
    def test_random_instance_length_must_be_an_integer(self, length):
        # 8.7 used to give a text of length 8.
        with pytest.raises(StructuralError):
            random_instance(length, "110", 2, 0)


class TestEncode:
    def test_all_zero_strings(self):
        instance = TextInstance(zero_text_with("1", 0, 4), "1")
        state = encode(instance)
        # Text bit 0 lives on qubit n + 0 = 2, the pattern bit on qubit n + N = 6.
        expected = (1 << 2) | (1 << 6)
        assert abs(state.amplitudes[expected] - 1.0) < 1e-12

    def test_bit_layout(self):
        instance = TextInstance("10110010", "110")
        state = encode(instance)
        index = int(np.argmax(np.abs(state.amplitudes)))
        n, N = 3, 8
        assert index & 0b111 == 0  # index register zero
        text_bits = [(index >> (n + i)) & 1 for i in range(N)]
        assert "".join(map(str, text_bits)) == "10110010"
        pattern_bits = [(index >> (n + N + j)) & 1 for j in range(3)]
        assert "".join(map(str, pattern_bits)) == "110"

    def test_measurement_roundtrip(self):
        instance = TextInstance("10110010", "110")
        state = encode(instance)
        hist = sim.sample_measurement(state, range(instance.total_qubits), 50, 0)
        assert len(hist) == 1 and sum(hist.values()) == 50


class TestCyclicShift:
    def test_zero_shift_is_identity(self):
        circuit = cyclic_shift_circuit(4)
        state = StateVector.basis(6, 0b1010 << 2)  # index 0, some text bits
        out = sim.run(circuit, state)
        npt.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_exhaustive_truth_table_n4(self):
        # Independent oracle: recompute the shifted text classically for every
        # (shift, text) pair and compare basis states.
        circuit = cyclic_shift_circuit(4)
        for k in range(4):
            for text_val in range(16):
                bits = [(text_val >> i) & 1 for i in range(4)]
                shifted = [bits[(i + k) % 4] for i in range(4)]
                in_index = k | (text_val << 2)
                out_index = k | (sum(b << i for i, b in enumerate(shifted)) << 2)
                out = sim.run(circuit, StateVector.basis(6, in_index))
                assert abs(out.amplitudes[out_index] - 1.0) < 1e-12, (k, text_val)

    def test_known_example(self):
        # Shift 1 of T = 1000 gives 0001: each bit picks up its right neighbor.
        circuit = cyclic_shift_circuit(4)
        out = sim.run(circuit, StateVector.basis(6, 0b01 | (0b0001 << 2)))
        expected = 0b01 | (0b1000 << 2)
        assert abs(out.amplitudes[expected] - 1.0) < 1e-12

    def test_shift_then_inverse_restores(self):
        circuit = cyclic_shift_circuit(8)
        rng = np.random.default_rng(3)
        amps = rng.normal(size=1 << 11) + 1j * rng.normal(size=1 << 11)
        state = StateVector(11, amps / np.linalg.norm(amps))
        out = sim.run(circuit.inverse(), sim.run(circuit, state))
        npt.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-10)

    def test_random_instance_negative_seed(self):
        with pytest.raises(StructuralError, match="non-negative"):
            random_instance(16, "101", 7, -2)

    def test_the_gates_are_built_once_and_listed_afresh(self):
        from groversvm.pattern import _shift_gates

        index, text = range(3), range(3, 11)
        first = cyclic_shift_gates(index, text)
        first.clear()  # the caller owns its list
        second, third = cyclic_shift_gates(index, text), cyclic_shift_gates(np.arange(3), text)
        assert second is not third and len(second) == 69
        assert all(a is b for a, b in zip(second, third, strict=True))
        fresh = _shift_gates.__wrapped__(tuple(index), tuple(text))
        assert [(g.kind, g.targets, g.controls) for g in second] == [
            (g.kind, g.targets, g.controls) for g in fresh
        ]

    @pytest.mark.parametrize("index", [(0.0, 1, 2), (0, True, 2), ("0", 1, 2)])
    def test_cached_gates_still_take_integer_qubits_only(self, index):
        cyclic_shift_gates(range(3), range(3, 11))
        with pytest.raises(StructuralError):
            cyclic_shift_gates(index, range(3, 11))


class TestMatcherStates:
    def test_match_circuit_reuses_its_preparation(self):
        instance = TextInstance("10110010", "110")
        prep = _prep_gates(instance)
        gates = match_circuit(instance, rounds=2).gates
        p = len(prep)
        assert len(gates) == p + 2 * (2 * p + 2)
        assert list(gates[:p]) == prep
        for start in (p, 3 * p + 2):  # flip_good, reversed prep, flip_zero, prep
            assert all(a is b for a, b in zip(gates[start + 1 : start + 1 + p], gates[p - 1 :: -1]))
            assert all(a is b for a, b in zip(gates[start + p + 2 : start + 2 * p + 2], gates[:p]))

    def test_psi4_zeroes_pattern_register_only_at_match(self):
        # Enumerate the pre-amplification state: the matching shift is the only
        # branch whose pattern register is all zero.
        instance = TextInstance("10110010", "110")
        circuit = match_circuit(instance, rounds=0)
        state = sim.run_from_zero(circuit)
        n, N, L = 3, 8, 3
        nonzero = np.flatnonzero(np.abs(state.amplitudes) > 1e-12)
        by_shift = {}
        for idx in nonzero:
            shift = idx & 0b111
            pattern_bits = (idx >> (n + N)) & ((1 << L) - 1)
            by_shift.setdefault(shift, set()).add(pattern_bits)
        assert set(by_shift) == set(range(8))
        for shift, patterns in by_shift.items():
            assert len(patterns) == 1
            if shift == instance.location:
                assert patterns == {0}
            else:
                assert patterns != {0}


class TestPatternMatch:
    def test_faithful_success_probability(self):
        instance = TextInstance("10110010", "110")
        found, prob, ledger = pattern_match(instance, GroverConfig("faithful"), rng_seed=3)
        assert abs(prob - 121.0 / 128.0) < 1e-9
        assert ledger.amplification_rounds == 2
        assert 1.0 - prob <= 5.0 / 8.0

    def test_faithful_measurement_statistics(self):
        instance = TextInstance("10110010", "110")
        hits = 0
        runs = 200
        for seed in range(runs):
            found, prob, _ = pattern_match(instance, GroverConfig("faithful"), seed)
            hits += found == 2
        p = 121.0 / 128.0
        assert abs(hits / runs - p) <= 4 * math.sqrt(p * (1 - p) / runs)

    def test_faithful_draw_is_the_sampled_measurement(self, monkeypatch):
        # One probability pass per match, and the index register's one-shot sample.
        instance = TextInstance("10110010", "110")
        state = sim.run_from_zero(match_circuit(instance, 2))
        passes = []
        original = sim.register_distribution

        def spy(circuit, register):
            passes.append(tuple(register))
            return original(circuit, register)

        expected = [int(next(iter(sim.sample_measurement(state, range(3), 1, seed))), 2)
                    for seed in range(20)]
        monkeypatch.setattr(sim, "register_distribution", spy)
        found = [pattern_match(instance, GroverConfig("faithful"), seed)[0] for seed in range(20)]
        assert found == expected and set(found) != {2}
        assert passes == [(0, 1, 2)] * 20

    def test_every_8_bit_text_reads_the_dense_distribution(self):
        # All 160 texts of 8 bits that hold "110" exactly once: the sparse
        # readout gives the index register's probabilities bit for bit.
        texts = ["".join(bits) for bits in itertools.product("01", repeat=8)]
        instances = [TextInstance(t, "110") for t in texts
                     if len(cyclic_match_locations(t, "110")) == 1]
        assert len(instances) == 160
        for instance in instances:
            circuit = match_circuit(instance)
            expected = sim.register_probabilities(sim.run_from_zero(circuit), range(3))
            got = sim.register_distribution(circuit, range(3))
            assert got.tobytes() == expected.tobytes(), instance.text

    def test_a_16_bit_text_runs_sparse(self):
        # 24 qubits: a dense run of this matcher took about a minute.  Its state
        # holds 16 nonzero amplitudes at every gate, so it takes milliseconds.
        instance = random_instance(16, "1101", 5, 3)
        assert instance.total_qubits == sim.QUBIT_CAP
        start = time.perf_counter()
        found, prob, ledger = pattern_match(instance, GroverConfig("faithful"), rng_seed=1)
        assert time.perf_counter() - start < 1.0
        assert found == 5
        exact = theoretical_success_probability(16, 1, ledger.amplification_rounds)
        assert abs(prob - exact) < 1e-12

    def test_a_readout_allocates_no_state(self):
        # Once the plans and the shift run's tables are built, an 8-bit text's
        # readout peaks below the 256 KiB of one dense 14-qubit state.
        import tracemalloc

        instance = TextInstance("10110010", "110")
        circuit = match_circuit(instance)
        expected = sim.register_distribution(circuit, range(3))
        tracemalloc.start()
        try:
            probs = sim.register_distribution(circuit, range(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 14
        assert probs.tobytes() == expected.tobytes()

    def test_ideal_is_deterministic(self):
        instance = TextInstance("10110010", "110")
        found, prob, _ = pattern_match(instance, GroverConfig("ideal"), rng_seed=0)
        assert found == 2
        assert abs(prob - theoretical_success_probability(8, iterations=2)) < 1e-12

    def test_pattern_equal_to_text(self):
        instance = TextInstance("10110010", "10110010")
        found, _, _ = pattern_match(instance, GroverConfig("ideal"), 0)
        assert found == 0


class TestPatternFeatureMap:
    def test_ideal_circuit_matches_analytic(self):
        instance = TextInstance("10110010", "110")
        circuit_out = pattern_feature_map(instance, 2, GroverConfig("ideal"), mode="circuit")
        analytic_out = pattern_feature_map(instance, 2, GroverConfig("ideal"), mode="analytic")
        npt.assert_allclose(
            circuit_out.register_state.amplitudes,
            analytic_out.register_state.amplitudes,
            atol=1e-10,
        )
        assert circuit_out.ancilla_zero_fidelity >= 1 - 1e-9

    def test_register_is_interval_at_match(self):
        instance = TextInstance("10110010", "110")
        out = pattern_feature_map(instance, 2, GroverConfig("ideal"))
        target = interval_state_analytic(2, 2, 8)
        npt.assert_allclose(out.register_state.amplitudes, target.amplitudes, atol=1e-10)

    def test_unit_width_gives_basis_state(self):
        instance = TextInstance("10110010", "110")
        out = pattern_feature_map(instance, 1, GroverConfig("ideal"))
        assert abs(out.register_state.amplitudes[2] - 1.0) < 1e-10

    def test_faithful_uncompute_within_bound(self):
        instance = TextInstance("10110010", "110")
        out = pattern_feature_map(instance, 2, GroverConfig("faithful"))
        assert out.ancilla_zero_fidelity >= 1 - 5.0 / 8.0

    @pytest.mark.parametrize("width", [2.5, 2.0, float("nan"), True, "2"])
    def test_analytic_width_must_be_an_integer(self, width):
        instance = TextInstance("10110010", "110")
        with pytest.raises(InvalidIntervalError):
            pattern_feature_map(instance, width, GroverConfig("ideal"), mode="analytic")


class TestQubitCap:
    def test_every_circuit_path_rejects_oversized_instances(self):
        # 5 index + 32 text + 3 pattern qubits exceed the dense cap.
        a = TextInstance(zero_text_with("111", 3, 32), "111")
        b = TextInstance(zero_text_with("111", 7, 32), "111")
        assert a.total_qubits > sim.QUBIT_CAP
        with pytest.raises(ResourceCapError):
            encode(a)
        with pytest.raises(ResourceCapError):
            match_circuit(a)
        with pytest.raises(ResourceCapError):
            pattern_feature_map(a, 4)
        with pytest.raises(ResourceCapError):
            pattern_kernel(a, b, 4, mode="circuit_ideal")


class TestPatternKernel:
    def test_identical_texts(self):
        a = TextInstance("10110010", "110")
        assert pattern_kernel(a, a, 2, "exact") == 1.0

    def test_locations_two_apart(self):
        # Match locations 2 and 4 with M = 4 on length-16 texts.
        a = TextInstance(zero_text_with("111", 2, 16), "111")
        b = TextInstance(zero_text_with("111", 4, 16), "111")
        assert pattern_kernel(a, b, 4, "exact") == pytest.approx(0.5, abs=1e-15)

    def test_wraparound_distance(self):
        a = TextInstance(zero_text_with("111", 0, 16), "111")
        b = TextInstance(zero_text_with("111", 15, 16), "111")
        assert pattern_kernel(a, b, 4, "exact") == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("pattern", ["11", "110"])
    def test_circuit_modes_agree_with_analytic(self, pattern):
        a = TextInstance(zero_text_with(pattern, 1, 8), pattern)
        b = TextInstance(zero_text_with(pattern, 2, 8), pattern)
        exact = pattern_kernel(a, b, 2, "exact")
        ideal = pattern_kernel(a, b, 2, "circuit_ideal")
        assert abs(ideal - exact) < 1e-10
        faithful = pattern_kernel(a, b, 2, "circuit_faithful")
        assert abs(faithful - exact) <= 5.0 / 8.0

    def test_mismatched_patterns_rejected(self):
        a = TextInstance("10110010", "110")
        b = TextInstance(zero_text_with("111", 2, 8), "111")
        with pytest.raises(StructuralError):
            pattern_kernel(a, b, 2, "exact")


class TestKmp:
    def test_pattern_equals_text(self):
        loc, _ = kmp_search("10110010", "10110010")
        assert loc == 0

    def test_known_example(self):
        loc, ledger = kmp_search("10110010", "110")
        assert loc == 2
        assert ledger.classical_char_comparisons > 0

    def test_wrapping_match(self):
        loc, _ = kmp_search(zero_text_with("111", 15, 16), "111")
        assert loc == 15

    def test_absent_pattern(self):
        loc, ledger = kmp_search("00000000", "11")
        assert loc is None
        assert ledger.classical_char_comparisons <= 2 * (16 + 2)

    def test_comparison_bound_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            N = int(rng.choice([8, 16, 32]))
            L = int(rng.integers(1, min(N, 8)))
            text = "".join(str(b) for b in rng.integers(0, 2, size=N))
            pattern = "".join(str(b) for b in rng.integers(0, 2, size=L))
            loc, ledger = kmp_search(text, pattern)
            assert ledger.classical_char_comparisons <= 2 * (2 * N + L)
            expected = cyclic_match_locations(text, pattern)
            assert loc == (min(expected) if expected else None)

    def test_agrees_with_instance_location(self):
        for seed in range(5):
            instance = random_instance(32, "1011", int(seed * 5), seed)
            loc, _ = kmp_search(instance.text, instance.pattern)
            assert loc == instance.location

    @pytest.mark.parametrize(
        "text, pattern, location, comparisons",
        [
            ("00000000", "11", None, 17),  # no match: the whole doubled text is read
            ("10000001", "110", 7, 14),  # a match across the wrap
            ("01101001", "01101001", 0, 17),  # L = N
            ("10010110", "01101001", 4, 23),  # L = N, rotated
            ("0101001010110100", "010101", 5, 19),  # self-overlapping pattern
            ("1010100101010100", "10101011", None, 56),
            ("0000000000000001", "00001", 11, 34),
        ],
    )
    def test_exact_comparison_counts(self, text, pattern, location, comparisons):
        loc, ledger = kmp_search(text, pattern)
        assert (loc, ledger.classical_char_comparisons) == (location, comparisons)


class TestLedgers:
    @pytest.mark.parametrize("N", [8, 16, 64, 256, 1024])
    def test_amplification_rounds_formula(self, N):
        assert amplification_rounds_for(N) == int(math.pi / 4 * math.sqrt(N))

    @pytest.mark.parametrize("N", [8.5, 8.0, np.float64(8.0), True, -4, 0, 1, 6])
    def test_text_lengths_are_integer_powers_of_two(self, N):
        # 8.5 gave 2 rounds, -4 a math domain error, (0, 3) 4 steps and 8.0 a circuit.
        for call in (amplification_rounds_for, lambda N: pattern_symbolic_steps(N, 1),
                     cyclic_shift_circuit):
            with pytest.raises(StructuralError, match="text length"):
                call(N)

    @pytest.mark.parametrize("L", [3.0, 0, -1, 9, True])
    def test_pattern_lengths_are_integers_up_to_the_text(self, L):
        with pytest.raises(StructuralError, match="pattern length"):
            pattern_symbolic_steps(8, L)

    def test_numpy_integer_lengths_pass(self):
        assert amplification_rounds_for(np.int64(64)) == amplification_rounds_for(64) == 6
        assert pattern_symbolic_steps(np.uint16(8), np.int8(3)) == pattern_symbolic_steps(8, 3)

    def test_symbolic_steps_scaling(self):
        # Regression: steps / (sqrt(N) (log N)^2) stays bounded through N = 2^14.
        sizes = [2**p for p in range(3, 15)]
        ratios = [
            pattern_symbolic_steps(N, 3) / (math.sqrt(N) * math.log2(N) ** 2)
            for N in sizes
        ]
        assert max(ratios) <= 4.0
        # The tail is governed by the amplification rounds, not by growth in N.
        assert ratios[-1] <= max(ratios[:4])

    def test_match_ledger_values(self):
        instance = TextInstance("10110010", "110")
        _, _, ledger = pattern_match(instance, GroverConfig("ideal"), 0)
        assert ledger.amplification_rounds == 2
        assert ledger.gate_steps == pattern_symbolic_steps(8, 3)


class TestPatternLabel:
    def test_halfspace_rule_matches_concept_geometry(self):
        assert pattern_label(0, 0, 16) == 1
        assert pattern_label(0, 7, 16) == 1
        assert pattern_label(0, 8, 16) == -1

    def test_log_width_rule(self):
        # Width (log2(16) - 2)/2 = 1: only locations start and start + 1 are positive.
        assert pattern_label(0, 0, 16, rule="log_width") == 1
        assert pattern_label(0, 1, 16, rule="log_width") == 1
        assert pattern_label(0, 2, 16, rule="log_width") == -1

    def test_unknown_rule_rejected(self):
        with pytest.raises(StructuralError):
            pattern_label(0, 0, 16, rule="other")

    @pytest.mark.parametrize("value", [1.5, 1.0, float("nan"), True, "1"])
    def test_arguments_must_be_integers(self, value):
        for args in ((value, 2, 16), (1, value, 16), (1, 2, value)):
            with pytest.raises(StructuralError):
                pattern_label(*args)
        assert pattern_label(np.int64(1), np.uint8(2), np.int32(16)) == 1
