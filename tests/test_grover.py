"""Search correctness, query accounting, the adder, and the interval feature map."""

import itertools
import math
from collections import OrderedDict

import numpy as np
import numpy.testing as npt
import pytest

from groversvm import grover, sim
from groversvm.errors import (
    InvalidIntervalError, ResourceCapError, StructuralError, UnsupportedSizeError,
)
from groversvm.grover import (
    GroverConfig,
    IndicatorOracle,
    MultiMarkedOracle,
    adder_circuit,
    adder_gates,
    feature_map_circuit,
    grover_search,
    grover_search_many,
    grover_success_probability,
    interval_state_analytic,
    multi_marked_ancilla_fidelity,
    optimal_iterations,
    search_circuit,
    theoretical_success_probability,
)
from groversvm.sim import StateVector
from search_reference import reference_search


def classical_permutation(gates, num_qubits: int) -> np.ndarray:
    """Independent oracle: replay X-type gates as classical reversible logic."""
    idx = np.arange(1 << num_qubits, dtype=np.int64)
    for gate in gates:
        assert gate.kind in (sim.PAULI_X, sim.CNOT, sim.MCX)
        target_bit = 1 << gate.targets[0]
        mask = 0
        for c in gate.controls:
            mask |= 1 << c
        fire = (idx & mask) == mask
        idx = np.where(fire, idx ^ target_bit, idx)
    return idx


class TestIndicatorOracle:
    def test_evaluation_and_counting(self):
        oracle = IndicatorOracle(16, 5)
        assert oracle.evaluate(5) == 1
        assert oracle.evaluate(4) == 0
        assert oracle.query_count == 2

    def test_batch_counting(self):
        oracle = IndicatorOracle(16, 5)
        hits = oracle.evaluate_batch(np.array([1, 5, 9]))
        npt.assert_array_equal(hits, [0, 1, 0])
        assert oracle.query_count == 3

    @pytest.mark.parametrize("lo, hi, hit", [(0, 16, True), (5, 6, True), (6, 16, False), (4, 4, False)])
    def test_range_query_charges_per_index(self, lo, hi, hit):
        oracle = IndicatorOracle(16, 5)
        assert oracle.evaluate_range(lo, hi) is hit
        assert oracle.query_count == hi - lo

    @pytest.mark.parametrize("lo, hi", [(-1, 4), (3, 17), (9, 8), (17, 17)])
    def test_range_outside_the_domain_rejected(self, lo, hi):
        oracle = IndicatorOracle(16, 5)
        with pytest.raises(StructuralError):
            oracle.evaluate_range(lo, hi)
        assert oracle.query_count == 0

    def test_phase_gate_charges_per_application(self):
        oracle = IndicatorOracle(8, 3)
        gate = oracle.phase_gate(range(3))
        state = StateVector.zero(3)
        for _ in range(4):
            state = sim.apply(state, gate)
        assert oracle.query_count == 4

    @pytest.mark.parametrize("k", [0, 1, 3, 5])
    def test_search_circuit_run_bills_k_queries(self, k):
        oracle = IndicatorOracle(16, 11)
        circuit = search_circuit(oracle, k)
        assert oracle.query_count == 0
        sim.run_from_zero(circuit)
        assert oracle.query_count == k

    def test_shared_search_gates_bill_every_application(self):
        # The search lists one oracle gate and one diffusion gate k times each.
        oracle = IndicatorOracle(64, 37)
        k = optimal_iterations(64)
        circuit = search_circuit(oracle, k)
        for kind in (sim.PHASE_ORACLE, sim.DIFFUSION):
            gates = [g for g in circuit.gates if g.kind == kind]
            assert len(gates) == k and len({id(g) for g in gates}) == 1
        state = sim.run_from_zero(circuit)
        assert oracle.query_count == k
        probs = sim.register_probabilities(state, range(6))
        assert probs[37] == pytest.approx(theoretical_success_probability(64), abs=1e-12)

    def test_shared_billing_gate_bills_2k(self):
        oracle = IndicatorOracle(64, 37)
        circuit = feature_map_circuit(oracle, 4)
        billing = [g for g in circuit.gates if g.kind == sim.PHASE_ORACLE]
        assert len({id(g) for g in billing}) == 1
        sim.run_from_zero(circuit)
        assert oracle.query_count == len(billing) == 2 * optimal_iterations(64)

    def test_size_validation(self):
        with pytest.raises(UnsupportedSizeError):
            IndicatorOracle(2, 0)
        with pytest.raises(StructuralError):
            IndicatorOracle(12, 0)
        with pytest.raises(StructuralError):
            IndicatorOracle(8, 8)

    @pytest.mark.parametrize("marked", [3.5, 3.0, True, float("nan"), "3"])
    def test_marked_index_must_be_an_integer(self, marked):
        with pytest.raises(StructuralError):
            IndicatorOracle(16, marked)

    @pytest.mark.parametrize("value", [3.0, 3.5, True, float("nan"), "3"])
    def test_classical_queries_must_be_integers(self, value):
        # evaluate_range(0.5, 3.5) used to answer and bill the float 3.0.
        oracle = IndicatorOracle(16, 3)
        for query in (lambda: oracle.evaluate(value), lambda: oracle.evaluate_range(0, value),
                      lambda: oracle.evaluate_range(value, 4)):
            with pytest.raises(StructuralError):
                query()
        assert oracle.query_count == 0

    @pytest.mark.parametrize("values", [[1.0, 3.0], [True, False], ["1", "3"]])
    def test_batch_queries_must_have_an_integer_dtype(self, values):
        oracle = IndicatorOracle(16, 3)
        with pytest.raises(StructuralError):
            oracle.evaluate_batch(np.array(values))
        assert oracle.query_count == 0

    def test_batch_queries_hold_no_bool(self):
        # evaluate_batch([True, 2]) on the oracle marking 1 answered [1, 0] and billed 2 queries.
        oracle = IndicatorOracle(8, 1)
        with pytest.raises(StructuralError, match="query values must be integers"):
            oracle.evaluate_batch([True, 2])
        assert oracle.query_count == 0

    @pytest.mark.parametrize("count", [2.5, 2.0, True, np.bool_(True), float("nan"), -1])
    def test_charged_queries_must_be_non_negative_integers(self, count):
        # charge_queries(2.5) billed 2.
        oracle = IndicatorOracle(16, 3)
        with pytest.raises(StructuralError, match="query count must be a non-negative integer"):
            oracle.charge_queries(count)
        assert oracle.query_count == 0
        oracle.charge_queries(np.int64(2))
        assert oracle.query_count == 2 and isinstance(oracle.query_count, int)

    def test_numpy_integer_queries_are_accepted(self):
        oracle = IndicatorOracle(16, 3)
        assert oracle.evaluate(np.int64(3)) == 1
        assert oracle.evaluate_range(np.int32(0), np.uint8(4)) is True
        npt.assert_array_equal(oracle.evaluate_batch(np.array([3, 4], dtype=np.uint16)), [1, 0])
        npt.assert_array_equal(oracle.evaluate_batch([]), [])
        assert oracle.query_count == 1 + 4 + 2
        assert isinstance(oracle.query_count, int)


class TestIterationCount:
    @pytest.mark.parametrize("N,expected", [(4, 1), (8, 2), (16, 3), (32, 4)])
    def test_optimal_iterations(self, N, expected):
        assert optimal_iterations(N) == expected

    def test_small_domain_rejected(self):
        with pytest.raises(UnsupportedSizeError):
            optimal_iterations(2)

    @pytest.mark.parametrize("args", [
        (16, 1, math.nan), (16, 1, -1), (16, 1, 2.5),  # iterations
        (15, 1, 2), (16.0, 1, 2), (16, 0, 2), (16, 17, 2), (16, 1.5, 2), (16, 0),
    ])
    def test_closed_form_checks_every_argument(self, args):
        # An explicit iteration count used to skip every check.
        with pytest.raises(StructuralError):
            theoretical_success_probability(*args)

    def test_closed_form_with_explicit_rounds_holds_below_four(self):
        # The pattern matcher searches texts of length 2: sin^2((2k+1) pi/4) = 1/2.
        assert theoretical_success_probability(2, 1, 1) == pytest.approx(0.5, abs=1e-15)
        assert theoretical_success_probability(16, 1, np.int64(2)) == 0.908447265625


class TestGroverSearch:
    def test_n4_success_is_exact(self):
        # sin^2(3 asin(1/2)) = 1: one iteration suffices with certainty.
        p = grover_success_probability(4, marked=2)
        assert abs(p - 1.0) < 1e-12
        found, ledger = grover_search(IndicatorOracle(4, 2), GroverConfig("faithful"), 0)
        assert found == 2
        assert ledger.oracle_queries == 1

    @pytest.mark.parametrize("N", [4, 8, 16, 32])
    def test_success_matches_closed_form(self, N):
        marked = N // 2 + 1
        simulated = grover_success_probability(N, marked)
        assert abs(simulated - theoretical_success_probability(N)) < 1e-9

    def test_n8_closed_form_value(self):
        # sin(5 theta) with sin(theta) = 1/sqrt(8) is 11/(8 sqrt(2)) exactly.
        assert abs(theoretical_success_probability(8) - 121.0 / 128.0) < 1e-15

    def test_ideal_backend_deterministic_and_billed(self):
        oracle = IndicatorOracle(16, 7)
        found, ledger = grover_search(oracle, GroverConfig("ideal"), 0)
        assert found == 7
        assert ledger.oracle_queries == 3
        assert oracle.query_count == 3

    def test_faithful_success_rate(self):
        hits = 0
        runs = 300
        for seed in range(runs):
            oracle = IndicatorOracle(8, 5)
            found, ledger = grover_search(oracle, GroverConfig("faithful"), seed)
            assert ledger.oracle_queries == 2
            hits += found == 5
        p = 121.0 / 128.0
        sigma = math.sqrt(p * (1 - p) / runs)
        assert abs(hits / runs - p) <= 4 * sigma

    def test_iteration_override(self):
        oracle = IndicatorOracle(16, 3)
        _, ledger = grover_search(oracle, GroverConfig("ideal", iterations=7), 0)
        assert ledger.oracle_queries == 7
        _, ledger = grover_search(oracle, GroverConfig("faithful", iterations=np.int64(2)), 0)
        assert ledger.oracle_queries == 2

    @pytest.mark.parametrize("iterations", [2.5, math.nan, -1, 3.0, "3", True])
    def test_iteration_override_must_be_a_non_negative_integer(self, iterations):
        # 2.5 and NaN used to pass the config and fail untyped in search_gates.
        with pytest.raises(StructuralError, match="non-negative integer"):
            GroverConfig("faithful", iterations=iterations)


def assert_batch_matches_a_loop(N, config, marks, seeds, monkeypatch, listing=None):
    """``grover_search_many`` gives a loop of ``reference_search`` its results and bills.

    ``listing[i]`` names the oracle search ``i`` uses, so one oracle may be
    searched several times.  A faithful batch simulates one state when its
    rounds are one closed-form step (N >= 16 and k >= 2) or there are none,
    and else one state per search.
    """
    listing = list(range(len(marks))) if listing is None else listing
    oracles = [IndicatorOracle(N, int(v)) for v in marks]
    ref_oracles = [IndicatorOracle(N, int(v)) for v in marks]
    runs = []
    original = sim.run_from_zero
    monkeypatch.setattr(sim, "run_from_zero", lambda c: runs.append(c) or original(c))
    results = grover_search_many([oracles[i] for i in listing], config, seeds)
    monkeypatch.setattr(sim, "run_from_zero", original)
    rounds = grover.resolve_iterations(N, config)
    shared = rounds == 0 or (N >= 16 and rounds >= 2)
    assert len(runs) == (0 if config.backend == "ideal" else 1 if shared else len(listing))
    expected = [reference_search(ref_oracles[i], config, s) for i, s in zip(listing, seeds)]
    assert results == expected
    assert [o.query_count for o in oracles] == [o.query_count for o in ref_oracles]


class TestGroverSearchMany:
    @pytest.mark.parametrize("backend", ["ideal", "faithful"])
    @pytest.mark.parametrize("N, count", [(4, 3), (8, 150), (64, 40), (1024, 9), (4096, 16)])
    def test_matches_a_loop_of_single_searches(self, N, count, backend, monkeypatch):
        marks = np.random.default_rng(N).integers(0, N, size=count)
        seeds = np.random.SeedSequence(N).spawn(count)
        assert_batch_matches_a_loop(N, GroverConfig(backend), marks, seeds, monkeypatch)

    @pytest.mark.parametrize("backend", ["ideal", "faithful"])
    @pytest.mark.parametrize("N, k", [
        *[(N, k) for N in (4, 8, 16) for k in (0, 1, 2, 3)], (64, 1), (1024, 1), (4096, 1),
    ])
    def test_matches_a_loop_at_a_set_number_of_rounds(self, N, k, backend, monkeypatch):
        # k = 1 on a large domain runs each search's own circuit, as N <= 8 does.
        marks = np.random.default_rng(N).integers(0, N, size=12)
        seeds = np.random.SeedSequence(N).spawn(12)
        assert_batch_matches_a_loop(N, GroverConfig(backend, k), marks, seeds, monkeypatch)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_batches_match_a_loop_of_single_searches(self, seed, monkeypatch):
        # Faithful batches on random domains from 4 to 1024, with round counts
        # from none to past the optimum, in which one oracle may be searched again.
        rng = np.random.default_rng(1700 + seed)
        N = 1 << int(rng.integers(2, 11))
        k = [None, 0, 1, 2, 3, 2 * optimal_iterations(N) + 1][int(rng.integers(6))]
        marks = rng.integers(0, N, size=int(rng.integers(1, 9)))
        listing = [int(i) for i in rng.integers(0, marks.size, size=int(rng.integers(1, 13)))]
        seeds = [int(s) for s in rng.integers(0, 1 << 31, size=len(listing))]
        config = GroverConfig("faithful", k)
        assert_batch_matches_a_loop(N, config, marks, seeds, monkeypatch, listing)

    def test_zero_rounds_match_single_searches(self):
        # The circuit is then the Hadamards alone, and bills nothing.
        config = GroverConfig("faithful", iterations=0)
        oracles = [IndicatorOracle(16, v) for v in (3, 5, 3)]
        expected = [reference_search(IndicatorOracle(16, v), config, s)
                    for v, s in zip((3, 5, 3), range(3))]
        assert grover_search_many(oracles, config, range(3)) == expected
        assert [o.query_count for o in oracles] == [0, 0, 0]

    def test_single_search_is_a_batch_of_one(self):
        oracle, ref = IndicatorOracle(256, 77), IndicatorOracle(256, 77)
        config = GroverConfig("faithful", iterations=5)
        for seed in range(6):
            assert grover_search(oracle, config, seed) == reference_search(ref, config, seed)
        assert oracle.query_count == ref.query_count == 30

    def test_an_oracle_listed_twice_bills_each_search(self):
        for backend in ("ideal", "faithful"):
            oracle = IndicatorOracle(16, 6)
            results = grover_search_many([oracle, IndicatorOracle(16, 2), oracle],
                                         GroverConfig(backend), [1, 2, 3])
            assert [ledger.oracle_queries for _, ledger in results] == [3, 3, 3]
            assert oracle.query_count == 6

    def test_a_batch_above_the_qubit_cap_bills_nothing(self):
        oracles = [IndicatorOracle(1 << (sim.QUBIT_CAP + 1), v) for v in (3, 5)]
        with pytest.raises(ResourceCapError):
            grover_search_many(oracles, GroverConfig("faithful"), [0, 1])
        assert [o.query_count for o in oracles] == [0, 0]

    def test_input_errors_before_any_query(self):
        oracles = [IndicatorOracle(16, 3), IndicatorOracle(32, 3)]
        with pytest.raises(StructuralError, match="one domain size"):
            grover_search_many(oracles, GroverConfig("faithful"), [0, 1])
        with pytest.raises(StructuralError, match="seeds"):
            grover_search_many(oracles[:1], GroverConfig("ideal"), [0, 1])
        assert [o.query_count for o in oracles] == [0, 0]
        assert grover_search_many([], GroverConfig("faithful"), []) == []


class TestAdder:
    def test_fig5_example(self):
        out = sim.run(adder_circuit(4), StateVector.basis(8, 3 + (2 << 4)))
        assert abs(out.amplitudes[5 + (2 << 4)] - 1.0) < 1e-12

    def test_wraparound(self):
        out = sim.run(adder_circuit(4), StateVector.basis(8, 15 + (1 << 4)))
        assert abs(out.amplitudes[0 + (1 << 4)] - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_adding_zero_is_identity(self, n):
        circuit = adder_circuit(n)
        for i in range(1 << n):
            out = sim.run(circuit, StateVector.basis(2 * n, i))
            assert abs(out.amplitudes[i] - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_bijection_small(self, n):
        # Classical replay oracle against modular arithmetic, every basis state.
        gates = adder_gates(range(n), range(n, 2 * n))
        perm = classical_permutation(gates, 2 * n)
        size = 1 << n
        for j in range(size):
            for i in range(size):
                assert perm[i + (j << n)] == ((i + j) % size) + (j << n)
        assert len(set(perm.tolist())) == perm.size

    def test_statevector_matches_classical_replay(self):
        n = 3
        gates = adder_gates(range(n), range(n, 2 * n))
        perm = classical_permutation(gates, 2 * n)
        rng = np.random.default_rng(5)
        circuit = adder_circuit(n)
        for basis in rng.integers(0, 1 << (2 * n), size=8):
            out = sim.run(circuit, StateVector.basis(2 * n, int(basis)))
            assert abs(out.amplitudes[perm[basis]] - 1.0) < 1e-12

    def test_superposition_linearity(self):
        n = 3
        circuit = adder_circuit(n)
        state = sim.apply(StateVector.basis(2 * n, 5 << n), sim.hadamard(0))
        out = sim.run(circuit, state)
        # (|0> + |1>)/sqrt(2) plus 5 -> (|5> + |6>)/sqrt(2) with addend kept.
        expected = np.zeros(1 << (2 * n), dtype=complex)
        expected[5 + (5 << n)] = 2**-0.5
        expected[6 + (5 << n)] = 2**-0.5
        npt.assert_allclose(out.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("register, addend", [
        pytest.param((0, 1), (2, 2), id="addend-repeats-a-qubit"),
        pytest.param((0, 0), (1, 2), id="register-repeats-a-qubit"),
        pytest.param((0, 1), (1, 2), id="a-qubit-in-both"),
        pytest.param((3, 1, 0), (2, 4, 3), id="interleaved-qubit-in-both"),
        pytest.param((), (), id="width-0"),
        pytest.param((0, 1), (2,), id="unequal-widths"),
    ])
    def test_rejects_registers_that_do_not_make_an_adder(self, register, addend, monkeypatch):
        # (0, 1) + (2, 2) built 3 gates adding 3a mod 4, and width 0 built none.
        built = []
        monkeypatch.setattr(sim, "pauli_x", lambda *args: built.append(args))
        with pytest.raises(StructuralError):
            adder_gates(register, addend)
        assert built == []  # rejected before any gate is built

    def test_one_register_pair_shares_its_gates_and_each_call_gets_its_own_list(self):
        first = adder_gates((0, 2, 4), (1, 3, 5))
        second = adder_gates(np.array([0, 2, 4]), [1, 3, 5])
        assert first is not second and first == second
        assert all(a is b for a, b in zip(first, second))
        other = adder_gates((0, 2, 4), (1, 3, 6))  # the same first gate, another addend
        assert other[0] == first[0] and other != first
        assert not any(a is b for a, b in zip(adder_gates((0, 2, 4), (1, 3, 5)), first))

    def test_the_kept_networks_are_bounded(self, monkeypatch):
        monkeypatch.setattr(sim, "_ADDERS", OrderedDict())  # the other tests' networks stay kept
        n = 3
        for low in range(sim._ADDER_CACHE_SIZE + 8):
            adder_gates(range(low, low + n), range(low + n, low + 2 * n))
            assert len(sim._ADDERS) <= sim._ADDER_CACHE_SIZE
        assert len(sim._ADDERS) == sim._ADDER_CACHE_SIZE
        # The oldest shape was evicted: asking again builds new gates.
        assert sim._ADDERS.get(((0, 1, 2), 3)) is None


class TestFeatureMap:
    def test_ideal_interval_and_clean_ancilla(self):
        oracle = IndicatorOracle(16, 2)
        state = sim.run_from_zero(feature_map_circuit(oracle, 4))
        target = interval_state_analytic(2, 4, 16)
        npt.assert_allclose(state.amplitudes[:16], target.amplitudes, atol=1e-10)
        assert abs(sim.prob_all_zero(state, range(4, 8)) - 1.0) < 1e-10

    def test_ideal_wraparound_interval(self):
        oracle = IndicatorOracle(16, 14)
        state = sim.run_from_zero(feature_map_circuit(oracle, 4))
        target = interval_state_analytic(14, 4, 16)
        npt.assert_allclose(state.amplitudes[:16], target.amplitudes, atol=1e-10)
        support = {14, 15, 0, 1}
        for v in support:
            assert abs(state.amplitudes[v] - 0.5) < 1e-10

    def test_query_accounting_2k_per_execution(self):
        for backend in ("ideal", "faithful"):
            oracle = IndicatorOracle(16, 6)
            circuit = feature_map_circuit(oracle, 4, GroverConfig(backend))
            assert oracle.query_count == 0  # building charges nothing
            sim.run_from_zero(circuit)
            assert oracle.query_count == 6
            sim.run_from_zero(circuit)
            assert oracle.query_count == 12

    def test_ideal_billing_gates_bill_2k_and_touch_nothing(self):
        oracle = IndicatorOracle(32, 21)
        circuit = feature_map_circuit(oracle, 8)
        billing = [g for g in circuit.gates if g.kind == sim.PHASE_ORACLE]
        assert len(billing) == 2 * optimal_iterations(32)
        state = sim.run_from_zero(circuit)
        assert oracle.query_count == 2 * optimal_iterations(32)
        others = tuple(g for g in circuit.gates if g.kind != sim.PHASE_ORACLE)
        stripped = sim.run_from_zero(sim.Circuit(circuit.num_qubits, others))
        npt.assert_array_equal(state.amplitudes, stripped.amplitudes)

    @pytest.mark.parametrize("N", [8, 16, 32])
    def test_faithful_ancilla_fidelity_bound(self, N):
        n = N.bit_length() - 1
        for marked in range(N):
            oracle = IndicatorOracle(N, marked)
            state = sim.run_from_zero(
                feature_map_circuit(oracle, N // 4, GroverConfig("faithful"))
            )
            assert sim.prob_all_zero(state, range(n, 2 * n)) >= 1 - 5 / N

    @pytest.mark.parametrize("N", [8, 16, 32])
    def test_ideal_faithful_register_agreement(self, N):
        n = N.bit_length() - 1
        widths = [1 << p for p in range(n)]
        for marked in range(N):
            for M in widths:
                target = interval_state_analytic(marked, M, N)
                oracle = IndicatorOracle(N, marked)
                state = sim.run_from_zero(
                    feature_map_circuit(oracle, M, GroverConfig("faithful"))
                )
                fid = sim.subsystem_fidelity(state, range(n), target.amplitudes)
                assert fid >= 1 - 5 / N, (N, marked, M, fid)

    def test_sampled_large_domain_agreement(self):
        # Spot checks above the exhaustive range.
        for N, marked, M in [(64, 60, 8), (128, 5, 16), (256, 200, 4)]:
            n = N.bit_length() - 1
            oracle = IndicatorOracle(N, marked)
            state = sim.run_from_zero(feature_map_circuit(oracle, M, GroverConfig("faithful")))
            target = interval_state_analytic(marked, M, N)
            assert sim.subsystem_fidelity(state, range(n), target.amplitudes) >= 1 - 5 / N

    @pytest.mark.parametrize("backend", grover.BACKENDS)
    def test_maps_of_one_shape_share_their_adder(self, backend):
        config = GroverConfig(backend)

        def adder(N, marked):
            gates = feature_map_circuit(IndicatorOracle(N, marked), 4, config).gates
            return [g for g in gates if g.kind == sim.MCX or g.kind == sim.CNOT]

        first, second, wider = adder(64, 3), adder(64, 40), adder(128, 3)
        assert len(first) == len(second) == 6 * 7 // 2
        assert all(a is b for a, b in zip(first, second))
        assert not any(a is b for a in first for b in wider)

    def test_invalid_widths_rejected(self):
        # 2.9 and True used to build with M = 2 and M = 1; NaN raised a bare ValueError.
        oracle = IndicatorOracle(16, 2)
        for M in (0, 3, 16, 32, 2.9, 2.0, True, math.nan):
            with pytest.raises(InvalidIntervalError):
                feature_map_circuit(oracle, M)


class TestIntervalState:
    def test_single_width_is_basis_state(self):
        state = interval_state_analytic(0, 1, 16)
        assert abs(state.amplitudes[0] - 1.0) < 1e-15

    def test_flat_amplitudes(self):
        state = interval_state_analytic(2, 4, 16)
        npt.assert_allclose(state.amplitudes[2:6], [0.5] * 4, atol=1e-15)
        assert abs(np.sum(np.abs(state.amplitudes))) - 2.0 < 1e-12

    def test_wraparound_support(self):
        state = interval_state_analytic(14, 4, 16)
        for v in (14, 15, 0, 1):
            assert abs(state.amplitudes[v] - 0.5) < 1e-15
        assert abs(state.amplitudes[7]) == 0.0

    @pytest.mark.parametrize(
        "start, width, domain, error",
        [
            (0, 2.5, 16, InvalidIntervalError),
            (0, float("nan"), 16, InvalidIntervalError),
            (0, True, 16, InvalidIntervalError),
            (0, 2.0, 16, InvalidIntervalError),
            (1.5, 2, 16, StructuralError),
            (False, 2, 16, StructuralError),
            (np.float64(3.0), 2, 16, StructuralError),
            (0, 2, 16.0, StructuralError),
        ],
    )
    def test_non_integer_arguments_are_typed_errors(self, start, width, domain, error):
        with pytest.raises(error):
            interval_state_analytic(start, width, domain)

    def test_numpy_integers_are_accepted(self):
        state = interval_state_analytic(np.int64(14), np.uint8(4), np.int32(16))
        expected = interval_state_analytic(14, 4, 16)
        assert state.amplitudes.tobytes() == expected.amplitudes.tobytes()


class TestMultiMarkedFailure:
    def test_singleton_reduces_to_clean_uncompute(self):
        fid = multi_marked_ancilla_fidelity(MultiMarkedOracle(16, {3}), 4)
        assert abs(fid - 1.0) < 1e-9

    def test_two_marked_elements_fail_to_uncompute(self):
        fid = multi_marked_ancilla_fidelity(MultiMarkedOracle(16, {2, 9}), 4)
        assert fid < 0.99
        # Regression: the entangled pipeline leaves exactly half the weight clean.
        assert abs(fid - 0.5) < 1e-9

    def test_every_pair_fails(self):
        rng = np.random.default_rng(2)
        for _ in range(6):
            a, b = rng.choice(16, size=2, replace=False)
            fid = multi_marked_ancilla_fidelity(MultiMarkedOracle(16, {int(a), int(b)}), 4)
            assert fid < 0.99

    def test_matches_closed_form(self):
        # Independent oracle: the fidelity is sum_x c_x^2 / (t^2 M), where
        # c_x = #{s in S : (x - s) mod N < M} and t = |S|.  Every marked set
        # at N in {4, 8}, and 20 random sets per width at N in {16, 32}.
        rng = np.random.default_rng(0)
        cases = []
        for N in (4, 8, 16, 32):
            for M in (1 << b for b in range(N.bit_length() - 1)):
                if N <= 8:
                    sets = [s for t in range(1, N + 1) for s in itertools.combinations(range(N), t)]
                else:
                    sizes = rng.integers(1, N + 1, size=20)
                    sets = [rng.choice(N, int(t), replace=False) for t in sizes]
                cases += [(N, M, np.asarray(s)) for s in sets]
        assert len(cases) == 975
        for N, M, marked in cases:
            counts = np.sum((np.arange(N)[:, None] - marked[None, :]) % N < M, axis=1)
            expected = np.sum(counts**2) / (len(marked) ** 2 * M)
            fid = multi_marked_ancilla_fidelity(MultiMarkedOracle(N, marked.tolist()), M)
            assert abs(fid - expected) < 1e-12, (N, M, marked)

    def test_kernel_closed_form_matches_the_circuit(self):
        # kernel.multi_marked_fidelity, F = (1/t^2) sum_{a,b in S} K(a, b), to
        # 1e-12 at N from 8 to 128, every M = 2^b below N/2, t in {1, 2, 3, 6}.
        from groversvm.kernel import multi_marked_fidelity

        rng = np.random.default_rng(10)
        checked = 0
        for N in (8, 16, 32, 64, 128):
            for M in (1 << b for b in range(N.bit_length() - 2)):
                for t in (1, 2, 3, 6):
                    oracle = MultiMarkedOracle(N, rng.choice(N, t, replace=False).tolist())
                    closed = multi_marked_fidelity(oracle, M)
                    assert abs(closed - multi_marked_ancilla_fidelity(oracle, M)) < 1e-12
                    assert closed >= 1 / t - 1e-15 and (closed == 1.0) == (t == 1)
                    checked += 1
        assert checked == 80

    @pytest.mark.parametrize("marked", [[2.5, 3], [3.0], [True, 3], ["3"]])
    def test_marked_elements_must_be_integers(self, marked):
        with pytest.raises(StructuralError):
            MultiMarkedOracle(16, marked)

    def test_all_marked_recorded(self):
        # Degenerate everything-marked case: value recorded, not asserted.
        fid = multi_marked_ancilla_fidelity(MultiMarkedOracle(16, range(16)), 4)
        assert 0.0 <= fid <= 1.0
