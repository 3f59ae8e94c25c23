"""The integer contract, entry point by entry point.

Domain sizes, indices, interval widths, round counts, shot counts and seeds
are integers: a Python or numpy integer, never a bool or a float, inside the
argument's range.  Each row names one integer argument of one entry point,
an integer outside its range, and the error the entry point raises for it.
Index arrays, mark lists, registers, bit arrays and labels hold such
integers: each sequence row names one such argument, a pair it accepts, an
entry outside its range, and the error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from groversvm import grover, kernel, learn, pattern, sim, svm
from groversvm.errors import InvalidIntervalError, StructuralError, UnsupportedSizeError
from groversvm.ledger import QueryLedger

NON_INTEGERS = [8.5, True, np.float64(8.0)]


def _oracle():
    return grover.IndicatorOracle(8, 0)


def _train():
    return learn.generate_dataset(learn.Concept(0, 16), 4, 0)


_GRAM = np.array([[1.0, 0.5], [0.5, 1.0]])

# (id, call with the argument under test, an out-of-range integer or None, error)
CONTRACT = [
    ("sim.check_seed", lambda v: sim.check_seed(v), -1, StructuralError),
    ("sim.as_rng", lambda v: sim.as_rng(v), -1, StructuralError),
    ("sim.Circuit.num_qubits", lambda v: sim.Circuit(v, ()), 0, StructuralError),
    ("sim.basis.num_qubits", lambda v: sim.StateVector.basis(v, 0), 0, StructuralError),
    ("sim.basis.index", lambda v: sim.StateVector.basis(3, v), 8, StructuralError),
    ("sim.sample_measurement.shots",
     lambda v: sim.sample_measurement(sim.StateVector.zero(1), [0], v, 0), 0, StructuralError),
    ("grover.num_qubits_for", lambda v: grover.num_qubits_for(v), 12, StructuralError),
    ("grover.IndicatorOracle.domain_size", lambda v: grover.IndicatorOracle(v, 0), 12,
     StructuralError),
    ("grover.IndicatorOracle.marked", lambda v: grover.IndicatorOracle(8, v), 8, StructuralError),
    ("grover.evaluate", lambda v: _oracle().evaluate(v), 8, StructuralError),
    ("grover.evaluate_range.lo", lambda v: _oracle().evaluate_range(v, 8), -1, StructuralError),
    ("grover.evaluate_range.hi", lambda v: _oracle().evaluate_range(0, v), 9, StructuralError),
    ("grover.charge_queries", lambda v: _oracle().charge_queries(v), -1, StructuralError),
    ("grover.MultiMarkedOracle.domain_size", lambda v: grover.MultiMarkedOracle(v, [0]), 2,
     UnsupportedSizeError),
    ("grover.MultiMarkedOracle.marked", lambda v: grover.MultiMarkedOracle(8, [v]), 8,
     StructuralError),
    ("grover.GroverConfig.iterations", lambda v: grover.GroverConfig(iterations=v), -1,
     StructuralError),
    ("grover.optimal_iterations.domain_size", lambda v: grover.optimal_iterations(v), 12,
     StructuralError),
    ("grover.optimal_iterations.marked_count", lambda v: grover.optimal_iterations(8, v), 9,
     StructuralError),
    ("grover.theoretical_success_probability.domain_size",
     lambda v: grover.theoretical_success_probability(v), 12, StructuralError),
    ("grover.theoretical_success_probability.iterations",
     lambda v: grover.theoretical_success_probability(8, 1, v), -1, StructuralError),
    ("grover.adder_circuit", lambda v: grover.adder_circuit(v), 0, StructuralError),
    ("grover.interval_map_gates",
     lambda v: grover.interval_map_gates(range(3), range(3, 6), [], v), 8, InvalidIntervalError),
    ("grover.feature_map_circuit", lambda v: grover.feature_map_circuit(_oracle(), v), 8,
     InvalidIntervalError),
    ("grover.interval_state_analytic.start", lambda v: grover.interval_state_analytic(v, 2, 8),
     8, StructuralError),
    ("grover.interval_state_analytic.interval_width",
     lambda v: grover.interval_state_analytic(0, v, 8), 9, InvalidIntervalError),
    ("grover.interval_state_analytic.domain_size",
     lambda v: grover.interval_state_analytic(0, 2, v), 12, StructuralError),
    ("kernel.KernelMode.shots", lambda v: kernel.KernelMode.sampled(v), 0, StructuralError),
    ("kernel.cyclic_distance.i", lambda v: kernel.cyclic_distance(v, 0, 8), None,
     StructuralError),
    ("kernel.cyclic_distance.domain_size", lambda v: kernel.cyclic_distance(0, 0, v), 0,
     StructuralError),
    ("kernel.kernel_exact.i", lambda v: kernel.kernel_exact(v, 0, 2, 8), 8, StructuralError),
    ("kernel.kernel_exact.interval_width", lambda v: kernel.kernel_exact(0, 0, v, 8), 4,
     InvalidIntervalError),
    ("kernel.kernel_exact.domain_size", lambda v: kernel.kernel_exact(0, 0, 2, v), 0,
     InvalidIntervalError),
    ("kernel.kernel_exact_many.interval_width",
     lambda v: kernel.kernel_exact_many([0], [0], v, 8), 4, InvalidIntervalError),
    ("kernel.kernel_exact_many.domain_size",
     lambda v: kernel.kernel_exact_many([0], [0], 2, v), 0, InvalidIntervalError),
    ("kernel.kernel_circuit.interval_width",
     lambda v: kernel.kernel_circuit(_oracle(), _oracle(), v), 4, InvalidIntervalError),
    ("kernel.gram_matrix.interval_width",
     lambda v: kernel.gram_matrix([_oracle()], v, kernel.KernelMode.exact()), 4,
     InvalidIntervalError),
    ("kernel.kernel_sampled.shots", lambda v: kernel.kernel_sampled(0.5, v, 0), 0,
     StructuralError),
    ("kernel.kernel_sampled_many.shots",
     lambda v: kernel.kernel_sampled_many([0.5], v, (0,), [[1, 2]]), 0, StructuralError),
    ("learn.Concept.start", lambda v: learn.Concept(v, 16), 8, StructuralError),
    ("learn.Concept.domain_size", lambda v: learn.Concept(0, v), 12, StructuralError),
    ("learn.Concept.label", lambda v: learn.Concept(0, 16).label(v), 16, StructuralError),
    ("learn.generate_dataset.size", lambda v: learn.generate_dataset(learn.Concept(0, 16), v, 0),
     0, StructuralError),
    ("learn.generate_balanced_test.size",
     lambda v: learn.generate_balanced_test(learn.Concept(0, 16), v, 0), -2, StructuralError),
    ("learn.check_test_size", lambda v: learn.check_test_size(v, 16), 18, StructuralError),
    ("learn.margin_gap.interval_width", lambda v: learn.margin_gap(v, 16), 8, StructuralError),
    ("learn.margin_gap.domain_size", lambda v: learn.margin_gap(2, v), 12, StructuralError),
    ("learn.halfspace_overlap.start", lambda v: learn.halfspace_overlap(v, 0, 2, 16), 8,
     StructuralError),
    ("learn.halfspace_overlap.marked", lambda v: learn.halfspace_overlap(0, v, 2, 16), 16,
     StructuralError),
    ("learn.halfspace_overlap.interval_width", lambda v: learn.halfspace_overlap(0, 0, v, 16), 8,
     StructuralError),
    ("learn.halfspace_overlap.domain_size", lambda v: learn.halfspace_overlap(0, 0, 2, v), 0,
     StructuralError),
    # The halfspace takes start and N as Concept does: N = 12 gave an overlap of 0.333.
    ("learn.halfspace_overlap.domain_size_as_concept",
     lambda v: learn.halfspace_overlap(0, 3, 2, v), 12, StructuralError),
    ("learn.halfspace_overlap_profile.domain_size",
     lambda v: learn.halfspace_overlap_profile(0, 2, v), 12, StructuralError),
    ("learn.classical_accuracy_bound.budget", lambda v: learn.classical_accuracy_bound(v, 16), 17,
     StructuralError),
    ("learn.classical_accuracy_bound.domain_size",
     lambda v: learn.classical_accuracy_bound(0, v), 0, StructuralError),
    # The bound takes N as Concept does: N = 12 and N = 3 both gave 1.0.
    ("learn.classical_accuracy_bound.domain_size_as_concept",
     lambda v: learn.classical_accuracy_bound(4, v), 12, StructuralError),
    ("learn.classical_accuracy_bound.small_domain_as_concept",
     lambda v: learn.classical_accuracy_bound(1, v), 3, StructuralError),
    ("learn.classical_learner_classify.budget",
     lambda v: learn.classical_learner_classify(grover.IndicatorOracle(16, 0), 0, v, 0), 17,
     StructuralError),
    ("learn.default_interval_width.train_size", lambda v: learn.default_interval_width(v, 64), 0,
     StructuralError),
    ("learn.default_interval_width.domain_size", lambda v: learn.default_interval_width(4, v), 12,
     StructuralError),
    ("learn.default_shots", lambda v: learn.default_shots(v), 0, StructuralError),
    ("learn.quantum_kernel_learner.shots",
     lambda v: learn.quantum_kernel_learner(_train(), [], 2, v, 1.0), 0, StructuralError),
    ("learn.complexity_sweep.domain_sizes",
     lambda v: learn.complexity_sweep("classical", [v], 1, 0), 12, StructuralError),
    ("learn.complexity_sweep.trials", lambda v: learn.complexity_sweep("classical", [16], v, 0),
     0, StructuralError),
    ("learn.complexity_sweep.train_size",
     lambda v: learn.complexity_sweep("classical", [16], 1, 0, train_size=v), 0, StructuralError),
    ("ledger.QueryLedger", lambda v: QueryLedger(shots=v), -1, StructuralError),
    ("svm.train.max_iterations", lambda v: svm.train(_GRAM, [1, -1], max_iterations=v), -1,
     StructuralError),
    ("pattern.PatternLedger", lambda v: pattern.PatternLedger(gate_steps=v), -1,
     StructuralError),
    ("pattern.random_instance.text_length", lambda v: pattern.random_instance(v, [1, 0], 0, 0), 6,
     StructuralError),
    ("pattern.random_instance.location", lambda v: pattern.random_instance(8, [1, 0], v, 0), 8,
     StructuralError),
    ("pattern.cyclic_shift_circuit", lambda v: pattern.cyclic_shift_circuit(v), 6,
     StructuralError),
    ("pattern.amplification_rounds_for", lambda v: pattern.amplification_rounds_for(v), 1,
     StructuralError),
    ("pattern.pattern_symbolic_steps.text_length",
     lambda v: pattern.pattern_symbolic_steps(v, 1), 6, StructuralError),
    ("pattern.pattern_symbolic_steps.pattern_length",
     lambda v: pattern.pattern_symbolic_steps(8, v), 9, StructuralError),
    ("pattern.pattern_label.start", lambda v: pattern.pattern_label(v, 0, 8), 8, StructuralError),
    # A start of N/2 or more labelled fewer than N/2 locations +1 (1 of 8 for start 7).
    ("pattern.pattern_label.start_as_concept", lambda v: pattern.pattern_label(v, 0, 8), 4,
     StructuralError),
    ("pattern.pattern_label.location", lambda v: pattern.pattern_label(0, v, 8), 8,
     StructuralError),
    ("pattern.pattern_label.text_length", lambda v: pattern.pattern_label(0, 0, v), 0,
     StructuralError),
]

CASES = [
    pytest.param(call, value, error, id=f"{name}-{value!r}")
    for name, call, out_of_range, error in CONTRACT
    for value in NON_INTEGERS + ([] if out_of_range is None else [out_of_range])
]


@pytest.mark.parametrize("call, value, error", CASES)
def test_rejects_with_the_entry_points_typed_error(call, value, error):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error


def _dataset(labels):
    oracles = [grover.IndicatorOracle(16, 0), grover.IndicatorOracle(16, 9)]
    return learn.Dataset(oracles, labels, learn.Concept(0, 16))


# (id, call with the sequence under test, a pair it accepts, an out-of-range entry, error)
SEQUENCE_CONTRACT = [
    ("grover.IndicatorOracle.evaluate_batch", lambda v: _oracle().evaluate_batch(v), (1, 2), 8,
     StructuralError),
    ("grover.MultiMarkedOracle.marked_set", lambda v: grover.MultiMarkedOracle(8, v), (1, 2), 8,
     StructuralError),
    ("grover.adder_gates.register", lambda v: grover.adder_gates(v, (4, 5)), (0, 1), -1,
     StructuralError),
    ("grover.adder_gates.addend", lambda v: grover.adder_gates((0, 1), v), (4, 5), -1,
     StructuralError),
    ("kernel.kernel_exact_many.a", lambda v: kernel.kernel_exact_many(v, [5, 5], 4, 16), (1, 3),
     16, StructuralError),
    ("kernel.kernel_exact_many.b", lambda v: kernel.kernel_exact_many([5, 5], v, 4, 16), (1, 3),
     -1, StructuralError),
    ("kernel.kernel_sampled_many.keys",
     lambda v: kernel.kernel_sampled_many([0.5], 64, (0,), [v]), (1, 2), 2**32, StructuralError),
    ("pattern.cyclic_match_locations.text", lambda v: pattern.cyclic_match_locations(v, [1]),
     (1, 0), 2, StructuralError),
    ("pattern.kmp_search.pattern", lambda v: pattern.kmp_search([1, 0, 1, 1], v), (1, 0), 2,
     StructuralError),
    ("pattern.TextInstance.text", lambda v: pattern.TextInstance(v, [0, 1]), (0, 1), 2,
     StructuralError),
    ("learn.Dataset.labels", _dataset, (1, -1), 2, StructuralError),
    ("sim.Gate.targets", lambda v: sim.Gate(sim.DIFFUSION, v), (0, 1), -1, StructuralError),
    ("sim.Gate.marked", lambda v: sim.phase_oracle([0, 1], v), (1, 2), 4, StructuralError),
    ("sim.prob_all_zero.register", lambda v: sim.prob_all_zero(sim.StateVector.zero(3), v),
     (0, 2), 3, StructuralError),
]


def _non_integer_sequences(accepted, out_of_range):
    """A list holding a bool, a float array, a float list, a list with one entry
    out of range, and a ragged list (numpy raised its own ValueError for one)."""
    return {
        "bool": [True, accepted[1]],
        "float-array": np.array(accepted, dtype=np.float64),
        "float-list": [float(v) for v in accepted],
        "out-of-range": [accepted[0], out_of_range],
        "ragged": [list(accepted), [accepted[0]]],
    }


SEQUENCE_CASES = [
    pytest.param(call, values, error, id=f"{name}-{kind}")
    for name, call, accepted, out_of_range, error in SEQUENCE_CONTRACT
    for kind, values in _non_integer_sequences(accepted, out_of_range).items()
]


@pytest.mark.parametrize("call, values, error", SEQUENCE_CASES)
def test_sequences_reject_with_the_entry_points_typed_error(call, values, error):
    with pytest.raises(error) as info:
        call(values)
    assert type(info.value) is error


@pytest.mark.parametrize("call, accepted", [
    pytest.param(call, accepted, id=name) for name, call, accepted, _, _ in SEQUENCE_CONTRACT
])
def test_sequences_accept_integer_lists_and_arrays(call, accepted):
    call(list(accepted))
    call(np.array(accepted))


_ENTRIES = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.booleans(),
    st.floats(),
    st.just(float("nan")),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.floats().map(np.float64),
)
_SEQUENCES = st.one_of(
    st.lists(_ENTRIES, max_size=5),
    arrays(st.sampled_from([np.int64, np.uint8, np.float64, np.bool_]), st.integers(0, 5)),
)


@settings(max_examples=100)
@given(_SEQUENCES, st.integers(-3, 3), st.integers(0, 4))
def test_int_array_returns_int64_or_raises(values, lo, span):
    hi = lo + span
    entries = list(values)
    accepted = all(
        isinstance(v, (int, np.integer)) and not isinstance(v, (bool, np.bool_)) and lo <= v <= hi
        for v in entries
    )
    if not accepted:
        with pytest.raises(StructuralError):
            sim._int_array(values, "values", lo, hi)
        return
    array = sim._int_array(values, "values", lo, hi)
    assert array.dtype == np.int64
    assert array.tolist() == [int(v) for v in entries]
