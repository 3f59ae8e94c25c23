"""The integer contract, entry point by entry point.

Domain sizes, indices, interval widths, round counts, shot counts and seeds
are integers: a Python or numpy integer, never a bool or a float, inside the
argument's range.  Each row names one integer argument of one entry point,
an integer outside its range, and the error the entry point raises for it.
"""

import numpy as np
import pytest

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
    ("learn.classical_accuracy_bound.budget", lambda v: learn.classical_accuracy_bound(v, 16), 17,
     StructuralError),
    ("learn.classical_accuracy_bound.domain_size",
     lambda v: learn.classical_accuracy_bound(0, v), 0, StructuralError),
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
