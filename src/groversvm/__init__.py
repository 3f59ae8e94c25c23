"""Grover-subroutine quantum kernels, SVM training, and oracle-query benchmarking."""

from .errors import (
    ContractViolationError,
    DegenerateProblemError,
    InvalidIntervalError,
    ResourceCapError,
    StructuralError,
    UnsupportedSizeError,
)
from .ledger import QueryLedger, merge_ledgers
from .sim import (
    Circuit,
    Gate,
    StateVector,
    QUBIT_CAP,
    apply,
    prob_all_zero,
    register_distribution,
    register_probabilities,
    run,
    run_from_zero,
    sample_measurement,
    subsystem_fidelity,
    zero_probability,
)
from .grover import (
    GroverConfig,
    IndicatorOracle,
    MultiMarkedOracle,
    adder_circuit,
    feature_map_circuit,
    grover_search,
    grover_search_many,
    grover_success_probability,
    interval_state_analytic,
    multi_marked_ancilla_fidelity,
    optimal_iterations,
    theoretical_success_probability,
)
from .kernel import (
    GramMatrix,
    KernelMode,
    cyclic_distance,
    gram_matrix,
    kernel_circuit,
    kernel_exact,
    kernel_sampled,
    multi_marked_fidelity,
)
from .svm import SvmModel, decide, dual_objective, kkt_gap, train
from .learn import (
    Concept,
    Dataset,
    HalfspaceState,
    LearnerResult,
    SweepRow,
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
from .pattern import (
    FeatureMapOutcome,
    PatternLedger,
    TextInstance,
    amplification_rounds_for,
    cyclic_shift_circuit,
    encode,
    kmp_search,
    pattern_feature_map,
    pattern_kernel,
    pattern_label,
    pattern_match,
    pattern_symbolic_steps,
    random_instance,
)

__version__ = "0.1.0"
