"""One Grover search as ``grover_search`` ran it before searches were batched.

``grover.grover_search_many`` runs a list of searches as one simulator batch;
the tests compare it, and the learners built on it, with this loop body.
"""

from groversvm import sim
from groversvm.grover import resolve_iterations, search_circuit
from groversvm.ledger import QueryLedger


def reference_search(oracle, config, rng_seed):
    """One search as ``grover_search`` ran it before searches were batched."""
    k = resolve_iterations(oracle.domain_size, config)
    before = oracle.query_count
    if config.backend == "ideal":
        oracle.charge_queries(k)
        found = oracle.marked
        shots = 0
    else:
        state = sim.run_from_zero(search_circuit(oracle, k))
        hist = sim.sample_measurement(state, range(oracle.num_qubits), 1, rng_seed)
        found = int(next(iter(hist)), 2)
        shots = 1
    return found, QueryLedger(oracle_queries=oracle.query_count - before, shots=shots)
