"""The names the traced benchmark run patches and probes must exist in the package.

``perfbench/tracing.py`` wraps module attributes such as ``sim.run``,
``learn.grover_search``, ``grover.search_circuit`` and
``kernel.feature_map_circuit``, and ``perfbench/probe.py`` builds one gate per
kind through ``IndicatorOracle.phase_gate``.  A change that drops or renames
one of them fails here rather than only in a benchmark run.
"""

import importlib
from collections import Counter
from pathlib import Path

import pytest

from groversvm import grover, kernel, learn, sim
from groversvm.grover import IndicatorOracle, optimal_iterations

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("probe")


def test_tracer_installs_and_uninstalls(perfbench):
    tracing, _ = perfbench
    patched = [(sim, "run"), (learn, "grover_search"), (grover, "search_circuit"),
               (kernel, "feature_map_circuit"), (kernel, "kernel_circuit")]
    originals = [getattr(module, name) for module, name in patched]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        oracle, a, b = IndicatorOracle(16, 11), IndicatorOracle(16, 3), IndicatorOracle(16, 5)
        assert learn.grover_search(oracle, grover.GroverConfig("faithful"), 0)[0] == 11
        kernel.kernel_circuit(a, b, 4)
    finally:
        tracer.uninstall()
    assert [getattr(module, name) for module, name in patched] == originals
    metrics = tracer.metrics()
    assert metrics["grover.searches"] == 1
    assert metrics["grover.oracle_queries"] == 4 * optimal_iterations(16)
    assert metrics["grover.ledger_diff"] == 0
    assert metrics["kernel.circuit_calls"] == 1


def test_probe_builds_one_gate_per_kind(perfbench):
    _, probe = perfbench
    oracle = IndicatorOracle(4, 1)
    gates = [probe._gate(kind, 4, 0, oracle, (2, 3)) for kind in sim.GATE_KINDS]
    assert [gate.kind for gate in gates] == list(sim.GATE_KINDS)
    sim.run(sim.Circuit(4, tuple(gates)), sim.StateVector.zero(4))
    assert oracle.query_count == 1


@pytest.mark.parametrize("backend", ["ideal", "faithful"])
def test_tracer_misses_the_head_of_a_kernel_circuit(perfbench, backend, monkeypatch):
    # The head runs through sim._head_state and the readout is pulled back
    # through the light cone's tail, neither through sim.run, so the tracer
    # sees the kernel call and its bill but no sim.run call or gate.
    tracing, _ = perfbench
    config = grover.GroverConfig(backend)
    a, b = IndicatorOracle(16, 3), IndicatorOracle(16, 5)
    n, k = 4, optimal_iterations(16)
    gates = (kernel.feature_map_circuit(a, 4, config).gates
             + kernel.feature_map_circuit(b, 4, config).gates[::-1])
    # The last search block acts on the ancilla only, and the tail ends on the
    # two register Hadamards.  In the faithful circuit the uncompute adder run
    # comes before them, so the head ends on the rounds; in the ideal one every
    # gate after the first two Hadamards permutes or negates amplitudes.
    if backend == "faithful":
        head = gates[: len(gates) - (n + 2 * k) - (n * (n + 1) // 2 + 2)]
        assert head[-1].kind == sim.DIFFUSION
    else:
        head = gates[:2]
    heads = []
    original = sim._head_state
    monkeypatch.setattr(sim, "_head_state",
                        lambda n, gates: heads.append(tuple(gates)) or original(n, gates))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        kernel.kernel_circuit(a, b, 4, config)
    finally:
        tracer.uninstall()
    assert heads == [head]
    metrics = tracer.metrics()
    assert metrics["kernel.circuit_calls"] == 1 and metrics["sim.run_calls"] == 0
    assert all(metrics[f"sim.gates.{kind}"] == 0 for kind in sim.GATE_KINDS)
    assert metrics["grover.ledger_diff"] == 0
