"""Per-gate-kind probe: one gate application, per gate kind, against qubit count.

Each measurement times ``sim.run`` on a circuit made of one gate kind repeated
``GATES_PER_CIRCUIT[n]`` times, so the state construction and normalisation
check at the end of ``run`` are spread over many gates.  Targets rotate over
the qubits so no single stride dominates.  Phase oracles come from
``IndicatorOracle.phase_gate`` and, like diffusion, act on the upper half of
the qubits, the layout of the feature map's ancilla register.
"""

from __future__ import annotations

import statistics
import time

from groversvm import sim
from groversvm.grover import IndicatorOracle

QUBITS = (12, 16, 20)
GATES_PER_CIRCUIT = {12: 128, 16: 32, 20: 8}
TIMINGS = 3

# Computed floating-point operations per amplitude for the arithmetic each gate
# needs, against 32 bytes moved per amplitude (one complex128 read and write).
# X, CNOT and MCX only permute amplitudes; a single-value phase oracle negates
# 2**-w of them.  These are computed, not measured.
BYTES_PER_AMPLITUDE = 32.0
FLOPS_PER_AMPLITUDE = {
    sim.HADAMARD: 4.0,  # a +- b (4 flops per pair) and two real scalings (4 per pair)
    sim.PAULI_X: 0.0,
    sim.CNOT: 0.0,
    sim.MCX: 0.0,
    sim.PHASE_ORACLE: 0.0,
    sim.DIFFUSION: 6.0,  # register mean (2) and 2 * mean - a (4)
}


def ops_per_byte_computed() -> dict:
    return {kind: flops / BYTES_PER_AMPLITUDE for kind, flops in FLOPS_PER_AMPLITUDE.items()}


def _gate(kind: str, n: int, i: int, oracle: IndicatorOracle, register: tuple) -> sim.Gate:
    q = i % n
    if kind == sim.HADAMARD:
        return sim.hadamard(q)
    if kind == sim.PAULI_X:
        return sim.pauli_x(q)
    if kind == sim.CNOT:
        return sim.cnot((q + 1) % n, q)
    if kind == sim.MCX:
        return sim.mcx(((q + 1) % n, (q + 2) % n), q)
    if kind == sim.PHASE_ORACLE:
        return oracle.phase_gate(register)
    return sim.diffusion(register)


def gate_us(run=sim.run) -> dict:
    """Microseconds per gate, keyed ``sim.gate_us.<kind>.q<n>`` (median of TIMINGS)."""
    out = {}
    for n in QUBITS:
        register = tuple(range(n // 2, n))
        oracle = IndicatorOracle(1 << len(register), 1)
        initial = sim.StateVector.zero(n)
        count = GATES_PER_CIRCUIT[n]
        for kind in sim.GATE_KINDS:
            circuit = sim.Circuit(n, tuple(_gate(kind, n, i, oracle, register) for i in range(count)))
            times = []
            for _ in range(TIMINGS):
                start = time.perf_counter()
                run(circuit, initial)
                times.append(time.perf_counter() - start)
            out[f"sim.gate_us.{kind}.q{n}"] = 1e6 * statistics.median(times) / count
    return out
