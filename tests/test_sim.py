"""Statevector simulator: gate semantics, norm preservation, measurement statistics."""

import itertools
import math
import re
from collections import Counter, OrderedDict

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from groversvm import sim
from groversvm.errors import ContractViolationError, ResourceCapError, StructuralError
from groversvm.sim import Circuit, StateVector

# Largest amplitude difference allowed between a closed-form run of rounds and
# the same gates applied one at a time.
ROUNDS_TOL = 1e-13


def random_state(num_qubits: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def random_gate(num_qubits: int, rng) -> sim.Gate:
    kind = rng.choice(["h", "x", "cnot", "mcx", "oracle", "diffusion"])
    qubits = list(rng.permutation(num_qubits))
    if kind == "h":
        return sim.hadamard(qubits[0])
    if kind == "x":
        return sim.pauli_x(qubits[0])
    if kind == "cnot" and num_qubits >= 2:
        return sim.cnot(qubits[0], qubits[1])
    if kind == "mcx" and num_qubits >= 3:
        return sim.mcx(qubits[:2], qubits[2])
    if kind == "oracle":
        r = max(1, num_qubits // 2)
        picks = sorted({int(v) for v in rng.integers(0, 1 << r, size=2)})
        return sim.phase_oracle(qubits[:r], picks)
    return sim.diffusion(qubits[: max(1, num_qubits // 2)])


def dense_operator(gate: sim.Gate, num_qubits: int) -> np.ndarray:
    """Independent oracle: the gate's full 2^n x 2^n matrix, built column by column."""
    dim = 1 << num_qubits
    dense = np.zeros((dim, dim), dtype=complex)
    register = gate.targets
    for col in range(dim):
        bits = [(col >> q) & 1 for q in range(num_qubits)]
        if gate.kind == sim.HADAMARD:
            q = register[0]
            for b in (0, 1):
                row = col & ~(1 << q) | (b << q)
                dense[row, col] = (-1 if bits[q] and b else 1) / math.sqrt(2)
        elif gate.kind in (sim.PAULI_X, sim.CNOT, sim.MCX):
            fire = all(bits[c] for c in gate.controls)
            dense[col ^ (1 << register[0]) if fire else col, col] = 1
        elif gate.kind == sim.PHASE_ORACLE:
            value = sum(bits[q] << p for p, q in enumerate(register))
            dense[col, col] = -1 if value in gate.marked else 1
        else:  # diffusion: 2|u><u| - I on the register, identity on the rest
            rest = col & ~sum(1 << q for q in register)
            for value in range(1 << len(register)):
                row = rest | sum(((value >> p) & 1) << q for p, q in enumerate(register))
                dense[row, col] = 2 / (1 << len(register)) - (row == col)
    return dense


class Billed:
    """An oracle that records each ``charge_queries`` call."""

    def __init__(self):
        self.charges = []

    def charge_queries(self, count: int) -> None:
        self.charges.append(count)


class TestStateVector:
    def test_zero_state(self):
        state = StateVector.zero(3)
        assert state.dim == 8
        assert state.amplitudes[0] == 1.0

    def test_rejects_wrong_length(self):
        with pytest.raises(StructuralError):
            StateVector(2, np.ones(3) / math.sqrt(3))

    def test_rejects_unnormalized(self):
        with pytest.raises(ContractViolationError):
            StateVector(1, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("amps", [
        [math.nan, 0.0], [1.0, math.nan], [math.inf, 0.0], [-math.inf, 0.0],
        [1.0, complex(0.0, math.inf)],
    ])
    def test_rejects_non_finite_amplitudes(self, amps):
        # A NaN norm compares false with the tolerance either way round.
        with pytest.raises(ContractViolationError, match="not normalized"):
            StateVector(1, np.array(amps))

    def test_rejects_above_cap(self):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError):
                StateVector.zero(sim.QUBIT_CAP + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # checked before the amplitudes are allocated

    @pytest.mark.parametrize("num_qubits", [0, -1])
    def test_rejects_widths_below_one(self, num_qubits):
        with pytest.raises(StructuralError, match="at least 1"):
            StateVector.zero(num_qubits)

    def test_amplitudes_immutable(self):
        state = StateVector.zero(1)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestSingleGates:
    def test_hadamard_on_zero(self):
        state = sim.apply(StateVector.zero(1), sim.hadamard(0))
        npt.assert_allclose(state.amplitudes, [2**-0.5, 2**-0.5], atol=1e-12)

    def test_pauli_x_involution(self):
        state = random_state(4, seed=1)
        back = sim.apply(sim.apply(state, sim.pauli_x(2)), sim.pauli_x(2))
        npt.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)

    def test_cnot_truth_table(self):
        # control qubit 0, target qubit 1: |q1 q0> = |01> -> |11>
        out = sim.apply(StateVector.basis(2, 0b01), sim.cnot(0, 1))
        assert abs(out.amplitudes[0b11] - 1.0) < 1e-12
        out = sim.apply(StateVector.basis(2, 0b10), sim.cnot(0, 1))
        assert abs(out.amplitudes[0b10] - 1.0) < 1e-12

    def test_mcx_fires_only_on_all_controls(self):
        gate = sim.mcx([0, 1], 2)
        out = sim.apply(StateVector.basis(3, 0b011), gate)
        assert abs(out.amplitudes[0b111] - 1.0) < 1e-12
        out = sim.apply(StateVector.basis(3, 0b001), gate)
        assert abs(out.amplitudes[0b001] - 1.0) < 1e-12

    def test_phase_oracle_flips_marked_only(self):
        state = sim.apply(StateVector.zero(2), sim.hadamard(0))
        state = sim.apply(state, sim.hadamard(1))
        flipped = sim.apply(state, sim.phase_oracle([0, 1], [2]))
        expected = state.amplitudes.copy()
        expected[2] *= -1
        npt.assert_allclose(flipped.amplitudes, expected, atol=1e-12)

    def test_diffusion_matches_dense_operator(self):
        # Independent oracle: explicit 2|u><u| - I on the register subspace.
        state = random_state(3, seed=7)
        register = (0, 2)
        out = sim.apply(state, sim.diffusion(register))
        dim_r = 4
        d_small = 2.0 * np.full((dim_r, dim_r), 1.0 / dim_r) - np.eye(dim_r)
        dense = np.zeros((8, 8), dtype=complex)
        for col in range(8):
            reg_in = ((col >> 0) & 1) | (((col >> 2) & 1) << 1)
            rest = col & 0b010
            for reg_out in range(dim_r):
                row = rest | (reg_out & 1) | ((reg_out >> 1) << 2)
                dense[row, col] = d_small[reg_out, reg_in]
        npt.assert_allclose(out.amplitudes, dense @ state.amplitudes, atol=1e-12)

    def test_gate_validation(self):
        with pytest.raises(StructuralError):
            sim.Gate(sim.CNOT, (1,), (1,))
        with pytest.raises(StructuralError):
            sim.Gate(sim.PHASE_ORACLE, ())
        with pytest.raises(StructuralError):
            sim.apply(StateVector.zero(1), sim.hadamard(3))

    @pytest.mark.parametrize(
        "gate",
        [
            lambda: sim.phase_oracle((0, 1), (4,)),
            lambda: sim.phase_oracle((0, 1), (-1,)),
            lambda: sim.phase_oracle((0, 1, 2), (3, 5, 3)),
            lambda: sim.Gate(sim.HADAMARD, (0,), marked=(0,)),
            lambda: sim.Gate(sim.DIFFUSION, (0, 1), oracle=Billed()),
        ],
        ids=["above", "negative", "repeated", "hadamard-marks", "diffusion-bills"],
    )
    def test_marked_values_are_checked(self, gate):
        with pytest.raises(StructuralError):
            gate()


NON_INTEGERS = [1.5, 1.0, np.float64(1.0), True, np.bool_(True), float("nan")]


class TestIntegerContract:
    """Qubits, marked values, widths and indices are Python or numpy integers, not bool."""

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_gate_qubits(self, value):
        # hadamard(1.5) acted on qubit 1.
        for gate in (lambda: sim.hadamard(value), lambda: sim.cnot(value, 2),
                     lambda: sim.mcx([0, value], 2), lambda: sim.diffusion([0, value])):
            with pytest.raises(StructuralError, match="qubits must be non-negative integers"):
                gate()

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_marked_values(self, value):
        # phase_oracle([0, 1], [1.5]) marked 1.
        with pytest.raises(StructuralError, match="marked values must be integers"):
            sim.phase_oracle([0, 1], [value])

    @pytest.mark.parametrize("value", [0.5, 0.0, False, np.bool_(False), float("nan")])
    def test_registers(self, value):
        # prob_all_zero(s, [0.5]) read qubit 0.
        state = random_state(3, seed=5)
        circuit = Circuit(3, (sim.hadamard(0),))
        for read in (
            lambda: sim.prob_all_zero(state, [value]),
            lambda: sim.register_probabilities(state, [1, value]),
            lambda: sim.sample_measurement(state, [value], 1, 0),
            lambda: sim.subsystem_fidelity(state, [value], np.array([1.0, 0.0])),
            lambda: sim.zero_probability(circuit, [value]),
        ):
            with pytest.raises(StructuralError, match="register qubits must be integers"):
                read()

    @pytest.mark.parametrize("width", [2.5, 2.0, True, float("nan")])
    def test_widths(self, width):
        # Circuit(2.5, ()) was accepted.
        with pytest.raises(StructuralError, match="num_qubits must be an integer"):
            Circuit(width, ())
        with pytest.raises(StructuralError, match="num_qubits must be an integer"):
            StateVector.zero(width)

    @pytest.mark.parametrize("index", [2.5, 2.0, True, np.bool_(True)])
    def test_basis_index(self, index):
        # StateVector.basis(3, 2.5) raised a bare IndexError.
        with pytest.raises(StructuralError, match="basis index"):
            StateVector.basis(3, index)

    def test_numpy_integers_pass(self):
        register = np.arange(2, dtype=np.int32)
        gates = (sim.hadamard(np.int64(0)), sim.cnot(np.uint8(0), np.int16(2)),
                 sim.phase_oracle(register, [np.int64(3)]))
        assert [type(q) for g in gates for q in g.targets + g.controls + g.marked] == [int] * 6
        state = sim.run(Circuit(np.int64(3), gates), StateVector.basis(np.int8(3), np.int64(2)))
        assert sim.prob_all_zero(state, register) == pytest.approx(0.0)
        assert sim.sample_measurement(state, register[1:], np.int64(3), 0) == {"1": 3}


class TestKernelsAgainstDenseReference:
    @pytest.mark.parametrize(
        "gate",
        [
            sim.hadamard(0),
            sim.hadamard(2),
            sim.hadamard(4),
            sim.pauli_x(0),
            sim.pauli_x(4),
            sim.cnot(4, 1),
            sim.cnot(0, 3),
            sim.mcx([0, 4], 2),  # controls below and above the target
            sim.mcx([3, 1], 0),  # both controls above
            sim.mcx([4, 0, 3, 1], 2),  # every other qubit: the control index fixes all axes
            sim.phase_oracle([3, 0, 4, 1, 2], [19]),  # full register
            sim.phase_oracle([4, 2, 0, 1, 3], [3, 10, 17, 24, 31]),  # full register, five values
            sim.phase_oracle([1, 3], [0, 2, 3]),  # several values
            sim.phase_oracle([2, 0, 4], []),  # no value
            sim.diffusion([3, 0, 2]),  # non-contiguous, out of order
            sim.diffusion([4, 1]),
            sim.diffusion([0, 1, 2, 3, 4]),
        ],
        ids=lambda gate: f"{gate.kind}{gate.targets}{gate.controls or ''}",
    )
    def test_gate_equals_dense_operator(self, gate):
        state = random_state(5, seed=31)
        expected = dense_operator(gate, 5) @ state.amplitudes
        npt.assert_allclose(sim.apply(state, gate).amplitudes, expected, atol=1e-12)
        out = sim.run(Circuit(5, (gate,)), state)
        npt.assert_allclose(out.amplitudes, expected, atol=1e-12)


def swap_gates(num_qubits: int, max_controls: int = 3):
    """Every X, CNOT and MCX with up to ``max_controls`` controls, on every target."""
    for target in range(num_qubits):
        others = [q for q in range(num_qubits) if q != target]
        for count in range(max_controls + 1):
            for controls in itertools.combinations(others, count):
                yield sim.pauli_x(target, controls)


def block_registers(num_qubits: int):
    """Every block of adjacent qubits, in ascending and descending order."""
    for width in range(1, num_qubits + 1):
        for low in range(num_qubits - width + 1):
            yield tuple(range(low, low + width))
            yield tuple(reversed(range(low, low + width)))


def signed_zero_state(num_qubits: int, seed: int) -> StateVector:
    """A random state whose amplitudes include every sign of zero in both parts."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    zeros = np.array([0.0, -0.0])
    for part in (amps.real, amps.imag):
        picks = rng.random(amps.size) < 0.25
        part[picks] = rng.choice(zeros, size=int(picks.sum()))
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def bit_index(num_qubits: int, bits: dict) -> tuple:
    """Index into the ``(2,)*n`` view (axis ``a`` holds qubit ``n-1-a``) fixing each qubit."""
    index = [slice(None)] * num_qubits
    for q, b in bits.items():
        index[num_qubits - 1 - q] = b
    return (*index, Ellipsis)


def bit_view(state: StateVector) -> np.ndarray:
    return state.amplitudes.copy().reshape((2,) * state.num_qubits)


class TestGatePlans:
    """Cached per-shape kernels: exhaustive at 6 qubits, bit for bit where paths differ."""

    def test_every_swap_gate_at_six_qubits(self):
        state = random_state(6, seed=43)
        gates = list(swap_gates(6))
        assert len(gates) == 6 * (1 + 5 + 10 + 10)
        for gate in gates:
            expected = dense_operator(gate, 6) @ state.amplitudes
            npt.assert_array_equal(sim.run(Circuit(6, (gate,)), state).amplitudes, expected)

    def test_diffusion_at_six_qubits(self):
        state = random_state(6, seed=47)
        scattered = [(0, 2, 5), (5, 0), (1, 3), (4, 1, 0), (2, 3, 4), (1, 2, 3, 4)]
        for register in [*block_registers(6), *scattered]:
            gate = sim.diffusion(register)
            expected = dense_operator(gate, 6) @ state.amplitudes
            npt.assert_allclose(sim.apply(state, gate).amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("num_qubits", range(2, 17))
    def test_block_diffusion_matches_mean_over_view_axes(self, num_qubits):
        # One axis per run of adjacent qubits sums in the same order as the
        # mean over the (2,)*n axes, for blocks and for scattered registers.
        psi = random_state(num_qubits, seed=num_qubits).amplitudes
        view = psi.reshape((2,) * num_qubits)
        rng = np.random.default_rng(num_qubits)
        widths = rng.integers(1, num_qubits + 1, size=8)
        scattered = [tuple(int(q) for q in rng.permutation(num_qubits)[:w]) for w in widths]
        for register in [*block_registers(num_qubits), *scattered]:
            axes = tuple(num_qubits - 1 - q for q in register)
            expected = 2.0 * view.mean(axis=axes, keepdims=True) - view
            circuit = Circuit(num_qubits, (sim.diffusion(register),))
            out = sim.run(circuit, StateVector(num_qubits, psi))
            assert out.amplitudes.tobytes() == expected.reshape(-1).tobytes(), register

    @pytest.mark.parametrize("num_qubits", [6, 12, 17])
    def test_hadamard_every_qubit_matches_blockwise_butterfly(self, num_qubits):
        # Short runs are processed as interleaved slices, and a 17-qubit state
        # one cache row at a time; the bits must not change.
        state = random_state(num_qubits, seed=53)
        for q in range(num_qubits):
            a = state.amplitudes.reshape(-1, 2, 1 << q)
            expected = np.stack([a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]], axis=1) * (1 / math.sqrt(2))
            out = sim.apply(state, sim.hadamard(q)).amplitudes
            assert out.tobytes() == expected.reshape(-1).tobytes(), q
            if num_qubits == 6:
                npt.assert_allclose(out, dense_operator(sim.hadamard(q), 6) @ state.amplitudes,
                                    atol=1e-12)

    def test_phase_oracle_on_the_whole_register_in_order(self):
        state = random_state(6, seed=59)
        for marked in ([0], [63], [5, 17, 40]):
            gate = sim.phase_oracle(range(6), marked)
            expected = state.amplitudes.copy()
            expected[marked] *= -1
            npt.assert_array_equal(sim.apply(state, gate).amplitudes, expected)

    # The merged-run view against the (2,)*n view, bit for bit, signed zeros
    # included, on random qubit sets from 2 to 16 qubits.

    @pytest.mark.parametrize("num_qubits", range(2, 17))
    def test_swap_gates_match_the_bit_view(self, num_qubits):
        n = num_qubits
        state = signed_zero_state(n, seed=200 + n)
        rng = np.random.default_rng(n)
        gates = []
        for target in sorted({0, n - 1, int(rng.integers(n))}):
            others = [int(q) for q in rng.permutation(n) if q != target]
            below = [q for q in others if q < target]
            above = [q for q in others if q > target]
            adjacent = [q for q in (target - 1, target + 1) if 0 <= q < n]
            gates += [sim.pauli_x(target), sim.cnot(others[0], target)]
            gates.append(sim.pauli_x(target, adjacent))  # next to the target
            gates.append(sim.pauli_x(target, others[: int(rng.integers(1, len(others) + 1))]))
            if below and above:
                gates.append(sim.mcx([below[0], above[-1]], target))  # on both sides
        for gate in gates:
            expected = bit_view(state)
            ones = dict.fromkeys(gate.controls, 1)
            lower = bit_index(n, {**ones, gate.targets[0]: 0})
            upper = bit_index(n, {**ones, gate.targets[0]: 1})
            expected[lower], expected[upper] = expected[upper], expected[lower].copy()
            out = sim.apply(state, gate).amplitudes
            assert same_bits(out, expected.reshape(-1)), gate

    @pytest.mark.parametrize("num_qubits", range(2, 17))
    def test_x_runs_match_the_bit_view(self, num_qubits):
        n = num_qubits
        state = signed_zero_state(n, seed=300 + n)
        rng = np.random.default_rng(n)
        for _ in range(4):
            qubits = [int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
            repeats = rng.integers(1, 4, size=len(qubits))  # odd and even repeat counts
            targets = [q for q, r in zip(qubits, repeats) for _ in range(r)]
            targets = [targets[i] for i in rng.permutation(len(targets))]
            expected = bit_view(state)
            for q in targets:
                expected = np.flip(expected, axis=n - 1 - q)
            circuit = Circuit(n, tuple(sim.pauli_x(q) for q in targets))
            out = sim.run(circuit, state).amplitudes
            assert same_bits(out, np.ascontiguousarray(expected).reshape(-1)), targets

    @pytest.mark.parametrize("num_qubits", range(2, 17))
    def test_phase_oracles_match_the_bit_view(self, num_qubits):
        n = num_qubits
        state = signed_zero_state(n, seed=400 + n)
        rng = np.random.default_rng(n)
        width = int(rng.integers(1, n))
        low = int(rng.integers(0, n - width + 1))
        registers = [
            tuple(int(q) for q in rng.permutation(n)[:width]),  # scattered
            tuple(range(low, low + width)),  # contiguous
            tuple(range(low, low + width))[::-1],
            tuple(range(n)),  # whole register, in order
            tuple(int(q) for q in rng.permutation(n)),  # whole register, any order
        ]
        for register in registers:
            size = 1 << len(register)
            marked = sorted({int(v) for v in rng.integers(0, size, size=4)})
            expected = bit_view(state)
            for value in marked:
                index = bit_index(n, {q: (value >> p) & 1 for p, q in enumerate(register)})
                expected[index] = -expected[index]
            out = sim.apply(state, sim.phase_oracle(register, marked)).amplitudes
            assert same_bits(out, expected.reshape(-1)), (register, marked)

    @pytest.mark.parametrize("num_qubits", range(2, 17))
    def test_prob_all_zero_matches_the_bit_view(self, num_qubits):
        n = num_qubits
        state = signed_zero_state(n, seed=500 + n)
        rng = np.random.default_rng(n)
        widths = rng.integers(1, n + 1, size=6)
        scattered = [tuple(int(q) for q in rng.permutation(n)[:w]) for w in widths]
        for register in [(0,), (n - 1,), tuple(range(n)), *scattered]:
            zero = bit_view(state)[bit_index(n, dict.fromkeys(register, 0))]
            expected = np.array([np.sum(np.abs(zero) ** 2)])
            assert same_bits(np.array([sim.prob_all_zero(state, register)]), expected), register


class TestRunBuffer:
    def test_initial_unchanged_and_unshared(self):
        state = random_state(4, seed=41)
        before = state.amplitudes.copy()
        gates = (sim.hadamard(1), sim.mcx([0, 2], 3), sim.diffusion([0, 3]))
        out = sim.run(Circuit(4, gates), state)
        npt.assert_array_equal(state.amplitudes, before)
        assert not np.shares_memory(out.amplitudes, state.amplitudes)
        assert not out.amplitudes.flags.writeable


def per_gate(state: StateVector, gates) -> np.ndarray:
    """Reference: the gates applied one at a time through the per-gate kernels."""
    amps = state.amplitudes
    for gate in gates:
        amps = sim._apply_raw(amps, state.num_qubits, gate)
    return amps


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a.view(np.uint8), b.view(np.uint8))


def random_run(num_qubits: int, rng, kinds, length: int) -> list:
    """X/CNOT/MCX gates drawn from ``kinds``; X may repeat a qubit."""
    gates = []
    for _ in range(length):
        kind = kinds[int(rng.integers(len(kinds)))]
        qubits = [int(q) for q in rng.permutation(num_qubits)]
        if kind == "x":
            gates.append(sim.pauli_x(qubits[0]))
        elif kind == "cnot":
            gates.append(sim.cnot(qubits[1], qubits[0]))
        elif kind == "mcx" and num_qubits >= 3:
            count = int(rng.integers(2, num_qubits))  # up to every other qubit
            gates.append(sim.mcx(qubits[1:count + 1], qubits[0]))
    return gates


@pytest.fixture
def fresh_cache(monkeypatch):
    cache = sim._PermutationCache(sim._PERMUTATION_CACHE_BYTES)
    monkeypatch.setattr(sim, "_PERMUTATIONS", cache)
    return cache


class TestFusedRuns:
    """Runs of X and of CNOT/MCX gates are one pass each, with the per-gate bits."""

    @pytest.mark.parametrize("seed", range(24))
    def test_random_runs_match_per_gate_application(self, seed, fresh_cache):
        rng = np.random.default_rng(seed)
        n = 3 + seed % 12  # 3 .. 14 qubits
        state = random_state(n, seed=100 + seed)
        kinds = [("x",), ("cnot", "mcx"), ("x", "cnot", "mcx")][seed % 3]
        gates = random_run(n, rng, kinds, int(rng.integers(1, 12)))
        gates += [sim.hadamard(0)] + random_run(n, rng, ("cnot", "mcx"), 4)
        circuit = Circuit(n, tuple(gates))
        expected = per_gate(state, gates)
        assert same_bits(sim.run(circuit, state).amplitudes, expected)
        assert same_bits(sim.run(circuit, state).amplitudes, expected)  # from the cache
        middle = StateVector(n, expected)
        back = sim.run(circuit.inverse(), middle)
        assert same_bits(back.amplitudes, per_gate(middle, circuit.inverse().gates))

    @pytest.mark.parametrize("n", [3, 9, 14])
    def test_edge_shapes(self, n, fresh_cache):
        state = random_state(n, seed=n)
        every_other = sim.mcx(range(1, n), 0)
        runs = [
            [sim.pauli_x(1), sim.pauli_x(1)],  # cancels: no pass at all
            [sim.pauli_x(0), sim.pauli_x(n - 1), sim.pauli_x(0), sim.pauli_x(1)],
            [every_other, sim.cnot(0, n - 1), every_other],
            [sim.pauli_x(2), sim.cnot(0, 1), sim.mcx([0, 1], 2), sim.pauli_x(2), sim.pauli_x(0)],
            [sim.cnot(0, 1)],  # a single controlled gate keeps its own kernel
        ]
        for gates in runs:
            out = sim.run(Circuit(n, tuple(gates)), state)
            assert same_bits(out.amplitudes, per_gate(state, gates)), gates
        assert same_bits(sim.run(Circuit(n, tuple(runs[0])), state).amplitudes, state.amplitudes)

    def test_each_direction_of_a_run_inverts_the_other(self, fresh_cache):
        from groversvm.grover import adder_gates

        n = 8
        adder = adder_gates(range(4), range(4, 8))
        state = random_state(n, seed=61)
        forward = sim.run(Circuit(n, tuple(adder)), state)
        back = sim.run(Circuit(n, tuple(reversed(adder))), forward)
        assert same_bits(back.amplitudes, state.amplitudes)
        built = [id(perm) for perm in fresh_cache._entries.values()]
        assert len(built) == 2  # one gather array per direction
        perm, reverse = fresh_cache.lookup(n, adder), fresh_cache.lookup(n, adder[::-1])
        assert [id(perm), id(reverse)] == built  # found, not built again
        for array in (perm, reverse):
            assert array.dtype == np.int32 and not array.flags.writeable
        assert perm[reverse].tolist() == reverse[perm].tolist() == list(range(1 << n))
        # |i>|j> -> |i+j mod 16>|j>: the amplitude at the sum came from (i, j).
        for i, j in [(3, 5), (15, 1), (0, 0), (9, 12)]:
            assert perm[((i + j) % 16) | (j << 4)] == i | (j << 4)

    def test_cache_evicts_oldest_within_its_bound(self):
        n = 6
        cache = sim._PermutationCache(3 * (4 << n))
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        runs = [[sim.cnot(a, b), sim.cnot(b, a)] for a, b in pairs]
        for gates in runs:
            assert cache.lookup(n, gates) is not None
            assert cache.nbytes <= cache.max_bytes
        assert cache.nbytes == cache.max_bytes
        assert len(cache._entries) == 3
        kept = [shapes for _, shapes in cache._entries]
        assert kept == [tuple((g.targets[0], g.controls) for g in gates) for gates in runs[2:]]
        assert cache.lookup(n + 2, runs[0]) is None  # one array over the bound: not held
        assert cache.nbytes == 3 * (4 << n)
        perm = cache.lookup(n + 1, runs[4])  # the same shapes on a wider state
        assert perm.size == 1 << (n + 1)
        assert sim._PERMUTATIONS.max_bytes == sim._PERMUTATION_CACHE_BYTES

    def test_runs_the_cache_cannot_hold_fall_back_per_gate(self, monkeypatch):
        n = 7
        monkeypatch.setattr(sim, "_PERMUTATIONS", sim._PermutationCache(4 << (n - 1)))
        state = random_state(n, seed=67)
        gates = [sim.cnot(0, 1), sim.mcx([1, 2, 6], 0), sim.cnot(5, 3)]
        out = sim.run(Circuit(n, tuple(gates)), state)
        assert same_bits(out.amplitudes, per_gate(state, gates))
        assert sim._PERMUTATIONS.nbytes == 0

    def test_phase_oracle_between_runs_bills_each_application(self, fresh_cache):
        from groversvm.grover import IndicatorOracle

        oracle = IndicatorOracle(16, 6)
        phase = oracle.phase_gate(range(4))
        run = [sim.pauli_x(4), sim.cnot(4, 0), sim.mcx([0, 4], 1)]
        circuit = Circuit(5, tuple(run + [phase] + run[::-1] + [phase] + run))
        out = sim.run_from_zero(circuit)
        assert oracle.query_count == 2
        sim.run(circuit.inverse(), out)
        assert oracle.query_count == 4

    def test_outputs_are_read_only_and_never_rewritten(self, fresh_cache):
        n = 10
        state = random_state(n, seed=71)
        before = state.amplitudes.copy()
        gates = (sim.pauli_x(3), sim.pauli_x(7), sim.cnot(0, 9), sim.mcx([1, 2], 8))
        first = sim.run(Circuit(n, gates), state)
        kept = first.amplitudes.copy()
        assert not first.amplitudes.flags.writeable
        assert not np.shares_memory(first.amplitudes, state.amplitudes)
        second = sim.run(Circuit(n, gates), first)
        sim.run(Circuit(n, gates[::-1]), second)
        sim.run_from_zero(Circuit(n, gates))
        assert same_bits(first.amplitudes, kept)
        assert same_bits(state.amplitudes, before)
        assert not np.shares_memory(first.amplitudes, second.amplitudes)

    def test_run_from_zero_equals_run_on_zero_state(self, fresh_cache):
        from groversvm.grover import adder_gates

        gates = [sim.hadamard(0), sim.hadamard(5), sim.pauli_x(2), sim.pauli_x(4)]
        gates += adder_gates(range(3), range(3, 6)) + [sim.diffusion([0, 1, 2])]
        circuit = Circuit(6, tuple(gates))
        assert same_bits(
            sim.run_from_zero(circuit).amplitudes, sim.run(circuit, StateVector.zero(6)).amplitudes
        )

    def test_run_from_zero_goes_through_run(self, monkeypatch):
        import inspect

        assert list(inspect.signature(sim.run).parameters) == ["circuit", "initial"]
        seen = []
        original = sim.run

        def wrapped(circuit, initial):
            seen.append(circuit)
            return original(circuit, initial)

        monkeypatch.setattr(sim, "run", wrapped)
        circuit = Circuit(2, (sim.pauli_x(1),))
        out = sim.run_from_zero(circuit)
        assert seen == [circuit]
        npt.assert_array_equal(out.amplitudes, [0, 0, 1, 0])


def random_search_run(num_qubits: int, register, rng, length: int) -> list:
    """Hadamards, phase oracles and diffusion on ``register``, in random order."""
    gates = []
    for _ in range(length):
        kind = int(rng.integers(3))
        if kind == 0:
            gates.append(sim.hadamard(int(rng.choice(register))))
        elif kind == 1:
            picks = sorted({int(v) for v in rng.integers(0, 1 << len(register), size=2)})
            gates.append(sim.phase_oracle(register, picks))
        else:
            gates.append(sim.diffusion(register))
    return gates


def hadamard_runs_reduced(gates) -> list:
    """``gates`` with each run of consecutive Hadamards cut to the qubits it hits an odd number
    of times, each once, in the order of their first hits."""
    out = []
    for is_hadamard, run in itertools.groupby(gates, key=lambda gate: gate.kind == sim.HADAMARD):
        if not is_hadamard:
            out += run
            continue
        counts = Counter(gate.targets for gate in run)
        out += [sim.Gate(sim.HADAMARD, targets) for targets, count in counts.items() if count % 2]
    return out


class TestTiledRuns:
    """The gate lists the removed tile path took: runs of H, oracle and diffusion gates on
    high qubits keep the per-gate bits once their Hadamard runs are reduced."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_runs_match_per_gate_application(self, seed):
        rng = np.random.default_rng(seed)
        n = 9 + seed % 4
        state = random_state(n, seed=200 + seed)
        width = int(rng.integers(2, n - 5))
        top = tuple(range(n - width, n))[:: 1 if seed % 2 else -1]
        middle = tuple(range(n - width - 2, n - 2))
        low = [sim.hadamard(0), sim.phase_oracle([0, 1], [2])]
        gates = random_search_run(n, top, rng, 12) + low[: 1 + seed % 2]
        gates += random_search_run(n, middle, rng, 12)
        gates += [sim.hadamard(n - 1), sim.diffusion(top)] + low + random_search_run(n, top, rng, 6)
        assert sim._ROUNDS not in step_kinds(n, gates)
        out = sim.run(Circuit(n, tuple(gates)), state).amplitudes
        assert same_bits(out, per_gate(state, hadamard_runs_reduced(gates)))
        assert np.abs(out - per_gate(state, gates)).max() <= ROUNDS_TOL

    def test_search_block_at_20_qubits(self):
        from groversvm.grover import IndicatorOracle, search_gates

        n, k = 20, 1  # 10 Hadamards and a diffusion per block; two rounds would be closed form
        oracle = IndicatorOracle(1 << 10, 300)
        block = search_gates(oracle, k, range(10, 20))
        gates = [sim.hadamard(0), sim.hadamard(3)] + block + [sim.pauli_x(12)] + block[::-1]
        state = random_state(n, seed=20)
        out = sim.run(Circuit(n, tuple(gates)), state)
        assert oracle.query_count == 2 * k
        assert same_bits(out.amplitudes, per_gate(state, gates))  # no Hadamard run repeats a qubit

    def test_shared_oracle_gates_bill_once_per_application(self):
        from groversvm.grover import IndicatorOracle, search_gates

        n, k = 12, 7
        oracle = IndicatorOracle(1 << 5, 21)
        gates = search_gates(oracle, k, range(n - 5, n))
        state = sim.run(Circuit(n, tuple(gates)), StateVector.zero(n))
        assert oracle.query_count == k  # the rounds in closed form
        expected = per_gate(StateVector.zero(n), gates)
        assert np.abs(state.amplitudes - expected).max() <= ROUNDS_TOL
        assert oracle.query_count == k  # the per-gate reference bills nothing

    def test_tile_buffer_is_freed_before_a_state_sized_one(self):
        import tracemalloc

        n = 20
        rounds = [sim.diffusion(range(10, 20))] * 8
        state = StateVector.zero(n)
        state_bytes, tile_bytes = 16 << n, 16 * sim._CACHE_ROW
        for extra, bound in [([], state_bytes + 2 * tile_bytes),
                             ([sim.pauli_x(0)], 2 * state_bytes + tile_bytes // 2)]:
            circuit = Circuit(n, tuple(rounds + extra))
            tracemalloc.start()
            try:
                sim.run(circuit, state)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound


def hadamard_run(num_qubits: int, rng, length: int, repeats: bool) -> list:
    """``length`` Hadamards on random qubits: distinct ones, or with every qubit hit at least twice."""
    if not repeats:
        return [sim.hadamard(int(q)) for q in rng.permutation(num_qubits)[:length]]
    qubits = [int(q) for q in rng.choice(num_qubits, size=length // 2)] * 2
    qubits += [int(q) for q in rng.choice(num_qubits, size=length % 2)]
    return [sim.hadamard(q) for q in rng.permutation(qubits).tolist()]


class TestHadamardRuns:
    """A run of Hadamards applies H once to each qubit it hits an odd number of times."""

    @pytest.mark.parametrize("seed", range(12))
    def test_distinct_qubits_keep_the_per_gate_bits(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = 2 + seed  # 2 .. 13 qubits
        state = random_state(n, seed=seed)
        gates = hadamard_run(n, rng, int(rng.integers(1, n + 1)), repeats=False)
        gates += [sim.pauli_x(0)] + hadamard_run(n, rng, n, repeats=False)
        out = sim.run(Circuit(n, tuple(gates)), state).amplitudes
        assert same_bits(out, per_gate(state, gates))

    @pytest.mark.parametrize("seed", range(12))
    def test_repeated_qubits_apply_the_odd_ones_once(self, seed):
        rng = np.random.default_rng(950 + seed)
        n = 2 + seed
        state = random_state(n, seed=seed)
        gates = hadamard_run(n, rng, int(rng.integers(2, 3 * n)), repeats=True)
        gates += [sim.cnot(0, 1)] + hadamard_run(n, rng, 2 * n + 1, repeats=True)
        odd = hadamard_runs_reduced(gates)
        assert len(odd) < len(gates) - 1
        out = sim.run(Circuit(n, tuple(gates)), state).amplitudes
        assert same_bits(out, per_gate(state, odd))
        assert np.abs(out - per_gate(state, gates)).max() <= ROUNDS_TOL

    def test_a_cancelled_run_is_the_identity(self):
        state = random_state(5, seed=3)
        gates = [sim.hadamard(q) for q in (4, 0, 2, 2, 0, 4)]
        assert same_bits(sim.run(Circuit(5, tuple(gates)), state).amplitudes, state.amplitudes)

    def test_a_from_zero_prefix_does_not_split_a_qubit_across_its_end(self, low_prefix):
        # With X0 the Hadamard run touches all six qubits, more than a prefix
        # may, so the prefix, which takes whole steps, stops before the run,
        # and the run is reduced whole (H1 cancels) as in the full-width run.
        n = 6
        run = [sim.hadamard(q) for q in (1, 2, 3, 4, 1, 5)]
        for mark in (9, 22, 40):
            oracle = sim.phase_oracle(range(n), [mark])
            circuit = Circuit(n, tuple([sim.pauli_x(0)] + run + [oracle, sim.diffusion(range(n))]))
            gates = circuit.gates
            assert sim._zero_prefix(n, gates) == (1, 0b000001)
            assert sim._zero_prefix(n, gates[:5] + gates[6:]) == (1, 0b000001)  # no qubit hit twice
            expected = sim.run(circuit, StateVector.zero(n))
            assert same_bits(sim.run_from_zero(circuit).amplitudes, expected.amplitudes)
            register = (0, 1, 2)
            assert sim.zero_probability(circuit, register) == sim.prob_all_zero(expected, register)

    def test_one_hadamard_adds_at_most_half_a_cache_row(self):
        # On every qubit of a 20-qubit state the butterfly's temporary is at
        # most 512 KiB, with a few KiB of small objects on top.  On runs of 8
        # to 2048 amplitudes numpy also copies each of the three strided
        # operands through its own ufunc buffer of 8192 elements.
        import tracemalloc

        n = 20
        psi = np.zeros(1 << n, dtype=np.complex128)
        psi[0] = 1.0
        for q in range(n):
            sim._plan(n, sim.HADAMARD, (q,), ())  # planned before tracing
            tracemalloc.start()
            try:
                sim._apply_inplace(psi, n, sim.hadamard(q))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            buffers = 3 * 16 * 8192 if 8 <= 1 << q <= 2048 else 0
            assert peak <= 16 * (sim._CACHE_ROW // 2) + buffers + (4 << 10), q
        assert np.allclose(psi, 1 / 1024)  # H on every qubit of |0...0>


@pytest.fixture
def low_prefix(monkeypatch):
    """Prefixes taken from 3 qubits up, so small from-zero circuits take them.

    The prefix path is the same code at any width; the real width rule is
    exercised by the kernel circuits below.
    """
    monkeypatch.setattr(sim, "_PREFIX_MIN_QUBITS", 3)


def random_prefix_circuit(num_qubits: int, rng) -> Circuit:
    """Gates on a random subset of qubits (oracles marking values), then some on all of them.

    Diffusions act on the top block, the bottom block, a middle block, or,
    after the subset's gates, any register.
    """
    n = num_qubits
    subset = sorted(int(q) for q in rng.choice(n, size=int(rng.integers(1, n - 1)), replace=False))

    def gate(qubits, any_register):
        qubits = [int(q) for q in rng.permutation(qubits)]
        kind = int(rng.integers(6))
        if kind == 0:
            return sim.hadamard(qubits[0])
        if kind == 1:
            return sim.pauli_x(qubits[0])
        if kind == 2 and len(qubits) >= 2:
            return sim.cnot(qubits[0], qubits[1])
        if kind == 3 and len(qubits) >= 3:
            return sim.mcx(qubits[:2], qubits[2])
        if kind == 4:
            register = qubits[: max(1, len(qubits) // 2)]
            picks = sorted({int(v) for v in rng.integers(0, 1 << len(register), size=2)})
            return sim.phase_oracle(register, picks)
        width = int(rng.integers(1, len(qubits) + 1))
        shape = int(rng.integers(4 if any_register else 3))
        low = int(rng.integers(0, n - width + 1)) if shape == 2 else 0
        blocks = [range(n - width, n), range(width), range(low, low + width), qubits[:width]]
        register = blocks[shape]
        return sim.diffusion(list(register)[:: 1 if kind % 2 else -1])

    gates = [gate(subset, False) for _ in range(int(rng.integers(2, 24)))]
    gates += [gate(range(n), True) for _ in range(int(rng.integers(0, 6)))]
    return Circuit(n, tuple(gates))


class TestZeroPrefix:
    """From |0...0>, the leading gates that touch few qubits run on those qubits only."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_circuits_keep_every_bit(self, seed, low_prefix):
        rng = np.random.default_rng(300 + seed)
        n = 3 + seed % 8  # 3 .. 10 qubits
        for _ in range(10):
            circuit = random_prefix_circuit(n, rng)
            expected = sim.run(circuit, StateVector.zero(n)).amplitudes
            assert same_bits(sim.run_from_zero(circuit).amplitudes, expected), circuit.gates

    def test_signed_zeros_of_marked_untouched_blocks(self, low_prefix):
        # Qubits 3 and 4 stay |0>, so the blocks where either is 1 hold zeros,
        # which the last oracle turns into -0.
        n = 5
        register = (0, 1, 2)
        gates = [sim.hadamard(q) for q in register]
        gates += [sim.phase_oracle(register, [5]), sim.diffusion(register)] * 2
        gates += [sim.phase_oracle(register, [1, 4, 7])]
        circuit = Circuit(n, tuple(gates))
        assert sim._zero_prefix(n, circuit.gates) == (len(gates), 0b00111)
        expected = sim.run(circuit, StateVector.zero(n)).amplitudes
        assert np.signbit(expected[8:].real).any()
        assert same_bits(sim.run_from_zero(circuit).amplitudes, expected)

    def test_a_middle_block_register_keeps_a_touched_qubit_below_it(self, low_prefix):
        n = 8
        middle = (2, 3, 4, 5)
        gates = [sim.hadamard(q) for q in middle] + [sim.phase_oracle(middle, [9])]
        gates += [sim.diffusion(middle), sim.hadamard(3), sim.diffusion((5, 6, 7))]
        below = Circuit(n, (sim.hadamard(0),) + tuple(gates[:-1]))
        assert sim._zero_prefix(n, below.gates) == (8, 0b00111101)  # qubit 0 is below already
        added = Circuit(n, tuple(gates))
        assert sim._zero_prefix(n, added.gates) == (8, 0b11111110)  # qubit 1 is added
        scattered = Circuit(n, tuple(gates[:5] + [sim.diffusion((2, 4, 5))] + gates[5:]))
        assert sim._zero_prefix(n, scattered.gates) == (5, 0b00111100)  # it ends the prefix
        for c in (below, added, scattered):
            expected = sim.run(c, StateVector.zero(n)).amplitudes
            assert same_bits(sim.run_from_zero(c).amplitudes, expected)

    def test_a_prefix_that_leaves_one_qubit_untouched_is_not_taken(self, low_prefix):
        n = 6
        gates = [sim.hadamard(q) for q in range(5)] + [sim.diffusion(range(5)), sim.hadamard(5)]
        circuit = Circuit(n, tuple(gates))
        assert sim._zero_prefix(n, circuit.gates) == (0, 0)  # the five Hadamards are one step
        for c in (circuit, Circuit(n, circuit.gates[5:])):  # the diffusion on 5 qubits first
            expected = sim.run(c, StateVector.zero(n)).amplitudes
            assert same_bits(sim.run_from_zero(c).amplitudes, expected)
        assert sim._zero_prefix(n, circuit.gates[5:]) == (0, 0)

    def test_a_top_block_register_keeps_a_column_below_it(self, low_prefix):
        # Alone, the register would be the whole smaller state and its mean a
        # contiguous (pairwise) sum; the qubit below keeps the column sum.
        n = 9
        register = tuple(range(4, 9))
        gates = [sim.hadamard(q) for q in register]
        for value in (3, 17, 30):
            gates += [sim.phase_oracle(register, [value]),
                      sim.diffusion(register), sim.hadamard(5 + value % 4)]
        circuit = Circuit(n, tuple(gates))
        assert sim._zero_prefix(n, circuit.gates) == (len(gates), 0b111111000)
        expected = sim.run(circuit, StateVector.zero(n)).amplitudes
        assert same_bits(sim.run_from_zero(circuit).amplitudes, expected)

    def test_a_prefix_does_not_split_a_run_of_rounds(self, low_prefix):
        # The oracle's qubits 0, 1 and 6 would leave one qubit untouched after
        # the first diffusion, inside the rounds the full-width run fuses at
        # gates [4, 10): the prefix ends before them and takes no qubit below.
        n, register = 8, (2, 3, 4, 5)
        oracle = sim.phase_oracle(register + (0, 1, 6), [9 | 1 << 4, 3 | 2 << 4])
        gates = [sim.hadamard(q) for q in register] + [sim.diffusion(register), oracle] * 3
        circuit = Circuit(n, tuple(gates))
        assert list(sim._round_runs(circuit.gates)) == [(4, 10)]
        assert sim._zero_prefix(n, circuit.gates) == (4, 0b00111100)
        expected = sim.run(circuit, StateVector.zero(n)).amplitudes
        assert same_bits(sim.run_from_zero(circuit).amplitudes, expected)

    @pytest.mark.parametrize("seed", range(20))
    def test_a_list_split_at_a_step_boundary_keeps_its_steps(self, seed):
        # The prefix, the rest after it and a sparse head's dense rest each go
        # through _evolve alone; split where a step ends, each keeps the steps
        # of the whole list.
        rng = np.random.default_rng(1300 + seed)
        register = (2, 3, 4, 5)
        pool = [sim.phase_oracle(register, [3]), sim.diffusion(register),
                sim.phase_oracle(register + (6,), [3, 9 | 1 << 4]), sim.phase_oracle(register, [3, 9]),
                sim.hadamard(0), sim.hadamard(1), sim.pauli_x(2), sim.cnot(0, 1),
                sim.mcx([0, 1], 2), sim.diffusion(range(7))]
        gates = [pool[i] for i in rng.integers(len(pool), size=int(rng.integers(2, 30)))]
        at = int(rng.integers(len(gates) + 1))
        gates[at:at] = pool[:2] * int(rng.integers(1, 4))
        spans = list(sim._spans(gates))
        for _, start, _ in spans:
            rest = [(kind, start + a, start + b) for kind, a, b in sim._spans(gates[start:])]
            assert list(sim._spans(gates[:start])) + rest == spans

    def test_small_states_start_at_full_width(self):
        n = sim._PREFIX_MIN_QUBITS - 1
        circuit = Circuit(n, (sim.hadamard(0), sim.hadamard(1)))
        assert sim._zero_prefix(n, circuit.gates) == (0, 0)
        assert sim._zero_prefix(n + 1, circuit.gates) == (2, 0b11)

    @pytest.mark.parametrize("backend", ["ideal", "faithful"])
    @pytest.mark.parametrize("N", [16, 64, 256, 1024])
    def test_kernel_circuits(self, N, backend, monkeypatch):
        from groversvm.grover import (
            GroverConfig, IndicatorOracle, feature_map_circuit, optimal_iterations,
        )
        from groversvm.kernel import kernel_circuit

        config = GroverConfig(backend=backend)
        k = optimal_iterations(N)
        a, b = IndicatorOracle(N, 3), IndicatorOracle(N, 5)
        forward, backward = feature_map_circuit(a, 4, config), feature_map_circuit(b, 4, config)
        n = forward.num_qubits
        circuit = Circuit(n, forward.gates + backward.gates[::-1])
        length, touched = sim._zero_prefix(n, circuit.gates)
        if n >= sim._PREFIX_MIN_QUBITS:  # the Hadamards on qubits 0 and 1, and the first block
            assert touched == 0b11 | (N - 1) << (n // 2)
            writes = bin(3).count("1")  # the ideal block's X gates write the marked value
            assert length == 2 + (n // 2 + 2 * k if backend == "faithful" else k + writes)
        else:
            assert length == 0
        expected = sim.run(circuit, StateVector.zero(n)).amplitudes
        assert (a.query_count, b.query_count) == (2 * k, 2 * k)
        seen, heads = [], []
        original, original_head = sim.run, sim._head_state

        def wrapped(circuit, initial):
            seen.append(circuit.num_qubits)
            return original(circuit, initial)

        def head_state(num_qubits, gates):
            heads.append(num_qubits)
            return original_head(num_qubits, gates)

        monkeypatch.setattr(sim, "run", wrapped)
        monkeypatch.setattr(sim, "_head_state", head_state)
        assert same_bits(sim.run_from_zero(circuit).amplitudes, expected)
        assert (a.query_count, b.query_count) == (4 * k, 4 * k)
        value, ledger = kernel_circuit(a, b, 4, config)
        # One call per run_from_zero, at full width; the kernel's head runs
        # once, at full width, without run.
        assert seen == [n] and heads == [n]
        assert ledger.oracle_queries == 4 * k
        assert value == pytest.approx(0.5, abs=0.05)

    def test_no_state_sized_buffer_beyond_two(self):
        import tracemalloc

        from groversvm.grover import GroverConfig, IndicatorOracle, feature_map_circuit

        config = GroverConfig(backend="faithful")
        maps = [feature_map_circuit(IndicatorOracle(1024, v), 4, config) for v in (3, 5)]
        kernel = Circuit(20, maps[0].gates + maps[1].gates[::-1])
        prefix = Circuit(20, maps[0].gates[:62])  # the Hadamards and the first search block
        assert sim._zero_prefix(20, prefix.gates)[0] == len(prefix)
        state_bytes = 16 << 20
        # The kernel circuit's peak is the buffer and its spare, with room for
        # an int64 copy of the adder's int32 gather indices.
        for circuit, bound in [(prefix, state_bytes + state_bytes // 8),
                               (kernel, 2 * state_bytes + state_bytes // 2 + (1 << 20))]:
            sim.run_from_zero(circuit)  # fills the permutation cache
            tracemalloc.start()
            try:
                sim.run_from_zero(circuit)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound


    def test_the_gather_adds_at_most_a_cache_row(self):
        # The adder's gather goes one cache row of indices at a time, so the
        # int64 copy numpy makes of the int32 indices is 512 KiB, not 8 MiB.
        import tracemalloc

        from groversvm.grover import GroverConfig, IndicatorOracle, feature_map_circuit

        config = GroverConfig(backend="faithful")
        maps = [feature_map_circuit(IndicatorOracle(1024, v), 4, config) for v in (3, 5)]
        kernel = Circuit(20, maps[0].gates + maps[1].gates[::-1])
        expected = sim.run(kernel, StateVector.zero(20)).amplitudes  # fills the cache
        tracemalloc.start()
        try:
            out = sim.run_from_zero(kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (16 << 20) + (1 << 20)
        assert same_bits(out.amplitudes, expected)

    def test_the_prefix_builds_no_full_width_plan(self, monkeypatch):
        # _zero_prefix reads only where runs of rounds start and stop; the plans
        # are built by _evolve, at the prefix's width or the rest's.
        from groversvm.grover import GroverConfig, IndicatorOracle, feature_map_circuit

        config = GroverConfig(backend="faithful")
        maps = [feature_map_circuit(IndicatorOracle(1024, v), 4, config) for v in (5, 7)]
        gates = maps[0].gates + maps[1].gates[::-1]
        plans = []
        original = sim._rounds_plan

        def spy(num_qubits, first, second, rounds):
            plans.append(num_qubits)
            return original(num_qubits, first, second, rounds)

        monkeypatch.setattr(sim, "_rounds_plan", spy)
        assert sim._zero_prefix(20, gates) == (62, 0b11111111110000000011)
        assert plans == []
        # Two search blocks per feature map, each computed and uncomputed.
        assert list(sim._round_runs(gates)) == [(12, 62), (117, 167), (187, 237), (292, 342)]
        sim.run_from_zero(Circuit(20, gates))
        # The prefix's block at its width, on |0...0> and on the all +0 state
        # its oracles mark, then the rest at full width.
        assert plans == [12, 12, 20, 20, 20]


def step_kinds(num_qubits: int, gates) -> list:
    """The kind of each step ``_evolve`` takes for ``gates``."""
    return [kind for kind, _, _ in sim._spans(gates)]


def assert_rounds_match_per_gate(state: StateVector, gates) -> None:
    out = sim.run(Circuit(state.num_qubits, tuple(gates)), state).amplitudes
    assert np.abs(out - per_gate(state, gates)).max() <= ROUNDS_TOL


class TestRounds:
    """Two or more repeats of one oracle-diffusion pair are one closed-form step."""

    @pytest.mark.parametrize("rounds", ["odd", "even", "optimal"])
    @pytest.mark.parametrize("order", ["oracle_first", "diffusion_first"])
    @pytest.mark.parametrize("place", ["bottom", "top", "middle"])
    @pytest.mark.parametrize("n", [6, 11, 16])
    def test_matches_per_gate_application(self, n, place, order, rounds):
        from groversvm.grover import optimal_iterations

        rng = np.random.default_rng([n, len(place), len(order), len(rounds)])
        width = n // 2 + 1
        low = {"bottom": 0, "top": n - width, "middle": (n - width) // 2}[place]
        register = tuple(range(low, low + width))
        k = {"odd": 3, "even": 4, "optimal": optimal_iterations(1 << width)}[rounds]
        marked = int(rng.integers(1 << width))
        pair = [sim.phase_oracle(register, [marked]), sim.diffusion(register)]
        gates = (pair if order == "oracle_first" else pair[::-1]) * k
        assert step_kinds(n, gates) == [sim._ROUNDS]
        assert_rounds_match_per_gate(random_state(n, seed=int(rng.integers(1 << 30))), gates)

    @pytest.mark.parametrize("k", [2, 3])
    def test_columns_without_a_mark(self, k):
        # An oracle on every qubit marks two of the eight columns of a bottom
        # register; the other six get the diffusion alone.
        n, register = 8, tuple(range(5))
        oracle = sim.phase_oracle(range(n), [3 | 2 << 5, 30 | 5 << 5])
        gates = [oracle, sim.diffusion(register)] * k
        assert step_kinds(n, gates) == [sim._ROUNDS]
        assert_rounds_match_per_gate(random_state(n, seed=80 + k), gates)

    @pytest.mark.parametrize("case", [
        "one_round", "two_marks", "high_to_low", "not_adjacent", "oracle_inside_the_register",
        "two_marks_in_a_column_of_an_extra_qubit", "three_qubits",
    ])
    def test_runs_that_are_not_fused_keep_their_bits(self, case):
        n, register, marks, k = 8, (2, 3, 4, 5), [9], 3
        oracle_register = register
        if case == "one_round":
            k = 1
        elif case == "three_qubits":
            register = oracle_register = (2, 3, 4)
            marks = [5]
        elif case == "two_marks":
            marks = [9, 12]
        elif case == "high_to_low":
            register = oracle_register = register[::-1]
        elif case == "not_adjacent":
            register = oracle_register = (1, 2, 4, 5)
        elif case == "oracle_inside_the_register":
            oracle_register = register[:3]  # a mark covers two values of the register
            marks = [5]
        else:  # qubit 6 is 0 in both marks
            oracle_register = register + (6,)
            marks = [9, 12]
        gates = [sim.phase_oracle(oracle_register, marks), sim.diffusion(register)] * k
        assert sim._ROUNDS not in step_kinds(n, gates)
        state = random_state(n, seed=90)
        out = sim.run(Circuit(n, tuple(gates)), state)
        assert same_bits(out.amplitudes, per_gate(state, gates))

    def test_an_extra_oracle_qubit_may_leave_its_run_partly_free(self, low_prefix):
        # The oracle adds qubit 6 of the run 6-8 above the register; its two marks
        # differ there, so no column holds two.  The from-zero prefix runs on the
        # touched qubits 1-6 (qubit 1 is added below the register), where qubit 6
        # is a whole run: the same rule must hold at both widths for the prefix
        # to keep the full-width bits.
        n, register = 9, (2, 3, 4, 5)
        oracle = sim.phase_oracle(register + (6,), [9, 12 | 1 << 4])
        gates = [sim.hadamard(q) for q in register + (6,)]
        gates += [oracle, sim.diffusion(register)] * 3 + [sim.hadamard(q) for q in range(n)]
        circuit = Circuit(n, tuple(gates))
        assert sim._zero_prefix(n, circuit.gates) == (11, 0b001111110)
        assert step_kinds(n, gates).count(sim._ROUNDS) == 1
        expected = sim.run(circuit, StateVector.zero(n)).amplitudes
        assert same_bits(sim.run_from_zero(circuit).amplitudes, expected)
        assert np.abs(expected - per_gate(StateVector.zero(n), gates)).max() <= ROUNDS_TOL

    @pytest.mark.parametrize("n", range(4, 15))
    def test_a_search_from_zero_is_any_other_mark_s_with_two_entries_swapped(self, n):
        # After H on every qubit, the register sum and the marked amplitude are
        # the same for every mark, so the rounds' bits differ only in where the
        # marked amplitude lands.
        from groversvm.grover import optimal_iterations

        register = tuple(range(n))
        hadamards = [sim.hadamard(q) for q in register]

        def search(mark):
            rounds = [sim.phase_oracle(register, [mark]), sim.diffusion(register)]
            gates = hadamards + rounds * optimal_iterations(1 << n)
            assert step_kinds(n, gates) == [sim.HADAMARD, sim._ROUNDS]
            return sim.run_from_zero(Circuit(n, tuple(gates))).amplitudes

        zero = search(0)
        marks = range(1 << n)
        if n > 8:  # 64 sampled marks
            marks = np.random.default_rng(n).choice(1 << n, 64, replace=False)
        for mark in marks:
            swapped = zero.copy()
            swapped[[0, mark]] = zero[[mark, 0]]
            assert same_bits(swapped, search(mark)), mark

    def test_a_20_qubit_search(self):
        from groversvm.grover import (
            IndicatorOracle, optimal_iterations, search_circuit, theoretical_success_probability,
        )

        N, marked = 1 << 20, 654321
        oracle = IndicatorOracle(N, marked)
        state = sim.run_from_zero(search_circuit(oracle))
        assert oracle.query_count == optimal_iterations(N)
        assert abs(abs(state.amplitudes[marked]) ** 2 - theoretical_success_probability(N)) <= 1e-14


def at_default_buffer(compute):
    """``compute()`` under numpy's default ufunc buffer of 8192 elements."""
    previous = np.setbufsize(8192)
    try:
        return compute()
    finally:
        np.setbufsize(previous)


class TestUfuncBuffer:
    """Kernels give the bits of plain numpy expressions, and no sim call changes the ufunc buffer."""

    def test_hadamard_on_every_qubit_of_a_tile(self):
        state = random_state(16, seed=61)
        for q in range(16):
            a = state.amplitudes.reshape(-1, 2, 1 << q)

            def butterfly():
                return np.stack([a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]], axis=1) * (1 / math.sqrt(2))

            expected = at_default_buffer(butterfly)
            out = sim.apply(state, sim.hadamard(q)).amplitudes
            assert out.tobytes() == expected.reshape(-1).tobytes(), q

    @pytest.mark.parametrize("register, size", [
        (range(6, 16), 1024),  # a tile's top block: a (1024, 64) view
        (range(8, 16), 256),  # (256, 256)
        (range(0, 9), 512),  # a bottom block: (128, 512)
        (range(0, 4), 1024),  # (4096, 16)
        (range(4, 12), 1024),  # a middle block: (16, 256, 16)
    ])
    def test_diffusion_blocks_of_a_tile(self, register, size):
        # The diffusion runs at the caller's buffer, here ``size`` elements.
        state = random_state(16, seed=67)
        view = state.amplitudes.reshape((2,) * 16)
        axes = tuple(15 - q for q in register)
        expected = at_default_buffer(lambda: 2.0 * view.mean(axis=axes, keepdims=True) - view)
        previous = np.setbufsize(size)
        try:
            out = sim.apply(state, sim.diffusion(register)).amplitudes
        finally:
            np.setbufsize(previous)
        assert out.tobytes() == expected.reshape(-1).tobytes()

    @pytest.mark.parametrize("caller", [8192, 4096, 1 << 14])
    def test_the_callers_buffer_is_restored(self, caller):
        from groversvm.grover import GroverConfig, IndicatorOracle, grover_search_many

        state = random_state(16, seed=71)
        circuit = Circuit(16, (sim.hadamard(7), sim.diffusion(range(8, 16)), sim.hadamard(3)))
        previous = np.setbufsize(caller)
        try:
            sim.apply(state, sim.hadamard(9))
            assert np.getbufsize() == caller
            sim.run(circuit, state)
            assert np.getbufsize() == caller
            oracles = [IndicatorOracle(1 << 12, v) for v in (1, 2, 3, 4)]
            grover_search_many(oracles, GroverConfig("faithful"), range(4))
            assert np.getbufsize() == caller
        finally:
            np.setbufsize(previous)


class TestBilling:
    """Each sim call bills each oracle once: one query per time its gate is listed."""

    @pytest.mark.parametrize("path", ["apply", "gate_by_gate", "fused", "prefix", "rounds"])
    def test_one_query_per_listed_gate(self, path, request):
        oracles = [Billed() for _ in range(7)]
        a, b = oracles[:2]
        if path == "apply":
            gates = [sim.phase_oracle((0, 1), [2], a), sim.phase_oracle((1, 0), [], b)]
            sim.apply(sim.apply(StateVector.zero(2), gates[0]), gates[1])
        elif path == "gate_by_gate":
            register = (2, 0)
            pa, pb = sim.phase_oracle(register, [1], a), sim.phase_oracle(register, [], b)
            gates = [pa, sim.hadamard(1), pa, pb, sim.diffusion(register), pa]
            sim.run(Circuit(3, tuple(gates)), StateVector.zero(3))
        elif path == "fused":
            pa, pb = sim.phase_oracle(range(4), [6], a), sim.phase_oracle(range(4), [3, 9], b)
            run = [sim.pauli_x(4), sim.cnot(4, 0), sim.mcx([0, 4], 1)]
            gates = run + [pa] + run[::-1] + [pb, pa] + run
            sim.run(Circuit(5, tuple(gates)), StateVector.zero(5))
        elif path == "prefix":
            request.getfixturevalue("low_prefix")
            register = (3, 4, 5)
            pa, pb = sim.phase_oracle(register, [6], a), sim.phase_oracle(register, [0], b)
            gates = [sim.hadamard(q) for q in register] + [pa, sim.diffusion(register), pb] * 3
            gates += [sim.hadamard(0), pa, sim.cnot(5, 1), pb, sim.hadamard(2), pa]
            # Marking oracles in the prefix: it is replayed on +0, which bills nothing.
            assert sim._zero_prefix(6, gates)[0] == 14
            sim.run_from_zero(Circuit(6, tuple(gates)))
        else:
            register = (1, 2, 3, 4)
            pa, pb = sim.phase_oracle(register, [6], a), sim.phase_oracle(register, [2], b)
            diffusion = sim.diffusion(register)
            gates = [sim.hadamard(q) for q in register] + [pa, diffusion] * 3
            gates += [diffusion, pb] * 2 + [pa]
            assert step_kinds(5, gates).count(sim._ROUNDS) == 2
            sim.run(Circuit(5, tuple(gates)), StateVector.zero(5))
        for oracle in oracles:
            listed = sum(gate.oracle is oracle for gate in gates)
            assert oracle.charges == ([listed] if listed else [])
        assert any(oracle.charges for oracle in oracles) == bool(gates)


def random_light_cone_circuit(num_qubits: int, rng, oracles) -> Circuit:
    """Gates of every kind on 1 to 3 random qubits, so that some miss a given register."""
    gates = []
    for _ in range(int(rng.integers(1, 30))):
        kind = sim.GATE_KINDS[int(rng.integers(len(sim.GATE_KINDS)))]
        width = {sim.HADAMARD: 1, sim.PAULI_X: 1, sim.CNOT: 2, sim.MCX: 3}.get(
            kind, int(rng.integers(1, 4))
        )
        qubits = [int(q) for q in rng.choice(num_qubits, size=width, replace=False)]
        if kind == sim.PHASE_ORACLE:
            marked = sorted({int(v) for v in rng.integers(0, 1 << width, size=rng.integers(3))})
            oracle = oracles[int(rng.integers(len(oracles)))]
            gates.append(sim.phase_oracle(qubits, marked, oracle))
        elif kind == sim.DIFFUSION:
            gates.append(sim.diffusion(qubits))
        else:
            gates.append(sim.Gate(kind, qubits[:1], qubits[1:]))
    return Circuit(num_qubits, tuple(gates))


def random_moves(num_qubits: int, rng, oracles) -> tuple:
    """X, CNOT, MCX and oracle gates on random qubits; some oracles mark nothing."""
    gates = []
    for _ in range(int(rng.integers(0, 12))):
        width = int(rng.integers(1, min(4, num_qubits) + 1))
        qubits = [int(q) for q in rng.choice(num_qubits, size=width, replace=False)]
        if rng.integers(3):
            gates.append(sim.pauli_x(qubits[0], qubits[1:]))
        else:
            marked = sorted({int(v) for v in rng.integers(0, 1 << width, size=rng.integers(3))})
            gates.append(sim.phase_oracle(qubits, marked, oracles[int(rng.integers(len(oracles)))]))
    return tuple(gates)


def random_tail(num_qubits: int, register, rng, oracles) -> tuple:
    """:func:`random_moves`, then Hadamards on register qubits; one may hit its qubit twice."""
    gates = random_moves(num_qubits, rng, oracles)
    hit = [int(q) for q in rng.choice(register, size=int(rng.integers(0, len(register) + 1)))]
    return gates + tuple(sim.hadamard(q) for q in hit)


def light_cone(circuit: Circuit, register) -> int:
    """How many gates of ``circuit`` share a qubit with ``register``'s backward light cone."""
    live, kept = set(register), 0
    for gate in reversed(circuit.gates):
        if not live.isdisjoint(gate.targets + gate.controls):
            live.update(gate.targets + gate.controls)
            kept += 1
    return kept


def spy_head(monkeypatch) -> list:
    """Record the gates of every head ``sim._head_state`` runs."""
    ran = []
    original = sim._head_state

    def head_state(num_qubits, gates):
        ran.append(list(gates))
        return original(num_qubits, gates)

    monkeypatch.setattr(sim, "_head_state", head_state)
    return ran


def spy_light_cone(monkeypatch) -> list:
    """Record every ``(dropped, head, moves, hadamards)`` split ``zero_probability`` makes."""
    splits = []
    original = sim._light_cone

    def light_cone(circuit, register):
        splits.append(original(circuit, register))
        return splits[-1]

    monkeypatch.setattr(sim, "_light_cone", light_cone)
    return splits


class TestZeroProbability:
    """P(register all zero) from the gates in the register's backward light cone."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_matches_the_full_circuit(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 11))
        oracles = [Billed(), Billed()]
        circuit = random_light_cone_circuit(n, rng, oracles)
        register = [int(q) for q in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
        # A closing diffusion on every qubit puts every gate in the light cone.
        whole = Circuit(n, circuit.gates + (sim.diffusion(range(n)),))
        listed = [sum(gate.oracle is oracle for gate in circuit.gates) for oracle in oracles]
        for c in (circuit, whole):
            with pytest.MonkeyPatch.context() as patch:
                ran = spy_head(patch)
                value = sim.zero_probability(c, register)
            assert [sum(oracle.charges) for oracle in oracles] == listed
            full = sim.prob_all_zero(sim.run_from_zero(c), register)
            assert [sum(oracle.charges) for oracle in oracles] == [2 * q for q in listed]
            for oracle in oracles:
                oracle.charges.clear()
            assert abs(value - full) <= 1e-12
            if light_cone(c, register) == len(c):  # no gate dropped
                assert value == full
        assert ran == [list(whole.gates)]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=150)
    def test_a_readout_through_the_tail_keeps_every_bit(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 13))
        oracles = [Billed(), Billed()]
        register = [int(q) for q in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
        circuit = random_light_cone_circuit(n, rng, oracles)
        circuit = Circuit(n, circuit.gates + random_tail(n, register, rng, oracles))
        listed = [sum(gate.oracle is oracle for gate in circuit.gates) for oracle in oracles]
        value = sim.zero_probability(circuit, register)
        assert [sum(oracle.charges) for oracle in oracles] == listed
        full = sim.prob_all_zero(sim.run_from_zero(circuit), register)
        if light_cone(circuit, register) == len(circuit):
            assert value == full
        else:  # a dropped gate moves the probability by rounding only
            assert abs(value - full) <= 1e-12

    @pytest.mark.parametrize("case", ["rounds_end_on_an_oracle", "hadamard_off_the_register",
                                      "empty_head", "register_of_every_qubit"])
    def test_the_tail_split(self, case, monkeypatch):
        n, oracle = 6, Billed()
        register = [0, 1, 2, 3, 4, 5] if case == "register_of_every_qubit" else [1, 2]
        rounds = [sim.diffusion(range(4)), sim.phase_oracle(range(4), [5], oracle)] * 3
        moves = [sim.cnot(4, 1), sim.phase_oracle((2, 5), [1, 2], oracle), sim.pauli_x(2),
                 sim.mcx((0, 5), 1), sim.phase_oracle((1,), [], oracle)]
        head, tail, off = {
            # A diffusion-first run of rounds ends on an oracle; it stays whole in the head.
            "rounds_end_on_an_oracle": (
                [sim.hadamard(q) for q in range(6)] + rounds,
                moves + [sim.hadamard(2), sim.hadamard(1), sim.hadamard(2)], []),
            # A last Hadamard run that hits a qubit outside the register: only the
            # register is live after the last step, so that Hadamard is outside the
            # light cone, billed but neither run nor read through.
            "hadamard_off_the_register": (
                [sim.hadamard(q) for q in (0, 1, 2, 4, 5)], moves + [sim.hadamard(1)],
                [sim.hadamard(0)]),
            "empty_head": ([], [sim.pauli_x(5), sim.cnot(5, 1), sim.mcx((1, 5), 4)]
                           + moves + [sim.hadamard(1)], []),
            "register_of_every_qubit": (
                [sim.hadamard(q) for q in range(6)] + rounds + [sim.diffusion((3, 4))],
                moves + [sim.hadamard(5), sim.hadamard(0)], []),
        }[case]
        cone = Circuit(n, tuple(head + tail))
        circuit = Circuit(n, cone.gates + tuple(off))
        full = sim.prob_all_zero(sim.run_from_zero(cone), register)
        oracle.charges.clear()
        ran = spy_head(monkeypatch)
        splits = spy_light_cone(monkeypatch)
        value = sim.zero_probability(circuit, register)
        assert value == full
        [(dropped, ran_head, moves, hadamards)] = splits
        assert dropped == off[::-1] and ran_head == head and moves + hadamards == tail
        assert hadamards and all(gate.kind == sim.HADAMARD for gate in hadamards)
        assert ran == [head]
        assert sum(oracle.charges) == sum(gate.oracle is oracle for gate in circuit.gates)
        if off:
            assert value == pytest.approx(sim.prob_all_zero(sim.run_from_zero(circuit), register),
                                          abs=1e-15)
        if case == "rounds_end_on_an_oracle":
            assert full > 0 and [kind for kind, *_ in sim._spans(head)][-1] == sim._ROUNDS

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_sparse_head_keeps_every_bit(self, low_prefix, seed):
        # A from-zero prefix, perhaps cut to its prefix alone, then moves on
        # any qubits (so some cross from touched to untouched ones), perhaps a
        # step that mixes amplitudes, then a tail.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 11))
        oracles = [Billed(), Billed()]
        gates = random_prefix_circuit(n, rng).gates
        if rng.integers(2):
            gates = gates[: sim._zero_prefix(n, gates)[0]]
        gates += random_moves(n, rng, oracles)
        qubits = [int(q) for q in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
        gates += [(), (sim.hadamard(qubits[0]),), (sim.diffusion(qubits),)][int(rng.integers(3))]
        register = [int(q) for q in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
        circuit = Circuit(n, gates + random_tail(n, register, rng, oracles))
        listed = [sum(gate.oracle is oracle for gate in circuit.gates) for oracle in oracles]
        value = sim.zero_probability(circuit, register)
        assert [sum(oracle.charges) for oracle in oracles] == listed
        full = sim.prob_all_zero(sim.run_from_zero(circuit), register)
        assert [sum(oracle.charges) for oracle in oracles] == [2 * q for q in listed]
        if light_cone(circuit, register) == len(circuit):
            assert value == full
        else:  # a dropped gate moves the probability by rounding only
            assert abs(value - full) <= 1e-12
        # The head's amplitudes have run_from_zero's values, where it puts them.
        head = sim._light_cone(circuit, tuple(register))[1]
        amplitudes, index = sim._head_state(n, head)
        expected = sim.run_from_zero(Circuit(n, tuple(head))).amplitudes
        if index is None:  # == compares a nonzero part's bits, but not a zero's sign
            assert np.array_equal(amplitudes, expected)
        else:  # nothing lies outside the block
            assert np.unique(index).size == index.size
            assert not np.delete(expected, index).any()
            length = sim._zero_prefix(n, head)[0]
            if any(kind == sim.HADAMARD and start >= length for kind, start, _ in sim._spans(head)):
                assert np.array_equal(amplitudes, expected[index])  # butterflies with absent zeros
            else:  # moves alone keep even the zeros' signs
                assert same_bits(amplitudes, expected[index])

    def test_a_head_that_only_moves_stays_sparse(self, low_prefix):
        n, oracle = 8, Billed()
        head = [sim.hadamard(0), sim.hadamard(1), sim.phase_oracle((0, 1), [3], oracle)]
        # CNOTs from the prefix's qubits 0 and 1 to untouched ones, which would
        # leave one qubit untouched, so the prefix stops before them; then an
        # X, and an oracle across touched and untouched qubits.
        moves = [sim.cnot(1, 5), sim.mcx((0, 5), 6), sim.cnot(0, 2), sim.cnot(1, 3),
                 sim.cnot(0, 4), sim.pauli_x(7), sim.phase_oracle((5, 6, 0), [7, 2], oracle)]
        assert sim._zero_prefix(n, head + moves) == (3, 0b11)
        expected = sim.run_from_zero(Circuit(n, tuple(head + moves))).amplitudes
        amplitudes, index = sim._head_state(n, head + moves)
        assert index.tolist() == [128, 149, 170, 255] == np.flatnonzero(expected).tolist()
        assert same_bits(amplitudes, expected[index])
        amplitudes, index = sim._head_state(n, head + moves + [sim.diffusion((2, 3))])
        assert index is None and amplitudes.size == 1 << n

    def test_a_hadamard_step_stays_sparse_up_to_the_bound(self, low_prefix):
        # The head above holds 4 entries that differ on qubits 2, 3 and 4, so
        # a Hadamard step on k of them makes a block of 4 << k entries.
        n = 8
        bound = 1 << n >> sim._SPARSE_SHIFT
        assert 4 << 2 <= bound < 4 << 3
        head = [sim.hadamard(0), sim.hadamard(1), sim.phase_oracle((0, 1), [3]),
                sim.cnot(1, 5), sim.mcx((0, 5), 6), sim.cnot(0, 2), sim.cnot(1, 3),
                sim.cnot(0, 4), sim.pauli_x(7), sim.phase_oracle((5, 6, 0), [7, 2])]
        for hits in ([2], [3, 2], [4, 2, 4, 3]):  # qubit 4 hit twice is not hit
            gates = head + [sim.hadamard(q) for q in hits]
            expected = sim.run_from_zero(Circuit(n, tuple(gates))).amplitudes
            amplitudes, index = sim._head_state(n, gates)
            assert index.tolist() == np.flatnonzero(expected).tolist()
            assert np.array_equal(amplitudes, expected[index])
        gates = head + [sim.hadamard(q) for q in (2, 3, 4)]
        expected = sim.run_from_zero(Circuit(n, tuple(gates))).amplitudes
        amplitudes, index = sim._head_state(n, gates)
        assert index is None and np.array_equal(amplitudes, expected)

    def test_an_ideal_kernel_readout_allocates_no_state(self):
        # The ideal kernel's head is two Hadamards, so it ends sparse: the
        # readout peaks at the tail's 4,096-entry block, not a 16 MiB state.
        import tracemalloc

        from groversvm.grover import GroverConfig, IndicatorOracle, feature_map_circuit

        maps = [feature_map_circuit(IndicatorOracle(1024, v), 4, GroverConfig()) for v in (3, 5)]
        kernel = Circuit(20, maps[0].gates + maps[1].gates[::-1])
        expected = sim.zero_probability(kernel, range(10))  # builds the plans first
        tracemalloc.start()
        try:
            value = sim.zero_probability(kernel, range(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert value == expected == pytest.approx(0.25, abs=1e-12)

    def test_a_wide_block_is_summed_in_basis_index_order(self):
        # 1,024 weights whose sum moves with their order: closed-form rounds
        # divide by 15 and 31, so the amplitudes are not dyadic.
        n, register = 12, [5, 6]
        head = [sim.hadamard(q) for q in range(n)] + [
            sim.phase_oracle(range(7), [3, 90]), sim.diffusion(range(2, 9))] + [
            sim.phase_oracle(range(4), [5]), sim.diffusion(range(4))] * 2 + [
            sim.hadamard(8), sim.hadamard(9), sim.phase_oracle((5, 9), [1])] + [
            sim.diffusion(range(6, 11)), sim.phase_oracle(range(6, 11), [9])] * 3
        tail = [sim.cnot(0, 5), sim.mcx((1, 9), 6), sim.pauli_x(11),
                sim.phase_oracle((6, 11), [2]), sim.hadamard(6)]
        circuit = Circuit(n, tuple(head + tail))
        assert light_cone(circuit, register) == len(circuit)
        full = sim.prob_all_zero(sim.run_from_zero(circuit), register)
        assert sim.zero_probability(circuit, register) == full

    def test_gates_outside_the_light_cone_are_billed_not_run(self, monkeypatch):
        oracle = Billed()
        gates = (
            sim.hadamard(0), sim.hadamard(2), sim.phase_oracle((2, 3), [1], oracle),
            sim.cnot(2, 0),  # the last gate on qubit 0: qubit 2 joins the light cone, then 3
            sim.hadamard(3), sim.phase_oracle((2, 3), [2], oracle), sim.diffusion((1, 3)),
        )
        circuit = Circuit(4, gates)
        full = sim.prob_all_zero(sim.run_from_zero(circuit), [0])
        oracle.charges.clear()
        ran = spy_head(monkeypatch)
        splits = spy_light_cone(monkeypatch)
        assert sim.zero_probability(circuit, [0]) == pytest.approx(full, abs=1e-15)
        # The light cone is the first four gates: two Hadamards run, and the
        # readout is pulled back through the oracle and the CNOT.
        [(dropped, head, moves, hadamards)] = splits
        assert dropped == list(gates[:3:-1])
        assert head == list(gates[:2]) and moves == list(gates[2:4]) and hadamards == []
        assert ran == [head]
        assert sum(oracle.charges) == 2
        oracle.charges.clear()
        for register in ([], [0, 0], [4]):
            with pytest.raises(StructuralError):
                sim.zero_probability(circuit, register)
        assert ran == [head] and oracle.charges == []  # rejected before billing or running


def random_sparse_circuit(num_qubits: int, rng, oracles) -> Circuit:
    """Hadamard layers, X, CNOT, MCX and phase-oracle gates on random qubits, Hadamards first.

    The leading Hadamards spread the state over several qubits, so that a
    register's bins hold several nonzero amplitudes.
    """
    n = num_qubits
    first = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
    gates = [sim.hadamard(int(q)) for q in first]
    for _ in range(int(rng.integers(0, 40))):
        width = int(rng.integers(1, min(4, n) + 1))
        qubits = [int(q) for q in rng.choice(n, size=width, replace=False)]
        draw = int(rng.integers(4))
        if draw == 0:  # a Hadamard step on up to 4 qubits
            gates += [sim.hadamard(q) for q in qubits]
        elif draw == 1:
            marked = sorted({int(v) for v in rng.integers(0, 1 << width, size=rng.integers(1, 3))})
            gates.append(sim.phase_oracle(qubits, marked, oracles[int(rng.integers(len(oracles)))]))
        else:  # X, CNOT or MCX, often in runs
            gates.append(sim.pauli_x(qubits[0], qubits[1:]))
    return Circuit(n, tuple(gates))


def bins_with_several_amplitudes(state: StateVector, register) -> int:
    values = register_values(state.num_qubits, tuple(register))
    return int((np.bincount(values[state.amplitudes != 0]) > 1).sum())


class TestRegisterDistribution:
    """register_distribution is register_probabilities of run_from_zero, from a sparse head."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=120, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_circuits_keep_every_bit(self, low_prefix, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 11))
        oracles = [Billed(), Billed()]
        circuit = random_sparse_circuit(n, rng, oracles)
        register = [int(q) for q in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
        expected = sim.register_probabilities(sim.run_from_zero(circuit), register)
        bill = [list(oracle.charges) for oracle in oracles]
        listed = [sum(gate.oracle is oracle for gate in circuit.gates) for oracle in oracles]
        assert bill == [[count] if count else [] for count in listed]
        # At the real bound, and with every Hadamard step kept sparse.
        for shift in (sim._SPARSE_SHIFT, 0):
            for oracle in oracles:
                oracle.charges.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sim, "_SPARSE_SHIFT", shift)
                value = sim.register_distribution(circuit, register)
            assert [oracle.charges for oracle in oracles] == bill
            assert value.dtype == expected.dtype and same_bits(value, expected)

    def test_random_circuits_fill_bins_with_several_amplitudes(self):
        # The circuits of the property above: most give some bin of their
        # register more than one nonzero amplitude, so its order of addition counts.
        several = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(6, 11))
            circuit = random_sparse_circuit(n, rng, [None])
            register = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            several += bins_with_several_amplitudes(sim.run_from_zero(circuit), register) > 0
        assert several >= 20

    def test_bins_add_in_basis_index_order(self, monkeypatch):
        # Whatever order the head leaves its entries in, each bin adds its
        # weights in basis-index order: 200 random amplitudes in 8 bins, shuffled.
        n, rng = 10, np.random.default_rng(5)
        index = rng.choice(1 << n, size=200, replace=False)
        amps = rng.normal(size=200) + 1j * rng.normal(size=200)
        amps /= np.linalg.norm(amps)
        dense = np.zeros(1 << n, dtype=complex)
        dense[index] = amps
        register = [7, 2, 9]
        expected = sim.register_probabilities(StateVector(n, dense), register)
        values = register_values(n, tuple(register))[index]
        assert not same_bits(np.bincount(values, np.abs(amps) ** 2), expected)  # order counts
        monkeypatch.setattr(sim, "_head_state", lambda num_qubits, gates: (amps.copy(), index))
        assert same_bits(sim.register_distribution(Circuit(n, ()), register), expected)

    def test_a_dense_head_and_a_register_of_every_qubit(self):
        # A diffusion densifies the head; the register of every qubit reads one weight per bin.
        n = 6
        gates = [sim.hadamard(q) for q in range(3)] + [sim.phase_oracle(range(3), [5]),
                                                       sim.diffusion(range(3)), sim.cnot(2, 4)]
        for register in ([4, 0], list(range(n))):
            for cut in (len(gates), len(gates) - 2):
                circuit = Circuit(n, tuple(gates[:cut]))
                expected = sim.register_probabilities(sim.run_from_zero(circuit), register)
                assert same_bits(sim.register_distribution(circuit, register), expected)

    def test_rejects_a_bad_register_before_billing(self):
        oracle = Billed()
        circuit = Circuit(3, (sim.hadamard(0), sim.phase_oracle((0,), [1], oracle)))
        for register in ([], [0, 0], [3]):
            with pytest.raises(StructuralError):
                sim.register_distribution(circuit, register)
        assert oracle.charges == []

    def test_a_run_moves_the_indices_through_its_reverse_table(self, monkeypatch):
        # A CNOT/MCX run moves the sparse indices through the reverse run's
        # gather array, which maps each index to where the run takes it.  Each
        # direction's array is built once, and the circuit builds no other.
        monkeypatch.setattr(sim, "_PERMUTATIONS", sim._PermutationCache(1 << 20))
        n = 8
        run = [sim.cnot(0, 1), sim.mcx((0, 1), 2), sim.cnot(2, 3)]
        forward = sim._PERMUTATIONS.lookup(n, run)
        reverse = sim._PERMUTATIONS.lookup(n, run[::-1])
        assert reverse.tolist() == np.argsort(forward).tolist()
        assert sim._PERMUTATIONS.nbytes == 2 * (4 << n)
        gates = [sim.hadamard(0), sim.hadamard(2), sim.pauli_x(4)] + run + [sim.pauli_x(5)]
        gates += run[::-1] + [sim.phase_oracle((1, 3), [2])] + run
        circuit = Circuit(n, tuple(gates))
        expected = sim.register_probabilities(sim.run_from_zero(circuit), range(n))
        assert same_bits(sim.register_distribution(circuit, range(n)), expected)
        assert sim._PERMUTATIONS.nbytes == 2 * (4 << n)
        amplitudes, index = sim._head_state(n, gates)
        state = sim.run_from_zero(circuit).amplitudes
        assert sorted(index.tolist()) == np.flatnonzero(state).tolist()
        assert same_bits(amplitudes, state[index])


def adder_registers(width: int, rng) -> tuple[int, tuple, tuple]:
    """A qubit count and an adder's register and addend: adjacent, interleaved or scattered."""
    num_qubits = 2 * width + int(rng.integers(0, 5))
    layout = int(rng.integers(3))
    if layout == 0:  # adjacent, above an offset
        low = int(rng.integers(0, num_qubits - 2 * width + 1))
        qubits = list(range(low, low + 2 * width))
        return num_qubits, tuple(qubits[:width]), tuple(qubits[width:])
    if layout == 1:  # interleaved, in either role
        qubits = list(range(2 * width))
        first, second = tuple(qubits[0::2]), tuple(qubits[1::2])
        return num_qubits, *((first, second) if rng.integers(2) else (second, first))
    qubits = [int(q) for q in rng.permutation(num_qubits)]  # scattered, in any order
    return num_qubits, tuple(qubits[:width]), tuple(qubits[width:2 * width])


def random_adder_walk(rng, oracles) -> tuple[int, list, list]:
    """``(num_qubits, gates, placed)``: one or two adders, each forward or reversed, between
    and beside random moves, some of them CNOT/MCX runs ending on the adder (as in the
    pattern feature map); ``placed`` lists each adder's ``(start, stop, sign)``."""
    width = int(rng.integers(1, 11))
    n, register, addend = adder_registers(width, rng)
    adder = sim._adder(register, addend)
    gates, placed = [], []
    for _ in range(int(rng.integers(1, 3))):
        gates += random_moves(n, rng, oracles)
        gates += random_run(n, rng, ("cnot", "mcx"), int(rng.integers(0, 4)))
        sign = 1 if rng.integers(2) else -1
        placed.append((len(gates), len(gates) + len(adder), sign))
        gates += adder[::sign]
    gates += random_run(n, rng, ("cnot", "mcx"), int(rng.integers(0, 4)))
    return n, gates + list(random_moves(n, rng, oracles)), placed


class TestAdderRuns:
    """_walk moves indices through a kept adder network by one modular add or subtract."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_the_sum_walks_as_the_gates_do(self, seed):
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_ADDERS", OrderedDict())  # only this example's adder is kept
            n, gates, placed = random_adder_walk(rng, [Billed()])
            runs = [(start, stop, sign) for start, stop, *_, sign in sim._adder_runs(gates)]
            if placed[0][1] - placed[0][0] > 1:  # a one-bit adder is one CNOT, walked as one
                assert set(placed) <= set(runs)
            index = rng.integers(0, 1 << n, size=200)
            negated = rng.integers(0, 2, size=200).astype(bool)
            for walked in (gates, gates[::-1]):
                moved = index.copy(), negated.copy()
                sim._walk(*moved, walked)
                expected = index.copy(), negated.copy()
                patch.setattr(sim, "_ADDERS", OrderedDict())  # now every gate is walked
                sim._walk(*expected, walked)
                assert moved[0].tolist() == expected[0].tolist()
                assert moved[1].tolist() == expected[1].tolist()

    @pytest.mark.parametrize("width", range(1, 11))
    def test_each_width_adds_and_subtracts_mod_its_register(self, width):
        register, addend = tuple(range(0, 2 * width, 2)), tuple(range(1, 2 * width, 2))
        adder = sim._adder(register, addend)
        values = np.arange(1 << width, dtype=np.int64)
        i, j = np.repeat(values, values.size), np.tile(values, values.size)
        start = sim._index_bits(i, register) | sim._index_bits(j, addend)
        for sign in (1, -1):
            index = start.copy()
            sim._walk(index, np.zeros(index.size, dtype=bool), adder[::sign])
            assert sim._values(index, addend).tolist() == j.tolist()
            assert sim._values(index, register).tolist() == ((i + sign * j) % (1 << width)).tolist()

    def test_a_reversed_adder_is_taken_whole_not_as_its_tail(self, monkeypatch):
        # The last n(n-1)/2 gates of an adder are the adder of its top n - 1 bits,
        # so a reversed adder begins with that smaller adder reversed.
        monkeypatch.setattr(sim, "_ADDERS", OrderedDict())
        register, addend = (0, 1, 2, 3), (4, 5, 6, 7)
        adder = sim._adder(register, addend)
        assert adder[4:] == sim._adder(register[1:], addend[1:])
        assert [run[:2] + run[-1:] for run in sim._adder_runs(adder[::-1])] == [(0, 10, -1)]
        assert [run[:2] + run[-1:] for run in sim._adder_runs(adder)] == [(0, 10, 1)]

    def test_equal_gates_built_apart_match_and_others_do_not(self, monkeypatch):
        monkeypatch.setattr(sim, "_ADDERS", OrderedDict())
        adder = sim._adder((0, 1, 2), (3, 4, 5))
        rebuilt = [sim.Gate(g.kind, g.targets, g.controls) for g in adder]
        assert [run[:2] for run in sim._adder_runs(rebuilt)] == [(0, 6)]
        assert sim._adder_runs(rebuilt[:-1]) == []  # one gate short
        assert sim._adder_runs(rebuilt[:3] + rebuilt[4:2:-1] + rebuilt[5:]) == []  # two swapped
        monkeypatch.setattr(sim, "_ADDERS", OrderedDict())
        assert sim._adder_runs(rebuilt) == []  # a network no longer kept is walked gate by gate

    @pytest.mark.parametrize("seed", range(12))
    def test_a_dense_run_moves_the_amplitudes_where_the_walk_does(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            n, gates, _ = random_adder_walk(rng, [Billed()])
            if n <= 12:
                break
        state = random_state(n, seed=seed)
        index = np.arange(1 << n, dtype=np.int64)
        negated = np.zeros(index.size, dtype=bool)
        sim._walk(index, negated, gates)
        expected = np.empty_like(state.amplitudes)
        expected[index] = np.where(negated, -state.amplitudes, state.amplitudes)
        assert same_bits(sim.run(Circuit(n, tuple(gates)), state).amplitudes, expected)


class TestNormAndUnitarity:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_norm_preserved_by_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        state = random_state(n, seed + 1)
        amps = state.amplitudes
        for _ in range(8):
            amps = sim._apply_raw(amps, n, random_gate(n, rng))
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-9

    def test_every_kind_is_self_inverse(self):
        state = random_state(4, seed=11)
        gates = [
            sim.hadamard(1),
            sim.pauli_x(2),
            sim.cnot(0, 3),
            sim.mcx([0, 1], 3),
            sim.phase_oracle([0, 2], [1, 3]),
            sim.diffusion([1, 2, 3]),
        ]
        for gate in gates:
            back = sim.apply(sim.apply(state, gate), gate)
            npt.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)


class TestCircuit:
    def test_empty_circuit_is_identity(self):
        state = random_state(3, seed=5)
        out = sim.run(Circuit(3, ()), state)
        npt.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_x_on_lowest_qubit(self):
        out = sim.run(Circuit(3, (sim.pauli_x(0),)), StateVector.zero(3))
        assert abs(out.amplitudes[1] - 1.0) < 1e-15

    def test_width_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            sim.run(Circuit(2, ()), StateVector.zero(3))

    def test_gate_outside_width_rejected(self):
        with pytest.raises(StructuralError):
            Circuit(2, (sim.hadamard(2),))

    def test_repeated_gates_are_checked_once_in_first_occurrence_order(self, monkeypatch):
        checked = []
        original = sim.Gate.max_qubit

        def max_qubit(gate):
            checked.append(gate)
            return original(gate)

        monkeypatch.setattr(sim.Gate, "max_qubit", max_qubit)
        ok, wide, wider = sim.hadamard(0), sim.pauli_x(4), sim.pauli_x(5)
        Circuit(3, (ok, sim.diffusion([0, 1]), ok) * 50)
        assert len(checked) == 2
        checked.clear()
        with pytest.raises(StructuralError, match="qubit 4"):
            Circuit(3, (ok, wide, ok, wider, wide))
        assert checked[:2] == [ok, wide] and wider not in checked  # the first bad gate raises

    def test_qubit_cap_checked_at_construction(self):
        Circuit(sim.QUBIT_CAP, ())
        with pytest.raises(ResourceCapError):
            Circuit(sim.QUBIT_CAP + 1, ())

    def test_inverse_reverses_gates(self):
        rng = np.random.default_rng(9)
        gates = tuple(random_gate(4, rng) for _ in range(10))
        circuit = Circuit(4, gates)
        state = random_state(4, seed=13)
        round_trip = sim.run(circuit.inverse(), sim.run(circuit, state))
        npt.assert_allclose(round_trip.amplitudes, state.amplitudes, atol=1e-11)


def register_values(num_qubits: int, register: tuple[int, ...]) -> np.ndarray:
    """Reference index map: the value of ``register`` at every basis index."""
    idx = np.arange(1 << num_qubits, dtype=np.int64)
    values = np.zeros_like(idx)
    for p, q in enumerate(register):
        values |= ((idx >> q) & 1) << p
    return values


class TestProbabilities:
    def test_all_zero_on_zero_state(self):
        assert sim.prob_all_zero(StateVector.zero(4), range(4)) == 1.0

    def test_half_probability_single_qubit(self):
        state = sim.apply(StateVector.zero(2), sim.hadamard(0))
        assert abs(sim.prob_all_zero(state, [0]) - 0.5) < 1e-12

    def test_full_register_equals_first_amplitude(self):
        state = random_state(4, seed=17)
        expected = abs(state.amplitudes[0]) ** 2
        assert abs(sim.prob_all_zero(state, range(4)) - expected) < 1e-12

    def test_compute_uncompute_returns_to_zero(self):
        rng = np.random.default_rng(23)
        gates = tuple(random_gate(4, rng) for _ in range(12))
        circuit = Circuit(4, gates)
        state = sim.run(circuit, StateVector.zero(4))
        state = sim.run(circuit.inverse(), state)
        assert abs(sim.prob_all_zero(state, range(4)) - 1.0) < 1e-9

    def test_empty_register_rejected(self):
        with pytest.raises(StructuralError):
            sim.prob_all_zero(StateVector.zero(2), [])

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_whole_register_skips_the_index_map_with_the_same_bits(self, n, monkeypatch):
        state = random_state(n, seed=40 + n)
        expected = np.bincount(
            register_values(n, tuple(range(n))),
            weights=np.abs(state.amplitudes) ** 2,
            minlength=1 << n,
        )
        monkeypatch.setattr(sim, "_register_matrix", None)  # not called for range(n)
        probs = sim.register_probabilities(state, range(n))
        assert probs.dtype == expected.dtype and probs.shape == expected.shape
        assert np.array_equal(probs.view(np.uint8), expected.view(np.uint8))
        assert probs.flags.writeable
        assert sum(sim.sample_measurement(state, range(n), 50, 3).values()) == 50
        monkeypatch.undo()
        # Every qubit in another order, the top qubit, and every other qubit:
        # the matrix sum, in bincount's order even where the matrix is a strided view.
        for register in (tuple(range(n))[::-1], (n - 1,), tuple(range(0, n, 2))[::-1]):
            expected = np.bincount(
                register_values(n, register),
                weights=np.abs(state.amplitudes) ** 2,
                minlength=1 << len(register),
            )
            assert same_bits(sim.register_probabilities(state, register), expected), register


class TestSampling:
    def test_zero_state_all_counts_on_zero(self):
        hist = sim.sample_measurement(StateVector.zero(3), range(3), 1000, 0)
        assert hist == {"000": 1000}

    def test_zero_shots_rejected(self):
        with pytest.raises(StructuralError):
            sim.sample_measurement(StateVector.zero(1), [0], 0, 0)

    @pytest.mark.parametrize("shots", [2.5, 2.0, True, np.bool_(True), float("nan")])
    def test_shots_must_be_integers(self, shots):
        # 2.5 drew 2 shots, True drew 1 and NaN raised a bare ValueError.
        with pytest.raises(StructuralError, match="shots must be an integer"):
            sim.sample_measurement(StateVector.zero(2), range(2), shots, 0)

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_negative_seed_is_a_structural_error(self, seed):
        with pytest.raises(StructuralError, match="non-negative"):
            sim.sample_measurement(StateVector.zero(2), range(2), 1, seed)

    @pytest.mark.parametrize(
        "seed", [2.5, 2.0, np.float64(2.0), True, np.bool_(True), float("nan"), "2", None, [2]]
    )
    def test_non_integer_seeds_are_structural_errors(self, seed):
        # check_seed(2.5) was 2 and check_seed(True) 1; as_rng(True) was accepted.
        with pytest.raises(StructuralError, match="non-negative integer"):
            sim.check_seed(seed)
        with pytest.raises(StructuralError, match="non-negative integer"):
            sim.as_rng(seed)

    @pytest.mark.parametrize("seed", [0, 7, 2**40, np.int64(7), np.uint8(7)])
    def test_integer_seeds_are_kept_whole(self, seed):
        assert sim.check_seed(seed) == int(seed) and type(sim.check_seed(seed)) is int
        expected = np.random.default_rng(int(seed)).random(3)
        assert np.array_equal(sim.as_rng(seed).random(3), expected)

    def test_seed_sequences_and_generators_pass_as_rng(self):
        sequence = np.random.SeedSequence(5)
        expected = np.random.default_rng(np.random.SeedSequence(5)).random(3)
        assert np.array_equal(sim.as_rng(sequence).random(3), expected)
        generator = np.random.default_rng(5)
        assert sim.as_rng(generator) is generator

    def test_seed_determinism(self):
        state = random_state(3, seed=29)
        a = sim.sample_measurement(state, range(3), 500, 42)
        b = sim.sample_measurement(state, range(3), 500, 42)
        assert a == b

    def test_binomial_frequency_within_4_sigma(self):
        state = sim.apply(StateVector.zero(1), sim.hadamard(0))
        shots = 1_000_000
        hist = sim.sample_measurement(state, [0], shots, 7)
        freq = hist.get("0", 0) / shots
        assert abs(freq - 0.5) <= 4 * math.sqrt(0.25 / shots)

    def test_histogram_matches_full_enumeration(self):
        # Few shots over 64 outcomes: most counts are 0 and get no key.
        state = random_state(6, seed=5)
        register = [4, 0, 2, 5, 1, 3]
        hist = sim.sample_measurement(state, register, 10, 9)
        probs = np.clip(sim.register_probabilities(state, register), 0.0, None)
        probs /= probs.sum()
        counts = np.random.default_rng(9).multinomial(10, probs)
        expected = {format(v, "06b"): int(c) for v, c in enumerate(counts) if c > 0}
        assert list(hist.items()) == list(expected.items())
        assert all(type(c) is int for c in hist.values())

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_chi_square_against_born_distribution(self, seed):
        state = random_state(3, seed=seed)
        shots = 1_000_000
        hist = sim.sample_measurement(state, range(3), shots, seed + 1)
        probs = sim.register_probabilities(state, range(3))
        observed = np.array([hist.get(format(v, "03b"), 0) for v in range(8)])
        keep = probs > 1e-12
        result = stats.chisquare(observed[keep], probs[keep] / probs[keep].sum() * shots)
        assert result.pvalue > 0.001

    @pytest.mark.parametrize("seed", [3, 11, np.random.SeedSequence(8)])
    def test_one_shot_is_the_multinomial_draw(self, seed):
        state = random_state(6, seed=41)
        register = [4, 0, 2]
        probs = sim.register_probabilities(state, register)
        probs /= probs.sum()
        value = np.flatnonzero(sim.as_rng(seed).multinomial(1, probs))[0]
        assert sim.sample_measurement(state, register, 1, seed) == {format(value, "03b"): 1}


class SpyGenerator(np.random.Generator):
    """A generator that counts its ``multinomial`` calls."""

    multinomials = 0

    def multinomial(self, *args, **kwargs):
        self.multinomials += 1
        return super().multinomial(*args, **kwargs)


def assert_numpy_draw(probs: np.ndarray, seed: int) -> int:
    """``sim._one_shot`` gives numpy's one-shot multinomial outcome and generator state.

    Both draw from ``default_rng(seed)``.  Returns the number of times the
    draw asked numpy.
    """
    ours, theirs = SpyGenerator(np.random.PCG64(seed)), np.random.default_rng(seed)
    outcome = sim._one_shot(probs, ours)
    assert type(outcome) is int
    assert outcome == np.flatnonzero(theirs.multinomial(1, probs))[0]
    assert same_state(ours, theirs)
    return ours.multinomials


def same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    """Whether two generators' bit generators hold equal states (arrays compared by value)."""

    def equal(x, y):
        if isinstance(x, dict):
            return x.keys() == y.keys() and all(equal(x[key], y[key]) for key in x)
        return np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y

    return equal(a.bit_generator.state, b.bit_generator.state)


def search_probabilities(domain_size: int, marked: int) -> np.ndarray:
    from groversvm.grover import IndicatorOracle, search_circuit

    probs = sim.run_from_zero(search_circuit(IndicatorOracle(domain_size, marked))).probabilities()
    return probs / probs.sum()


class TestOneShot:
    """``_one_shot`` against ``Generator.multinomial(1, p)`` of the installed numpy."""

    @pytest.mark.parametrize("marked", [0, 1, 2047, 2048, 4000, 4095])
    def test_faithful_search_states(self, marked):
        probs = search_probabilities(4096, marked)
        asked = [assert_numpy_draw(probs, seed) for seed in range(40)]
        assert sum(asked) <= 2  # the marked value holds about 0.9995 of the weight

    @given(st.integers(1, 300), st.floats(0.05, 3.0), st.floats(0.0, 0.6), st.integers(0, 2**32))
    @settings(max_examples=80)
    def test_dirichlet_vectors_with_zeros(self, size, concentration, zeros, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.full(size, concentration))
        probs[rng.random(size) < zeros] = 0.0
        probs[int(rng.integers(size))] += 1e-3
        probs /= probs.sum()
        assert_numpy_draw(probs, seed + 1)

    @given(st.integers(2, 64), st.floats(0.5, 1.0), st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_a_dominant_last_bin(self, size, weight, seed):
        probs = np.full(size, (1 - weight) / (size - 1))
        probs[-1] = weight
        probs /= probs.sum()
        assert_numpy_draw(probs, seed)

    @pytest.mark.parametrize("top", [0.5 - 1e-6, 0.5 - 1e-12, 0.5, 0.5 + 1e-12, 0.5 + 1e-6, 0.51])
    @pytest.mark.parametrize("place", [0, 3, 7])
    def test_a_maximum_near_one_half(self, top, place):
        probs = np.full(8, (1 - top) / 7)
        probs[place] = top
        for seed in range(25):
            assert_numpy_draw(probs, seed)

    @pytest.mark.parametrize("probs", [[0.5, 0.5], [0.25, 0.25, 0.5, 0.0], [0.4, 0.4, 0.2]])
    def test_tied_maxima(self, probs):
        probs = np.array(probs)
        for seed in range(25):
            assert_numpy_draw(probs, seed)

    @pytest.mark.parametrize("size, hot", [(1, 0), (2, 0), (2, 1), (16, 0), (16, 9), (16, 15)])
    def test_one_hot_vectors_and_a_one_bin_register(self, size, hot):
        probs = np.zeros(size)
        probs[hot] = 1.0
        for seed in range(5):
            assert assert_numpy_draw(probs, seed) == 0
        state = StateVector.basis(4, 5)
        assert sim.sample_measurement(state, [2], 1, 0) == {"1": 1}

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                               np.random.Philox])
    def test_a_caller_generator_advances_as_numpy_would(self, bit_generator):
        probs = search_probabilities(256, 77)
        caller = np.random.Generator(bit_generator(5))
        caller.random(3)  # a generator the caller has already drawn from
        for _ in range(20):
            twin = np.random.Generator(bit_generator(5))
            twin.bit_generator.state = caller.bit_generator.state
            expected = np.flatnonzero(twin.multinomial(1, probs))[0]
            assert sim._one_shot(probs, caller) == expected
            assert same_state(caller, twin)

    def test_a_draw_that_fails_its_certificate_asks_numpy(self):
        # Bin 1 is last, and the draw is certified only when bin 0's double lies
        # below 1 - 0.2 / 0.8; otherwise that double was drawn, and the state
        # must be restored before numpy draws.
        probs = np.array([0.2, 0.8])
        asked = [assert_numpy_draw(probs, seed) for seed in range(60)]
        assert 0 < sum(asked) < 60

    @pytest.mark.parametrize("probs", [[0.9, 0.3, 0.1], [-0.1, 1.1], [0.2, np.nan, 0.8]])
    def test_inputs_numpy_rejects_raise_as_numpy_does(self, probs):
        # The first would be certified but for sum(p[:-1]) > 1.
        probs = np.array(probs)
        for seed in range(5):
            with pytest.raises(ValueError) as expected:
                np.random.default_rng(seed).multinomial(1, probs)
            with pytest.raises(ValueError, match=re.escape(str(expected.value))):
                sim._one_shot(probs, np.random.default_rng(seed))


class TestSubsystemFidelity:
    def test_product_state_factor(self):
        state = sim.apply(StateVector.zero(3), sim.hadamard(1))
        target = np.array([2**-0.5, 2**-0.5])
        assert abs(sim.subsystem_fidelity(state, [1], target) - 1.0) < 1e-12

    def test_orthogonal_target(self):
        state = StateVector.zero(2)
        assert sim.subsystem_fidelity(state, [0], np.array([0.0, 1.0])) < 1e-12

    def test_rejects_unnormalized_target(self):
        with pytest.raises(ContractViolationError):
            sim.subsystem_fidelity(StateVector.zero(2), [0], np.array([2.0, 0.0]))

    @pytest.mark.parametrize("target", [[math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf]])
    def test_rejects_non_finite_target(self, target):
        with pytest.raises(ContractViolationError, match="not normalized"):
            sim.subsystem_fidelity(StateVector.zero(2), [0], np.array(target))
