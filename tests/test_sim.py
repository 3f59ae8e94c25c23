"""Statevector simulator: gate semantics, norm preservation, measurement statistics."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from groversvm import sim
from groversvm.errors import ContractViolationError, ResourceCapError, StructuralError
from groversvm.sim import Circuit, StateVector


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
        picks = frozenset(int(v) for v in rng.integers(0, 1 << r, size=2))
        return sim.phase_oracle(qubits[:r], lambda v, picks=picks: np.isin(v, list(picks)))
    return sim.diffusion(qubits[: max(1, num_qubits // 2)])


def dense_operator(gate: sim.Gate, num_qubits: int) -> np.ndarray:
    """Independent oracle: the gate's full 2^n x 2^n matrix, built column by column."""
    dim = 1 << num_qubits
    dense = np.zeros((dim, dim), dtype=complex)
    register = gate.targets
    if gate.kind == sim.PHASE_ORACLE:
        table = np.asarray(gate.oracle_predicate(np.arange(1 << len(register))), dtype=bool)
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
            dense[col, col] = -1 if table[value] else 1
        else:  # diffusion: 2|u><u| - I on the register, identity on the rest
            rest = col & ~sum(1 << q for q in register)
            for value in range(1 << len(register)):
                row = rest | sum(((value >> p) & 1) << q for p, q in enumerate(register))
                dense[row, col] = 2 / (1 << len(register)) - (row == col)
    return dense


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

    def test_rejects_above_cap(self):
        with pytest.raises(ResourceCapError):
            StateVector.zero(sim.QUBIT_CAP + 1)

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
        flipped = sim.apply(state, sim.phase_oracle([0, 1], lambda v: v == 2))
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
            sim.Gate(sim.PHASE_ORACLE, (0, 1))
        with pytest.raises(StructuralError):
            sim.apply(StateVector.zero(1), sim.hadamard(3))


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
            sim.phase_oracle([3, 0, 4, 1, 2], lambda v: v == 19),  # full register
            sim.phase_oracle([4, 2, 0, 1, 3], lambda v: v % 7 == 3),  # full register, five values
            sim.phase_oracle([1, 3], lambda v: np.isin(v, [0, 2, 3])),  # several values
            sim.phase_oracle([2, 0, 4], lambda v: np.zeros(v.shape, dtype=bool)),  # all false
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


class TestRunBuffer:
    def test_initial_unchanged_and_unshared(self):
        state = random_state(4, seed=41)
        before = state.amplitudes.copy()
        gates = (sim.hadamard(1), sim.mcx([0, 2], 3), sim.diffusion([0, 3]))
        out = sim.run(Circuit(4, gates), state)
        npt.assert_array_equal(state.amplitudes, before)
        assert not np.shares_memory(out.amplitudes, state.amplitudes)
        assert not out.amplitudes.flags.writeable

    def test_one_predicate_call_per_application(self):
        calls = []

        def predicate(values):
            calls.append(values.size)
            return values == 1

        gate = sim.phase_oracle([2, 0], predicate)
        circuit = Circuit(3, (gate, sim.hadamard(1), gate, gate))
        sim.run(circuit, StateVector.zero(3))
        assert calls == [4, 4, 4]
        sim.run(circuit.inverse(), StateVector.zero(3))
        assert len(calls) == 6


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
            sim.phase_oracle([0, 2], lambda v: v % 2 == 1),
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


class TestSampling:
    def test_zero_state_all_counts_on_zero(self):
        hist = sim.sample_measurement(StateVector.zero(3), range(3), 1000, 0)
        assert hist == {"000": 1000}

    def test_zero_shots_rejected(self):
        with pytest.raises(StructuralError):
            sim.sample_measurement(StateVector.zero(1), [0], 0, 0)

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


class TestSubsystemFidelity:
    def test_product_state_factor(self):
        state = sim.apply(StateVector.zero(3), sim.hadamard(1))
        target = np.array([2**-0.5, 2**-0.5])
        assert abs(sim.subsystem_fidelity(state, [1], target) - 1.0) < 1e-12

    def test_orthogonal_target(self):
        state = StateVector.zero(2)
        assert sim.subsystem_fidelity(state, [0], np.array([0.0, 1.0])) < 1e-12
