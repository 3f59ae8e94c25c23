"""Statevector simulator: gate semantics, norm preservation, measurement statistics."""

import itertools
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
    """The bottom and top blocks of every width, in ascending and descending order."""
    for width in range(1, num_qubits + 1):
        for block in (range(width), range(num_qubits - width, num_qubits)):
            yield tuple(block)
            yield tuple(reversed(block))


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

    @pytest.mark.parametrize("num_qubits", [6, 12, 14])
    def test_block_diffusion_matches_mean_over_view_axes(self, num_qubits):
        # The 2-D reshape sums in the same order as the mean over the (2,)*n axes.
        psi = random_state(num_qubits, seed=num_qubits).amplitudes
        view = psi.reshape((2,) * num_qubits)
        for register in block_registers(num_qubits):
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

    def test_reversed_run_is_the_inverse_through_one_entry(self, fresh_cache):
        from groversvm.grover import adder_gates

        n = 8
        adder = adder_gates(range(4), range(4, 8))
        state = random_state(n, seed=61)
        forward = sim.run(Circuit(n, tuple(adder)), state)
        assert len(fresh_cache._entries) == 1
        back = sim.run(Circuit(n, tuple(reversed(adder))), forward)
        assert len(fresh_cache._entries) == 1  # the scatter reuses the forward entry
        assert same_bits(back.amplitudes, state.amplitudes)
        perm = next(iter(fresh_cache._entries.values()))
        assert perm.dtype == np.int32 and not perm.flags.writeable
        assert sorted(perm.tolist()) == list(range(1 << n))
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
        perm, _ = cache.lookup(n + 1, runs[4])  # the same shapes on a wider state
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


@pytest.fixture
def tiled_calls(monkeypatch):
    """The gate lists ``run`` hands to the tiled path."""
    calls = []
    original = sim._apply_tiled

    def spy(psi, num_qubits, gates, tile):
        calls.append(list(gates))
        assert tile.size == sim._CACHE_ROW
        return original(psi, num_qubits, gates, tile)

    monkeypatch.setattr(sim, "_apply_tiled", spy)
    return calls


@pytest.fixture
def small_tiles(monkeypatch):
    """Tiles of 2**8 amplitudes with every size rule at its least, so 9-12 qubit states tile.

    The tiled path is the same code at any tile size; the real sizes are
    exercised at 20 qubits below.
    """
    plans = sim._plan
    plans.cache_clear()  # Hadamard plans read _CACHE_ROW when planned
    for name, value in [("_CACHE_ROW", 1 << 8), ("_TILE_BITS", 8), ("_TILE_MIN_DROP", 1),
                        ("_TILE_MIN_ROW_BITS", 1), ("_TILE_MIN_SWEEPS", 2)]:
        monkeypatch.setattr(sim, name, value)
    yield
    plans.cache_clear()


class TestTiledRuns:
    """Runs of H, oracle and diffusion gates on high qubits go tile by tile, same bits."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_runs_match_per_gate_application(self, seed, small_tiles, tiled_calls):
        rng = np.random.default_rng(seed)
        n = 9 + seed % 4  # 2 .. 16 tiles
        state = random_state(n, seed=200 + seed)
        width = int(rng.integers(2, n - 5))
        top = tuple(range(n - width, n))[:: 1 if seed % 2 else -1]
        middle = tuple(range(n - width - 2, n - 2))  # H and oracles only: diffusion reduces 2 axes
        low = [sim.hadamard(0), sim.phase_oracle([0, 1], [2])]
        gates = random_search_run(n, top, rng, 12) + low[: 1 + seed % 2]
        gates += [g for g in random_search_run(n, middle, rng, 12) if g.kind != sim.DIFFUSION]
        gates += [sim.hadamard(n - 1), sim.diffusion(top)] + low + random_search_run(n, top, rng, 6)
        out = sim.run(Circuit(n, tuple(gates)), state)
        assert same_bits(out.amplitudes, per_gate(state, gates))
        assert len(tiled_calls) >= 2  # the low gates split the run

    def test_search_block_at_20_qubits(self, tiled_calls):
        from groversvm.grover import IndicatorOracle, search_gates

        n, k = 20, 2  # 10 Hadamards and 2 diffusions per block
        oracle = IndicatorOracle(1 << 10, 300)
        block = search_gates(oracle, k, range(10, 20))
        gates = [sim.hadamard(0), sim.hadamard(3)] + block + [sim.pauli_x(12)] + block[::-1]
        state = random_state(n, seed=20)
        out = sim.run(Circuit(n, tuple(gates)), state)
        assert tiled_calls == [block, block[::-1]]
        assert oracle.query_count == 2 * k
        assert same_bits(out.amplitudes, per_gate(state, gates))

    def test_size_rules_at_the_real_tile(self, tiled_calls):
        from groversvm.grover import IndicatorOracle, search_gates

        def tiles(n, register, k):
            """Whether k oracle and diffusion rounds on ``register`` go tile by tile."""
            tiled_calls.clear()
            oracle = IndicatorOracle(1 << len(register), 1)
            circuit = Circuit(n, tuple(search_gates(oracle, k, register)[len(register) :]))
            out = sim.run(circuit, StateVector.zero(n))  # run_from_zero would run it on fewer qubits
            tiled = len(tiled_calls) == 1
            assert same_bits(sim.run_from_zero(circuit).amplitudes, out.amplitudes)
            return tiled

        assert tiles(20, range(10, 20), 8)  # 16 tiles, rows of 64 amplitudes, 8 diffusions
        assert tiles(20, range(9, 20), 8)  # rows of 32 amplitudes
        assert not tiles(20, range(8, 20), 8)  # rows of 16 amplitudes
        assert not tiles(20, range(10, 20), 7)  # too few diffusions to repay the copies
        assert not tiles(19, range(9, 19), 8)  # 8 tiles

    def test_middle_block_diffusion_falls_back_with_the_same_bits(self, small_tiles, tiled_calls):
        n = 11
        state = random_state(n, seed=211)
        middle = tuple(range(4, 8))
        top = tuple(range(8, 11))
        gates = [sim.hadamard(q) for q in middle] + [sim.diffusion(middle), sim.hadamard(9)]
        gates += [sim.diffusion(top), sim.diffusion(middle[::-1]), sim.hadamard(5)]
        out = sim.run(Circuit(n, tuple(gates)), state)
        assert same_bits(out.amplitudes, per_gate(state, gates))
        assert tiled_calls == [gates[:4], gates[5:7]]  # a lone H after the last diffusion is not

    def test_shared_oracle_gates_bill_once_per_application(self, small_tiles, tiled_calls):
        from groversvm.grover import IndicatorOracle, search_gates

        n, k = 12, 7
        oracle = IndicatorOracle(1 << 5, 21)
        gates = search_gates(oracle, k, range(n - 5, n))
        state = sim.run(Circuit(n, tuple(gates)), StateVector.zero(n))
        assert oracle.query_count == k  # over 16 tiles
        assert len(tiled_calls) == 1
        assert same_bits(state.amplitudes, per_gate(StateVector.zero(n), gates))
        assert oracle.query_count == k  # the per-gate reference bills nothing

    def test_billing_only_runs_are_not_tiled(self, small_tiles, tiled_calls):
        from groversvm.grover import IndicatorOracle

        n = 11
        oracle = IndicatorOracle(1 << 6, 17)
        register = tuple(range(5, 11))
        billing = [oracle.billing_gate(register)] * 25
        one_sweep = [sim.hadamard(7)] + [oracle.phase_gate(register)] * 3
        state = random_state(n, seed=7)
        for gates in (billing, one_sweep):
            out = sim.run(Circuit(n, tuple(gates)), state)
            assert same_bits(out.amplitudes, per_gate(state, gates))
        assert tiled_calls == []
        assert oracle.query_count == 25 + 3  # the per-gate reference bills nothing

    @pytest.mark.parametrize("n", [8, 9, 11])
    def test_runs_that_do_not_fit_a_tile_fall_back(self, n, small_tiles, tiled_calls):
        # Gates on qubit n - 8 or below leave one column per tile, and a state
        # of 8 qubits is one tile.
        low = max(0, n - 8)
        state = random_state(n, seed=n)
        register = tuple(range(low, n))
        gates = [sim.hadamard(low), sim.diffusion(register)] * 2 + [sim.hadamard(n - 1)]
        out = sim.run(Circuit(n, tuple(gates)), state)
        assert same_bits(out.amplitudes, per_gate(state, gates))
        assert tiled_calls == []

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

    def test_a_tile_then_a_permutation_run(self, small_tiles, tiled_calls):
        # The tile-sized buffer gives way to a state-sized one for the X run.
        n = 10
        register = tuple(range(6, 10))
        gates = (sim.hadamard(6), sim.diffusion(register), sim.pauli_x(0), sim.pauli_x(3))
        gates += (sim.hadamard(7), sim.diffusion(register), sim.cnot(0, 1), sim.mcx([1, 2], 4))
        state = random_state(n, seed=9)
        out = sim.run(Circuit(n, gates), state)
        assert same_bits(out.amplitudes, per_gate(state, gates))
        assert len(tiled_calls) == 2


@pytest.fixture
def low_prefix(monkeypatch):
    """Prefixes taken from 3 qubits up, so small from-zero circuits take them.

    The prefix path is the same code at any width; the real width rule is
    exercised by the kernel circuits below.
    """
    monkeypatch.setattr(sim, "_PREFIX_MIN_QUBITS", 3)


def random_prefix_circuit(num_qubits: int, rng) -> Circuit:
    """Gates on a random subset of qubits (oracles marking values), then some on all of them.

    Diffusions act on the top block, the bottom block, or, after the subset's
    gates, any register.
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
        shape = int(rng.integers(3 if any_register else 2))
        register = [range(n - width, n), range(width), qubits[:width]][shape]
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

    def test_a_middle_block_diffusion_ends_the_prefix(self, low_prefix):
        n = 8
        middle = (2, 3, 4, 5)
        gates = [sim.hadamard(q) for q in middle] + [sim.phase_oracle(middle, [9])]
        gates += [sim.diffusion(middle), sim.hadamard(3), sim.diffusion((5, 6, 7))]
        circuit = Circuit(n, tuple(gates))
        assert sim._zero_prefix(n, circuit.gates) == (5, 0b00111100)
        top = Circuit(n, tuple(gates[:5] + gates[6:]))
        assert sim._zero_prefix(n, top.gates) == (7, 0b11111100)
        for c in (circuit, top):
            expected = sim.run(c, StateVector.zero(n)).amplitudes
            assert same_bits(sim.run_from_zero(c).amplitudes, expected)

    def test_a_prefix_that_leaves_one_qubit_untouched_is_not_taken(self, low_prefix):
        n = 6
        gates = [sim.hadamard(q) for q in range(5)] + [sim.diffusion(range(5)), sim.hadamard(5)]
        circuit = Circuit(n, tuple(gates))
        assert sim._zero_prefix(n, circuit.gates) == (4, 0b01111)  # not the fifth Hadamard
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
        seen = []
        original = sim.run

        def wrapped(circuit, initial):
            seen.append(circuit.num_qubits)
            return original(circuit, initial)

        monkeypatch.setattr(sim, "run", wrapped)
        assert same_bits(sim.run_from_zero(circuit).amplitudes, expected)
        assert (a.query_count, b.query_count) == (4 * k, 4 * k)
        value, ledger = kernel_circuit(a, b, 4, config)
        assert seen == [n, n]  # one call per run_from_zero, at full width
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


@pytest.fixture
def chunk_rows(monkeypatch):
    """Set how many states of ``num_qubits`` qubits one ``run_many`` chunk holds."""

    def set_rows(num_qubits: int, rows: int) -> None:
        monkeypatch.setattr(sim, "_BATCH_AMPLITUDES", rows << num_qubits)

    return set_rows


def shape_equal_circuits(num_qubits: int, count: int, rng) -> list:
    """Random circuits sharing one gate-shape list, each with its own oracle marks.

    The shapes cover X, CNOT, MCX and Hadamard gates, diffusions on bottom,
    top and middle blocks and on scattered registers, and phase oracles on
    any register.
    """
    n = num_qubits
    shapes = []
    for _ in range(int(rng.integers(4, 30))):
        qubits = [int(q) for q in rng.permutation(n)]
        kind = int(rng.integers(7))
        width = int(rng.integers(1, n + 1))
        low = int(rng.integers(0, n - width + 1))
        if kind == 0:
            shapes.append(sim.hadamard(qubits[0]))
        elif kind == 1:
            shapes.append(sim.pauli_x(qubits[0]))
        elif kind == 2 and n >= 2:
            shapes.append(sim.cnot(qubits[0], qubits[1]))
        elif kind == 3 and n >= 3:
            shapes.append(sim.mcx(qubits[1:3], qubits[0]))
        elif kind == 4:
            register = [range(width), range(n - width, n), range(low, low + width), qubits[:width]]
            register = list(register[int(rng.integers(4))])[:: int(rng.choice([1, -1]))]
            shapes.append(sim.diffusion(register))
        else:
            shapes.append(("oracle", tuple(qubits[:width])))
    circuits = []
    for c in range(count):
        gates = []
        for p, shape in enumerate(shapes):
            if isinstance(shape, tuple):
                marked = sorted({int(v) for v in rng.integers(0, 1 << len(shape[1]), size=2)})
                shape = sim.phase_oracle(shape[1], marked)
            gates.append(shape)
        circuits.append(Circuit(n, tuple(gates)))
    return circuits


def search_circuits(domain_size: int, marks) -> list:
    from groversvm.grover import IndicatorOracle, search_circuit

    return [search_circuit(IndicatorOracle(domain_size, int(v))) for v in marks]


class TestRunMany:
    """A batch of shape-equal circuits gives each circuit's ``run_from_zero`` bits."""

    @pytest.mark.parametrize("n", range(4, 15))
    def test_search_circuits(self, n):
        rng = np.random.default_rng(n)
        circuits = search_circuits(1 << n, rng.integers(0, 1 << n, size=5))
        states = list(sim.run_many(circuits))
        assert len(states) == len(circuits)
        for state, circuit in zip(states, circuits):
            assert same_bits(state.amplitudes, sim.run_from_zero(circuit).amplitudes)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_shape_equal_circuits(self, seed, chunk_rows):
        rng = np.random.default_rng(700 + seed)
        n = 2 + seed % 9  # 2 .. 10 qubits
        chunk_rows(n, int(rng.integers(2, 6)))
        circuits = shape_equal_circuits(n, int(rng.integers(1, 12)), rng)
        for state, circuit in zip(sim.run_many(circuits), circuits, strict=True):
            expected = sim.run_from_zero(circuit).amplitudes
            assert same_bits(state.amplitudes, expected), circuit.gates

    @pytest.mark.parametrize("count", [1, 3, 4, 5, 9])
    def test_chunk_boundaries(self, count, chunk_rows):
        n = 6
        chunk_rows(n, 4)
        circuits = search_circuits(1 << n, range(3, 3 + 5 * count, 5))
        states = list(sim.run_many(circuits))
        assert len(states) == count
        for state, circuit in zip(states, circuits):
            assert same_bits(state.amplitudes, sim.run_from_zero(circuit).amplitudes)

    def test_one_state_at_a_time_above_half_a_chunk(self, chunk_rows):
        n = 6
        chunk_rows(n, 1)
        circuits = shape_equal_circuits(n, 3, np.random.default_rng(5))
        states = list(sim.run_many(circuits))
        assert len(states) == 3
        for state, circuit in zip(states, circuits):
            assert same_bits(state.amplitudes, sim.run_from_zero(circuit).amplitudes)

    def test_shape_mismatch_raises_before_any_predicate(self):
        # No oracle is billed either.
        n = 4
        register = (0, 1, 2, 3)
        oracle = Billed()

        def circuit(width=n, last=sim.diffusion(register), extra=()):
            gates = (sim.hadamard(0), sim.phase_oracle(register, [3], oracle), last) + extra
            return Circuit(width, gates)

        for other in (circuit(width=5), circuit(last=sim.diffusion((0, 1, 2))),
                      circuit(last=sim.hadamard(1)), circuit(extra=(sim.hadamard(0),)),
                      circuit(last=sim.phase_oracle(register, [1], oracle))):
            with pytest.raises(StructuralError, match="same width and gate shapes"):
                list(sim.run_many([circuit(), circuit(), other]))
        assert oracle.charges == []

    def test_yielded_states_are_read_only_and_kept(self, chunk_rows):
        n = 5
        chunk_rows(n, 2)
        circuits = search_circuits(1 << n, range(7))
        seen = []
        for state in sim.run_many(circuits):
            assert not state.amplitudes.flags.writeable
            with pytest.raises(ValueError):
                state.amplitudes[0] = 0.0
            seen.append((state, state.amplitudes.tobytes()))
        for (state, first), circuit in zip(seen, circuits):
            assert state.amplitudes.tobytes() == first
            assert same_bits(state.amplitudes, sim.run_from_zero(circuit).amplitudes)

    def test_no_circuits_no_states(self):
        assert list(sim.run_many([])) == []

    def test_circuits_without_an_oracle(self, chunk_rows):
        chunk_rows(3, 2)
        gates = (sim.hadamard(0), sim.cnot(0, 2), sim.diffusion((1, 2)))
        states = list(sim.run_many([Circuit(3, gates)] * 3))
        expected = sim.run_from_zero(Circuit(3, gates)).amplitudes
        assert all(same_bits(state.amplitudes, expected) for state in states)
        assert len({id(state.amplitudes) for state in states}) == 3


class TestBilling:
    """Each sim call bills each oracle once: one query per time its gate is listed."""

    @pytest.mark.parametrize(
        "path",
        ["apply", "gate_by_gate", "fused", "tiled", "prefix", "run_many", "run_many_one_at_a_time",
         "run_many_shape_mismatch"],
    )
    def test_one_query_per_listed_gate(self, path, request, chunk_rows):
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
        elif path == "tiled":
            request.getfixturevalue("small_tiles")
            tiled_calls = request.getfixturevalue("tiled_calls")
            register = tuple(range(5, 10))
            pa, pb = sim.phase_oracle(register, [21], a), sim.phase_oracle(register, [0, 30], b)
            gates = [sim.hadamard(q) for q in register]
            gates += [pa, sim.diffusion(register), pb, sim.diffusion(register)] * 3 + [pa]
            sim.run(Circuit(10, tuple(gates)), StateVector.zero(10))
            assert tiled_calls == [gates]
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
            n = 5
            chunk_rows(n, 1 if path == "run_many_one_at_a_time" else 2)
            register = tuple(range(n))
            shared = sim.phase_oracle(register, [7], a)
            hadamards = [sim.hadamard(q) for q in register]
            circuits = [
                Circuit(n, tuple(hadamards + [shared, sim.diffusion(register),
                                              sim.phase_oracle(register, [c], row), shared]))
                for c, row in enumerate(oracles[2:])
            ]
            gates = [gate for circuit in circuits for gate in circuit.gates]
            if path == "run_many_shape_mismatch":
                circuits[-1] = Circuit(n, circuits[-1].gates[:-1])
                with pytest.raises(StructuralError):
                    list(sim.run_many(circuits))
                gates = []
            else:
                assert len(list(sim.run_many(circuits))) == len(circuits)
        for oracle in oracles:
            listed = sum(gate.oracle is oracle for gate in gates)
            assert oracle.charges == ([listed] if listed else [])
        assert any(oracle.charges for oracle in oracles) == bool(gates)


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
            sim._register_values(n, tuple(range(n))),
            weights=np.abs(state.amplitudes) ** 2,
            minlength=1 << n,
        )
        monkeypatch.setattr(sim, "_register_values", None)  # not called for range(n)
        probs = sim.register_probabilities(state, range(n))
        assert probs.dtype == expected.dtype and probs.shape == expected.shape
        assert np.array_equal(probs.view(np.uint8), expected.view(np.uint8))
        assert probs.flags.writeable
        assert sum(sim.sample_measurement(state, range(n), 50, 3).values()) == 50
        monkeypatch.undo()
        reverse = tuple(range(n))[::-1]  # every qubit, another order: the index map
        expected = np.bincount(
            sim._register_values(n, reverse), weights=np.abs(state.amplitudes) ** 2, minlength=1 << n
        )
        assert same_bits(sim.register_probabilities(state, reverse), expected)


class TestSampling:
    def test_zero_state_all_counts_on_zero(self):
        hist = sim.sample_measurement(StateVector.zero(3), range(3), 1000, 0)
        assert hist == {"000": 1000}

    def test_zero_shots_rejected(self):
        with pytest.raises(StructuralError):
            sim.sample_measurement(StateVector.zero(1), [0], 0, 0)

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_negative_seed_is_a_structural_error(self, seed):
        with pytest.raises(StructuralError, match="non-negative"):
            sim.sample_measurement(StateVector.zero(2), range(2), 1, seed)

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
