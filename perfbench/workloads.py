"""The benchmark workloads: inputs made from a seed, one timed pass, output checks.

Each workload object is built from ``--seed`` (that is the input generation
``setup_s`` times) and then runs passes.  A pass calls public groversvm
functions only, returns everything the program printed or returned as bytes
(the runner compares those bytes across passes), and counts one *unit* per
independently checked result: a kernel call, a trial, a pattern-demo line, a
sweep slope.  A unit fails when it raises, reports a status other than ``ok``
or fails a check.
"""

from __future__ import annotations

import contextlib
import io
import os
import traceback
from dataclasses import dataclass, field

import numpy as np

from groversvm import cli, grover, kernel, pattern
from groversvm.grover import GroverConfig, IndicatorOracle

KERNEL_DOMAIN = 1024  # 20-qubit kernel circuits: 2 x 10-qubit registers
KERNEL_WIDTH = 4
KERNEL_OFFSETS = (2, 9)  # cyclic distance 2 gives kernel 0.5, distance 9 gives 0
IDEAL_TOL = 1e-10  # acceptance criterion 01's bound for the ideal backend

SEARCH_DOMAIN = 4096  # 12-qubit faithful searches
SEARCH_TRAIN = 128
SEARCH_TEST = 200  # the CLI default test_size
PATTERN_TEXTS = 64
PATTERN_LENGTH = 8  # 3 index + 8 text + 3 pattern qubits = 14 qubits
PATTERN = "110"

LARGE_DOMAIN = 16384
LARGE_TRAIN = 512
LARGE_SHOTS = 256
LARGE_TEST = 200
TRIALS = 2
SWEEP_SIZES = tuple(2**e for e in range(4, 21))
SLOPE_EXPECTED = {"classical": 1.0, "preprocessing": 0.5, "quantum_kernel": 0.5}
SLOPE_TOL = 0.05

# Per-layer values a pass reports from its own outputs; 0 on workloads without them.
FACTS = (
    "kernel.ideal_max_abs_err",
    "kernel.faithful_max_abs_err",
    "pattern.repetitions",
    *(f"learn.slope.{learner}" for learner in SLOPE_EXPECTED),
)


@dataclass
class PassResult:
    output: bytes
    attempted: int = 0
    failures: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def unit(self, problems: list, label: str) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def crashed(self, label: str, units: int) -> None:
        """Count ``units`` failed units for a call that raised."""
        self.attempted += units
        self.failures.append(f"{label}: raised\n{traceback.format_exc()}")


def _call_cli(argv: list) -> tuple[int, str]:
    """Run ``groversvm <argv>`` in this process and capture what it prints."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _check_trials(report_path: str, expected) -> list:
    """Per-trial problems from a run report; ``expected(record)`` gives (queries, shots)."""
    trials = cli.read_report(report_path)["trials"]
    problems = [[] for _ in range(TRIALS)]
    if len(trials) != TRIALS:
        problems[0].append(f"report lists {len(trials)} trials, expected {TRIALS}")
    for rec in trials[:TRIALS]:
        found = problems[rec["trial"]]
        if rec["status"] != "ok":
            found.append(f"status {rec['status']}")
            continue
        queries, shots = expected(rec)
        if rec["oracle_queries"] != queries:
            found.append(f"oracle_queries {rec['oracle_queries']} != {queries}")
        if rec["shots"] != shots:
            found.append(f"shots {rec['shots']} != {shots}")
    return problems


class KernelWide:
    """Four ``kernel_circuit`` calls at N=1024 (20 qubits), one pair set per backend."""

    name = "kernel-wide"
    state_bytes = 16 << (2 * 10)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, KERNEL_DOMAIN, size=len(grover.BACKENDS))
        self.calls = [
            (backend, int(a), int((a + d) % KERNEL_DOMAIN))
            for backend, a in zip(grover.BACKENDS, starts)
            for d in KERNEL_OFFSETS
        ]
        self.queries = 4 * grover.optimal_iterations(KERNEL_DOMAIN)

    def run_pass(self) -> PassResult:
        result = PassResult(b"")
        lines = []
        errors = {backend: 0.0 for backend in grover.BACKENDS}
        for backend, i, j in self.calls:
            label = f"kernel_circuit {backend} ({i}, {j})"
            oracle_i = IndicatorOracle(KERNEL_DOMAIN, i)
            oracle_j = IndicatorOracle(KERNEL_DOMAIN, j)
            try:
                value, ledger = kernel.kernel_circuit(
                    oracle_i, oracle_j, KERNEL_WIDTH, GroverConfig(backend=backend)
                )
            except Exception:  # noqa: BLE001 - a raising call is a failed unit
                result.crashed(label, 1)
                continue
            exact = kernel.kernel_exact(i, j, KERNEL_WIDTH, KERNEL_DOMAIN)
            error = abs(value - exact)
            errors[backend] = max(errors[backend], error)
            problems = []
            if backend == "ideal" and error > IDEAL_TOL:
                problems.append(f"ideal value {value!r} differs from exact {exact!r}")
            if ledger.oracle_queries != self.queries:
                problems.append(f"ledger bills {ledger.oracle_queries} queries, not {self.queries}")
            counters = (oracle_i.query_count, oracle_j.query_count)
            if counters != (self.queries // 2, self.queries // 2):
                problems.append(f"oracle counters {counters} do not split {self.queries} evenly")
            result.unit(problems, label)
            lines.append(f"{backend} {i} {j} {value.hex()} {ledger.oracle_queries}")
        result.output = ("\n".join(lines) + "\n").encode()
        result.facts = {f"kernel.{b}_max_abs_err": e for b, e in errors.items()}
        return result


class SearchSmall:
    """Faithful preprocessing run at N=4096 plus a faithful pattern demo on 64 texts."""

    name = "search-small"
    state_bytes = 16 << 14  # the 14-qubit matcher; searches use 12 qubits (64 KiB)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.run_seed, self.demo_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
        locations = rng.integers(0, PATTERN_LENGTH, size=PATTERN_TEXTS)
        instances = [
            pattern.random_instance(PATTERN_LENGTH, PATTERN, int(loc), rng) for loc in locations
        ]
        self.locations = [inst.location for inst in instances]
        self.texts_path = os.path.join(workdir, "texts.txt")
        with open(self.texts_path, "w", encoding="utf-8") as handle:
            handle.writelines("".join(map(str, inst.text)) + "\n" for inst in instances)
        self.report_path = os.path.join(workdir, "search.rpt")
        k = grover.optimal_iterations(SEARCH_DOMAIN)
        searches = SEARCH_TRAIN + SEARCH_TEST
        self.expected = (searches * k, searches)  # k queries and one shot per search

    def run_pass(self) -> PassResult:
        result = PassResult(b"")
        argv = [
            "run", "--seed", str(self.run_seed),
            "--set", f"domain_size={SEARCH_DOMAIN}", "--set", f"train_size={SEARCH_TRAIN}",
            "--set", f"test_size={SEARCH_TEST}",
            "--learner", "preprocessing", "--backend", "faithful",
            "--trials", str(TRIALS), "--out", self.report_path,
        ]
        try:
            code, _ = _call_cli(argv)
            report = _read(self.report_path) + _read(self.report_path + ".csv")
            problems = _check_trials(self.report_path, lambda rec: self.expected)
        except Exception:  # noqa: BLE001
            result.crashed("run preprocessing", TRIALS)
            report = ""
        else:
            for trial, found in enumerate(problems):
                if code != cli.EXIT_OK:
                    found.append(f"exit code {code}")
                result.unit(found, f"preprocessing trial {trial}")

        argv = [
            "pattern-demo", self.texts_path, "--pattern", PATTERN,
            "--backend", "faithful", "--seed", str(self.demo_seed),
        ]
        try:
            code, demo = _call_cli(argv)
        except Exception:  # noqa: BLE001
            result.crashed("pattern-demo", PATTERN_TEXTS)
            demo = ""
        else:
            rows = [line.split() for line in demo.splitlines() if not line.startswith("#")]
            if len(rows) != PATTERN_TEXTS or code != cli.EXIT_OK:
                result.unit([f"exit code {code}, {len(rows)} lines"], "pattern-demo")
            repetitions = 0
            for row, location in zip(rows, self.locations):
                line, status, found, _, reps, _, _, kmp_location, _ = row
                repetitions += int(reps)
                problems = []
                if status != "ok":
                    problems.append(f"status {status}")
                if not found == kmp_location == str(location):
                    problems.append(f"found {found}, kmp {kmp_location}, planted {location}")
                result.unit(problems, f"pattern-demo line {line}")
            result.facts["pattern.repetitions"] = repetitions
        result.output = (report + demo).encode()
        return result


class LearnerLarge:
    """Quantum-kernel run at N=16384, m=512, R=256, then the full three-learner sweep."""

    name = "learner-large"
    state_bytes = 0  # sampled kernels: no simulator state

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.run_seed, self.sweep_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
        self.report_path = os.path.join(workdir, "learner.rpt")
        self.per_shot = 4 * grover.optimal_iterations(LARGE_DOMAIN)
        self.pairs = LARGE_TRAIN * (LARGE_TRAIN - 1) // 2

    def _expected(self, rec: dict) -> tuple[int, int]:
        shots = (self.pairs + LARGE_TEST * rec["support_count"]) * LARGE_SHOTS
        return shots * self.per_shot, shots

    def run_pass(self) -> PassResult:
        result = PassResult(b"")
        argv = [
            "run", "--seed", str(self.run_seed),
            "--set", f"domain_size={LARGE_DOMAIN}", "--set", f"train_size={LARGE_TRAIN}",
            "--set", f"shots={LARGE_SHOTS}", "--set", f"test_size={LARGE_TEST}",
            "--learner", "quantum_kernel", "--trials", str(TRIALS), "--out", self.report_path,
        ]
        try:
            code, _ = _call_cli(argv)
            report = _read(self.report_path) + _read(self.report_path + ".csv")
            problems = _check_trials(self.report_path, self._expected)
        except Exception:  # noqa: BLE001
            result.crashed("run quantum_kernel", TRIALS)
            report = ""
        else:
            for trial, found in enumerate(problems):
                if code != cli.EXIT_OK:
                    found.append(f"exit code {code}")
                result.unit(found, f"quantum_kernel trial {trial}")

        argv = [
            "sweep", "--seed", str(self.sweep_seed),
            "--domain-sizes", ",".join(map(str, SWEEP_SIZES)),
        ]
        try:
            code, sweep = _call_cli(argv)
        except Exception:  # noqa: BLE001
            result.crashed("sweep", len(SLOPE_EXPECTED))
            sweep = ""
        else:
            slopes = {}
            section = None
            for line in sweep.splitlines():
                if line.startswith("["):
                    section = line
                elif section == "[slopes]" and not line.startswith("learner,"):
                    learner, slope, _ = line.split(",")
                    slopes[learner] = float(slope)
            for learner, expected in SLOPE_EXPECTED.items():
                slope = slopes.get(learner, float("nan"))
                problems = []
                if not abs(slope - expected) <= SLOPE_TOL:
                    problems.append(f"slope {slope} not within {SLOPE_TOL} of {expected}")
                if code != cli.EXIT_OK:
                    problems.append(f"exit code {code}")
                result.unit(problems, f"sweep slope {learner}")
                result.facts[f"learn.slope.{learner}"] = slopes.get(learner, 0.0)
        result.output = (report + sweep).encode()
        return result


WORKLOADS = {w.name: w for w in (KernelWide, SearchSmall, LearnerLarge)}
