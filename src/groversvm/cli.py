"""Command-line harness: dataset generation, learner runs, sweeps, and reports.

Configuration is a key-value text file (``key = value`` lines, ``#``
comments) overridden by repeatable ``--set key=value`` flags and finally by
the flags named after a key (``--seed``, ``--learner``, ``--domain-sizes``
...); flags win.  Every emitted artifact starts with a schema
line and is byte-identical for identical (config, seed) pairs: no
timestamps, no wall-clock entropy, deterministic ordering throughout.

Exit codes: 0 success, 2 invalid configuration, 3 resource cap exceeded,
4 domain failure (e.g. a pattern that never occurs).
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import __version__
from .errors import ResourceCapError, StructuralError, UnsupportedSizeError
from .grover import BACKENDS, GroverConfig, IndicatorOracle
from .kernel import check_shots
from .learn import (
    Concept,
    LEARNER_KINDS,
    check_test_size,
    classical_learner,
    complexity_sweep,
    default_interval_width,
    default_shots,
    generate_balanced_test,
    generate_dataset,
    loglog_slope,
    preprocessing_learner,
    quantum_kernel_learner,
)
from .pattern import TextInstance, kmp_search, pattern_label, pattern_match, random_instance
from .pattern import _check_bit_string
from . import sim
from .sim import _derived_seed

EXIT_OK = 0
EXIT_INVALID_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_DOMAIN = 4

SWEEP_TRIALS = 3  # sweep's trials per size when neither --trials nor the trials key is given

REPORT_SCHEMA = "groversvm-report/1"
DATASET_SCHEMA = "groversvm-dataset/1"
SWEEP_SCHEMA = "groversvm-sweep/1"

WORKERS_ENV = "GROVERSVM_WORKERS"


class ConfigError(Exception):
    """Invalid or incomplete experiment configuration."""


# The package's integer and binary-string rules, raising a ConfigError that names the key.
_check = partial(sim._check_int, error=ConfigError)
_check_bits = partial(_check_bit_string, error=ConfigError)


def _int_list(value: str) -> tuple[int, ...]:
    return tuple(int(part) for part in value.split(",") if part.strip())


# (parse, description) of a key's text form; a ValueError names the description.
_TEXT = (str, "text")
_INT = (int, "an integer")
_FLOAT = (float, "a number")
_INT_LIST = (_int_list, "comma-separated integers")


def _key(default, read_by: str, parser=_TEXT, choices=None):
    """A config key: its default, the commands that read it, its parser and any allowed values."""
    meta = {"read_by": tuple(read_by.split()), "parser": parser, "choices": choices}
    return field(default=default, metadata=meta)


@dataclass
class ExperimentConfig:
    """Every config key; ``resolve_config`` returns a copy with each 'auto' filled in.

    A command rejects a key given in the file or by ``--set`` that it does not read.
    """

    problem: str = _key("indicator", "gen-data run", choices=("indicator", "pattern"))
    domain_size: int = _key(1024, "gen-data run", _INT)
    interval_width: str = _key("auto", "run")
    train_size: int = _key(16, "gen-data run sweep", _INT)
    shots: str = _key("auto", "run sweep")
    box_bound: float = _key(100.0, "run sweep", _FLOAT)
    backend: str = _key("ideal", "run", choices=BACKENDS)
    learner: str | None = _key("quantum_kernel", "run sweep", choices=LEARNER_KINDS)  # None: all
    trials: int = _key(10, "run sweep", _INT)
    seed: int | None = _key(None, "gen-data run sweep", _INT)
    concept_start: str = _key("random", "gen-data run")
    test_size: int = _key(200, "run", _INT)
    budget: str = _key("auto", "run")
    domain_sizes: tuple[int, ...] = _key((), "sweep", _INT_LIST)
    pattern: str = _key("110", "gen-data")
    label_rule: str = _key("halfspace", "gen-data", choices=("halfspace", "log_width"))


_CONFIG_KEYS = {f.name: f for f in fields(ExperimentConfig)}


def _coerce(key: str, value: str):
    meta = _CONFIG_KEYS[key].metadata
    parse, description = meta["parser"]
    try:
        parsed = parse(value)
    except ValueError as exc:
        raise ConfigError(f"{key} must be {description}, got {value!r}") from exc
    if meta["choices"] and parsed not in meta["choices"]:
        raise ConfigError(f"{key} must be one of {meta['choices']}, got {value!r}")
    return parsed


def parse_config_file(path: str) -> dict:
    pairs = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            pairs[key] = value
    return pairs


def build_config(
    file_pairs: dict, set_pairs: list[str], flag_overrides: dict,
    config: ExperimentConfig | None = None,
) -> ExperimentConfig:
    """Apply file pairs, then ``--set`` pairs, then flags to ``config`` (the defaults if None)."""
    config = config or ExperimentConfig()
    merged: dict[str, str] = dict(file_pairs)
    for item in set_pairs or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        merged[key] = value
    for key, value in merged.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(config, key, _coerce(key, value))
    for key, value in flag_overrides.items():
        if value is not None:
            setattr(config, key, _coerce(key, str(value)))
    return config


def _as_int(key: str, value, lo: int, hi: int | None = None, **rule) -> int:
    """An 'auto'/'random' key's or an environment variable's integer: its
    text parsed, then checked by :func:`_check`."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError as exc:
            word = f" or {_CONFIG_KEYS[key].default!r}" if key in _CONFIG_KEYS else ""
            raise ConfigError(f"{key} must be an integer{word}, got {value!r}") from exc
    return _check(value, key, lo, hi, **rule)


def resolve_config(config: ExperimentConfig) -> ExperimentConfig:
    """Check ``config`` and return a copy with every 'auto' filled in."""
    if config.seed is None:
        raise ConfigError("seed is mandatory; set it in the config file or with --seed")
    seed = _check(config.seed, "seed")
    N = _check(config.domain_size, "domain_size", 8, power_of_two=True)
    sizes = [_check(n, "domain_sizes entry", 8, power_of_two=True) for n in config.domain_sizes]
    m = _check(config.train_size, "train_size", 2, min(sizes, default=N))
    if str(config.interval_width) == "auto":
        M = default_interval_width(m, N)
    else:
        M = _as_int("interval_width", config.interval_width, 1, N // 2 - 1, power_of_two=True)
    R = default_shots(m) if str(config.shots) == "auto" else _as_int("shots", config.shots, None)
    R = check_shots(R, error=ConfigError)
    X = N // 2 if str(config.budget) == "auto" else _as_int("budget", config.budget, 0, N)
    if config.concept_start != "random":
        try:
            Concept(_as_int("concept_start", config.concept_start, None), N)
        except StructuralError as exc:  # the start rule is Concept's
            raise ConfigError(str(exc)) from exc
    box_bound = sim._check_real(config.box_bound, "box_bound", positive=True, error=ConfigError)
    _check(config.trials, "trials", 1)
    _check_test_size(config.test_size, None)
    if config.learner == "quantum_kernel" and config.backend != "ideal":
        raise ConfigError("learner quantum_kernel samples the ideal kernel only; use backend=ideal")
    _check_bits(config.pattern, "pattern")
    return replace(config, interval_width=M, shots=R, budget=X, box_bound=box_bound, seed=seed,
                   concept_start=str(config.concept_start))


def _check_test_size(size, domain_size: int | None) -> None:
    try:
        check_test_size(size, domain_size, "test_size")
    except StructuralError as exc:  # the rule is learn's
        raise ConfigError(str(exc)) from exc


def _concept_for_trial(resolved: ExperimentConfig, trial: int) -> Concept:
    N = resolved.domain_size
    if resolved.concept_start == "random":
        return Concept.drawn(N, np.random.default_rng(_derived_seed(resolved.seed, trial, 11)))
    return Concept(int(resolved.concept_start), N)


def run_single_trial(resolved: ExperimentConfig, trial: int) -> dict:
    """Execute one seeded trial; returns a flat record for the report."""
    concept = _concept_for_trial(resolved, trial)
    config = GroverConfig(backend=resolved.backend)
    dataset = generate_dataset(concept, resolved.train_size, _derived_seed(resolved.seed, trial, 23))
    test_oracles, test_labels = generate_balanced_test(
        concept, resolved.test_size, _derived_seed(resolved.seed, trial, 37)
    )
    learner_seed = _derived_seed(resolved.seed, trial, 53)
    try:
        if resolved.learner == "quantum_kernel":
            result = quantum_kernel_learner(
                dataset,
                test_oracles,
                resolved.interval_width,
                resolved.shots,
                resolved.box_bound,
                config,
                rng_seed=learner_seed,
            )
        elif resolved.learner == "preprocessing":
            result = preprocessing_learner(
                dataset,
                test_oracles,
                resolved.interval_width,
                resolved.box_bound,
                config,
                rng_seed=learner_seed,
            )
        else:
            result = classical_learner(concept, test_oracles, resolved.budget, learner_seed)
    except ResourceCapError as exc:
        return {"trial": trial, "status": f"resource_cap:{exc}", "accuracy": float("nan")}
    ledger = result.ledger
    return {
        "trial": trial,
        "status": "ok",
        "accuracy": result.accuracy(test_labels),
        "support_count": result.support_count,
        "oracle_queries": ledger.oracle_queries,
        "shots": ledger.shots,
        "classical_evaluations": ledger.classical_evaluations,
    }


def _worker_count(trials: int) -> int:
    """Pool size: the requested count, capped by the trial count and the CPU count."""
    count = _as_int(WORKERS_ENV, os.environ.get(WORKERS_ENV, "1"), 1)
    return min(count, trials, os.cpu_count() or 1)


def _run_trials(resolved: ExperimentConfig) -> list[dict]:
    workers = _worker_count(resolved.trials)
    indices = list(range(resolved.trials))
    if workers == 1:
        records = [run_single_trial(resolved, t) for t in indices]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_single_trial, [resolved] * len(indices), indices))
    return sorted(records, key=lambda rec: rec["trial"])


# Report and CSV trial columns in order, with the type read_report parses each into.
_TRIAL_COLUMNS = (
    ("trial", int),
    ("status", str),
    ("accuracy", float),
    ("support_count", int),
    ("oracle_queries", int),
    ("shots", int),
    ("classical_evaluations", int),
)


def _trial_cells(rec: dict) -> list[str]:
    """A trial's cells; a failed trial shows its status prefix, nan and zero counts."""
    if rec["status"] != "ok":
        status = rec["status"].split(":", 1)[0]
        failed = {"trial": rec["trial"], "status": status, "accuracy": math.nan}
        rec = {n: 0 for n, _ in _TRIAL_COLUMNS} | failed
    return [f"{rec[n]:.6f}" if kind is float else str(rec[n]) for n, kind in _TRIAL_COLUMNS]


def _parse_trial(line: str) -> dict:
    cells = line.split()
    if len(cells) != len(_TRIAL_COLUMNS):
        raise StructuralError(f"trial row needs {len(_TRIAL_COLUMNS)} columns: {line!r}")
    try:
        return {name: kind(cell) for (name, kind), cell in zip(_TRIAL_COLUMNS, cells)}
    except ValueError as exc:
        raise StructuralError(f"malformed trial row {line!r}") from exc


def _header(schema: str) -> list[str]:
    return [f"schema {schema}", f"artifact_version {__version__}"]


def _read_sections(path: str, schema: str) -> dict:
    """Check the schema line; map each ``[section]`` (None before the first) to its lines."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or not lines[0].startswith("schema "):
        raise StructuralError("missing schema line")
    found = lines[0].split(" ", 1)[1]
    if found != schema:
        kind = schema.split("/")[0].removeprefix("groversvm-")
        raise StructuralError(f"unsupported {kind} schema {found!r}")
    sections: dict = {None: []}
    current = sections[None]
    for line in lines[1:]:
        if line.startswith("["):
            current = sections.setdefault(line.strip("[]"), [])
        elif line and not line.startswith("#"):
            current.append(line)
    return sections


def _key_values(lines: list[str]) -> dict:
    pairs = {}
    for line in lines:
        key, sep, value = line.partition(" ")
        if not sep:
            raise StructuralError(f"expected 'key value', got {line!r}")
        pairs[key] = value
    return pairs


def _emit(payload: str, out_path: str | None) -> None:
    sys.stdout.write(payload)
    if out_path:
        _write(out_path, payload)


def _write(path: str, payload: str) -> None:
    """Write ``payload`` to ``path``, a regular file rewritten in place.

    The file is opened without ``O_TRUNC`` and cut to the new length after
    the write: truncating a file written moments earlier can stall for tens
    of milliseconds (measured on ext4 mounted with ``discard``).  A pipe or
    a device such as ``os.devnull`` is written as ``open(path, "w")`` would.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as handle:
        handle.write(payload)
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate()


def format_run_report(resolved: ExperimentConfig, records: list[dict]) -> str:
    lines = _header(REPORT_SCHEMA) + ["[config]"]
    echoed = ((key, getattr(resolved, key)) for key in _CONFIG_KEYS if key != "domain_sizes")
    lines.extend(f"{key} {v:g}" if isinstance(v, float) else f"{key} {v}" for key, v in echoed)
    lines.append("[trials]")
    lines.append("# " + " ".join(name for name, _ in _TRIAL_COLUMNS))
    lines.extend(" ".join(_trial_cells(rec)) for rec in records)
    ok = [rec for rec in records if rec["status"] == "ok"]
    lines.append("[summary]")
    lines.append(f"trials {len(records)}")
    lines.append(f"completed {len(ok)}")
    if ok:
        acc = np.array([rec["accuracy"] for rec in ok])
        half = 1.96 * float(acc.std(ddof=1)) / math.sqrt(acc.size) if acc.size > 1 else 0.0
        lines.append(f"mean_accuracy {float(acc.mean()):.6f}")
        lines.append(f"ci95_halfwidth {half:.6f}")
        lines.append(f"frac_accuracy_ge_0.99 {float(np.mean(acc >= 0.99)):.6f}")
        lines.append(f"frac_accuracy_ge_0.95 {float(np.mean(acc >= 0.95)):.6f}")
        for key in ("oracle_queries", "shots", "classical_evaluations"):
            lines.append(f"total_{key} {sum(rec[key] for rec in ok)}")
    return "\n".join(lines) + "\n"


def format_run_csv(records: list[dict]) -> str:
    rows = [[name for name, _ in _TRIAL_COLUMNS]] + [_trial_cells(rec) for rec in records]
    return "".join(",".join(row) + "\n" for row in rows)


def read_report(path: str) -> dict:
    """Parse a run report, rejecting unknown schema versions and malformed lines."""
    sections = _read_sections(path, REPORT_SCHEMA)
    report = {
        "schema": REPORT_SCHEMA,
        "config": _key_values(sections.get("config", [])),
        "trials": [_parse_trial(line) for line in sections.get("trials", [])],
        "summary": _key_values(sections.get("summary", [])),
    }
    report.update(_key_values(sections[None]))
    return report


def cmd_run(resolved: ExperimentConfig, out_path: str | None) -> int:
    if resolved.problem != "indicator":
        raise ConfigError("run supports problem=indicator; use pattern-demo for texts")
    # A balanced test set holds distinct indices; gen-data and sweep read no test_size.
    _check_test_size(resolved.test_size, resolved.domain_size)
    records = _run_trials(resolved)
    _emit(format_run_report(resolved, records), out_path)
    if out_path:
        _write(out_path + ".csv", format_run_csv(records))
    if not any(rec["status"] == "ok" for rec in records):
        return EXIT_RESOURCE
    return EXIT_OK


def _index_cell(cell: str, N: int) -> bool:
    return 0 <= int(cell) < N


def _label_cell(cell: str, N: int) -> bool:
    return cell in ("+1", "-1")


# Dataset data columns per problem, each with the check read_dataset applies to
# its cell given the domain size N; a check may raise ValueError or StructuralError.
_DATASET_COLUMNS = {
    "indicator": (("marked_index", _index_cell), ("label", _label_cell)),
    "pattern": (
        ("text", lambda cell, N: len(_check_bit_string(cell, "text")) == N),
        ("location", _index_cell),
        ("label", _label_cell),
    ),
}


def _check_data_row(line: str, columns, domain_size: int) -> list[str]:
    cells = line.split()
    if len(cells) != len(columns):
        raise StructuralError(f"data row needs {len(columns)} columns: {line!r}")
    try:
        ok = all(check(cell, domain_size) for (_, check), cell in zip(columns, cells))
    except (ValueError, StructuralError):
        ok = False
    if not ok:
        raise StructuralError(f"malformed data row {line!r}")
    return cells


def format_dataset(problem: str, header_pairs, rows: list) -> str:
    """A dataset file: ``key value`` header lines, then rows of ``_DATASET_COLUMNS[problem]``."""
    lines = _header(DATASET_SCHEMA) + [f"problem {problem}"]
    lines.extend(f"{key} {value}" for key, value in header_pairs)
    lines += [f"size {len(rows)}", "[data]"]
    lines.append("# " + " ".join(name for name, _ in _DATASET_COLUMNS[problem]))
    lines.extend(" ".join(str(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _sign(label) -> str:
    return "+1" if label > 0 else "-1"


def read_dataset(path: str) -> dict:
    sections = _read_sections(path, DATASET_SCHEMA)
    header = {"schema": DATASET_SCHEMA, **_key_values(sections[None])}
    columns = _DATASET_COLUMNS.get(header.get("problem"))
    if columns is None:
        raise StructuralError(f"unknown dataset problem {header.get('problem')!r}")
    try:
        domain_size = int(header.get("domain_size"))
    except (TypeError, ValueError) as exc:
        raise StructuralError("dataset domain_size must be an integer") from exc
    sim._check_int(domain_size, "dataset domain_size", 8, power_of_two=True)  # the key's rule
    header["rows"] = [
        _check_data_row(line, columns, domain_size) for line in sections.get("data", [])
    ]
    return header


def cmd_gen_data(resolved: ExperimentConfig, out_path: str | None) -> int:
    concept = _concept_for_trial(resolved, 0)
    N = resolved.domain_size
    header = [("domain_size", N)]
    if resolved.problem == "indicator":
        dataset = generate_dataset(
            concept, resolved.train_size, _derived_seed(resolved.seed, 0, 23)
        )
        rows = [(o.marked, _sign(label)) for o, label in zip(dataset.oracles, dataset.labels)]
    else:
        header += [("pattern", resolved.pattern), ("label_rule", resolved.label_rule)]
        rng = np.random.default_rng(_derived_seed(resolved.seed, 0, 29))
        rows = []
        for _ in range(resolved.train_size):
            location = int(rng.integers(0, N))
            inst = random_instance(N, resolved.pattern, location, rng)
            label = pattern_label(concept.start, inst.location, N, resolved.label_rule)
            rows.append(("".join(str(b) for b in inst.text), inst.location, _sign(label)))
    header.append(("concept_start", concept.start))
    _emit(format_dataset(resolved.problem, header, rows), out_path)
    return EXIT_OK


def format_sweep(rows_by_learner: dict, slopes: dict) -> str:
    lines = _header(SWEEP_SCHEMA) + ["[rows]"]
    lines.append("learner,domain_size,mean_queries_per_classification,mean_support_count")
    for learner in sorted(rows_by_learner):
        for row in rows_by_learner[learner]:
            lines.append(
                f"{learner},{row.domain_size},{row.mean_queries_per_classification:.4f},"
                f"{row.mean_support_count:.4f}"
            )
    lines.append("[slopes]")
    lines.append("learner,slope,stderr")
    for learner in sorted(slopes):
        slope, err = slopes[learner]
        lines.append(f"{learner},{slope:.4f},{err:.4f}")
    return "\n".join(lines) + "\n"


def cmd_sweep(resolved: ExperimentConfig, out_path: str | None) -> int:
    """The sweep of ``resolved.learner`` (every learner if None) over ``resolved.domain_sizes``."""
    domain_sizes = resolved.domain_sizes
    if len(domain_sizes) < 4 or len(set(domain_sizes)) < len(domain_sizes):
        raise ConfigError(
            "sweep needs at least 4 domain sizes, none repeated "
            "(--domain-sizes or the domain_sizes key)"
        )
    learners = [resolved.learner] if resolved.learner else list(LEARNER_KINDS)
    rows_by_learner: dict = {}
    slopes: dict = {}
    for kind in learners:
        rows = complexity_sweep(
            kind, domain_sizes, resolved.trials, resolved.seed, train_size=resolved.train_size,
            shots=resolved.shots, box_bound=resolved.box_bound,
        )
        rows_by_learner[kind] = rows
        slopes[kind] = loglog_slope(
            [row.domain_size for row in rows],
            [row.mean_queries_per_classification for row in rows],
        )
    _emit(format_sweep(rows_by_learner, slopes), out_path)
    return EXIT_OK


def _demo_row(*cells) -> str:
    """One pattern-demo line: None shows as ``none``, a float with six decimals."""
    return " ".join(
        "none" if cell is None else f"{cell:.6f}" if isinstance(cell, float) else str(cell)
        for cell in cells
    )


def cmd_pattern_demo(
    text_path: str, pattern: str, backend: str, rng_seed: int, out_path: str | None
) -> int:
    rng_seed = sim.check_seed(rng_seed)
    _check_bits(pattern, "pattern")
    with open(text_path, "r", encoding="utf-8") as handle:
        texts = [line.strip() for line in handle if line.strip()]
    if not texts:
        raise ConfigError(f"{text_path} contains no text lines")
    lines = [
        "# line status location success_prob repetitions rounds gate_steps "
        "kmp_location kmp_comparisons"
    ]
    any_failure = any_resource_cap = False
    max_repetitions = 32
    for i, text in enumerate(texts):
        _check_bits(text, f"text line {i}")
        kmp_loc, kmp_ledger = kmp_search(text, pattern)
        comparisons = kmp_ledger.classical_char_comparisons
        try:
            instance = TextInstance(text, pattern)
        except StructuralError as exc:
            any_failure = True
            status = "bad-length" if isinstance(exc, UnsupportedSizeError) else "no-unique-match"
            lines.append(_demo_row(i, status, kmp_loc, math.nan, 0, 0, 0, kmp_loc, comparisons))
            continue
        if backend == "faithful" and instance.total_qubits > sim.QUBIT_CAP:
            any_resource_cap = True
            row = _demo_row(i, "resource-cap", None, math.nan, 0, 0, 0, kmp_loc, comparisons)
            lines.append(row)
            continue
        config = GroverConfig(backend=backend)
        # Measure, check the candidate against the one occurrence, retry on a miss.
        found, prob, ledger, repetitions = None, 0.0, None, 0
        for attempt in range(max_repetitions):
            candidate, prob, ledger = pattern_match(instance, config, rng_seed + 1009 * i + attempt)
            repetitions += 1
            if candidate == instance.location:
                found = candidate
                break
        any_failure |= found is None
        lines.append(_demo_row(
            i, "ok" if found is not None else "measure-failure", found, prob, repetitions,
            ledger.amplification_rounds, ledger.gate_steps, kmp_loc, comparisons,
        ))
    _emit("\n".join(lines) + "\n", out_path)
    if any_resource_cap:
        return EXIT_RESOURCE
    return EXIT_DOMAIN if any_failure else EXIT_OK


def _selftest_checks():
    import numpy.testing as npt

    from .grover import (
        adder_circuit,
        feature_map_circuit,
        grover_success_probability,
        interval_state_analytic,
        theoretical_success_probability,
    )
    from .kernel import kernel_circuit, kernel_exact
    from .learn import halfspace_overlap
    from .svm import decide, train

    def check_hadamard():
        state = sim.apply(sim.StateVector.zero(1), sim.hadamard(0))
        npt.assert_allclose(state.amplitudes, [2**-0.5, 2**-0.5], atol=1e-12)

    def check_adder():
        circuit = adder_circuit(3)
        for i in range(8):
            for j in range(8):
                out = sim.run(circuit, sim.StateVector.basis(6, i + 8 * j))
                expected = ((i + j) % 8) + 8 * j
                assert abs(out.amplitudes[expected] - 1.0) < 1e-12, (i, j)

    def check_grover():
        simulated = grover_success_probability(8, marked=5)
        assert abs(simulated - theoretical_success_probability(8)) < 1e-9

    def check_feature_map():
        oracle = IndicatorOracle(16, 2)
        state = sim.run_from_zero(feature_map_circuit(oracle, 4))
        target = interval_state_analytic(2, 4, 16)
        fid = sim.subsystem_fidelity(state, range(4), target.amplitudes)
        assert abs(fid - 1.0) < 1e-9
        assert abs(sim.prob_all_zero(state, range(4, 8)) - 1.0) < 1e-9

    def check_kernel():
        value, _ = kernel_circuit(IndicatorOracle(16, 3), IndicatorOracle(16, 5), 4)
        assert abs(value - kernel_exact(3, 5, 4, 16)) < 1e-10

    def check_svm():
        model = train(np.array([[1.0, 0.5], [0.5, 1.0]]), [1, -1], box_bound=10.0)
        npt.assert_allclose(model.dual_coeffs, [2.0, 2.0], atol=1e-6)
        assert abs(model.bias) < 1e-6
        assert decide(model, [1.0, 0.5])[1] == 1

    def check_halfspace():
        assert abs(halfspace_overlap(0, 3, 2, 16) - 0.25) < 1e-12
        assert halfspace_overlap(0, 10, 2, 16) == 0.0

    def check_pattern():
        instance = TextInstance("10110010", "110")
        found, prob, _ = pattern_match(instance, GroverConfig(backend="faithful"), 7)
        assert abs(prob - theoretical_success_probability(8, iterations=2)) < 1e-9
        kmp_loc, _ = kmp_search("10110010", "110")
        assert kmp_loc == instance.location == 2

    return [
        ("hadamard", check_hadamard),
        ("adder", check_adder),
        ("grover-success", check_grover),
        ("feature-map", check_feature_map),
        ("kernel-agreement", check_kernel),
        ("svm-two-point", check_svm),
        ("halfspace-overlap", check_halfspace),
        ("pattern-match", check_pattern),
    ]


def cmd_selftest() -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL - {name}: {exc}")
        else:
            print(f"ok - {name}")
    if failures:
        print(f"{failures} selftest check(s) failed")
        return 1
    print("all selftest checks passed")
    return EXIT_OK


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="path to a key = value configuration file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--seed", type=int, help="experiment seed (mandatory somewhere)")
    parser.add_argument("--out", help="write the artifact to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groversvm",
        description="Search-subroutine quantum kernels, learners, and query benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"groversvm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write a labeled dataset file")
    _add_common_flags(gen)

    run = sub.add_parser("run", help="run a learner over seeded trials")
    _add_common_flags(run)
    run.add_argument("--learner", choices=LEARNER_KINDS)
    run.add_argument("--backend", choices=BACKENDS)
    run.add_argument("--trials", type=int)

    sweep = sub.add_parser("sweep", help="query-complexity scaling across domain sizes")
    _add_common_flags(sweep)
    sweep.add_argument("--learner", choices=LEARNER_KINDS)
    sweep.add_argument(
        "--trials", type=int, help=f"overrides the trials key (default {SWEEP_TRIALS})"
    )
    sweep.add_argument(
        "--domain-sizes",
        help="comma-separated powers of two (overrides the config key)",
    )

    demo = sub.add_parser("pattern-demo", help="match a pattern against text lines")
    demo.add_argument("text_file", help="newline-separated binary strings")
    demo.add_argument("--pattern", required=True)
    demo.add_argument("--backend", choices=BACKENDS, default="faithful")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--out")

    sub.add_parser("selftest", help="run the built-in invariant checks")
    return parser


def _config_from_args(args, config: ExperimentConfig | None = None) -> ExperimentConfig:
    """The config from the file, ``--set`` and every flag whose dest is a key.

    A known key that the command does not read may not be given in the file or by ``--set``.
    """
    file_pairs = parse_config_file(args.config) if args.config else {}
    for key in [*file_pairs, *(item.split("=", 1)[0].strip() for item in args.set)]:
        if key in _CONFIG_KEYS and args.command not in _CONFIG_KEYS[key].metadata["read_by"]:
            raise ConfigError(f"{args.command} does not read the {key} key; remove it")
    flags = {key: getattr(args, key, None) for key in _CONFIG_KEYS}
    return build_config(file_pairs, args.set, flags, config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest()
        if args.command == "pattern-demo":
            return cmd_pattern_demo(args.text_file, args.pattern, args.backend, args.seed, args.out)
        if args.command == "gen-data":
            return cmd_gen_data(resolve_config(_config_from_args(args)), args.out)
        if args.command == "run":
            return cmd_run(resolve_config(_config_from_args(args)), args.out)
        if args.command == "sweep":
            # complexity_sweep's own train_size, shots and box_bound, and every learner
            base = ExperimentConfig(
                learner=None, trials=SWEEP_TRIALS, train_size=8, shots="16", box_bound=10.0
            )
            return cmd_sweep(resolve_config(_config_from_args(args, base)), args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, FileNotFoundError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
