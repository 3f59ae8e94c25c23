"""groversvm benchmark: one workload and one seed per process, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload kernel-wide --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics in BENCHMARK.json: set-up
time, the median time of one pass, peak resident memory and the share of
checked units that passed.  With ``--trace 1`` it runs one untraced pass, then
traced passes with timing shims on the layer boundaries (see tracing.py), then
the per-gate-kind probe, and reports the per-layer metrics.  Times are
host-normalised (see calibrate.py).  Standard output ends with three JSON
lines: the machine and context record, the raw times and calibration
samples, and the result object.  Failed checks are listed on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Set before numpy is first imported: trials run in-process with no pool, and
# one BLAS thread keeps timings steady on a small shared machine.
PINNED_ENV = {
    "GROVERSVM_WORKERS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
MIN_PASSES = 2  # outputs are compared across passes, so every run makes two
SETUP_SAMPLES = 5
# The time to import groversvm (numpy included) in a fresh interpreter, then
# the host speed right after it (see calibrate.py).
IMPORT_PROBE = (
    "import json, sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "start = time.perf_counter()\n"
    "import groversvm\n"
    "imported = time.perf_counter() - start\n"
    "import calibrate\n"
    "print(json.dumps([imported, calibrate.probe_seconds(), groversvm.__file__]))\n"
)

DIMENSIONLESS = {
    "svm.kkt_gap_max",
    "pattern.success_prob_mean",
    "kernel.ideal_max_abs_err",
    "kernel.faithful_max_abs_err",
    "learn.slope.classical",
    "learn.slope.preprocessing",
    "learn.slope.quantum_kernel",
}


def unit_of(name: str) -> str:
    if name.startswith("sim.gate_us.") or name == "sim.us_per_gate":
        return "us"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_computed") or name.endswith("_bytes"):
        return "B"
    if name == "sim.gbps_computed":
        return "GB/s"
    if name == "sim.max_qubits":
        return "qubits"
    if name in DIMENSIONLESS:
        return "1"
    return "count"


def _import_probe() -> tuple[float, float]:
    """Seconds to import groversvm in a fresh interpreter, and its calibration loop time."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, **PINNED_ENV},
    )
    imported, loop_s, path = json.loads(done.stdout)
    if Path(path).resolve().parent != SRC / "groversvm":
        raise RuntimeError(f"imported groversvm from {path}, not from {SRC}")
    return imported, loop_s


class SetupSamples:
    """Set-up samples, taken before the first pass and after every pass.

    A sample is a fresh-interpreter import plus one build of the workload's
    inputs from the seed, scaled by the calibration loop timed in that same
    interpreter.  Spreading the samples over the run makes their median
    describe the whole run rather than one moment of it.
    """

    def __init__(self, workload_cls, seed: int, workdir: str):
        self.build = lambda: workload_cls(seed, workdir)
        self.raw, self.scaled = [], []

    def sample(self):
        import calibrate  # not at the top: numpy must load after PINNED_ENV is set

        imported, loop_s = _import_probe()
        start = time.perf_counter()
        workload = self.build()
        raw = imported + time.perf_counter() - start
        self.raw.append(raw)
        self.scaled.append(raw * calibrate.REFERENCE_S / loop_s)
        return workload

    def seconds(self) -> float:
        while len(self.scaled) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.scaled)


class Outcome:
    """Units attempted and failed over every pass of a run, plus cross-pass output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.reference = None

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def record(self, result) -> None:
        self.attempted += result.attempted
        self.failures.extend(result.failures)
        if self.reference is None:
            self.reference = result.output
        else:
            self.check(result.output == self.reference, "output differs from the first pass")


def _timed_pass(workload, loop, label: str):
    """Run one pass under a calibration tracker; returns (raw s, host factor, result)."""
    import calibrate

    with calibrate.Tracker(loop) as tracker:
        start = time.perf_counter()
        result = workload.run_pass()
        elapsed = time.perf_counter() - start - tracker.spent
    factor = tracker.factor()
    print(f"{label} pass: {elapsed:.3f} s raw, host factor {factor:.3f}",
          file=sys.stderr, flush=True)
    return elapsed, factor, result


def _done(start: float, passes: list, seconds: float) -> bool:
    """Stop once two passes are in and another would overrun the run's time."""
    spent = time.perf_counter() - start
    return len(passes) >= MIN_PASSES and spent + statistics.median(passes) > seconds


def _untraced(workload, loop, setup: SetupSamples, start: float, seconds: float,
               outcome: Outcome):
    raw, factors, scaled = [], [], []
    while not _done(start, raw, seconds):
        elapsed, factor, result = _timed_pass(workload, loop, "untraced")
        raw.append(elapsed)
        factors.append(factor)
        scaled.append(elapsed * factor)
        outcome.record(result)
        setup.sample()
    values = {
        "pass_s": statistics.median(scaled),
        "setup_s": setup.seconds(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"pass_s": raw, "host_factor": factors, "setup_s": setup.raw}


def _scale_times(metrics: dict, factor: float) -> dict:
    scale = {"s": factor, "us": factor, "GB/s": 1.0 / factor}
    return {name: value * scale.get(unit_of(name), 1.0) for name, value in metrics.items()}


def _traced(workload, loop, start: float, seconds: float, outcome: Outcome):
    import calibrate
    import probe
    import tracing
    import workloads

    untraced_s, untraced_factor, result = _timed_pass(workload, loop, "untraced")
    outcome.record(result)
    passes, raw = [], []
    while not _done(start, raw, seconds):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            elapsed, factor, result = _timed_pass(workload, loop, "traced")
        finally:
            tracer.uninstall()
        outcome.record(result)
        values = {name: 0.0 for name in workloads.FACTS}
        values.update(tracer.metrics())
        values.update(result.facts)
        values["trace.pass_s"] = elapsed - tracer.untimed_s
        outcome.check(values["grover.ledger_diff"] == 0,
                      f"ledgers and oracle counters differ by {values['grover.ledger_diff']}")
        if passes:
            changed = [n for n in tracing.EXACT_COUNTS if values[n] != passes[0][n]]
            outcome.check(not changed, f"exact counts changed between traced passes: {changed}")
        passes.append(_scale_times(values, factor))
        raw.append(elapsed)
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["trace.overhead_frac"] = (
        metrics["trace.pass_s"] / (untraced_s * untraced_factor) - 1.0
    )
    gate_us = probe.gate_us()
    metrics.update(_scale_times(gate_us, calibrate.REFERENCE_S / calibrate.probe_seconds(loop)))
    return metrics, {"trace.pass_s": raw, "untraced_s": untraced_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "groversvm" / "__init__.py").is_file():
        print(f"error: groversvm sources not found under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import calibrate
    import context
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".tmp-", dir=HERE)
    try:
        setup = SetupSamples(workloads.WORKLOADS[args.workload], args.seed, workdir)
        workload = setup.sample()
        print(json.dumps({"context": context.record(workload, args.seed)}), flush=True)
        outcome = Outcome()
        loop = calibrate.Loop()
        if args.trace:
            values, raw = _traced(workload, loop, start, args.seconds, outcome)
        else:
            values, raw = _untraced(workload, loop, setup, start, args.seconds, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fail_frac = len(outcome.failures) / outcome.attempted
    if args.trace:
        values["fail_frac"] = fail_frac
    else:
        values["ok_frac"] = 1.0 - fail_frac
    print(json.dumps({"raw": {**raw, "fail_frac": fail_frac}}))
    for failure in outcome.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {
            name: {"value": float(value), "unit": unit_of(name)}
            for name, value in sorted(values.items())
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
