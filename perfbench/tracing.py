"""Timing shims for the traced run, installed from outside the package.

A shim replaces a module attribute that one layer calls another through
(``groversvm.sim.run``, ``groversvm.learn.gram_matrix``, ...) with a wrapper
that records a span per call.  Spans nest as cli -> learn -> kernel / svm /
grover -> sim; a layer's self time is its span minus the spans of the calls it
makes.  Bookkeeping that the shims do themselves (counting gates, snapshotting
oracle counters, the second ``svm.train`` call that counts updates) runs in an
*untimed* block whose duration is subtracted from every enclosing span and
from the traced pass time.
"""

from __future__ import annotations

import inspect
import statistics
import time
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager

from groversvm import cli, grover, kernel, learn, pattern, sim, svm
from groversvm.learn import Dataset

STATE_BYTES_PER_AMPLITUDE = 2 * 16  # one complex128 read and one write per gate
CONVERGED_GAP = 1e-8
BILLING_KEYS = ("learn.learner", "kernel.circuit.ideal", "kernel.circuit.faithful")

# Counts that must repeat exactly between two traced passes of one seed.
EXACT_COUNTS = tuple(f"sim.gates.{kind}" for kind in sim.GATE_KINDS) + (
    "grover.oracle_queries",
    "grover.searches",
    "pattern.kmp_comparisons",
    "svm.updates",
    "learn.kernel_row_entries",
)


class Tracer:
    """Spans and counts for one traced pass."""

    def __init__(self):
        self.stack = []  # open frames: [key, start, child_s, untimed_s]
        self.span_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.untimed_s = 0.0
        self._patches = []

    def _enter(self, key: str) -> list:
        frame = [key, 0.0, 0.0, 0.0]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        key, start, child, untimed = frame
        duration = end - start - untimed
        self.span_s[key] += duration
        self.self_s[key] += duration - child
        self.calls[key] += 1
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            parent[3] += untimed

    @contextmanager
    def untimed(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            spent = time.perf_counter() - start
            self.untimed_s += spent
            if self.stack:
                self.stack[-1][3] += spent

    def patch(self, module, attr: str, key, before=None, after=None, outer_only=False):
        """Wrap ``module.attr``; ``key`` is a span name or a function of the bound arguments."""
        fn = getattr(module, attr)
        signature = inspect.signature(fn) if (before or after or callable(key)) else None
        tracer = self

        def shim(*args, **kwargs):
            if outer_only and tracer.stack and tracer.stack[-1][0] == key:
                return fn(*args, **kwargs)
            bound = None
            if signature is not None:
                binding = signature.bind(*args, **kwargs)
                binding.apply_defaults()
                bound = binding.arguments
            name = key(bound) if callable(key) else key
            token = None
            if before is not None:
                with tracer.untimed():
                    token = before(bound)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                with tracer.untimed():
                    after(fn, bound, result, token)
            return result

        self._patches.append((module, attr, fn))
        setattr(module, attr, shim)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    # -- hooks -----------------------------------------------------------

    def _after_run(self, fn, bound, result, token):
        circuit = bound["circuit"]
        for gate in circuit.gates:
            self.counts[f"sim.gates.{gate.kind}"] += 1
        self.counts["sim.state_bytes_computed"] += (
            STATE_BYTES_PER_AMPLITUDE * (1 << circuit.num_qubits) * len(circuit.gates)
        )
        self.counts["sim.max_qubits"] = max(self.counts["sim.max_qubits"], circuit.num_qubits)

    def _after_search(self, fn, bound, result, token):
        self.counts["grover.searches"] += 1
        self.counts["grover.search_hits"] += int(result[0] == bound["oracle"].marked)

    def _before_billing(self, bound):
        """Snapshot oracle counters unless an enclosing span already bills them."""
        if any(frame[0] in BILLING_KEYS for frame in self.stack):
            return None
        oracles = {}
        for value in bound.values():
            items = value.oracles if isinstance(value, Dataset) else value
            items = items if isinstance(items, (list, tuple)) else [items]
            for item in items:
                if isinstance(item, grover.IndicatorOracle):
                    oracles[id(item)] = (item, item.query_count)
        return oracles

    def _bill(self, snapshot, ledger) -> None:
        if snapshot is None:
            return
        billed = sum(oracle.query_count - before for oracle, before in snapshot.values())
        self.counts["grover.oracle_queries"] += billed
        self.counts["grover.ledger_queries"] += ledger.total_queries

    def _after_kernel_circuit(self, fn, bound, result, token):
        self._bill(token, result[1])

    def _after_learner(self, fn, bound, result, token):
        self._bill(token, result.ledger)
        tests = len(bound["test_oracles"])
        if fn.__name__ == "quantum_kernel_learner":
            self.counts["learn.kernel_row_entries"] += tests * result.support_count
        elif fn.__name__ == "preprocessing_learner":
            self.counts["learn.kernel_row_entries"] += tests * bound["train"].size

    def _after_gram(self, fn, bound, result, token):
        m = result.size
        self.counts["kernel.gram_pairs"] += m * (m - 1) // 2

    def _after_train(self, fn, bound, model, token):
        history = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the timed call already warned, if it did
            fn(**{**bound, "objective_history": history})
        self.counts["svm.updates"] += len(history)
        gap = svm.kkt_gap(bound["gram"], bound["labels"], model.dual_coeffs, model.box_bound)
        self.samples["svm.kkt_gap"].append(gap)
        self.samples["svm.support"].append(model.support_count)

    def _after_match(self, fn, bound, result, token):
        self.samples["pattern.success_prob"].append(result[1])

    def _after_kmp(self, fn, bound, result, token):
        self.counts["pattern.kmp_comparisons"] += result[1].classical_char_comparisons

    def _after_report(self, fn, bound, result, token):
        self.counts["cli.report_bytes"] += len(result.encode())

    def install(self) -> None:
        self.patch(sim, "run", "sim.run", after=self._after_run)
        for attr in ("prob_all_zero", "register_probabilities", "sample_measurement"):
            self.patch(sim, attr, "sim.measure", outer_only=True)
        self.patch(grover, "search_circuit", "grover.build.search")
        self.patch(kernel, "feature_map_circuit", "grover.build.feature_map")
        self.patch(learn, "grover_search", "grover.search", after=self._after_search)
        self.patch(
            kernel, "kernel_circuit",
            lambda b: f"kernel.circuit.{(b['config'] or grover.GroverConfig()).backend}",
            before=self._before_billing, after=self._after_kernel_circuit,
        )
        self.patch(learn, "gram_matrix", "kernel.gram", after=self._after_gram)
        self.patch(svm, "train", "svm.train", after=self._after_train)
        self.patch(svm, "decide", "svm.decide")
        for module in (cli, learn):  # cli runs trials, learn.complexity_sweep runs the sweep
            for attr in ("quantum_kernel_learner", "preprocessing_learner", "classical_learner"):
                self.patch(
                    module, attr, "learn.learner",
                    before=self._before_billing, after=self._after_learner,
                )
        self.patch(cli, "generate_dataset", "learn.dataset")
        self.patch(cli, "generate_balanced_test", "learn.dataset")
        self.patch(cli, "complexity_sweep", "learn.sweep")
        self.patch(cli, "TextInstance", "pattern.instance")
        self.patch(cli, "pattern_match", "pattern.match", after=self._after_match)
        self.patch(pattern, "match_circuit", "pattern.build")
        self.patch(cli, "kmp_search", "pattern.kmp", after=self._after_kmp)
        self.patch(cli, "run_single_trial", "cli.trial")
        for attr in ("format_run_report", "format_run_csv"):
            self.patch(cli, attr, "cli.report", after=self._after_report)

    # -- metrics ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values for this pass, keyed by metric name (value only)."""
        span, own, calls, counts = self.span_s, self.self_s, self.calls, self.counts
        gates = sum(counts[f"sim.gates.{kind}"] for kind in sim.GATE_KINDS)
        run_s = span["sim.run"]
        searches = counts["grover.searches"]
        gaps = self.samples["svm.kkt_gap"]
        supports = self.samples["svm.support"]
        probs = self.samples["pattern.success_prob"]
        out = {
            "sim.run_s": run_s,
            "sim.run_calls": calls["sim.run"],
            "sim.us_per_gate": 1e6 * run_s / gates if gates else 0.0,
            "sim.max_qubits": counts["sim.max_qubits"],
            "sim.state_bytes_computed": counts["sim.state_bytes_computed"],
            "sim.gbps_computed": counts["sim.state_bytes_computed"] / run_s / 1e9 if run_s else 0.0,
            "sim.measure_s": span["sim.measure"],
            "sim.measure_calls": calls["sim.measure"],
            "grover.build_s": span["grover.build.search"] + span["grover.build.feature_map"],
            "grover.feature_map_builds": calls["grover.build.feature_map"],
            "grover.searches": searches,
            "grover.search_s": span["grover.search"],
            "grover.search_hit_frac": counts["grover.search_hits"] / searches if searches else 0.0,
            "grover.oracle_queries": counts["grover.oracle_queries"],
            "grover.ledger_diff": counts["grover.ledger_queries"] - counts["grover.oracle_queries"],
            "kernel.circuit_s.ideal": span["kernel.circuit.ideal"],
            "kernel.circuit_s.faithful": span["kernel.circuit.faithful"],
            "kernel.circuit_calls": calls["kernel.circuit.ideal"] + calls["kernel.circuit.faithful"],
            "kernel.gram_s": span["kernel.gram"],
            "kernel.gram_calls": calls["kernel.gram"],
            "kernel.gram_pairs": counts["kernel.gram_pairs"],
            "svm.train_s": span["svm.train"],
            "svm.train_calls": calls["svm.train"],
            "svm.updates": counts["svm.updates"],
            "svm.kkt_gap_max": max(gaps) if gaps else 0.0,
            "svm.converged_frac": (
                sum(gap <= CONVERGED_GAP for gap in gaps) / len(gaps) if gaps else 0.0
            ),
            "svm.support_mean": statistics.fmean(supports) if supports else 0.0,
            "svm.decide_s": span["svm.decide"],
            "svm.decide_calls": calls["svm.decide"],
            "learn.learner_s": span["learn.learner"],
            "learn.learner_self_s": own["learn.learner"],
            "learn.dataset_s": span["learn.dataset"],
            "learn.kernel_row_entries": counts["learn.kernel_row_entries"],
            "learn.sweep_s": span["learn.sweep"],
            "pattern.instance_s": span["pattern.instance"],
            "pattern.match_s": span["pattern.match"],
            "pattern.match_calls": calls["pattern.match"],
            "pattern.build_s": span["pattern.build"],
            "pattern.success_prob_mean": statistics.fmean(probs) if probs else 0.0,
            "pattern.kmp_s": span["pattern.kmp"],
            "pattern.kmp_comparisons": counts["pattern.kmp_comparisons"],
            "cli.trial_s": span["cli.trial"],
            "cli.trial_self_s": own["cli.trial"],
            "cli.report_s": span["cli.report"],
            "cli.report_bytes": counts["cli.report_bytes"],
        }
        for kind in sim.GATE_KINDS:
            out[f"sim.gates.{kind}"] = counts[f"sim.gates.{kind}"]
        return out
