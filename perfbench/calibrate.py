"""Host-speed calibration: a short fixed loop whose time tracks how fast the host runs now.

The hosts this benchmark runs on are shared. On a 2-vCPU sandbox that
reported no steal time, this loop and the workloads both ran up to 1.7 times
faster or slower from one second, and one minute, to the next, because of
load outside the sandbox. Runs made minutes apart then disagree by more than
any useful bound. So every time the benchmark reports is scaled to the
reference speed at which one loop takes ``REFERENCE_S``:

- a pass runs under a :class:`Tracker`, which runs the loop every
  ``INTERVAL_S`` from a timer signal, and the pass time (net of the loop's
  own time) is multiplied by ``REFERENCE_S / mean(loop times)``;
- a set-up sample is paired with :func:`probe_seconds`, the mean loop time
  measured in the same fresh interpreter right after the import.

The loop is many small numpy calls driven from Python, like per-gate
dispatch and the per-pair seed streams, on buffers small enough to stay in
L1. It uses only numpy and this file, and its buffers are allocated once, so
it adds a constant to resident memory. It still runs in the workload's
process and pays for what the workload evicted from the caches: it reads
about 17% slower during 20-qubit passes than during learner passes, so a
change to the simulator's memory traffic can move it by a few percent.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.001
INTERVAL_S = 0.25
PROBE_LOOPS = 200
AMPLITUDES = 1 << 9
UPDATES = 20
STREAMS = 40


class Loop:
    """The calibration loop and its preallocated buffers."""

    def __init__(self):
        self.state = np.ones(AMPLITUDES, dtype=np.complex128).reshape(-1, 2, 32)
        self.out = np.empty_like(self.state)

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(UPDATES):
            np.add(self.state[:, 0], self.state[:, 1], out=self.out[:, 0])
            np.subtract(self.state[:, 0], self.state[:, 1], out=self.out[:, 1])
        for stream in range(STREAMS):
            np.random.default_rng(np.random.SeedSequence([7, stream])).binomial(256, 0.25)
        return time.perf_counter() - start


def probe_seconds(loop: Loop | None = None) -> float:
    """Mean loop time over PROBE_LOOPS back-to-back loops."""
    loop = loop or Loop()
    return statistics.fmean(loop() for _ in range(PROBE_LOOPS))


class Tracker:
    """Runs the loop every INTERVAL_S from SIGALRM while a pass runs."""

    def __init__(self, loop: Loop):
        self.loop = loop
        self.samples = []
        self.spent = 0.0  # wall time inside the handler, taken off the pass time
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a stalled host can deliver the next tick inside this one
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append(self.loop())
        finally:
            self.spent += time.perf_counter() - start
            self._busy = False

    def __enter__(self) -> "Tracker":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Scale from raw seconds to seconds at the reference speed."""
        return REFERENCE_S / statistics.fmean(self.samples or [self.loop()])
