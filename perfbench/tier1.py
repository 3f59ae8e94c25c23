"""One-shot Tier-1 timing: wall time of the test suite and its ten slowest tests.

Not one of the gated workloads.  Run from the repository root:

    python3 perfbench/tier1.py --out perfbench/results/tier1.json

It runs the Tier-1 command from ROADMAP.md with ``--durations=10`` added and
the pytest cache disabled, and prints (or writes) one JSON record with the
machine record, the suite's wall time and the slowest test phases.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMMAND = [
    sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
    "--durations=10", "-p", "no:cacheprovider",
]
DURATION = re.compile(r"^([0-9.]+)s (call|setup|teardown)\s+(\S+)$")
SUMMARY = re.compile(r"(\d+ (?:passed|failed).*?) in ([0-9.]+)s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="also write the record to this path")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import context

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    done = subprocess.run(COMMAND, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=1800)
    wall_s = time.perf_counter() - start
    slowest, summary, reported_s = [], None, None
    for line in done.stdout.splitlines():
        match = DURATION.match(line.strip())
        if match:
            slowest.append({"seconds": float(match[1]), "phase": match[2], "test": match[3]})
        match = SUMMARY.search(line)
        if match:
            summary, reported_s = match[1], float(match[2])
    record = {
        "machine": context.machine(),
        "command": ["python", "-m", "pytest", *COMMAND[3:]],
        "exit_code": done.returncode,
        "summary": summary,
        "pytest_reported_s": reported_s,
        "wall_s": wall_s,
        "slowest": slowest,
    }
    text = json.dumps(record, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
