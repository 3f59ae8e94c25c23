"""What ``import groversvm`` loads, checked in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import groversvm


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random lazily; the package must not pull it in at
    # import time, since every command pays for its import.
    src = str(Path(groversvm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, groversvm; print('numpy' in sys.modules, 'numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["True", "False"]
