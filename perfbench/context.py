"""Machine and context record printed with every run (read-only probes of the host)."""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np

import probe

CACHE_DIR = "/sys/devices/system/cpu/cpu{}/cache"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _size_bytes(text: str) -> int:
    text = text.strip()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def _caches(cpus: list) -> dict:
    """Total bytes of each unified or data cache level over the CPUs this process may use."""
    seen, totals = set(), {}
    for cpu in cpus:
        for index in glob.glob(os.path.join(CACHE_DIR.format(cpu), "index*")):
            try:
                with open(os.path.join(index, "level")) as handle:
                    level = handle.read().strip()
                with open(os.path.join(index, "type")) as handle:
                    kind = handle.read().strip()
                with open(os.path.join(index, "size")) as handle:
                    size = _size_bytes(handle.read())
                with open(os.path.join(index, "shared_cpu_list")) as handle:
                    shared = handle.read().strip()
            except OSError:
                continue
            if kind == "Instruction" or (level, shared) in seen:
                continue
            seen.add((level, shared))
            totals[f"L{level}_bytes"] = totals.get(f"L{level}_bytes", 0) + size
    return totals


def _blas_threads():
    """Thread count OpenBLAS reports, or None when numpy's OpenBLAS cannot be queried."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    cpus = sorted(os.sched_getaffinity(0))
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(cpus),
        **_caches(cpus),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
    }


def record(workload, seed: int) -> dict:
    """Machine record plus the workload's seed and its state size against total L2."""
    host = machine()
    l2 = host.get("L2_bytes", 0)
    return {
        **host,
        "workload": workload.name,
        "seed": seed,
        "state_bytes": workload.state_bytes,
        "state_over_l2": workload.state_bytes / l2 if l2 else None,
        "ops_per_byte_computed": probe.ops_per_byte_computed(),
    }
