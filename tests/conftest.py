"""Suite-wide pytest hooks.

The report header names the hardware, its L2 and L3 cache sizes and the
BLAS the suite ran on, so that wall times from different runs can be
compared or told apart.
"""

import os
from pathlib import Path

import numpy as np

CPU0_CACHES = Path("/sys/devices/system/cpu/cpu0/cache")


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _cache_sizes() -> str:
    """CPU 0's unified L2 and L3 sizes as the kernel reports them, or
    "unknown" for a level it does not list."""
    sizes = {}
    for index in sorted(CPU0_CACHES.glob("index*")):
        try:
            level, kind, size = ((index / name).read_text().strip()
                                 for name in ("level", "type", "size"))
        except OSError:
            continue
        if kind == "Unified":
            sizes[level] = size
    return ", ".join(f"L{level} {sizes.get(level, 'unknown')}" for level in ("2", "3"))


def pytest_report_header(config):
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count())
    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}"
                        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return [
        f"cpus: {os.cpu_count()} ({usable} usable); numpy {np.__version__}; "
        f"blas: {_blas()}",
        f"threads: {threads}; cache: {_cache_sizes()}",
    ]
