"""Suite-wide pytest hooks.

The report header names the hardware and the BLAS the suite ran on, so
that wall times from different runs can be compared or told apart.
"""

import os

import numpy as np


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def pytest_report_header(config):
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count())
    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}"
                        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return [
        f"cpus: {os.cpu_count()} ({usable} usable); numpy {np.__version__}; "
        f"blas: {_blas()}",
        f"threads: {threads}",
    ]
