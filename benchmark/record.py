"""Run record: the environment a benchmark run measured in.

`pin_blas()` must run before numpy is first imported; everything else here
may import numpy.
"""
from __future__ import annotations

import os
import platform
import statistics
import sys
import time

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_blas() -> dict:
    """Ask every common BLAS for one thread; return the variables as found."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas() must run before numpy is imported")
    before = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    for key in BLAS_THREAD_VARS:
        os.environ[key] = "1"
    return before


def _process_threads() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _openblas_threads() -> int | None:
    """openblas_get_num_threads() of the OpenBLAS this process mapped, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fp:
            paths = {
                line.split()[-1]
                for line in fp
                if "openblas" in line.lower() and ".so" in line.split()[-1]
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def check_pinning() -> dict:
    """Whether BLAS really runs on one thread.

    Two checks that need no threadpoolctl: after a matrix product large
    enough for OpenBLAS to split, the process must still have one OS thread
    (/proc/self/task), and the loaded OpenBLAS must report one thread from
    openblas_get_num_threads() through ctypes.
    """
    import numpy as np

    a = np.ones((512, 512))
    float((a @ a).sum())
    threads = _process_threads()
    blas = _openblas_threads()
    pinned = threads == 1 and blas in (None, 1)
    return {
        "pinned": pinned,
        "process_threads_after_matmul": threads,
        "openblas_get_num_threads": blas,
        "method": "count of /proc/self/task after a 512x512 matmul; "
        "openblas_get_num_threads() via ctypes on the mapped library",
    }


def probe_host(reps: int = 5) -> dict:
    """Fixed reference loop: median and min ms of `reps` timings.

    Taken before and after the timed window; a slowed host shows as a
    larger figure here for the same fixed work.
    """
    import numpy as np

    m = np.arange(64 * 64, dtype=float).reshape(64, 64) / 4096.0
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        x = m
        for _ in range(200):
            x = np.tanh(x @ m)
        times.append((time.perf_counter() - t0) * 1e3)
    return {"median_ms": statistics.median(times), "min_ms": min(times), "reps": reps}


def run_record(workload: str, seed: int, seconds: int, trace: bool, env_before: dict) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_env_before": env_before,
        "blas_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "blas_pinning": check_pinning(),
    }
