"""How a benchmark run was produced: interpreter, numpy, BLAS, cores, commit.

``PIN_VARS`` must be set before numpy is first imported; ``run.py`` does
that, and this module reports whether the BLAS library obeyed.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform

PIN_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Thread-count getters exported by the OpenBLAS builds numpy ships with.
_OPENBLAS_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def _loaded_openblas() -> str | None:
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower() and ".so" in path:
                    return path
    except OSError:
        return None
    return None


def blas_threads() -> dict:
    """Ask the loaded OpenBLAS how many threads it will use."""
    path = _loaded_openblas()
    if path is None:
        return {"library": None, "threads": None}
    lib = ctypes.CDLL(path)
    for getter in _OPENBLAS_GETTERS:
        fn = getattr(lib, getter, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return {"library": os.path.basename(path), "threads": int(fn())}
    return {"library": os.path.basename(path), "threads": None}


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def describe(root: str, workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas_build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas_build.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": blas,
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_pinning": {
            "method": "thread-count environment variables set before numpy is imported",
            "env": {var: os.environ.get(var) for var in PIN_VARS},
            "threadpoolctl_present": importlib.util.find_spec("threadpoolctl") is not None,
            "blas_reports": blas_threads(),
        },
    }
