"""FLOP/energy cost models, confidence intervals, and benchmark metrics."""

from __future__ import annotations

import contextlib
import copy
import ctypes
import functools
import logging
import math
import os
import platform
import subprocess
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, check_types

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EnergyParams:
    """Activity-capacitance energy model parameters.

    The defaults (alpha 0.1, 1 nF, 1.2 V, 2 GHz) are illustrative desk-scale
    values for a CPU-class device; every report labels energies derived from
    them as model-based, not measured.
    """

    activity_factor: float = 0.1
    capacitance_f: float = 1e-9
    voltage_v: float = 1.2
    frequency_hz: float = 2e9

    def __post_init__(self):
        check_types(self, "energy")
        for name, v in self.__dict__.items():
            if v <= 0:
                raise ConfigError(f"{name} must be positive, got {v}")
        if self.activity_factor > 1:
            raise ConfigError("activity factor cannot exceed 1")


def attention_complexity(t: int, d: int) -> int:
    """Self-attention operation count for sequence length t, width d: t^2 d + t d^2."""
    if t < 1 or d < 1:
        raise InputError("t and d must be >= 1")
    return t * t * d + t * d * d


def energy_model(params: EnergyParams, exec_time_s: float) -> float:
    """Dynamic power energy: alpha * C * V^2 * f * T (joules)."""
    if exec_time_s < 0:
        raise InputError("execution time must be nonnegative")
    return (
        params.activity_factor
        * params.capacitance_f
        * params.voltage_v**2
        * params.frequency_hz
        * exec_time_s
    )


@dataclass(frozen=True)
class RunStats:
    """Mean with a 95% confidence half-width (1.96 * s / sqrt(n)).

    A report's ``inference_ms`` also carries ``iqr_ms``: the interquartile
    range of each run's timed samples, averaged over the runs.
    """

    n: int
    mean: float
    std: float
    ci95_half: float
    iqr_ms: float | None = None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def ci95(samples) -> RunStats:
    """Sample mean, sample (n-1) standard deviation, and 95% CI half-width."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise InputError("need at least one sample")
    mean = float(arr.mean())
    if arr.size == 1:
        return RunStats(n=1, mean=mean, std=0.0, ci95_half=0.0)
    std = float(arr.std(ddof=1))
    return RunStats(
        n=int(arr.size),
        mean=mean,
        std=std,
        ci95_half=1.96 * std / math.sqrt(arr.size),
    )


def speedup(baseline_time: float, optimized_time: float) -> float:
    """Wall-time ratio baseline / optimized."""
    if baseline_time <= 0 or optimized_time <= 0:
        raise InputError("times must be positive")
    return baseline_time / optimized_time


def energy_saving_pct(energy_base_j: float, energy_opt_j: float) -> float:
    """Percent reduction relative to the baseline energy."""
    if energy_base_j <= 0:
        raise InputError("baseline energy must be positive")
    return 100.0 * (energy_base_j - energy_opt_j) / energy_base_j


def efficiency_score(
    flops_g: float,
    energy_j: float,
    accuracy: float,
    accuracy_base: float,
) -> tuple[float, float, float]:
    """(energy efficiency GFLOPS/J, accuracy retention %, overall EE x AR)."""
    if energy_j <= 0:
        raise InputError("energy must be positive")
    if accuracy_base <= 0:
        raise InputError("baseline accuracy must be positive")
    ee = flops_g / energy_j
    ar = 100.0 * accuracy / accuracy_base
    return ee, ar, ee * ar


def round_sig(x: float) -> float:
    """Round to 4 significant digits (report formatting)."""
    if x == 0 or not math.isfinite(x):
        return x
    return round(x, 3 - int(math.floor(math.log10(abs(x)))))


# Fields of a MetricsReport whose values depend on wall-clock measurements.
# Determinism checks compare reports with these removed.
TIME_DERIVED_FIELDS = (
    "inference_ms",
    "measured_energy_j",
    "modeled_energy_j",
    "speedup",
    "energy_saving_pct",
    "ee_gflops_per_j",
    "overall_score",
    "stage_seconds",
)


# Thread-count variables that BLAS libraries read when they load; the environment
# block records them.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
)


def _git_commit() -> str | None:
    """HEAD of the git work tree that holds this very module, so a copy installed
    inside another project's work tree records no commit of that project."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10, check=True,
        )
        top, commit = done.stdout.splitlines()
        if os.path.samefile(os.path.join(top, "src", "tsfo", "metrics.py"), __file__):
            return commit
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return None


def _loaded_openblas():
    """The OpenBLAS this process has loaded (numpy's own, for one), as a ctypes
    library found in the process's memory map; None without one or a map."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        if ".so" in os.path.basename(path):
            return ctypes.CDLL(path)
    return None


@functools.cache
def _openblas_threads() -> tuple | None:
    """(set, get) of the loaded OpenBLAS's thread count, under the names its
    builds export (numpy's wheels prefix "scipy_" and suffix "64_"), or None."""
    lib = _loaded_openblas()
    for name in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            setter = getattr(lib, f"{name}_set_num_threads{suffix}", None)
            getter = getattr(lib, f"{name}_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


@functools.cache
def _warn_unpinned() -> None:
    log.warning(
        "BLAS is not held to one thread (no OpenBLAS thread-count setter, or the count "
        "read back is not 1), so inference timings do not follow the single-thread protocol"
    )


@contextlib.contextmanager
def single_thread():
    """The one way a timed region holds BLAS to one thread: it sets the loaded
    OpenBLAS to 1 through its own setter, yields the count read back inside
    the region and restores the previous count on exit, also on an error.
    Without the setter it yields None. A count other than 1 logs one warning
    per process that timings are not pinned."""
    calls = _openblas_threads()
    if calls is None:
        _warn_unpinned()
        yield None
        return
    set_threads, get_threads = calls
    previous = get_threads()
    set_threads(1)
    try:
        threads = get_threads()
        if threads != 1:
            _warn_unpinned()
        yield threads
    finally:
        set_threads(previous)


@functools.cache
def _environment() -> dict:
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": build.get("name"), "version": build.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = {"name": None, "version": None}
    with single_thread() as threads:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "blas_threads_pinned": threads == 1,
        "blas_threads": threads,
        "thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS if var in os.environ},
        "git_commit": _git_commit(),
    }


def environment() -> dict:
    """How this process measures: Python, numpy and BLAS builds, cores, the
    OpenBLAS thread count read back inside a ``single_thread`` region
    (``blas_threads``, None without the setter) and whether that count is 1
    (``blas_threads_pinned``), the thread-count variables set, and the git
    commit of the work tree that holds this source, when there is one.
    Computed once per process."""
    return copy.deepcopy(_environment())


@dataclass
class MetricsReport:
    """Per-configuration benchmark outcome.

    ``modeled_energy_j`` is the baseline's activity-capacitance energy with
    the closed-form pruning/quantization factors applied; it is an estimate,
    not a measurement. ``measured_energy_j`` applies the same energy model to
    this configuration's own measured wall time. The two are reported side by
    side and are not forced to agree. ``stage_seconds`` holds the wall time
    of each stage that produced the row's model (train, calibrate, quantize,
    prune, fine_tune), averaged over runs.
    """

    configuration: str
    accuracy_pct: float
    accuracy_ci_half: float
    accuracy_drop_pct: float
    inference_ms: RunStats
    modeled_energy_j: float
    measured_energy_j: float
    memory_mb: float
    flops_g: float
    speedup: float
    energy_saving_pct: float
    ee_gflops_per_j: float
    accuracy_retention_pct: float
    overall_score: float
    params: int = 0
    sparsity: float = 0.0
    stage_seconds: dict[str, float] = field(default_factory=dict)

    PROVENANCE = {
        "accuracy_pct": "measured",
        "accuracy_drop_pct": "measured",
        "inference_ms": "measured",
        "modeled_energy_j": "modeled",
        "measured_energy_j": "modeled from measured time",
        "memory_mb": "measured",
        "flops_g": "modeled",
        "speedup": "measured",
        "energy_saving_pct": "modeled from measured time",
        "ee_gflops_per_j": "modeled from measured time",
        "accuracy_retention_pct": "measured",
        "overall_score": "modeled from measured time",
        "stage_seconds": "measured",
    }

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["inference_ms"] = self.inference_ms.to_dict()
        out["stage_seconds"] = dict(self.stage_seconds)
        out["overall_score"] = round_sig(self.overall_score)
        out["provenance"] = {**self.PROVENANCE, "environment": environment()}
        return out
