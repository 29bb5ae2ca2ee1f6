"""The benchmark's three closed-loop workloads.

Every workload serves the same four variants of one model, so every
workload reports the same metric names:

- ``f32``: the float32 model, randomly initialised from the seed;
- ``int8s``: static int8, calibrated on benchmark-generated series;
- ``int8d``: dynamic int8;
- ``pruned``: L2 structured pruning, FFN neurons then attention heads,
  40% per layer.

A request goes to one variant. ``single-t1`` sends one T1 instance per
request and ``batch-t2`` a batch of 64 T2 instances. ``study-t1`` runs one
``bench.run_experiment`` study per request: the study trains a T1 baseline
and applies the compression pipelines of that variant.

Requests call the program through module attributes (``model.forward``
rather than an imported ``forward``), so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys

import numpy as np

import oracle
from tsfo import bench, metrics, model, pruning, quantization, serialize
from tsfo import data as tsdata

VARIANTS = ("f32", "int8s", "int8d", "pruned")
SEQ_LEN = 192
NUM_CLASSES = 4
PRUNE_SPARSITY = 0.4
CALIBRATION_INSTANCES = 64

# Largest logit error per instance, as a share of the reference's largest
# logit. Float variants match the float64 reference to about 5e-7. Int8
# variants differ where a float32 activation lands on the other side of a
# rounding boundary than its float64 counterpart; the flip propagates, so
# single instances reach a few percent (up to 5% seen on T2).
TOLERANCE = {"f32": 1e-5, "pruned": 1e-5, "int8s": 0.15, "int8d": 0.15}
# Those flips are rare per instance, so the median error over a run stays
# near float precision. Dynamic int8 on a batch is excluded: one flip in a
# batch-wide scale moves every instance of the batch.
MEDIAN_TOLERANCE = 1e-3


def synth_series(rng: np.random.Generator, n: int, length: int = SEQ_LEN) -> np.ndarray:
    """Device-like [n, 1, length] series: noisy square waves.

    Period, duty cycle, phase and level are drawn per series.
    """
    t = np.arange(length)
    period = rng.integers(8, length // 2, size=(n, 1))
    duty = rng.uniform(0.2, 0.8, size=(n, 1))
    phase = rng.integers(0, length, size=(n, 1))
    level = rng.uniform(0.3, 1.0, size=(n, 1))
    wave = np.where(((t + phase) % period) < duty * period, level, 0.05)
    wave = wave + rng.normal(0.0, 0.05, size=(n, length))
    return wave.astype(np.float32)[:, None, :]


class InferenceWorkload:
    """Inference requests at a fixed batch size against one preset."""

    def __init__(self, preset: str, batch: int, pool_requests: int):
        self.preset = preset
        self.batch = batch
        self.pool_requests = pool_requests

    def make_inputs(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 0])
        self.calibration = synth_series(rng, CALIBRATION_INSTANCES)
        pool = synth_series(rng, self.pool_requests * self.batch)
        self.pool = pool.reshape(self.pool_requests, self.batch, 1, SEQ_LEN)

    def pick(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.pool_requests))

    def setup(self, seed: int, tmp_dir: str) -> dict:
        """Build, calibrate, quantize, prune, then serve from a save/load round trip."""
        cfg = model.preset_config(self.preset, seq_len=SEQ_LEN, num_classes=NUM_CLASSES)
        base = model.build_model(cfg, seed)
        observers = quantization.calibrate(base, self.calibration)
        pruned = base
        for granularity in ("neuron", "head"):
            spec = pruning.PruneSpec("l2", granularity, "layerwise", PRUNE_SPARSITY)
            pruned, _ = pruning.prune_structured(pruned, spec)
        built = {
            "f32": base,
            "int8s": quantization.quantize_static(base, observers),
            "int8d": quantization.quantize_dynamic(base),
            "pruned": pruned,
        }
        served = {}
        for variant, obj in built.items():
            path = os.path.join(tmp_dir, f"{variant}.tsfo")
            if isinstance(obj, quantization.QuantizedModel):
                serialize.save_quantized(obj, path)
            else:
                serialize.save_model(obj, path)
            served[variant] = serialize.load(path)
        return served

    def prepare_oracle(self, served: dict) -> None:
        """Reference logits for every pooled request, from the served objects.

        They are computed in a child process, so that the float64
        oracle's memory does not count in ``peak_rss_mb``.
        """
        jobs = {}
        for variant, obj in served.items():
            cfg = obj.config
            job = {"geometry": (cfg.patch_size, cfg.patch_stride, cfg.head_dim)}
            if isinstance(obj, quantization.QuantizedModel):
                job["weights"] = {
                    name: (q.data, q.scale, q.zero_point, q.channel_axis)
                    for name, q in obj.weights.items()
                }
                job["mode"] = obj.mode
                job["act_qparams"] = obj.act_qparams
            else:
                job["params"] = obj.params
            jobs[variant] = job
        done = subprocess.run(
            [sys.executable, oracle.__file__],
            input=pickle.dumps((jobs, self.pool, self.batch == 1)),
            capture_output=True,
            check=True,
        )
        self.expected = pickle.loads(done.stdout)
        self.errors = {v: [] for v in served}

    def request(self, served: dict, variant: str, i: int):
        obj = served[variant]
        xs = self.pool[i]
        if self.batch == 1:
            if isinstance(obj, quantization.QuantizedModel):
                return quantization.quantized_forward(obj, xs[0]), 1
            return model.forward(obj, xs[0]), 1
        if isinstance(obj, quantization.QuantizedModel):
            return quantization.quantized_forward_batch(obj, xs), self.batch
        return model.forward_batch(obj, xs), self.batch

    def check(self, variant: str, i: int, out) -> bool:
        ref = self.expected[variant][i]
        bad = oracle.mismatches(out, ref, TOLERANCE[variant])
        if np.all(np.isfinite(out)):
            self.errors[variant].extend(oracle.instance_errors(out, ref).tolist())
        return bad == 0

    def final_checks(self) -> dict:
        """Median per-instance error of each variant, and whether it passes."""
        out = {}
        for variant, errs in self.errors.items():
            median = float(np.median(errs)) if errs else math.nan
            gated = variant != "int8d" or self.batch == 1
            limit = MEDIAN_TOLERANCE if gated else TOLERANCE[variant]
            out[variant] = {
                "median_rel_error": median,
                "max_rel_error": float(np.max(errs)) if errs else math.nan,
                "median_limit": limit,
                "ok": bool(errs) and median <= limit,
            }
        return out


# Each variant's study applies the pipelines that produce that kind of
# model, so one shuffled round of four studies covers all five single-op
# pipelines of the paper once.
STUDY_PIPELINES = {
    "f32": [],
    "int8s": [["static-quant"], ["qat"]],
    "int8d": [["dynamic-quant"]],
    "pruned": [["l1-prune"], ["l2-prune"]],
}
STUDY_CLASSES = 3
STUDY_PER_CLASS = 12
STUDY_EPOCHS = 3


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    return True


class StudyWorkload:
    """Repeated one-run studies of a synthetic dataset on T1."""

    def make_inputs(self, seed: int) -> None:
        """Nothing to do: set-up synthesizes the dataset from the seed."""

    def pick(self, rng: np.random.Generator) -> int:
        return 0

    def setup(self, seed: int, tmp_dir: str) -> dict:
        """Synthesize the dataset, save it, load it back, and build the configs."""
        dataset = tsdata.synth_generate(STUDY_CLASSES, STUDY_PER_CLASS, SEQ_LEN, 0.05, seed)
        path = os.path.join(tmp_dir, "study.tsfo")
        serialize.save_dataset(dataset, path)
        loaded = serialize.load(path)
        if not (
            np.array_equal(loaded.instances, dataset.instances)
            and np.array_equal(loaded.labels, dataset.labels)
        ):
            raise RuntimeError("dataset save/load round trip changed the data")
        self.instances = len(loaded)
        return {
            variant: bench.ExperimentConfig(
                dataset_path=path,
                preset="T1",
                optimizations=pipelines,
                runs=1,
                seed=seed,
                epochs=STUDY_EPOCHS,
                fine_tune_epochs=1,
                calibration_size=16,
            )
            for variant, pipelines in STUDY_PIPELINES.items()
        }

    def prepare_oracle(self, served: dict) -> None:
        self.first = {}

    def request(self, served: dict, variant: str, i: int):
        return bench.run_experiment(served[variant]), self.instances

    def check(self, variant: str, i: int, reports) -> bool:
        """Finite fields, and non-time fields equal to this variant's first study."""
        rows = [r.to_dict() for r in reports]
        if not all(_finite(row) for row in rows):
            return False
        for row in rows:
            for field in metrics.TIME_DERIVED_FIELDS:
                row.pop(field, None)
        first = self.first.setdefault(variant, rows)
        return rows == first

    def final_checks(self) -> dict:
        return {}


WORKLOADS = {
    "single-t1": lambda: InferenceWorkload("T1", batch=1, pool_requests=128),
    "batch-t2": lambda: InferenceWorkload("T2", batch=64, pool_requests=6),
    "study-t1": StudyWorkload,
}
