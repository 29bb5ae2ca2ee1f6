"""Experiment runner: train, compress, measure, and aggregate into reports.

The timing protocol is fixed: per configuration, 10 warm-up inferences are
followed by at least 100 timed single-instance inferences pinned to one BLAS
thread, and the median is taken. The baseline and its optimized variants are
timed in the same process, taking turns on every instance, so speed-up ratios
compare like with like even when the host changes speed.
Runs execute sequentially; per-configuration statistics aggregate across
runs as mean with a 95% confidence half-width.
The dataset is split once (``data.subject_wise_split``): training, fine-tuning
and calibration read the train side, and every report row is scored and timed
on the test side.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import time
from collections import defaultdict
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from .data import (
    SynthSpec,
    TimeSeriesDataset,
    check_train_fraction,
    normalize_dataset,
    subject_wise_split,
    synth_generate,
)
from .errors import FIELD_TYPES, ConfigError, InputError, ParseError, check_types
from .metrics import (
    EnergyParams,
    MetricsReport,
    RunStats,
    ci95,
    efficiency_score,
    energy_model,
    energy_saving_pct,
    single_thread,
    speedup as speedup_ratio,
)
from .model import (
    ModelConfig,
    TransformerModel,
    build_model,
    count_flops,
    count_params,
    forward,
    preset_config,
)
from .pruning import (
    PruneSpec,
    prunable_pools,
    prune_structured,
    prune_unstructured,
    pruned_energy_estimate,
    sparsity as model_sparsity,
)
from .quantization import (
    QuantizedModel,
    calibrate,
    payload_bytes,
    quantize_dynamic,
    quantize_static,
    quantized_energy_estimate,
    quantized_forward,
)
from .serialize import load_any_dataset
from .tensor import dequantize_linear
from .training import FINE_TUNE_LR, TrainConfig, evaluate, fit

KNOWN_OPS = ("static-quant", "dynamic-quant", "l1-prune", "l2-prune", "qat")
# the ops that leave an int8 model, after which only l1-prune may run
QUANT_OPS = ("static-quant", "dynamic-quant", "qat")
WARMUP_INFERENCES = 10  # untimed, before the timed ones, per the protocol
# the stages a row's ``stage_seconds`` can hold; the CSV report has a column for each
STAGES = ("train", "calibrate", "quantize", "prune", "fine_tune")
# the model dimensions the data gives, which no model block may give
_DATA_DIMS = ("seq_len", "in_channels", "num_classes")


@functools.cache
def _block_fields(build, leave_out) -> dict:
    """{name: required} of each argument of ``build`` but those in ``leave_out``;
    required when it has no default."""
    return {name: arg.default is arg.empty
            for name, arg in inspect.signature(build).parameters.items() if name not in leave_out}


def _checked(block: str, given, build, leave_out=()) -> dict:
    """``given``, once it is checked as a JSON block of the arguments of ``build``, a
    config dataclass or function, but those in ``leave_out``: an object with no
    unknown key that holds every argument without a default. ``build`` checks
    the values."""
    own = _block_fields(build, leave_out)
    if not isinstance(given, dict):
        raise ConfigError(f"{block} must be a JSON object, got {type(given).__name__}")
    unknown = given.keys() - own.keys()
    missing = [name for name, required in own.items() if required and name not in given]
    if unknown or missing:
        raise ConfigError(f"unknown {block} key {min(unknown)!r} (choose from {sorted(own)})"
                          if unknown else f"{block} is missing key {missing[0]!r}")
    return given


@dataclass
class ExperimentConfig:
    dataset_path: str | None = None
    synth: SynthSpec | dict | None = None  # a dict becomes a SynthSpec
    preset: str = "T1"
    model: dict | None = None            # ModelConfig fields; a preset's, only its patching
    optimizations: list[list[str]] = field(
        default_factory=lambda: [["static-quant"], ["dynamic-quant"], ["l1-prune"], ["l2-prune"]]
    )
    sparsity: float = 0.4
    runs: int = 5                        # per-config repetitions for the CIs
    seed: int = 0
    out_dir: str = "results"
    energy: EnergyParams | dict = EnergyParams()
    epochs: int = 30
    fine_tune_epochs: int = 5
    batch_size: int = 32
    train_fraction: float = 0.7
    calibration_size: int = 64
    timed_inferences: int = 100

    def __post_init__(self):
        check_types(self, "config")
        for name, least in (("runs", 1), ("calibration_size", 1), ("fine_tune_epochs", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        # the rules of training, sparsity and the split live where they are applied
        TrainConfig(epochs=self.epochs, batch_size=self.batch_size, seed=self.seed)
        PruneSpec(sparsity=self.sparsity)
        check_train_fraction(self.train_fraction)
        if self.dataset_path is None and self.synth is None:
            raise ConfigError("need a dataset path or a synth spec")
        for i, pipeline in enumerate(self.optimizations):
            if not pipeline or pipeline in self.optimizations[:i]:  # rows are keyed by name
                raise ConfigError(f"pipeline {pipeline} is {'listed twice' if pipeline else 'empty'}")
            quantized = False
            for op in pipeline:
                if op not in KNOWN_OPS:
                    raise ConfigError(f"unknown optimization {op!r} (choose from {KNOWN_OPS})")
                if quantized and op != "l1-prune":  # later ops are not checked yet
                    raise ConfigError(f"{op} cannot follow quantization in pipeline "
                                      f"{'+'.join(map(str, pipeline))}: only l1-prune can")
                quantized = quantized or op in QUANT_OPS
        if self.timed_inferences < 100:
            raise ConfigError("timing protocol requires at least 100 timed inferences")
        if isinstance(self.synth, dict):  # the block's seed defaults to the study's
            self.synth = SynthSpec(**_checked("synth", {"seed": self.seed, **self.synth}, SynthSpec))
        if isinstance(self.energy, dict):
            self.energy = EnergyParams(**_checked("energy", self.energy, EnergyParams))
        _model_config(self)  # every model rule but "patch longer than the series"


def experiment_config(raw: dict) -> ExperimentConfig:
    """An ExperimentConfig from a JSON mapping, every key of it checked.

    Besides the fields of ``ExperimentConfig``, ``dataset`` takes a path or a
    synth spec (bare or as ``{"synth": {...}}``) and ``out`` the output
    directory. An unknown or missing key in any block, or a value of the
    wrong type or range, is a ConfigError that names the key, raised before
    any data is read (``ExperimentConfig`` checks every block itself).
    """
    if isinstance(raw, dict):
        raw = dict(raw)
        if "dataset" in raw:
            dataset = raw.pop("dataset")
            if isinstance(dataset, dict):
                raw["synth"] = dataset.get("synth", dataset)
            else:
                raw["dataset_path"] = dataset
        if "out" in raw:
            raw["out_dir"] = raw.pop("out")
    return ExperimentConfig(**_checked("config", raw, ExperimentConfig))


def _load_experiment_dataset(config: ExperimentConfig) -> TimeSeriesDataset:
    """The study's dataset, min-max normalized whether a file or a synth block names it."""
    if config.dataset_path is not None:
        dataset = load_any_dataset(config.dataset_path)
    else:  # a SynthSpec holds synth_generate's arguments in its order
        dataset = synth_generate(*astuple(config.synth))
    return normalize_dataset(dataset)


def _model_config(
    config: ExperimentConfig, dataset: TimeSeriesDataset | None = None
) -> ModelConfig:
    """The study's ``ModelConfig`` for ``dataset``'s dimensions or, without one, for
    stand-ins (the synth length, else the shortest series the block's patch allows;
    one channel, two classes), so that every model rule but "patch longer than the
    series" is checked before any data is read."""
    custom = config.preset == "custom"
    # a custom block gives ModelConfig's fields, a preset's the patching of preset_config
    block = _checked("model", config.model or {}, ModelConfig if custom else preset_config,
                     leave_out=_DATA_DIMS if custom else ("name", *_DATA_DIMS))
    if dataset is None:
        seq_len = config.synth.length if config.dataset_path is None else block.get("patch_size") or 8
        dims = dict(seq_len=seq_len, in_channels=1, num_classes=2)
    else:
        dims = dict(seq_len=dataset.seq_len, in_channels=dataset.channels,
                    num_classes=dataset.num_classes)
    if custom:
        return ModelConfig(**dims, **block)
    return preset_config(config.preset, **dims, **block)


def calibration_rows(dataset: TimeSeriesDataset, size: int) -> np.ndarray:
    """Up to ``size`` instances at evenly spaced rows of ``dataset``.

    Spreading them over the rows, not taking the first ones, lets a
    class-ordered dataset calibrate on every class.
    """
    n = len(dataset)
    return dataset.instances[np.linspace(0, n - 1, min(size, n)).round().astype(np.int64)]


def measure_inference_seconds(
    forward_fns: list,
    instances: np.ndarray,
    timed: int = 100,
) -> list[tuple[float, float]]:
    """(median, interquartile range) of each forward's single-instance latency
    under the fixed timing protocol.

    The forwards take turns on every instance, so a change of host speed
    (some VMs switch speed for seconds at a time) falls on all of them alike
    and cannot flip their ratios.
    """
    n = len(instances)
    samples = np.empty((len(forward_fns), timed))
    with single_thread():
        for i in range(WARMUP_INFERENCES):
            for forward_fn in forward_fns:
                forward_fn(instances[i % n])
        for i in range(timed):
            x = instances[i % n]
            for j, forward_fn in enumerate(forward_fns):
                t0 = time.perf_counter()
                forward_fn(x)
                samples[j, i] = time.perf_counter() - t0
    q1, median, q3 = np.percentile(samples, [25, 50, 75], axis=1)
    return [(float(m), float(hi - lo)) for lo, m, hi in zip(q1, median, q3)]


def _forward_fn(model_or_q):
    run = quantized_forward if isinstance(model_or_q, QuantizedModel) else forward
    return lambda x: run(model_or_q, x)


def _prune_quantized(qmodel: QuantizedModel, spec: PruneSpec) -> tuple[QuantizedModel, int]:
    """Zero the int8 weights that ``prune_unstructured`` prunes in the
    dequantized model; no fine-tuning is possible after quantization.

    Returns a new model built from payload copies holding the pruned shadow's
    zeros (the input is left as it was) and the number of weights removed.
    """
    shadow = TransformerModel(
        config=qmodel.config,
        params={name: dequantize_linear(q) for name, q in qmodel.weights.items()},
    )
    shadow, report = prune_unstructured(shadow, spec)
    weights = dict(qmodel.weights)
    for name in prunable_pools(shadow):
        weights[name] = replace(weights[name], data=weights[name].data * (shadow.params[name] != 0))
    return replace(qmodel, weights=weights), report.params_removed


def _sparsity(model_or_q) -> float:
    """Zero fraction over the prunable pools, as ``pruning.sparsity`` counts it.

    A quantized model is counted on its int8 payloads, so weights that round
    to zero count as well as pruned ones.
    """
    if isinstance(model_or_q, QuantizedModel):
        model_or_q = TransformerModel(
            config=model_or_q.config,
            params={name: q.data for name, q in model_or_q.weights.items()},
        )
    return model_sparsity(model_or_q)


@contextlib.contextmanager
def _stage(stages: dict, name: str):
    """Add the wall time of the ``with`` body to ``stages[name]``."""
    start = time.perf_counter()
    yield
    stages[name] += time.perf_counter() - start


def _apply_pipeline(
    pipeline: list[str],
    baseline: TransformerModel,
    train_ds: TimeSeriesDataset,
    config: ExperimentConfig,
    run_seed: int,
):
    """Apply optimizations in order; returns (model or qmodel, energy factor,
    seconds spent in each stage)."""
    current = baseline.copy()
    energy_factor = 1.0
    stages: dict[str, float] = defaultdict(float)
    base_params = count_params(baseline.config)
    calib = calibration_rows(train_ds, config.calibration_size)
    ft_cfg = TrainConfig(epochs=config.fine_tune_epochs, batch_size=config.batch_size,
                         lr_max=FINE_TUNE_LR, seed=run_seed + 1)

    for op in pipeline:
        if op in QUANT_OPS:  # ExperimentConfig lets only l1-prune follow these
            if op == "qat":  # quantization-aware fine-tuning, then static int8
                with _stage(stages, "fine_tune"):
                    current = fit(current, train_ds, ft_cfg, weight_fake_quant=True)
            if op == "dynamic-quant":
                with _stage(stages, "quantize"):
                    current = quantize_dynamic(current)
            else:
                with _stage(stages, "calibrate"):
                    observers = calibrate(current, calib)
                with _stage(stages, "quantize"):
                    current = quantize_static(current, observers)
            energy_factor = quantized_energy_estimate(energy_factor)
        elif op == "l1-prune":
            spec = PruneSpec("l1", "weight", "global", config.sparsity)
            if isinstance(current, QuantizedModel):
                with _stage(stages, "prune"):
                    current, removed = _prune_quantized(current, spec)
            else:
                current, report = prune_unstructured(current, spec)
                stages["prune"] += report.transform_seconds
                removed = report.params_removed
                with _stage(stages, "fine_tune"):
                    current = fit(current, train_ds, ft_cfg)
            energy_factor = pruned_energy_estimate(energy_factor, removed / base_params)
        else:  # l2-prune
            for granularity in ("neuron", "head"):
                spec = PruneSpec("l2", granularity, "layerwise", config.sparsity)
                current, report = prune_structured(current, spec)
                stages["prune"] += report.transform_seconds
            removed = base_params - count_params(current.config)
            energy_factor = pruned_energy_estimate(energy_factor, removed / base_params)
            with _stage(stages, "fine_tune"):
                current = fit(current, train_ds, ft_cfg)
    if isinstance(current, QuantizedModel):
        with _stage(stages, "quantize"):  # not in the untimed warm-up inference
            current.compile()
    return current, energy_factor, stages


def _mean(runs: list[dict], key: str) -> float:
    """The mean over runs of one field of a row's per-run records."""
    return float(np.mean([run[key] for run in runs]))


def run_experiment(config: ExperimentConfig) -> list[MetricsReport]:
    """Train, optimize, and measure every configured pipeline.

    Returns one report per configuration ("baseline" plus one per pipeline),
    aggregated over ``config.runs`` repetitions with 95% CIs.
    """
    dataset = _load_experiment_dataset(config)
    train_ds, test_ds = subject_wise_split(dataset, config.train_fraction, config.seed)
    mcfg = _model_config(config, dataset)

    names = ["baseline"] + ["+".join(p) for p in config.optimizations]
    records: dict[str, list[dict]] = {name: [] for name in names}  # one per run
    for run in range(config.runs):
        run_seed = config.seed + run
        start = time.perf_counter()
        model = fit(
            build_model(mcfg, run_seed),
            train_ds,
            TrainConfig(epochs=config.epochs, batch_size=config.batch_size, seed=run_seed),
        )
        train_s = time.perf_counter() - start
        rows = [(model, 1.0, {})] + [
            _apply_pipeline(pipeline, model, train_ds, config, run_seed)
            for pipeline in config.optimizations
        ]
        timings = measure_inference_seconds(
            [_forward_fn(obj) for obj, _, _ in rows], test_ds.instances, config.timed_inferences
        )
        for name, (obj, energy_factor, stages), (seconds, iqr) in zip(names, rows, timings):
            records[name].append({
                "acc": evaluate(obj, test_ds) * 100.0,
                "time_s": seconds,
                "iqr_s": iqr,
                "mem": payload_bytes(obj),
                "flops_g": count_flops(obj.config) / 1e9,
                "sparsity": _sparsity(obj),
                "energy_factor": energy_factor,
                # structured pruning shrinks the config, so count each row's own
                "params": count_params(obj.config),
                "stage_seconds": {"train": train_s, **stages},
            })

    base_acc = ci95([run["acc"] for run in records["baseline"]]).mean
    base_time = ci95([run["time_s"] for run in records["baseline"]]).mean
    base_energy = energy_model(config.energy, base_time)

    reports = []
    for name in names:
        runs = records[name]
        acc_stats = ci95([run["acc"] for run in runs])
        times = [run["time_s"] for run in runs]
        time_stats = ci95(times)
        measured_energy = energy_model(config.energy, time_stats.mean)
        modeled_energy = base_energy * _mean(runs, "energy_factor")
        ee, ar, overall = efficiency_score(
            _mean(runs, "flops_g"), measured_energy, acc_stats.mean, base_acc
        )
        stage_runs = [run["stage_seconds"] for run in runs]
        reports.append(
            MetricsReport(
                configuration=name,
                accuracy_pct=acc_stats.mean,
                accuracy_ci_half=acc_stats.ci95_half,
                accuracy_drop_pct=base_acc - acc_stats.mean,
                inference_ms=replace(
                    ci95([t * 1e3 for t in times]), iqr_ms=_mean(runs, "iqr_s") * 1e3
                ),
                modeled_energy_j=modeled_energy,
                measured_energy_j=measured_energy,
                memory_mb=_mean(runs, "mem") / 1e6,
                flops_g=_mean(runs, "flops_g"),
                # derived fields recompute exactly from their operand fields
                speedup=speedup_ratio(base_time, time_stats.mean),
                energy_saving_pct=energy_saving_pct(base_energy, measured_energy),
                ee_gflops_per_j=ee,
                accuracy_retention_pct=ar,
                overall_score=overall,
                params=int(round(_mean(runs, "params"))),
                sparsity=_mean(runs, "sparsity"),
                stage_seconds={stage: _mean(stage_runs, stage) for stage in stage_runs[0]},
            )
        )
    return reports


def emit_report(reports: list[dict], fmt: str, out_dir) -> list[str]:
    """Write report rows, as ``MetricsReport.to_dict`` makes them, as json
    (the rows as they are), csv, or markdown tables."""
    if not reports:
        raise InputError("nothing to report")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if fmt == "json":
        path = os.path.join(out_dir, "reports.json")
        with open(path, "w") as fh:
            json.dump({"reports": reports}, fh, indent=2, sort_keys=True)
        written.append(path)
    elif fmt == "csv":
        import csv as _csv

        path = os.path.join(out_dir, "reports.csv")
        rows = [dict(r) for r in reports]
        for row in rows:
            ms = row.pop("inference_ms")
            row["inference_ms_mean"] = ms["mean"]
            row["inference_ms_ci95"] = ms["ci95_half"]
            row["inference_ms_iqr"] = ms["iqr_ms"]
            row.pop("provenance", None)
            stages = row.pop("stage_seconds")
            row.update({f"stage_seconds_{s}": stages.get(s, "") for s in STAGES})
        with open(path, "w", newline="") as fh:
            writer = _csv.DictWriter(fh, fieldnames=sorted(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        written.append(path)
    elif fmt == "markdown":
        path = os.path.join(out_dir, "report.md")
        with open(path, "w") as fh:
            fh.write(_markdown_tables(reports))
        written.append(path)
    else:
        raise InputError(f"unknown report format {fmt!r}")
    return written


def _markdown_tables(reports: list[dict]) -> str:
    lines = [
        "# Performance metrics",
        "",
        "Energy values are model-based (activity-capacitance model applied to",
        "measured wall time or to closed-form compression factors), not",
        "physical power measurements.",
        "",
        "| Configuration | Accuracy (%) | Inference Time (ms) | Energy (J, measured-time) | Memory (MB) | FLOPs (G) |",
        "|---|---|---|---|---|---|",
    ]
    for r in reports:
        lines.append(
            f"| {r['configuration']} "
            f"| {r['accuracy_pct']:.2f} ± {r['accuracy_ci_half']:.2f} "
            f"| {r['inference_ms']['mean']:.3f} ± {r['inference_ms']['ci95_half']:.3f} "
            f"| {r['measured_energy_j']:.4g} "
            f"| {r['memory_mb']:.3f} "
            f"| {r['flops_g']:.4g} |"
        )
    lines += [
        "",
        "# Energy-accuracy trade-off",
        "",
        "| Configuration | Energy Efficiency (GFLOPS/J) | Accuracy Retention (%) | Overall Score (EE x AR) |",
        "|---|---|---|---|",
    ]
    for r in reports:
        lines.append(
            f"| {r['configuration']} | {r['ee_gflops_per_j']:.4g} "
            f"| {r['accuracy_retention_pct']:.1f} | {r['overall_score']:.4g} |"
        )
    lines.append("")
    return "\n".join(lines)


def load_reports(path) -> list[dict]:
    """Read back a JSON report file (lossless round trip of to_dict). A file
    that is not UTF-8 JSON, holds no list under ``reports``, or a row without
    the fields of ``MetricsReport`` and each of their types, is a ``ParseError``
    naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"{path} is not valid UTF-8 JSON: {exc}") from exc
    rows = data.get("reports") if isinstance(data, dict) else None
    if not isinstance(rows, list):
        raise ParseError(f"{path} holds no list of report objects under 'reports'")
    for i, row in enumerate(rows):
        _check_row(row, MetricsReport, f"{path}: report {i}")
    return rows


def _check_row(row, cls, where: str) -> None:
    """Raise ParseError unless ``row`` holds exactly the fields of ``cls``, besides
    a ``provenance``, each of its annotated type (``inference_ms`` a ``RunStats``)."""
    kinds = cls.__annotations__
    if not isinstance(row, dict) or set(row) - {"provenance"} != set(kinds):
        raise ParseError(f"{where} does not hold the fields of {cls.__name__}")
    for name, kind in kinds.items():
        if kind == "RunStats":
            _check_row(row[name], RunStats, f"{where} {name}")
        elif type(row[name]).__name__ not in FIELD_TYPES[kind][1]:
            raise ParseError(f"{where}: {name} must be {FIELD_TYPES[kind][0]}, got {row[name]!r}")
