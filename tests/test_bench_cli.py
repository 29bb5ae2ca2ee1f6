import copy
import csv
import itertools
import json
import logging
import math
import os
import types
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tsfo import bench, metrics, training
from tsfo.bench import (
    KNOWN_OPS,
    ExperimentConfig,
    _apply_pipeline,
    _load_experiment_dataset,
    _model_config,
    _prune_quantized,
    calibration_rows,
    emit_report,
    experiment_config,
    load_reports,
    measure_inference_seconds,
    run_experiment,
)
from tsfo import cli
from tsfo.cli import EXIT_COMPUTE, EXIT_CONFIG, EXIT_DATA, main
from tsfo.data import (
    load_ucr_delimited,
    normalize_dataset,
    stratified_split,
    subject_wise_split,
    synth_generate,
)
from tsfo.errors import ConfigError
from tsfo.model import ModelConfig, build_model, count_params, preset_config
from tsfo.pruning import PruneSpec, prunable_pools, prune_structured
from tsfo.quantization import QuantizedModel, quantize_dynamic, quantized_forward_batch
from tsfo.serialize import load, save_dataset, save_model, save_quantized, write_container
from tsfo.tensor import QTensor
from tsfo.metrics import TIME_DERIVED_FIELDS, EnergyParams, single_thread


def write_ucr(path, rows, rng):
    """A two-class UCR-format file: label, then 32 tab-separated values per row."""
    labels = np.arange(rows) % 2 + 1
    series = rng.normal(size=(rows, 32)) + labels[:, None]
    path.write_text("".join(
        f"{l}\t" + "\t".join(f"{v:.4f}" for v in s) + "\n" for l, s in zip(labels, series)
    ))


SYNTH = {"classes": 3, "per_class": 12, "length": 96}

# any JSON value: null, bools, ints past 64 bits, NaN and the infinities, strings,
# and lists and objects of them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats()
    | st.sampled_from([2**70, -1, 0, math.nan, math.inf, -math.inf]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# two valid configs, and every key of each of their blocks, with one key no block knows
VALID_CONFIGS = {
    "custom": {
        "synth": {**SYNTH, "noise": 0.05, "seed": 1}, "preset": "custom",
        "model": {"num_layers": 1, "num_heads": 2, "model_dim": 16, "ffn_dim": 32,
                  "patch_size": 8, "patch_stride": 8},
        "energy": {"activity_factor": 0.2, "capacitance_f": 1e-9, "voltage_v": 1.0,
                   "frequency_hz": 1e9},
        "runs": 1, "epochs": 1,
    },
    "preset": {"dataset": "missing.tsfo", "preset": "T1",
               "model": {"patch_size": 8, "patch_stride": 4}, "runs": 1},
}
TOP_LEVEL_KEYS = [f.name for f in fields(ExperimentConfig)] + ["dataset", "out", "unknown"]
CONFIG_PLACES = (
    [(name, None, key) for name in VALID_CONFIGS for key in TOP_LEVEL_KEYS]
    + [("custom", "synth", key) for key in (*SYNTH, "noise", "seed", "unknown")]
    + [("custom", "energy", key) for key in (*VALID_CONFIGS["custom"]["energy"], "unknown")]
    + [("custom", "model", f.name) for f in fields(ModelConfig)]
    + [("preset", "model", key) for key in ("patch_size", "patch_stride", "num_heads")]
)


def quick_config(out_dir, **overrides):
    base = dict(
        synth={"classes": 3, "per_class": 20, "length": 96, "noise": 0.05},
        preset="custom",
        model={
            "num_layers": 1, "num_heads": 2, "model_dim": 16, "ffn_dim": 32,
            "patch_size": 8, "patch_stride": 8, "dropout": 0.1,
        },
        optimizations=[["static-quant"], ["l2-prune"]],
        sparsity=0.5,
        runs=1,
        seed=3,
        epochs=4,
        fine_tune_epochs=1,
        out_dir=str(out_dir),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def quick_reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    config = quick_config(out)
    return config, run_experiment(config)


class TestExperimentConfig:
    def test_runs_validated(self, tmp_path):
        with pytest.raises(ConfigError):
            quick_config(tmp_path, runs=0)

    def test_unknown_op_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            quick_config(tmp_path, optimizations=[["compress-harder"]])

    @pytest.mark.parametrize("first, second", itertools.product(KNOWN_OPS, repeat=2))
    def test_only_l1_prune_follows_quantization(self, tmp_path, first, second):
        if first not in ("static-quant", "dynamic-quant", "qat") or second == "l1-prune":
            quick_config(tmp_path, optimizations=[[first, second]])
        else:
            with pytest.raises(ConfigError, match=f"{second} cannot follow quantization "
                                                  f"in pipeline {first}\\+{second}"):
                quick_config(tmp_path, optimizations=[["l1-prune"], [first, second]])

    @pytest.mark.parametrize(
        "optimizations, message",
        [([["dynamic-quant"], ["dynamic-quant"], []], r"pipeline \['dynamic-quant'\] is listed twice"),
         ([["static-quant"], []], r"pipeline \[\] is empty")],
    )
    def test_a_pipeline_listed_twice_or_empty_is_a_config_error(
        self, tmp_path, optimizations, message
    ):
        # each row is keyed by its pipeline's name: a second copy would pool its runs
        # into the first's, and an empty pipeline would be the baseline again
        with pytest.raises(ConfigError, match=message):
            quick_config(tmp_path, optimizations=optimizations)

    def test_no_pipeline_at_all_is_a_baseline_only_study(self, tmp_path):
        assert quick_config(tmp_path, optimizations=[]).optimizations == []

    def test_needs_a_dataset(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(synth=None, dataset_path=None)

    @pytest.mark.parametrize(
        "fields, key",
        [
            ({"synth": {"classes": 3, "per_class": 12}}, "length"),
            ({"synth": {**SYNTH, "classes_": 3}}, "classes_"),
            ({"synth": SYNTH, "preset": "custom", "model": {"layers": 3}}, "layers"),
            ({"synth": SYNTH, "model": {"num_layers": 3}}, "num_layers"),
            (
                {"synth": SYNTH, "preset": "custom", "model": {
                    "num_layers": 1, "num_heads": 1, "model_dim": 8, "ffn_dim": 8,
                    "patch_size": 8,
                }},
                "patch_stride",
            ),
            ({"synth": SYNTH, "energy": {"volts": 1.0}}, "volts"),
        ],
        ids=[
            "synth-without-length", "synth-unknown", "custom-model", "preset-model",
            "custom-model-without-patch-stride", "energy",
        ],
    )
    def test_block_checks_hold_for_a_config_built_in_python(self, fields, key):
        with pytest.raises(ConfigError, match=repr(key)):
            run_experiment(ExperimentConfig(runs=1, epochs=1, **fields))

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(place=st.sampled_from(CONFIG_PLACES), value=JSON_VALUES)
    def test_any_value_at_any_key_builds_or_is_a_config_error(self, monkeypatch, place, value):
        reads = []
        monkeypatch.setattr(bench, "_load_experiment_dataset", reads.append)
        monkeypatch.setattr(bench, "synth_generate", lambda *args: reads.append(args))
        name, block, key = place
        assert isinstance(experiment_config(copy.deepcopy(VALID_CONFIGS[name])), ExperimentConfig)
        raw = copy.deepcopy(VALID_CONFIGS[name])
        (raw if block is None else raw[block])[key] = value
        try:
            assert isinstance(experiment_config(raw), ExperimentConfig)
        except ConfigError:
            pass
        assert reads == []

    def test_energy_block_built_in_python_becomes_energy_params(self):
        config = ExperimentConfig(synth=SYNTH, energy={"voltage_v": 1.0})
        assert config.energy == EnergyParams(voltage_v=1.0)


class TestRunExperiment:
    def test_single_run_zero_ci(self, quick_reports):
        _, reports = quick_reports
        assert all(r.inference_ms.ci95_half == 0.0 for r in reports)
        assert all(r.accuracy_ci_half == 0.0 for r in reports)

    def test_baseline_first_and_complete(self, quick_reports):
        _, reports = quick_reports
        assert reports[0].configuration == "baseline"
        assert {r.configuration for r in reports} == {"baseline", "static-quant", "l2-prune"}

    def test_quantized_memory_quarter(self, quick_reports):
        _, reports = quick_reports
        by_name = {r.configuration: r for r in reports}
        ratio = by_name["baseline"].memory_mb / by_name["static-quant"].memory_mb
        assert ratio == pytest.approx(4.0, rel=0.01)

    def test_modeled_energy_factors(self, quick_reports):
        _, reports = quick_reports
        by_name = {r.configuration: r for r in reports}
        base = by_name["baseline"].modeled_energy_j
        assert by_name["static-quant"].modeled_energy_j == pytest.approx(base / 4.0)
        l2 = by_name["l2-prune"]
        frac = 1.0 - l2.modeled_energy_j / base
        assert 0.0 < frac < 1.0  # matches the achieved removal fraction

    def test_report_fields_recompute(self, quick_reports):
        _, reports = quick_reports
        by_name = {r.configuration: r for r in reports}
        base = by_name["baseline"]
        for r in reports:
            assert r.speedup == pytest.approx(
                base.inference_ms.mean / r.inference_ms.mean
            )
            assert r.ee_gflops_per_j == pytest.approx(r.flops_g / r.measured_energy_j)
            assert r.overall_score == pytest.approx(
                r.ee_gflops_per_j * r.accuracy_retention_pct
            )
            assert r.accuracy_retention_pct == pytest.approx(
                100.0 * r.accuracy_pct / base.accuracy_pct
            )

    def test_structural_pruning_reduces_flops(self, quick_reports):
        _, reports = quick_reports
        by_name = {r.configuration: r for r in reports}
        assert by_name["l2-prune"].flops_g < by_name["baseline"].flops_g

    def test_params_count_each_rows_own_model(self, quick_reports):
        config, reports = quick_reports
        by_name = {r.configuration: r for r in reports}
        dataset = _load_experiment_dataset(config)
        train_ds, _ = subject_wise_split(dataset, config.train_fraction, config.seed)
        mcfg = _model_config(config, dataset)
        # structured pruning picks its config from unit counts, not weights,
        # so any baseline with this config prunes to the same shape
        pruned, _, _ = _apply_pipeline(["l2-prune"], build_model(mcfg, 0), train_ds, config, 0)
        assert pruned.config != mcfg
        assert by_name["l2-prune"].params == count_params(pruned.config)
        assert by_name["l2-prune"].params < by_name["baseline"].params
        assert by_name["baseline"].params == count_params(mcfg)
        assert by_name["static-quant"].params == count_params(mcfg)

    def test_rows_carry_the_timing_spread(self, quick_reports):
        _, reports = quick_reports
        for r in reports:
            assert 0.0 <= r.inference_ms.iqr_ms < float("inf")
            assert r.to_dict()["inference_ms"]["iqr_ms"] == r.inference_ms.iqr_ms

    def test_rows_time_the_stages_that_made_their_model(self, quick_reports):
        _, reports = quick_reports
        stages = {r.configuration: r.stage_seconds for r in reports}
        assert {name: sorted(s) for name, s in stages.items()} == {
            "baseline": ["train"],
            "static-quant": ["calibrate", "quantize", "train"],
            "l2-prune": ["fine_tune", "prune", "train"],
        }
        assert all(t > 0 for s in stages.values() for t in s.values())
        # every row's model comes from the one trained baseline
        assert len({s["train"] for s in stages.values()}) == 1

    def test_evaluates_once_per_row(self, tmp_path, monkeypatch):
        # training reads no history here, so only the report rows are scored
        calls = []
        real = bench.evaluate

        def counting(model, dataset):
            calls.append(1)
            return real(model, dataset)

        monkeypatch.setattr(bench, "evaluate", counting)
        monkeypatch.setattr(training, "evaluate", counting)
        pipelines = [["static-quant"], ["qat"], ["l1-prune"], ["l2-prune"]]
        run_experiment(quick_config(tmp_path, optimizations=pipelines, epochs=2))
        assert len(calls) == 1 + len(pipelines)

    def test_combined_pipeline_orders_are_distinct(self, tmp_path):
        config = quick_config(
            tmp_path,
            optimizations=[["l1-prune", "static-quant"], ["static-quant", "l1-prune"]],
            epochs=3,
        )
        reports = {r.configuration: r for r in run_experiment(config)}
        forward_order = reports["l1-prune+static-quant"]
        reverse_order = reports["static-quant+l1-prune"]
        # prune-then-quantize fine-tunes before freezing; quantize-then-prune
        # masks frozen int8 weights, so the two accuracies need not agree
        assert forward_order.memory_mb == pytest.approx(reverse_order.memory_mb, rel=0.01)
        assert forward_order.modeled_energy_j == pytest.approx(
            reverse_order.modeled_energy_j, rel=1e-6
        )
        # quantized rows count zeros in their int8 payloads
        assert forward_order.sparsity >= config.sparsity
        assert reverse_order.sparsity >= config.sparsity


class TestPrunedQuantized:
    def setup_method(self):
        ds = synth_generate(3, 10, 96, 0.05, seed=4)
        self.train_ds, self.test_ds = subject_wise_split(ds, 0.7, 4)
        self.config = quick_config("unused")
        self.baseline = build_model(_model_config(self.config, ds), 4)

    def pipeline(self, ops):
        qmodel, _, _ = _apply_pipeline(ops, self.baseline, self.train_ds, self.config, 4)
        return qmodel

    def test_pipeline_forward_matches_fresh_model(self):
        pruned = self.pipeline(["static-quant", "l1-prune"])
        unpruned = self.pipeline(["static-quant"])
        fresh = QuantizedModel(
            pruned.config,
            {
                name: QTensor(q.data.copy(), q.scale, q.zero_point, q.channel_axis)
                for name, q in pruned.weights.items()
            },
            pruned.mode,
            pruned.act_qparams,
        )
        xs = self.test_ds.instances
        got = quantized_forward_batch(pruned, xs)
        assert np.array_equal(got, quantized_forward_batch(fresh, xs))
        assert not np.array_equal(got, quantized_forward_batch(unpruned, xs))

    @pytest.mark.parametrize(
        "ops", [["static-quant"], ["dynamic-quant"], ["static-quant", "l1-prune"]]
    )
    def test_int8_model_compiled_in_quantize_stage(self, ops):
        qmodel, _, stages = _apply_pipeline(ops, self.baseline, self.train_ds, self.config, 4)
        # pack and sites are built inside the timed quantize stage, so the
        # untimed warm-up inference builds nothing
        assert {"pack", "sites"} <= set(vars(qmodel))
        assert (qmodel.sites is None) == (qmodel.mode == "dynamic")
        assert stages["quantize"] > 0

    @pytest.mark.parametrize("second", ["qat", "l2-prune"])
    def test_later_fine_tunes_keep_the_zeros_of_l1_prune(self, second):
        """A row's sparsity and its l1 energy factor describe the same model.

        Small batches over three epochs take enough steps for a regrown weight
        to outgrow half an int8 step."""
        config = quick_config("unused", fine_tune_epochs=3, batch_size=4)
        pruned, _, _ = _apply_pipeline(["l1-prune"], self.baseline, self.train_ds, config, 4)
        if second == "l2-prune":  # the zeros of the units l2-prune keeps
            for granularity in ("neuron", "head"):
                spec = PruneSpec("l2", granularity, "layerwise", config.sparsity)
                pruned, _ = prune_structured(pruned, spec)
        got, _, _ = _apply_pipeline(["l1-prune", second], self.baseline, self.train_ds, config, 4)
        for name in prunable_pools(pruned):
            zero = pruned.params[name] == 0
            arr = got.weights[name].data if second == "qat" else got.params[name]
            assert zero.any() and np.all(arr[zero] == 0), name

    def test_prune_leaves_served_model_unchanged(self):
        qmodel = self.pipeline(["static-quant"])
        xs = self.test_ds.instances
        before = quantized_forward_batch(qmodel, xs)
        payloads = {name: q.data.copy() for name, q in qmodel.weights.items()}
        pruned, removed = _prune_quantized(qmodel, PruneSpec("l1", "weight", "global", 0.5))
        assert removed > 0
        assert all(np.array_equal(qmodel.weights[n].data, d) for n, d in payloads.items())
        assert np.array_equal(quantized_forward_batch(qmodel, xs), before)
        assert not np.array_equal(quantized_forward_batch(pruned, xs), before)


class TestDeterminism:
    def test_inline_synth_and_its_saved_file_give_equal_reports(self, tmp_path):
        synth = {"classes": 3, "per_class": 12, "length": 96, "noise": 0.05, "seed": 5}
        path = str(tmp_path / "d.tsfo")
        save_dataset(synth_generate(3, 12, 96, 0.05, 5), path)
        inline = run_experiment(quick_config(tmp_path, synth=synth))
        from_file = run_experiment(quick_config(tmp_path, synth=None, dataset_path=path))
        for ra, rb in zip(inline, from_file, strict=True):
            da, db = ra.to_dict(), rb.to_dict()
            for field in (*TIME_DERIVED_FIELDS, "provenance"):
                da.pop(field, None)
                db.pop(field, None)
            assert da == db

    def test_reports_bit_stable_modulo_time(self, tmp_path):
        config_a = quick_config(tmp_path / "a")
        config_b = quick_config(tmp_path / "b")
        reports_a = run_experiment(config_a)
        reports_b = run_experiment(config_b)
        for ra, rb in zip(reports_a, reports_b):
            da, db = ra.to_dict(), rb.to_dict()
            for field in TIME_DERIVED_FIELDS:
                da.pop(field, None)
                db.pop(field, None)
            assert da == db


def classes_of(rows, dataset):
    """The classes of the rows of ``dataset`` that ``rows`` are copies of."""
    flat = dataset.instances.reshape(len(dataset), -1)
    found = [np.flatnonzero((flat == row.ravel()).all(axis=1)) for row in rows]
    assert all(len(idx) == 1 for idx in found), "a row is not a train-side row"
    return sorted({int(dataset.labels[idx[0]]) for idx in found})


class TestCalibrationRows:
    def test_spread_over_the_rows(self):
        ds = synth_generate(2, 5, 32, 0.05, 0)
        assert np.array_equal(calibration_rows(ds, 64), ds.instances)
        assert np.array_equal(calibration_rows(ds, 4), ds.instances[[0, 3, 6, 9]])

    def test_class_ordered_train_side_gives_every_class(self, tmp_path, monkeypatch):
        dataset = synth_generate(3, 40, 96, 0.05, 1)   # rows ordered by class
        seen = []
        real = bench.calibrate
        spy = lambda model, xs: seen.append(xs) or real(model, xs)
        monkeypatch.setattr(bench, "calibrate", spy)
        monkeypatch.setattr(cli, "calibrate", spy)

        config = quick_config(tmp_path, calibration_size=16)
        train_ds, _ = subject_wise_split(dataset, 0.7, 1)
        model = build_model(_model_config(config, dataset), 0)
        _apply_pipeline(["static-quant"], model, train_ds, config, 0)
        assert classes_of(seen.pop(), train_ds) == [0, 1, 2]

        # tsfo quantize calibrates on the train side of the model's split
        ds_path, model_path = str(tmp_path / "ds.tsfo"), str(tmp_path / "m.tsfo")
        save_dataset(dataset, ds_path)
        save_model(build_model(preset_config("T1", seq_len=96, num_classes=3), 0), model_path)
        assert main(["quantize", "--model", model_path, "--data", ds_path,
                     "--calibration-size", "16", "--out", str(tmp_path / "q.tsfo")]) == 0
        train_ds, _ = subject_wise_split(normalize_dataset(dataset), 0.7, 0)
        assert classes_of(seen.pop(), train_ds) == [0, 1, 2]


def as_rows(reports):
    return [r.to_dict() for r in reports]


class TestEmitReport:
    def test_json_round_trip(self, quick_reports, tmp_path):
        _, reports = quick_reports
        (path,) = emit_report(as_rows(reports), "json", tmp_path)
        rows = load_reports(path)
        assert len(rows) == len(reports)
        assert rows[0]["configuration"] == "baseline"
        # round trip is lossless for every serialized field
        assert rows[0] == reports[0].to_dict()

    def test_overall_score_self_consistent(self, quick_reports, tmp_path):
        _, reports = quick_reports
        (path,) = emit_report(as_rows(reports), "json", tmp_path)
        from tsfo.metrics import round_sig

        for row in load_reports(path):
            recomputed = row["ee_gflops_per_j"] * row["accuracy_retention_pct"]
            assert row["overall_score"] == pytest.approx(round_sig(recomputed), rel=1e-3)

    def test_markdown_structure(self, quick_reports, tmp_path):
        _, reports = quick_reports
        (path,) = emit_report(as_rows(reports), "markdown", tmp_path)
        text = open(path).read()
        assert "| Configuration | Accuracy (%) | Inference Time (ms) |" in text
        for r in reports:
            assert f"| {r.configuration} " in text
        assert "Overall Score" in text

    def test_csv_has_the_timing_spread(self, quick_reports, tmp_path):
        _, reports = quick_reports
        (path,) = emit_report(as_rows(reports), "csv", tmp_path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(row["inference_ms_iqr"]) for row in rows] == [
            r.inference_ms.iqr_ms for r in reports
        ]
        for row, r in zip(rows, reports):
            for stage in bench.STAGES:
                want = repr(r.stage_seconds[stage]) if stage in r.stage_seconds else ""
                assert row[f"stage_seconds_{stage}"] == want

    def test_provenance_labels_present(self, quick_reports, tmp_path):
        _, reports = quick_reports
        (path,) = emit_report(as_rows(reports), "json", tmp_path)
        row = load_reports(path)[0]
        assert row["provenance"]["modeled_energy_j"] == "modeled"
        assert "measured" in row["provenance"]["inference_ms"]


def test_measure_inference_counts_calls():
    calls = []

    def fake_forward(x):
        calls.append(1)

    xs = np.zeros((3, 1, 8), np.float32)
    measure_inference_seconds([fake_forward], xs, timed=100)
    assert len(calls) == 110


def test_measure_inference_returns_median_and_iqr(monkeypatch):
    # a clock under which the i-th timed call of forward j takes (i + 1) * (j + 1) ms
    ticks = []
    for i in range(100):
        for j in range(2):
            start = ticks[-1] if ticks else 0.0
            ticks += [start, start + (i + 1) * (j + 1) * 1e-3]
    monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=iter(ticks).__next__))
    timings = measure_inference_seconds([lambda x: x] * 2, np.zeros((1, 1, 4)), 100)
    # samples 1..100 ms: median 50.5, quartiles 25.75 and 75.25
    assert timings == [
        pytest.approx((50.5e-3, 49.5e-3), rel=1e-9),
        pytest.approx((101e-3, 99e-3), rel=1e-9),
    ]


def fake_openblas(threads, takes_effect=True):
    """A library object exporting OpenBLAS's thread-count calls as numpy's wheels
    name them; each setter call is logged, and ``threads[0]`` is the count,
    which the setter changes only when ``takes_effect``."""
    calls = []

    def set_threads(n):
        calls.append(n)
        if takes_effect:
            threads[0] = n

    lib = types.SimpleNamespace(
        scipy_openblas_set_num_threads64_=set_threads,
        scipy_openblas_get_num_threads64_=lambda: threads[0],
    )
    return lib, calls


class TestSingleThread:
    @pytest.fixture(autouse=True)
    def fresh_decision(self, monkeypatch):
        for var in metrics.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        # no OpenBLAS unless a test loads a fake one, so no test calls the real setter
        monkeypatch.setattr(metrics, "_loaded_openblas", lambda: None)
        caches = (metrics._environment, metrics._openblas_threads, metrics._warn_unpinned)
        for cached in caches:
            cached.cache_clear()
        yield
        for cached in caches:
            cached.cache_clear()

    @staticmethod
    def unpinned_warnings(caplog):
        return [r for r in caplog.records if r.name == "tsfo.metrics"]

    def test_warns_once_without_an_openblas_setter(self, caplog):
        with caplog.at_level(logging.WARNING, logger="tsfo.metrics"):
            for _ in range(3):
                with single_thread() as threads:
                    assert threads is None
            measure_inference_seconds([lambda x: x], np.zeros((1, 1, 4)), timed=100)
            env = metrics.environment()
        warnings = self.unpinned_warnings(caplog)
        assert len(warnings) == 1
        assert warnings[0].levelno == logging.WARNING
        assert "not held to one thread" in warnings[0].getMessage()
        assert (env["blas_threads"], env["blas_threads_pinned"]) == (None, False)

    def test_pins_through_openblas(self, monkeypatch, caplog):
        """Each timed region sets the loaded OpenBLAS to one thread and restores
        its count on exit, even on an error; the environment records the count
        read back inside."""
        threads = [2]
        lib, calls = fake_openblas(threads)
        monkeypatch.setattr(metrics, "_loaded_openblas", lambda: lib)
        with caplog.at_level(logging.WARNING, logger="tsfo.metrics"):
            with single_thread() as inside:
                assert threads == [1] and inside == 1
            with pytest.raises(ZeroDivisionError), single_thread():
                1 / 0
            measure_inference_seconds([lambda x: x], np.zeros((1, 1, 4)), timed=100)
        assert calls == [1, 2] * 3 and threads == [2]
        assert not self.unpinned_warnings(caplog)
        env = metrics.environment()
        assert (env["blas_threads"], env["blas_threads_pinned"]) == (1, True)
        assert threads == [2]  # restored after the environment's own region

    def test_a_thread_variable_set_after_load_leaves_pinning_to_the_setter(self, monkeypatch, caplog):
        """OpenBLAS reads ``OPENBLAS_NUM_THREADS`` only when it loads, so a variable
        of 1 set later leaves it at 2: the region still pins it through the setter,
        and what the environment reports is the count read back."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        threads = [2]
        lib, calls = fake_openblas(threads)
        monkeypatch.setattr(metrics, "_loaded_openblas", lambda: lib)
        with caplog.at_level(logging.WARNING, logger="tsfo.metrics"):
            with single_thread():
                assert threads == [1]
            assert threads == [2]
            env = metrics.environment()
        assert calls == [1, 2] * 2 and threads == [2]
        assert (env["blas_threads"], env["blas_threads_pinned"]) == (1, True)
        assert env["thread_env"] == {"OPENBLAS_NUM_THREADS": "1"}
        assert not self.unpinned_warnings(caplog)

    def test_a_setter_without_effect_is_not_pinned(self, monkeypatch, caplog):
        threads = [2]
        lib, calls = fake_openblas(threads, takes_effect=False)
        monkeypatch.setattr(metrics, "_loaded_openblas", lambda: lib)
        with caplog.at_level(logging.WARNING, logger="tsfo.metrics"):
            with single_thread() as inside:
                assert inside == 2
            measure_inference_seconds([lambda x: x], np.zeros((1, 1, 4)), timed=100)
            env = metrics.environment()
        assert (env["blas_threads"], env["blas_threads_pinned"]) == (2, False)
        assert calls == [1, 2] * 3 and threads == [2]
        assert len(self.unpinned_warnings(caplog)) == 1

    def test_a_library_without_the_calls_pins_nothing(self, monkeypatch):
        monkeypatch.setattr(metrics, "_loaded_openblas", lambda: types.SimpleNamespace())
        env = metrics.environment()
        assert (env["blas_threads"], env["blas_threads_pinned"]) == (None, False)


class TestCli:
    def test_full_workflow(self, tmp_path, capsys):
        ds_path = str(tmp_path / "ds.tsfo")
        assert main(["synth", "--classes", "3", "--per-class", "12", "--length", "96",
                     "--noise", "0.05", "--seed", "1", "--out", ds_path]) == 0

        out_dir = str(tmp_path / "run")
        config = {
            "dataset": ds_path,
            "preset": "custom",
            "model": {"num_layers": 1, "num_heads": 2, "model_dim": 16,
                      "ffn_dim": 32, "patch_size": 8, "patch_stride": 8},
            "optimizations": [["dynamic-quant"]],
            "runs": 1,
            "epochs": 2,
            "fine_tune_epochs": 1,
            "out": out_dir,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["bench", "--config", str(cfg_path)]) == 0
        assert os.path.exists(os.path.join(out_dir, "reports.json"))
        assert os.path.exists(os.path.join(out_dir, "reports.csv"))
        assert os.path.exists(os.path.join(out_dir, "report.md"))

        assert main(["report", "--reports", os.path.join(out_dir, "reports.json"),
                     "--format", "markdown", "--out", str(tmp_path / "re")]) == 0

    def test_train_prune_quantize_eval(self, tmp_path):
        ds_path = str(tmp_path / "ds.tsfo")
        main(["synth", "--per-class", "20", "--length", "96", "--out", ds_path])
        run_dir = str(tmp_path / "m")
        # small custom training through the bench path is covered elsewhere;
        # here drive the preset T1 end to end with a tiny epoch budget
        assert main(["train", "--data", ds_path, "--preset", "T1", "--epochs", "1",
                     "--out", run_dir]) == 0
        model_path = os.path.join(run_dir, "model.tsfo")
        assert os.path.exists(model_path)
        assert os.path.exists(os.path.join(run_dir, "history.csv"))

        pruned_path = str(tmp_path / "pruned.tsfo")
        assert main(["prune", "--model", model_path, "--sparsity", "0.5",
                     "--out", pruned_path]) == 0
        assert os.path.exists(pruned_path + ".prune.json")

        q_path = str(tmp_path / "q.tsfo")
        assert main(["quantize", "--model", model_path, "--mode", "static",
                     "--data", ds_path, "--out", q_path]) == 0
        assert main(["eval", "--model", q_path, "--data", ds_path]) == 0

    def test_ucr_pair_end_to_end(self, tmp_path):
        rng = np.random.default_rng(0)
        train_path = tmp_path / "Toy_TRAIN.tsv"
        write_ucr(train_path, 20, rng)
        write_ucr(tmp_path / "Toy_TEST.tsv", 10, rng)
        data = str(train_path)
        run_dir = str(tmp_path / "m")
        assert main(["train", "--data", data, "--epochs", "1", "--out", run_dir]) == 0
        model_path = os.path.join(run_dir, "model.tsfo")
        pruned_path = str(tmp_path / "pruned.tsfo")
        assert main(["prune", "--model", model_path, "--granularity", "head", "--method", "l2",
                     "--data", data, "--fine-tune-epochs", "1", "--out", pruned_path]) == 0
        q_path = str(tmp_path / "q.tsfo")
        assert main(["quantize", "--model", pruned_path, "--data", data, "--out", q_path]) == 0
        assert main(["eval", "--model", q_path, "--data", data]) == 0
        config = {
            "dataset": data, "preset": "custom",
            "model": {"num_layers": 1, "num_heads": 2, "model_dim": 16, "ffn_dim": 32,
                      "patch_size": 8, "patch_stride": 8},
            "optimizations": [["static-quant"]], "runs": 1, "epochs": 1,
            "out": str(tmp_path / "bench"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["bench", "--config", str(cfg_path)]) == 0
        rows = load_reports(str(tmp_path / "bench" / "reports.json"))
        assert [r["configuration"] for r in rows] == ["baseline", "static-quant"]

    CUSTOM_MODEL = {"num_layers": 1, "num_heads": 2, "model_dim": 16, "ffn_dim": 32}

    @pytest.mark.parametrize(
        "edit, key",
        [
            ({"parallel_train": True}, "parallel_train"),
            ({"energy": {"volts": 1.0}}, "volts"),
            ({"preset": "custom", "model": {**CUSTOM_MODEL, "layers": 3}}, "layers"),
            ({"dataset": {"synth": {"classes": 3, "per_class": 12}}}, "length"),
            ({"preset": "custom", "model": {**CUSTOM_MODEL, "patch_size": 8}}, "patch_stride"),
        ],
        ids=[
            "top-level", "energy", "custom-model", "synth-without-length",
            "custom-model-without-patch-stride",
        ],
    )
    def test_bad_config_key_is_a_config_error(self, tmp_path, caplog, edit, key):
        config = {"dataset": {"synth": {"classes": 3, "per_class": 12, "length": 96}},
                  "runs": 1, "epochs": 1, "out": str(tmp_path / "bench"), **edit}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(["bench", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert "configuration error: " in caplog.text and repr(key) in caplog.text
        assert not (tmp_path / "bench").exists()

    def test_malformed_config_json_is_a_config_error(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"runs": 1,')
        assert main(["bench", "--config", str(cfg_path)]) == EXIT_CONFIG

    def test_eval_scores_the_test_side_of_a_split(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        train_path = tmp_path / "Toy_TRAIN.tsv"
        write_ucr(train_path, 20, rng)
        write_ucr(tmp_path / "Toy_TEST.tsv", 10, rng)
        model_path = str(tmp_path / "model.tsfo")
        cfg = preset_config("T1", seq_len=32, num_classes=2, in_channels=1, patch_size=8)
        save_model(build_model(cfg, 0), model_path)
        out = tmp_path / "eval.json"
        assert main(["eval", "--model", model_path, "--data", str(train_path),
                     "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert (result["instances"], result["split"]) == (10, "test")
        assert "(10 instances, the test side of its split)" in capsys.readouterr().out

        # a container with subject ids is scored on its test households; the
        # model records no split, so it is the default fraction 0.7, seed 0
        ds_path = str(tmp_path / "ds.tsfo")
        dataset = synth_generate(2, 6, 32, 0.05, 0)
        save_dataset(dataset, ds_path)
        assert main(["eval", "--model", model_path, "--data", ds_path, "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        _, test_ds = subject_wise_split(normalize_dataset(dataset), 0.7, 0)
        assert len(test_ds) < len(dataset)
        assert (result["instances"], result["split"]) == (len(test_ds), "test")

    def test_eval_reuses_the_recorded_split_of_a_lone_file(self, tmp_path, monkeypatch):
        path = tmp_path / "Lone.tsv"
        write_ucr(path, 30, np.random.default_rng(3))
        model_path = str(tmp_path / "m" / "model.tsfo")
        assert main(["train", "--data", str(path), "--epochs", "1", "--seed", "5",
                     "--out", str(tmp_path / "m")]) == 0
        pruned_path, q_path = str(tmp_path / "p.tsfo"), str(tmp_path / "q.tsfo")
        assert main(["prune", "--model", model_path, "--out", pruned_path]) == 0
        assert main(["quantize", "--model", pruned_path, "--mode", "dynamic",
                     "--out", q_path]) == 0
        scored = []
        monkeypatch.setattr(cli, "evaluate", lambda model, ds: scored.append(ds) or 0.0)
        for evaluated in (model_path, q_path):
            assert main(["eval", "--model", evaluated, "--data", str(path)]) == 0
        dataset = normalize_dataset(load_ucr_delimited(path))
        _, test_idx = stratified_split(dataset.labels, 0.7, 5)
        assert len(test_idx) == 10
        for ds in scored:
            assert np.array_equal(ds.instances, dataset.instances[test_idx])

    def test_prune_fine_tunes_on_the_recorded_train_side(self, tmp_path, monkeypatch):
        path = tmp_path / "Lone.tsv"
        write_ucr(path, 30, np.random.default_rng(3))
        model_path = str(tmp_path / "m" / "model.tsfo")
        assert main(["train", "--data", str(path), "--epochs", "1", "--seed", "5",
                     "--out", str(tmp_path / "m")]) == 0
        tuned = []
        monkeypatch.setattr(cli, "fit", lambda model, ds, *rest, **kw: tuned.append(ds) or model)
        for granularity in ("weight", "head"):
            assert main(["prune", "--model", model_path, "--granularity", granularity,
                         "--method", "l2", "--data", str(path), "--fine-tune-epochs", "1",
                         "--out", str(tmp_path / "p.tsfo")]) == 0
        dataset = normalize_dataset(load_ucr_delimited(path))
        train_idx, _ = stratified_split(dataset.labels, 0.7, 5)
        for ds in tuned:
            assert np.array_equal(ds.instances, dataset.instances[train_idx])
        assert len(tuned) == 2

    def test_prune_fine_tuning_without_data_is_a_data_error(self, tmp_path):
        model_path, out = str(tmp_path / "m.tsfo"), str(tmp_path / "p.tsfo")
        save_model(build_model(preset_config("T1", seq_len=32, num_classes=2), 0), model_path)
        assert main(["prune", "--model", model_path, "--fine-tune-epochs", "1",
                     "--out", out]) == EXIT_DATA
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flags", [["--epochs", "0"], ["--batch-size", "0"]],
                             ids=["zero-epochs", "zero-batch-size"])
    def test_train_without_a_step_is_a_config_error(self, tmp_path, flags):
        ds_path = str(tmp_path / "d.tsfo")
        save_dataset(synth_generate(2, 6, 32, 0.05, 0), ds_path)
        out = tmp_path / "m"
        assert main(["train", "--data", ds_path, *flags, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["synth", "--classes", "1"],
         ["synth", "--length", "8"],
         ["train", "--data", "MISSING", "--train-fraction", "1.5"],
         ["train", "--data", "MISSING", "--batch-size", "0"],
         ["train", "--data", "MISSING", "--seed", "-1"],
         ["prune", "--model", "MISSING", "--sparsity", "1.5"],
         ["prune", "--model", "MISSING", "--data", "MISSING", "--fine-tune-epochs", "-1"],
         ["prune", "--model", "MISSING", "--seed", "-1"],
         ["quantize", "--model", "MISSING", "--data", "MISSING", "--calibration-size", "0"],
         ["bench", "--config", "CONFIG", "--opt", "static-quant,l2-prune"],
         ["bench", "--config", "CONFIG", "--opt", "dynamic-quant,qat"]],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
    )
    def test_bad_flag_is_a_config_error_before_any_file_is_read(
        self, tmp_path, tmp_path_factory, caplog, argv
    ):
        missing = str(tmp_path / "missing.tsfo")
        # a bench config that names the missing dataset, kept outside tmp_path
        config = tmp_path_factory.mktemp("config") / "config.json"
        config.write_text(json.dumps({"dataset": missing, "runs": 1, "epochs": 1}))
        places = {"MISSING": missing, "CONFIG": str(config)}
        argv = [places.get(arg, arg) for arg in argv]
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "configuration error: " in caplog.text
        assert list(tmp_path.iterdir()) == []

    CUSTOM_PATCHED = {**CUSTOM_MODEL, "patch_size": 8, "patch_stride": 8}

    @pytest.mark.parametrize(
        "edit, key",
        [({"preset": "custom", "model": {**CUSTOM_PATCHED, "num_heads": "2"}}, "num_heads"),
         ({"preset": "custom", "model": {**CUSTOM_PATCHED, "heads_per_layer": [2, 2]}},
          "heads_per_layer"),
         ({"preset": "custom", "model": {**CUSTOM_PATCHED, "num_heads": 3, "model_dim": 8}},
          "model_dim"),
         ({"preset": "custom", "model": {**CUSTOM_PATCHED, "num_heads": 1, "model_dim": 5}},
          "model_dim must be even"),
         ({"energy": {"voltage_v": "1.2"}}, "voltage_v"),
         ({"energy": {"voltage_v": math.nan}}, "voltage_v"),
         ({"model": {"patch_size": "8"}}, "patch_size"),
         ({"dataset_path": 7}, "dataset_path"),
         ({"synth": {**SYNTH, "noise": math.nan}}, "noise"),
         ({"synth": {**SYNTH, "noise": math.inf}}, "noise"),
         ({"preset": "T3"}, "preset"),
         # the data gives these three; a custom block may not override them
         ({"preset": "custom", "model": {**CUSTOM_PATCHED, "seq_len": 64}}, "'seq_len'"),
         ({"preset": "custom", "model": {**CUSTOM_PATCHED, "in_channels": 2}}, "'in_channels'"),
         ({"preset": "custom", "model": {**CUSTOM_PATCHED, "num_classes": 5}}, "'num_classes'")],
        ids=["num-heads-string", "heads-per-layer-length", "model-dim-not-divisible",
             "model-dim-odd", "voltage-string", "voltage-nan", "preset-patch-string",
             "dataset-path-int", "synth-noise-nan", "synth-noise-infinity", "unknown-preset",
             "custom-seq-len", "custom-in-channels", "custom-num-classes"],
    )
    def test_bad_config_value_is_a_config_error_before_any_data(
        self, tmp_path, tmp_path_factory, caplog, monkeypatch, edit, key
    ):
        reads = []
        monkeypatch.setattr(bench, "_load_experiment_dataset", reads.append)
        monkeypatch.setattr(bench, "synth_generate", lambda *args: reads.append(args))
        # a config that names a missing dataset, kept outside tmp_path
        config = tmp_path_factory.mktemp("config") / "config.json"
        config.write_text(json.dumps({"dataset_path": str(tmp_path / "missing.tsfo"),
                                      "runs": 1, "epochs": 1, **edit}))
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(["bench", "--config", str(config),
                         "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "configuration error: " in caplog.text and key in caplog.text
        assert reads == [] and list(tmp_path.iterdir()) == []

    def test_synth_noise_nan_is_a_config_error(self, tmp_path, caplog):
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(["synth", "--noise", "nan", "--out", str(tmp_path / "d.tsfo")]) == EXIT_CONFIG
        assert "configuration error: synth noise must be a number, got nan" in caplog.text
        assert list(tmp_path.iterdir()) == []

    def test_train_patches_a_long_series_as_bench_does(self, tmp_path):
        dataset = synth_generate(2, 6, 720, 0.05, 0)
        ds_path, run_dir = str(tmp_path / "d.tsfo"), tmp_path / "m"
        save_dataset(dataset, ds_path)
        assert main(["train", "--data", ds_path, "--epochs", "1", "--out", str(run_dir)]) == 0
        saved = load(str(run_dir / "model.tsfo")).config
        assert saved == _model_config(ExperimentConfig(dataset_path=ds_path), dataset)
        assert (saved.patch_size, saved.num_patches) == (16, 45)

    def test_negative_fine_tune_epochs_is_a_config_error(self, tmp_path):
        ds_path, model_path, out = (str(tmp_path / n) for n in ("d.tsfo", "m.tsfo", "p.tsfo"))
        save_dataset(synth_generate(2, 6, 32, 0.05, 0), ds_path)
        save_model(build_model(preset_config("T1", seq_len=32, num_classes=2), 0), model_path)
        assert main(["prune", "--model", model_path, "--data", ds_path,
                     "--fine-tune-epochs", "-2", "--out", out]) == EXIT_CONFIG
        assert not os.path.exists(out)

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_quantize_without_calibration_rows_is_a_config_error(self, tmp_path, size):
        ds_path, model_path, out = (str(tmp_path / n) for n in ("d.tsfo", "m.tsfo", "q.tsfo"))
        save_dataset(synth_generate(2, 6, 32, 0.05, 0), ds_path)
        save_model(build_model(preset_config("T1", seq_len=32, num_classes=2), 0), model_path)
        assert main(["quantize", "--model", model_path, "--mode", "static", "--data", ds_path,
                     "--calibration-size", size, "--out", out]) == EXIT_CONFIG
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "key, value",
        [("batch_size", 0), ("calibration_size", 0), ("epochs", -1), ("fine_tune_epochs", -1)],
    )
    def test_bench_size_below_its_least_is_a_config_error(self, tmp_path, caplog, key, value):
        config = {"dataset": {"synth": {"classes": 3, "per_class": 12, "length": 96}},
                  "runs": 1, "epochs": 1, "out": str(tmp_path / "bench"), key: value}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(["bench", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert f"{key} must be >= " in caplog.text
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("epochs", "3"), ("sparsity", "0.4"), ("runs", None), ("seed", 1.5),
         ("batch_size", True), ("train_fraction", "0.7"), ("sparsity", 1.5),
         ("sparsity", -0.1), ("optimizations", "static-quant"),
         ("optimizations", [["static-quant"], "qat"]), ("out", 5), ("preset", ["T1"])],
    )
    def test_bench_value_of_a_wrong_type_or_range_is_a_config_error(
        self, tmp_path, caplog, key, value
    ):
        config = {"dataset": {"synth": {"classes": 3, "per_class": 12, "length": 96}},
                  "runs": 1, "epochs": 1, "out": str(tmp_path / "bench"), key: value}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(["bench", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert "configuration error: " in caplog.text and key in caplog.text
        assert not (tmp_path / "bench").exists()

    def test_bench_warmup_count_is_not_a_config_key(self, tmp_path, caplog):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"dataset": SYNTH, "runs": 1, "epochs": 1,
                                        "warmup_inferences": 10, "out": str(tmp_path / "bench")}))
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(["bench", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert "configuration error: unknown config key 'warmup_inferences'" in caplog.text
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("energy", [{"voltage_v": 0}, {"activity_factor": 1.5}])
    def test_bench_energy_value_out_of_range_is_a_config_error(self, tmp_path, caplog, energy):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"dataset": SYNTH, "runs": 1, "epochs": 1,
                                        "energy": energy, "out": str(tmp_path / "bench")}))
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(["bench", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert "configuration error: " in caplog.text
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [({"noise": "x"}, "synth noise must be a number"),
         ({"classes": "3"}, "synth classes must be an int"),
         ({"per_class": 12.0}, "synth per_class must be an int"),
         ({"length": True}, "synth length must be an int"),
         ({"seed": None}, "synth seed must be an int"),
         ({"noise": False}, "synth noise must be a number"),
         ({"classes": 1}, "synth: need at least two classes"),
         ({"per_class": 0}, "synth: need at least one instance per class"),
         ({"length": 8}, "synth: series length must be at least 16"),
         ({"noise": -0.5}, "synth: noise sigma must be nonnegative")],
    )
    def test_bench_synth_value_is_a_config_error_before_any_data(
        self, tmp_path, caplog, monkeypatch, edit, message
    ):
        built = []
        monkeypatch.setattr(bench, "synth_generate", lambda *args, **kw: built.append(kw))
        config = {"dataset": {"synth": {**SYNTH, **edit}}, "runs": 1, "epochs": 1,
                  "out": str(tmp_path / "bench")}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(["bench", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert f"configuration error: {message}" in caplog.text
        assert built == [] and not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("fraction", [0, 1, 1.5, -0.2, 0.0])
    def test_bench_train_fraction_outside_0_1_is_a_config_error_before_any_data(
        self, tmp_path, caplog, monkeypatch, fraction
    ):
        loads = []
        monkeypatch.setattr(bench, "_load_experiment_dataset", loads.append)
        config = {"dataset": SYNTH, "runs": 1, "epochs": 1, "train_fraction": fraction,
                  "out": str(tmp_path / "bench")}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(["bench", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert "configuration error: train_fraction must be in (0, 1)" in caplog.text
        assert loads == [] and not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("sparsity", ["1.5", "-0.1"])
    def test_bench_sparsity_out_of_range_fails_before_training(
        self, tmp_path, monkeypatch, sparsity
    ):
        fits = []
        monkeypatch.setattr(bench, "fit", lambda model, *rest, **kw: fits.append(model) or model)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"dataset": SYNTH, "runs": 1, "epochs": 1,
                                        "optimizations": [["l1-prune"]]}))
        assert main(["bench", "--config", str(cfg_path), "--sparsity", sparsity,
                     "--out", str(tmp_path / "bench")]) == EXIT_CONFIG
        assert fits == []

    @pytest.mark.parametrize("command", ["synth", "train", "bench"])
    def test_negative_seed_is_a_config_error(self, tmp_path, caplog, command):
        ds_path, out = str(tmp_path / "d.tsfo"), str(tmp_path / "out")
        save_dataset(synth_generate(2, 6, 32, 0.05, 0), ds_path)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"dataset": ds_path, "runs": 1, "epochs": 1}))
        argv = {
            "synth": ["synth", "--seed", "-3"],
            "train": ["train", "--data", ds_path, "--epochs", "1", "--seed", "-1"],
            "bench": ["bench", "--config", str(cfg_path), "--seed", "-1"],
        }[command]
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main([*argv, "--out", out]) == EXIT_CONFIG
        assert "configuration error: seed must be >= 0, got -" in caplog.text
        assert not os.path.exists(out)

    def test_negative_split_seed_in_a_model_file_is_a_data_error(self, tmp_path, caplog):
        ds_path, model_path = str(tmp_path / "d.tsfo"), str(tmp_path / "m.tsfo")
        save_dataset(synth_generate(2, 6, 32, 0.05, 0), ds_path)
        model = build_model(preset_config("T1", seq_len=32, num_classes=2), 0)
        model.split = {"train_fraction": 0.7, "seed": -1}
        save_model(model, model_path)
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(["eval", "--model", model_path, "--data", ds_path]) == EXIT_DATA
        assert "non-negative int seed" in caplog.text

    @pytest.mark.parametrize(
        "malform",
        [
            lambda text: text[: len(text) // 2],
            lambda text: text.replace('"reports"', '"rows"'),
            lambda text: text.replace('"inference_ms"', '"latency_ms"'),
        ],
        ids=["invalid-json", "no-reports-key", "row-without-inference-ms"],
    )
    def test_malformed_reports_file_is_a_data_error(self, quick_reports, tmp_path, caplog, malform):
        (path,) = emit_report(as_rows(quick_reports[1]), "json", tmp_path)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(malform(text))
        assert main(["report", "--reports", path, "--out", str(tmp_path / "re")]) == EXIT_DATA
        assert path in caplog.text

    def test_json_report_keeps_the_rows_as_recorded(self, quick_reports, tmp_path):
        rows = as_rows(quick_reports[1])
        rows[0]["provenance"]["environment"].update(git_commit="f" * 40, numpy="0.0")
        (path,) = emit_report(rows, "json", tmp_path)
        assert main(["report", "--reports", path, "--format", "json",
                     "--out", str(tmp_path / "re")]) == 0
        assert load_reports(str(tmp_path / "re" / "reports.json")) == rows

    @pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
    def test_report_with_a_string_for_a_number_is_a_data_error(
        self, quick_reports, tmp_path, caplog, fmt
    ):
        rows = as_rows(quick_reports[1])
        rows[-1]["accuracy_pct"] = "93.1"
        (path,) = emit_report(rows, "json", tmp_path)
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(["report", "--reports", path, "--format", fmt,
                         "--out", str(tmp_path / "re")]) == EXIT_DATA
        assert f"{path}: report {len(rows) - 1}: accuracy_pct must be a number" in caplog.text
        assert not (tmp_path / "re").exists()

    def test_a_wrong_container_kind_as_model_is_a_data_error(self, tmp_path):
        ds_path, model_path, q_path = (str(tmp_path / n) for n in ("d.tsfo", "m.tsfo", "q.tsfo"))
        save_dataset(synth_generate(2, 6, 32, 0.05, 0), ds_path)
        model = build_model(preset_config("T1", seq_len=32, num_classes=2, patch_size=8), 0)
        save_model(model, model_path)
        save_quantized(quantize_dynamic(model), q_path)
        out = str(tmp_path / "out.tsfo")
        codes = [main(argv) for argv in (
            ["eval", "--model", ds_path, "--data", ds_path],
            ["prune", "--model", ds_path, "--out", out],
            ["prune", "--model", q_path, "--out", out],
            ["quantize", "--model", q_path, "--mode", "dynamic", "--out", out],
        )]
        assert codes == [EXIT_DATA] * 4
        # the kinds each command takes still work
        assert main(["eval", "--model", q_path, "--data", ds_path]) == 0
        assert main(["prune", "--model", model_path, "--out", out]) == 0

    def test_int8_eval_of_a_wrong_length_exits_as_float_does(self, tmp_path):
        model_path, q_path = str(tmp_path / "m.tsfo"), str(tmp_path / "q.tsfo")
        save_model(build_model(preset_config("T1", seq_len=64, num_classes=2), 0), model_path)
        assert main(["quantize", "--model", model_path, "--mode", "dynamic",
                     "--out", q_path]) == 0
        ds_path = str(tmp_path / "ds.tsfo")
        save_dataset(synth_generate(2, 6, 96, 0.05, 0), ds_path)
        codes = [main(["eval", "--model", m, "--data", ds_path]) for m in (model_path, q_path)]
        assert codes == [EXIT_COMPUTE, EXIT_COMPUTE]

    def test_ucr_archive_folder(self, tmp_path):
        rng = np.random.default_rng(2)
        folder = tmp_path / "Toy"
        folder.mkdir()
        write_ucr(folder / "Toy_TRAIN.tsv", 20, rng)
        write_ucr(folder / "Toy_TEST.tsv", 10, rng)
        run_dir = str(tmp_path / "m")
        assert main(["train", "--data", str(folder), "--epochs", "1", "--out", run_dir]) == 0
        out = tmp_path / "eval.json"
        assert main(["eval", "--model", os.path.join(run_dir, "model.tsfo"),
                     "--data", str(folder) + os.sep, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["instances"] == 10

        empty = tmp_path / "Empty"
        empty.mkdir()
        (empty / "Other_TRAIN.tsv").write_text("1\t0.5\n")
        assert main(["train", "--data", str(empty), "--out", str(tmp_path / "x")]) == EXIT_DATA

    @pytest.mark.parametrize(
        "split", [[list(range(7)), list(range(5, 12))], [list(range(6)), [6, 7, 50]]],
        ids=["overlapping-sides", "index-out-of-range"],
    )
    def test_container_with_a_bad_split_is_a_data_error(self, tmp_path, caplog, split):
        path = tmp_path / "bad.tsfo"
        tensors = [("instances", np.zeros((12, 1, 32), np.float32), None),
                   ("labels", np.arange(12) % 2, None)]
        write_container(path, "dataset", {"name": "bad", "label_map": {},
                                          "predefined_split": split}, tensors)
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(["train", "--data", str(path), "--epochs", "1",
                         "--out", str(tmp_path / "m")]) == EXIT_DATA
        assert "predefined_split needs distinct row indices in [0, 12)" in caplog.text
        assert not (tmp_path / "m").exists()

    def test_nan_padded_ucr_rows_are_a_data_error(self, tmp_path, caplog):
        # UCR's variable-length sets pad the short series with NaN; no command
        # may turn them into a NaN-driven accuracy, and the error names the row
        rng = np.random.default_rng(4)
        for side, rows in (("TRAIN", 20), ("TEST", 10)):
            path = tmp_path / f"Toy_{side}.tsv"
            write_ucr(path, rows, rng)
            lines = path.read_text().splitlines()
            lines[1::2] = [line.rsplit("\t", 3)[0] + "\tNaN" * 3 for line in lines[1::2]]
            path.write_text("\n".join(lines) + "\n")
        data = str(tmp_path / "Toy_TRAIN.tsv")
        where = f"{data}: line 2: NaN or infinite value"
        assert main(["train", "--data", data, "--epochs", "1",
                     "--out", str(tmp_path / "m")]) == EXIT_DATA
        assert where in caplog.text
        caplog.clear()
        model_path = str(tmp_path / "model.tsfo")
        save_model(build_model(preset_config("T1", seq_len=32, num_classes=2), 0), model_path)
        assert main(["eval", "--model", model_path, "--data", data]) == EXIT_DATA
        assert where in caplog.text

    def test_non_utf8_reports_file_is_a_data_error(self, tmp_path, caplog):
        path = tmp_path / "reports.json"
        path.write_bytes(b'{"reports": ["\xff"]}')
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(["report", "--reports", str(path), "--out", str(tmp_path / "re")]) == EXIT_DATA
        assert f"data error: {path} is not valid UTF-8 JSON" in caplog.text

    def test_non_utf8_bench_config_is_a_config_error(self, tmp_path, caplog):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"dataset": "\xff.tsv"}')
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(["bench", "--config", str(path)]) == EXIT_CONFIG
        assert f"configuration error: {path} is not valid UTF-8 JSON" in caplog.text

    def test_non_utf8_ucr_file_is_a_data_error_naming_its_line(self, tmp_path, caplog):
        path = tmp_path / "Toy.tsv"
        write_ucr(path, 4, np.random.default_rng(0))
        path.write_bytes(path.read_bytes() + b"1\t0.5\xff\n")
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(["train", "--data", str(path), "--epochs", "1",
                         "--out", str(tmp_path / "m")]) == EXIT_DATA
        assert f"data error: {path}: line 5: not UTF-8 text" in caplog.text
        assert not (tmp_path / "m").exists()

    ROW = "1" + "\t0.5" * 32 + "\n"  # a label and 32 values

    @pytest.mark.parametrize(
        "train, test, want",
        [(ROW + "2\tx" + "\t0.7" * 31 + "\n", ROW, "{TRAIN}: line 2: bad numeric value"),
         (ROW, ROW + "2\t0.7\n", "{TEST}: line 2: expected 33 fields, found 2"),
         (ROW, ROW[:-5] + "\n", "{TRAIN} has series of length 32 but {TEST} has length 31")],
        ids=["bad-number-in-train", "short-row-in-test", "lengths-differ"],
    )
    def test_ucr_pair_error_names_its_file(self, tmp_path, caplog, train, test, want):
        paths = {"TRAIN": tmp_path / "Bad_TRAIN.tsv", "TEST": tmp_path / "Bad_TEST.tsv"}
        paths["TRAIN"].write_text(train)
        paths["TEST"].write_text(test)
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(["train", "--data", str(paths["TRAIN"]), "--epochs", "1",
                         "--out", str(tmp_path / "m")]) == EXIT_DATA
        want = want.format(**paths)
        assert f"data error: {want}" in caplog.text
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize(
        "argv, named",
        [(["synth", "--out", "{run}"], "{run}"),
         (["train", "--data", "{data}", "--epochs", "1", "--out", "{data}"], "{data}"),
         (["prune", "--model", "{run}", "--out", "{run}/p.tsfo"], "{run}"),
         (["quantize", "--model", "{run}", "--mode", "dynamic", "--out", "{run}/q.tsfo"], "{run}"),
         (["quantize", "--model", "{model}", "--mode", "dynamic", "--out", "{run}"], "{run}"),
         (["eval", "--model", "{run}", "--data", "{data}"], "{run}"),
         (["eval", "--model", "{model}", "--data", "{data}", "--out", "{run}"], "{run}"),
         (["bench", "--config", "{run}"], "{run}"),
         (["report", "--reports", "{run}"], "{run}")],
        ids=["synth-out-dir", "train-out-file", "prune-model-dir", "quantize-model-dir",
             "quantize-out-dir", "eval-model-dir", "eval-out-dir", "bench-config-dir",
             "report-reports-dir"],
    )
    def test_a_path_that_cannot_be_opened_is_a_data_error_naming_it(
        self, tmp_path, caplog, argv, named
    ):
        paths = {"data": str(tmp_path / "d.tsfo"), "run": str(tmp_path / "run"),
                 "model": str(tmp_path / "run" / "model.tsfo")}
        save_dataset(synth_generate(2, 6, 32, 0.05, 0), paths["data"])
        os.mkdir(paths["run"])
        save_model(build_model(preset_config("T1", seq_len=32, num_classes=2), 0), paths["model"])
        argv = [a.format(**paths) for a in argv]
        named = named.format(**paths)
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(argv) == EXIT_DATA
        (line,) = caplog.messages
        assert line.startswith(f"data error: {named}: ")
        # a model path that is a directory is most likely a train run's --out
        hint = f"; pass {paths['model']}"
        assert line.endswith(hint) == (argv[argv.index(named) - 1] == "--model")

    def test_train_out_that_is_a_file_fails_before_reading_data(
        self, tmp_path, caplog, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("train --out was checked too late")

        monkeypatch.setattr(cli, "_split_rows", never)
        monkeypatch.setattr(cli, "train", never)
        out = tmp_path / "taken"
        out.write_text("")
        with caplog.at_level(logging.ERROR, logger="tsfo"):
            assert main(["train", "--data", str(tmp_path / "d"), "--out", str(out)]) == EXIT_DATA
        assert caplog.messages == [f"data error: {out}: File exists"]

    def test_missing_dataset_exit_code(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "x")]) == EXIT_DATA

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"dataset": {"synth": {"classes": 3, "per_class": 4,
                                                          "length": 96}},
                                   "optimizations": [["warp-drive"]]}))
        assert main(["bench", "--config", str(cfg)]) == EXIT_CONFIG
