"""Acceptance suite: every release criterion with its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. The golden end-to-end experiment (criteria 6 and 8) trains a
small model twice on the shipped synthetic dataset and takes a couple of
minutes on a laptop CPU; everything else completes in seconds.
"""

import contextlib
import os

import numpy as np
import pytest

from tsfo.bench import ExperimentConfig, run_experiment
from tsfo.data import (
    TimeSeriesDataset,
    WindowSpec,
    load_ucr_delimited,
    min_max_normalize,
    segment_windows,
    subject_wise_split,
    window_count,
)
from tsfo.metrics import TIME_DERIVED_FIELDS, EnergyParams, ci95, energy_model
from tsfo.model import ModelConfig, build_model, count_flops, count_params
from tsfo.pruning import (
    PruneSpec,
    prunable_pools,
    prune_structured,
    prune_unstructured,
    pruned_energy_estimate,
    select_prune_set,
)
from tsfo.quantization import quantized_energy_estimate
from tsfo.tensor import dequantize_linear, int8_matmul, quantize_linear, seeded_rng
from tsfo.training import loss_and_grads


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


# ---------------------------------------------------------------- criterion 1
def test_criterion_1_formula_reproduction():
    with criterion(1, "closed-form energy/complexity/CI formulas reproduce exactly"):
        rng = seeded_rng(0)
        # pruning estimate E * (1 - p)
        for _ in range(50):
            e, p = float(rng.uniform(0, 100)), float(rng.uniform(0, 0.99))
            assert pruned_energy_estimate(e, p) == e * (1 - p)
        # quantization estimate E / Q
        for _ in range(50):
            e, q = float(rng.uniform(0, 100)), float(rng.uniform(0.5, 8))
            assert quantized_energy_estimate(e, q) == e / q
        # attention complexity T^2 d + T d^2 for 50 random pairs
        from tsfo.metrics import attention_complexity

        for _ in range(50):
            t, d = int(rng.integers(1, 2048)), int(rng.integers(1, 512))
            assert attention_complexity(t, d) == t * t * d + t * d * d
        # activity-capacitance energy
        for _ in range(50):
            params = EnergyParams(
                float(rng.uniform(0.01, 1.0)),
                float(rng.uniform(1e-10, 1e-8)),
                float(rng.uniform(0.5, 3.0)),
                float(rng.uniform(1e8, 5e9)),
            )
            t = float(rng.uniform(0, 10))
            want = (
                params.activity_factor * params.capacitance_f
                * params.voltage_v**2 * params.frequency_hz * t
            )
            assert energy_model(params, t) == want
        # 95% CI against an independent two-pass oracle
        for _ in range(10):
            samples = rng.normal(5.0, 3.0, size=int(rng.integers(2, 400)))
            stats = ci95(samples)
            mean = sum(samples) / len(samples)
            var = sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
            assert abs(stats.mean - mean) < 1e-9
            assert abs(stats.ci95_half - 1.96 * np.sqrt(var) / np.sqrt(len(samples))) < 1e-9


# ---------------------------------------------------------------- criterion 2
def test_criterion_2_tradeoff_table_rows():
    rows = [
        (0.106, 100.0, 10.60),
        (0.150, 96.8, 14.52),
        (0.168, 95.2, 15.99),
        (0.182, 100.0, 18.20),
        (0.251, 97.5, 24.47),
        (0.278, 95.8, 26.63),
    ]
    with criterion(2, "all six trade-off rows reproduce EE x AR to +-0.01"):
        from tsfo.metrics import efficiency_score

        for ee, ar, overall in rows:
            got_ee, got_ar, got_overall = efficiency_score(ee * 7.0, 7.0, ar, 100.0)
            assert abs(got_ee - ee) < 1e-12
            assert abs(got_ar - ar) < 1e-12
            assert abs(got_overall - overall) <= 0.01


# ---------------------------------------------------------------- criterion 3
def test_criterion_3_gradient_correctness():
    with criterion(3, "tiny-model gradients match central finite differences (<1e-3)"):
        cfg = ModelConfig(
            num_layers=1, num_heads=1, model_dim=4, ffn_dim=8, patch_size=2,
            patch_stride=2, seq_len=6, in_channels=1, num_classes=3, dropout=0.0,
        )
        assert cfg.num_patches == 3
        m = build_model(cfg, 0)
        m.params = {k: v.astype(np.float64) for k, v in m.params.items()}
        xs = seeded_rng(2).normal(size=(2, 1, 6))
        ys = np.array([0, 2])
        _, _, grads = loss_and_grads(m, xs, ys)
        h = 1e-3
        for name, g in grads.items():
            fd = np.zeros_like(m.params[name])
            it = np.nditer(m.params[name], flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = m.params[name][idx]
                m.params[name][idx] = orig + h
                lp, _, _ = loss_and_grads(m, xs, ys)
                m.params[name][idx] = orig - h
                lm, _, _ = loss_and_grads(m, xs, ys)
                m.params[name][idx] = orig
                fd[idx] = (lp - lm) / (2 * h)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), np.linalg.norm(fd), 1e-6)
            assert rel < 1e-3, f"{name}: relative error {rel:.2e}"


# ---------------------------------------------------------------- criterion 4
def test_criterion_4_quantization_fidelity():
    with criterion(4, "round-trip <= scale/2; int8 GEMMs vs float oracle; payload /4"):
        rng = seeded_rng(4)
        # (a) quantize/dequantize round trip on 1e5 random in-range values
        lo, hi = -4.0, 6.0
        scale = (hi - lo) / 255.0
        from tsfo.tensor import round_half_away

        zp = int(np.clip(round_half_away(np.float64(-128 - lo / scale)), -128, 127))
        x = rng.uniform(lo, hi, size=100_000).astype(np.float32)
        err = np.abs(dequantize_linear(quantize_linear(x, scale, zp)) - x)
        assert err.max() <= scale / 2 * (1 + 1e-4)

        # (b) int8 GEMM against the dequantized float oracle, 100 random cases
        for _ in range(100):
            m_, k_, n_ = (int(v) for v in rng.integers(1, 33, size=3))
            a = quantize_linear(
                rng.uniform(-3, 3, size=(m_, k_)).astype(np.float32), 6 / 255, -5
            )
            b = quantize_linear(
                rng.uniform(-1, 1, size=(k_, n_)).astype(np.float32), 1 / 127, 0
            )
            got = int8_matmul(a, b)
            want = dequantize_linear(a) @ dequantize_linear(b)
            assert np.abs(got - want).max() <= 1e-4 * max(np.abs(want).max(), 1.0)

        # (c) the served kernel: compiled_linear through every compiled site of
        # a static T1 model, on inputs inside the site's calibrated range,
        # against its dequantized input and packed weight in float
        from tsfo.model import preset_config
        from tsfo.quantization import (
            activation_sites, calibrate, payload_bytes, quantize_dynamic, quantize_static,
        )
        from tsfo.tensor import compiled_linear

        model = build_model(preset_config("T1", seq_len=96, num_classes=7), 0)
        calib = rng.normal(size=(16, 1, 96)).astype(np.float32)
        static = quantize_static(model, calibrate(model, calib))
        for site, (weight, bias) in activation_sites(model.config).items():
            s, zp = static.act_qparams[site]
            packed = static.pack[weight]
            x = rng.uniform((-128 - zp) * s, (127 - zp) * s,
                            size=(24, packed.data.shape[0])).astype(np.float32)
            got = compiled_linear(x, *static.sites[site])
            w = packed.data.astype(np.float32) * packed.scale
            want = dequantize_linear(quantize_linear(x, s, zp)) @ w + static.pack[bias]
            assert np.abs(got - want).max() <= 1e-4 * max(np.abs(want).max(), 1.0)

        # (d) int8 payload is exactly a quarter of the fp32 payload
        qmodel = quantize_dynamic(model)
        ratio = payload_bytes(model) / payload_bytes(qmodel)
        assert abs(ratio - 4.0) <= 0.04


# ---------------------------------------------------------------- criterion 5
def sort_oracle(scores, spec):
    names = list(scores)
    triples = [
        (float(scores[n][i]), pi, i)
        for pi, n in enumerate(names)
        for i in range(len(scores[n]))
    ]
    if spec.scope == "global":
        k = int(np.ceil(spec.sparsity * len(triples)))
        out = {n: [] for n in names}
        for _, pi, i in sorted(triples)[:k]:
            out[names[pi]].append(i)
        return {n: np.array(sorted(v), dtype=np.int64) for n, v in out.items()}
    out = {}
    for n in names:
        k = int(np.ceil(spec.sparsity * len(scores[n])))
        chosen = sorted((float(s), i) for i, s in enumerate(scores[n]))[:k]
        out[n] = np.array(sorted(i for _, i in chosen), dtype=np.int64)
    return out


def test_criterion_5_pruning_correctness():
    with criterion(5, "selection == sort oracle; sparsity exact; structured deltas exact"):
        rng = seeded_rng(5)
        for method in ("l1", "l2"):
            for scope in ("global", "layerwise"):
                for _ in range(100):
                    pools = int(rng.integers(1, 5))
                    scores = {
                        f"pool{j}": rng.uniform(0, 1, size=int(rng.integers(1, 60)))
                        for j in range(pools)
                    }
                    spec = PruneSpec(method, "weight", scope, float(rng.uniform(0, 0.95)))
                    got = select_prune_set(scores, spec)
                    want = sort_oracle(scores, spec)
                    assert all(np.array_equal(got[n], want[n]) for n in scores)

        cfg = ModelConfig(
            num_layers=2, num_heads=2, model_dim=8, ffn_dim=6, patch_size=2,
            patch_stride=2, seq_len=8, in_channels=1, num_classes=3, dropout=0.0,
        )
        for p in (0.25, 0.5, 0.75):
            m = build_model(cfg, 6)
            m, _ = prune_unstructured(m, PruneSpec("l1", "weight", "layerwise", p))
            for name in prunable_pools(m):
                arr = m.params[name]
                zeros = arr.size - np.count_nonzero(arr)
                assert abs(zeros / arr.size - p) <= 1.0 / arr.size + 1e-12

        d, dh, p_count = cfg.model_dim, cfg.head_dim, cfg.num_patches
        m = build_model(cfg, 7)
        heads_removed, _ = prune_structured(m, PruneSpec("l2", "head", "layerwise", 0.5))
        assert count_params(cfg) - count_params(heads_removed.config) == 2 * (4 * d * dh + 3 * dh)
        m = build_model(cfg, 7)
        neurons_removed, _ = prune_structured(m, PruneSpec("l2", "neuron", "layerwise", 0.5))
        assert count_params(cfg) - count_params(neurons_removed.config) == 2 * 3 * (2 * d + 1)
        assert count_flops(cfg) - count_flops(neurons_removed.config) == 2 * 3 * (4 * p_count * d)
        per_head_flops = 2 * (4 * p_count * d * dh + 2 * p_count * p_count * dh)
        assert count_flops(cfg) - count_flops(heads_removed.config) == 2 * per_head_flops


# ------------------------------------------------------- criteria 6 and 8
GOLDEN_EXPERIMENT = dict(
    synth={"classes": 3, "per_class": 60, "length": 192, "noise": 0.05, "seed": 42},
    preset="custom",
    model={
        "num_layers": 3, "num_heads": 4, "model_dim": 64, "ffn_dim": 256,
        "patch_size": 8, "patch_stride": 8, "dropout": 0.1,
    },
    optimizations=[["static-quant"], ["l1-prune"], ["l2-prune"]],
    sparsity=0.4,
    runs=1,
    seed=7,
    epochs=20,
    fine_tune_epochs=5,
    timed_inferences=300,  # protocol minimum is 100; more samples steady the median
)


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    first = run_experiment(ExperimentConfig(out_dir=str(out / "a"), **GOLDEN_EXPERIMENT))
    second = run_experiment(ExperimentConfig(out_dir=str(out / "b"), **GOLDEN_EXPERIMENT))
    return first, second


def test_criterion_6_golden_end_to_end(golden_runs):
    with criterion(6, "golden run: accuracy floors, quant/prune drops, structural speed-up"):
        reports = {r.configuration: r for r in golden_runs[0]}
        chance = 100.0 / 3.0
        assert reports["baseline"].accuracy_pct >= 2.5 * chance
        assert reports["static-quant"].accuracy_drop_pct <= 5.0
        assert reports["l1-prune"].accuracy_drop_pct <= 6.0
        assert reports["l2-prune"].speedup > 1.0


def test_criterion_8_determinism(golden_runs):
    with criterion(8, "repeated golden run is bit-identical modulo wall-time fields"):
        first, second = golden_runs
        assert len(first) == len(second)
        for ra, rb in zip(first, second):
            da, db = ra.to_dict(), rb.to_dict()
            for field in TIME_DERIVED_FIELDS:
                da.pop(field, None)
                db.pop(field, None)
            assert da == db


# ---------------------------------------------------------------- criterion 7
def test_criterion_7_preprocessing_suite():
    with criterion(7, "window formula exhaustive; normalization; split partition"):
        x = np.zeros((1, 100), dtype=np.float32)
        for t in range(1, 101):
            for w in range(1, t + 1):
                for s in range(1, w + 1):
                    assert len(segment_windows(x[:, :t], WindowSpec(w, s))) == window_count(t, w, s)

        rng = seeded_rng(7)
        for _ in range(50):
            series = rng.normal(size=int(rng.integers(2, 64))).astype(np.float32)
            out = min_max_normalize(series)
            assert out.min() >= 0.0 and out.max() <= 1.0
            if out.max() > out.min():
                assert np.allclose(min_max_normalize(out), out, atol=1e-6)

        for trial in range(200):
            n_subjects = int(rng.integers(2, 10))
            n = int(rng.integers(n_subjects, 50))
            subjects = np.array([f"s{i % n_subjects}" for i in range(n)])
            ds = TimeSeriesDataset(
                name="r",
                instances=np.zeros((n, 1, 16), np.float32),
                labels=np.zeros(n, dtype=np.int64),
                label_map={0: 0},
                subjects=subjects,
            )
            train, test = subject_wise_split(ds, float(rng.uniform(0.2, 0.8)), seed=trial)
            assert len(train) + len(test) == n
            assert not set(train.subjects) & set(test.subjects)
            assert set(train.subjects) | set(test.subjects) == set(subjects)


# ---------------------------------------------------------------- criterion 9
UCR_DIR = os.environ.get("TSFO_UCR_DIR")


@pytest.mark.skipif(not UCR_DIR, reason="optional: set TSFO_UCR_DIR to check archive shapes")
def test_criterion_9_ucr_shapes():
    with criterion(9, "supplied UCR archives match the published shapes"):
        refrigeration = load_ucr_delimited(
            os.path.join(UCR_DIR, "RefrigerationDevices", "RefrigerationDevices_TRAIN.tsv")
        )
        assert len(refrigeration) == 375
        assert refrigeration.seq_len == 720
        assert refrigeration.num_classes == 3
        electric_train = load_ucr_delimited(
            os.path.join(UCR_DIR, "ElectricDevices", "ElectricDevices_TRAIN.tsv")
        )
        electric_test = load_ucr_delimited(
            os.path.join(UCR_DIR, "ElectricDevices", "ElectricDevices_TEST.tsv")
        )
        assert len(electric_train) == 8926
        assert len(electric_test) == 7711
        assert electric_train.seq_len == 96
        assert electric_train.num_classes == 7
