import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import count_calls
from tsfo.data import synth_generate, subject_wise_split
from tsfo.errors import CalibrationError, InputError
from tsfo.model import (
    FloatOps, ModelConfig, attention_context, build_model, encode, forward_batch, preset_config,
)
from tsfo.pruning import PruneSpec, prune_structured
from tsfo.quantization import (
    _ObservedOps,
    activation_sites,
    calibrate,
    fake_quant_weight,
    payload_bytes,
    quantize_dynamic,
    quantize_static,
    quantize_weight,
    quantized_energy_estimate,
    quantized_forward,
    quantized_forward_batch,
    scale_zero_point,
)
import tsfo.model as model_mod
from tsfo import quantization, tensor
from tsfo.model import positional_encoding
from tsfo.tensor import (
    INT8_MAX,
    INT8_MIN,
    QTensor,
    _dynamic_qparams,
    dequantize_linear,
    im2col_batch,
    int8_matmul,
    layer_norm,
    quantize_linear,
    relu,
    seeded_rng,
)
from tsfo.training import TrainConfig, fit, train


class Recorder(list):
    """An observer for the calibration ops that keeps every array it is given."""

    update = list.append


def small_config(**overrides):
    base = dict(
        num_layers=2, num_heads=2, model_dim=8, ffn_dim=16, patch_size=4,
        patch_stride=4, seq_len=16, in_channels=1, num_classes=3, dropout=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestScaleZeroPoint:
    def test_affine_hand_computed(self):
        scale, zp = scale_zero_point(0.0, 2.55)
        assert scale == pytest.approx(0.01)
        assert zp == -128

    def test_degenerate_range_fallback(self):
        scale, zp = scale_zero_point(0.0, 0.0)
        assert scale == pytest.approx(1e-8 / 127)
        assert zp == 0

    def test_min_above_max_rejected(self):
        with pytest.raises(InputError):
            scale_zero_point(1.0, 0.5)

    @pytest.mark.parametrize(
        "lo, hi", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0)]
    )
    def test_non_finite_range_rejected(self, lo, hi):
        with pytest.raises(InputError):
            scale_zero_point(lo, hi)


class TestCalibrate:
    def test_constant_zero_inputs(self):
        m = build_model(small_config(), 0)
        obs = calibrate(m, np.zeros((4, 1, 16), np.float32))
        assert obs["embed.in"].min_val == 0.0
        assert obs["embed.in"].max_val == 0.0

    def test_order_insensitive(self):
        m = build_model(small_config(), 1)
        xs = seeded_rng(2).normal(size=(10, 1, 16)).astype(np.float32)
        a = calibrate(m, xs)
        b = calibrate(m, xs[::-1].copy())
        for site in a:
            assert a[site].min_val == b[site].min_val
            assert a[site].max_val == b[site].max_val

    def test_monotone_under_dataset_union(self):
        m = build_model(small_config(), 2)
        rng = seeded_rng(7)
        part_a = rng.normal(size=(5, 1, 16)).astype(np.float32)
        part_b = rng.normal(size=(7, 1, 16)).astype(np.float32)
        only_a = calibrate(m, part_a)
        both = calibrate(m, np.concatenate([part_a, part_b]))
        for site in only_a:
            assert both[site].min_val <= only_a[site].min_val
            assert both[site].max_val >= only_a[site].max_val

    def test_against_store_everything_oracle(self):
        m = build_model(small_config(), 3)
        xs = seeded_rng(4).normal(size=(6, 1, 16)).astype(np.float32)
        stored = {site: Recorder() for site in activation_sites(m.config)}
        encode(m.config, xs, _ObservedOps(m.params, stored))
        obs = calibrate(m, xs)
        for site, chunks in stored.items():
            allvals = np.concatenate([c.ravel() for c in chunks])
            assert obs[site].min_val == pytest.approx(float(allvals.min()))
            assert obs[site].max_val == pytest.approx(float(allvals.max()))

    def test_empty_calibration_rejected(self):
        m = build_model(small_config(), 0)
        with pytest.raises(InputError):
            calibrate(m, np.zeros((0, 1, 16), np.float32))


class TestStatic:
    def setup_method(self):
        self.m = build_model(small_config(), 5)
        self.xs = seeded_rng(6).normal(size=(12, 1, 16)).astype(np.float32)
        self.qm = quantize_static(self.m, calibrate(self.m, self.xs))

    def test_every_weight_has_counterpart(self):
        assert set(self.qm.weights) == set(self.m.params)

    def test_payload_quarter_of_fp32(self):
        assert payload_bytes(self.m) == 4 * payload_bytes(self.qm)

    def test_per_channel_weight_error_bound(self):
        for name, arr in self.m.params.items():
            q = self.qm.weights[name]
            err = np.abs(dequantize_linear(q) - arr)
            if q.scale.ndim == 0:
                bound = float(q.scale) / 2
                assert err.max() <= bound * (1 + 1e-5)
            else:
                shape = [1] * arr.ndim
                shape[q.channel_axis] = -1
                bound = q.scale.reshape(shape) / 2
                assert np.all(err <= bound * (1 + 1e-5))

    def test_quantizing_twice_identical(self):
        qm2 = quantize_static(self.m, calibrate(self.m, self.xs))
        for name in self.qm.weights:
            assert np.array_equal(self.qm.weights[name].data, qm2.weights[name].data)
        assert self.qm.act_qparams == qm2.act_qparams

    def test_inference_bit_stable(self):
        a = quantized_forward_batch(self.qm, self.xs)
        b = quantized_forward_batch(self.qm, self.xs.copy())
        assert np.array_equal(a, b)

    def test_missing_observer_rejected(self):
        obs = calibrate(self.m, self.xs)
        del obs["classifier.in"]
        with pytest.raises(CalibrationError, match="classifier.in"):
            quantize_static(self.m, obs)

    @pytest.mark.parametrize("mode", ["Static", "int8", None])
    def test_model_built_in_python_with_an_unknown_mode(self, mode):
        with pytest.raises(InputError, match="mode"):
            replace(self.qm, mode=mode)

    def test_model_built_in_python_with_a_layout_inference_cannot_pack(self):
        q = self.qm.weights["layers.0.attn.wq"]
        weights = {**self.qm.weights, "layers.0.attn.wq": QTensor(q.data, np.float32(0.01), 3)}
        for mode in ("static", "dynamic"):
            with pytest.raises(InputError, match="layers.0.attn.wq"):
                replace(self.qm, weights=weights, mode=mode)

    @pytest.mark.parametrize("drop, add, first", [
        ("all", None, "embed.in"), ("None", None, "embed.in"),
        ("layers.1.ffn.in", None, "layers.1.ffn.in"), (None, "layers.9.ffn.in", "layers.9.ffn.in"),
    ])
    def test_static_model_built_in_python_without_exactly_its_sites(self, drop, add, first):
        act = {s: qp for s, qp in self.qm.act_qparams.items() if drop not in ("all", s)}
        if add:
            act[add] = (0.1, 0)
        act = None if drop == "None" else act
        with pytest.raises(CalibrationError, match=first):
            replace(self.qm, act_qparams=act)
        assert replace(self.qm, mode="dynamic", act_qparams=act).sites is None

    def test_scale_that_rounds_to_float32_infinity_rejected(self):
        act = {site: (1e39, 0) for site in self.qm.act_qparams}
        with pytest.raises(InputError, match="finite"):
            quantized_forward_batch(replace(self.qm, act_qparams=act), self.xs)


GOLDEN_CFG = ModelConfig(
    num_layers=2, num_heads=4, model_dim=32, ffn_dim=64, patch_size=8,
    patch_stride=8, seq_len=96, in_channels=1, num_classes=3, dropout=0.1,
)


@pytest.fixture(scope="module")
def trained_tiny():
    ds = synth_generate(3, 40, 96, 0.05, seed=42)
    train_ds, test_ds = subject_wise_split(ds, 0.7, 42)
    m = build_model(GOLDEN_CFG, 7)
    m, _ = train(m, train_ds, TrainConfig(epochs=15, batch_size=32, seed=7))
    return m, train_ds, test_ds


class TestGoldenQuantization:
    def test_static_argmax_agreement(self, trained_tiny):
        m, train_ds, _ = trained_tiny
        qm = quantize_static(m, calibrate(m, train_ds.instances[:64]))
        fresh = synth_generate(3, 67, 96, 0.05, seed=1042)
        xs = fresh.instances[:200]
        f_pred = np.argmax(forward_batch(m, xs), axis=1)
        q_pred = np.argmax(quantized_forward_batch(qm, xs), axis=1)
        assert (f_pred == q_pred).mean() >= 0.95

    def test_dynamic_logit_agreement(self, trained_tiny):
        m, _, test_ds = trained_tiny
        dm = quantize_dynamic(m)
        f = forward_batch(m, test_ds.instances)
        d = quantized_forward_batch(dm, test_ds.instances)
        assert np.abs(f - d).mean() <= 0.1

    def test_dynamic_within_twice_static_deviation(self, trained_tiny):
        m, train_ds, test_ds = trained_tiny
        qm = quantize_static(m, calibrate(m, train_ds.instances[:64]))
        dm = quantize_dynamic(m)
        f = forward_batch(m, test_ds.instances)
        s = quantized_forward_batch(qm, test_ds.instances)
        d = quantized_forward_batch(dm, test_ds.instances)
        static_dev = np.abs(f - s).mean()
        assert np.abs(s - d).mean() <= 2 * static_dev + 1e-6

    def test_qat_drop_not_worse_than_ptq(self, trained_tiny):
        m, train_ds, test_ds = trained_tiny
        from tsfo.training import evaluate

        base = evaluate(m, test_ds)
        ptq = quantize_static(m, calibrate(m, train_ds.instances[:64]))
        ptq_drop = base - evaluate(ptq, test_ds)
        qat_model = m.copy()
        qat_model = fit(
            qat_model, train_ds,
            TrainConfig(epochs=3, batch_size=32, lr_max=3e-4, seed=8),
            weight_fake_quant=True,
        )
        qat = quantize_static(qat_model, calibrate(qat_model, train_ds.instances[:64]))
        qat_drop = base - evaluate(qat, test_ds)
        assert qat_drop <= ptq_drop + 1e-9


class TestDynamic:
    def test_zero_input_gives_bias_logits(self):
        cfg = small_config()
        m = build_model(cfg, 7)
        # zero all weights so every pre-classifier activation is exactly zero
        for name, arr in m.params.items():
            if name.endswith((".gamma",)):
                continue
            arr[:] = 0
        m.params["classifier.bias"][:] = np.array([0.5, -0.25, 1.0], np.float32)
        dm = quantize_dynamic(m)
        out = quantized_forward(dm, np.zeros((1, 16), np.float32))
        # biases are int8 like every other parameter, so the logits equal the
        # dequantized bias exactly and the float bias within scale/2
        assert np.array_equal(out, dequantize_linear(dm.weights["classifier.bias"]))
        bias_scale = float(dm.weights["classifier.bias"].scale)
        assert np.abs(out - [0.5, -0.25, 1.0]).max() <= bias_scale / 2 * (1 + 1e-5)

    def test_scale_is_absmax_over_127(self):
        rng = seeded_rng(31)
        blocks = [rng.normal(size=(24, 64)).astype(np.float32) for _ in range(20)]
        for b in blocks[:10]:
            # one negative extreme, larger in magnitude than every positive value
            b.flat[rng.integers(b.size)] = -4 * np.abs(b).max()
        blocks += [np.zeros((3, 5), np.float32), -np.ones((2, 2), np.float32)]
        for b in blocks:
            want = max(float(np.abs(b).max()), 1e-8) / 127.0
            assert _dynamic_qparams(b) == (want, 0)
        assert math.isnan(_dynamic_qparams(np.array([1.0, np.nan], np.float32))[0])

class TestFakeQuant:
    def test_weight_fake_quant_matches_quantizer(self):
        w = seeded_rng(10).normal(size=(6, 4)).astype(np.float32)
        assert np.array_equal(fake_quant_weight(w), dequantize_linear(quantize_weight(w)))


class TestEnergyAndMemory:
    def test_energy_estimate_values(self):
        assert quantized_energy_estimate(40.0, 4.0) == pytest.approx(10.0)
        assert quantized_energy_estimate(7.5, 1.0) == 7.5
        # the published measurement for this row is 25.1 J; the /Q value is an
        # idealized bound reported separately
        assert quantized_energy_estimate(35.3, 4.0) == pytest.approx(8.825)

    def test_energy_estimate_validation(self):
        with pytest.raises(InputError):
            quantized_energy_estimate(1.0, 0.0)

    def test_memory_matches_file_oracle(self, tmp_path):
        from tsfo.serialize import read_container, save_quantized

        m = build_model(small_config(), 12)
        qm = quantize_dynamic(m)
        path = tmp_path / "q.tsfo"
        save_quantized(qm, path)
        kind, _, tensors = read_container(path)
        file_payload = sum(arr.nbytes for arr, _ in tensors.values())
        assert file_payload == payload_bytes(qm)


def per_site_reference(qmodel, xs):
    """Int8 inference composed site by site from the public tensor ops.

    Every weight-bearing matmul quantizes its input, runs ``int8_matmul``
    against the stored int8 weight, dequantizes and adds the dequantized
    bias; Q, K and V are three separate sites. The float attention core
    between them is ``model.attention_context``. The packed forward must
    match this bit for bit.
    """
    cfg = qmodel.config
    w = qmodel.weights

    def param(name):
        return dequantize_linear(w[name])

    def qmm(site, x, weight):
        if qmodel.mode == "static":
            scale, zp = qmodel.act_qparams[site]
        else:
            scale, zp = max(float(np.abs(x).max()), 1e-8) / 127.0, 0
        q = quantize_linear(x.reshape(-1, x.shape[-1]), scale, zp)
        return int8_matmul(q, weight).reshape(*x.shape[:-1], -1)

    conv = w["patch_embed.weight"]
    conv2d = QTensor(
        np.ascontiguousarray(conv.data.reshape(conv.data.shape[0], -1).T),
        conv.scale, 0, channel_axis=1,
    )
    cols = im2col_batch(xs, cfg.patch_size, cfg.patch_stride)
    h = qmm("embed.in", cols, conv2d) + param("patch_embed.bias")
    h = h + positional_encoding(cfg.num_patches, cfg.model_dim)
    for l in range(cfg.num_layers):
        pre = f"layers.{l}."
        n = cfg.heads_at(l)
        n1 = layer_norm(h, param(pre + "norm1.gamma"), param(pre + "norm1.beta"))
        site = pre + "attn.qkv.in"
        q = qmm(site, n1, w[pre + "attn.wq"]) + param(pre + "attn.bq")
        k = qmm(site, n1, w[pre + "attn.wk"]) + param(pre + "attn.bk")
        v = qmm(site, n1, w[pre + "attn.wv"]) + param(pre + "attn.bv")
        # the float attention core every forward runs: dividing q k^T by
        # sqrt(dh) after the product rounds differently from scaling q first
        # wherever sqrt(dh) is not a power of two
        ctx = attention_context(q, k, v, n)
        h = h + (qmm(pre + "attn.proj.in", ctx, w[pre + "attn.wo"]) + param(pre + "attn.bo"))
        n2 = layer_norm(h, param(pre + "norm2.gamma"), param(pre + "norm2.beta"))
        mid = relu(qmm(pre + "ffn.in", n2, w[pre + "ffn.w1"]) + param(pre + "ffn.b1"))
        h = h + (qmm(pre + "ffn.mid.in", mid, w[pre + "ffn.w2"]) + param(pre + "ffn.b2"))
    pooled = h.mean(axis=1)
    return qmm("classifier.in", pooled, w["classifier.weight"]) + param("classifier.bias")


class TestPackedInference:
    # ffn_dim 576: the FFN down-projection has K = 576, past the float32
    # exactness bound, so its packed weight takes the float64 path
    @pytest.mark.parametrize("cfg", [small_config(), small_config(ffn_dim=576)])
    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    @pytest.mark.parametrize("batch", [1, 8])
    def test_bit_identical_to_per_site_reference(self, cfg, mode, batch):
        m = build_model(cfg, 21)
        xs = seeded_rng(22).normal(size=(batch, 1, 16)).astype(np.float32) * 2
        if mode == "static":
            calib = seeded_rng(23).normal(size=(16, 1, 16)).astype(np.float32)
            qm = quantize_static(m, calibrate(m, calib))
        else:
            qm = quantize_dynamic(m)
        got = quantized_forward_batch(qm, xs)
        assert got.dtype == np.float32
        assert np.array_equal(got, per_site_reference(qm, xs))

    def test_float64_fallback_engaged(self):
        qm = quantize_dynamic(build_model(small_config(ffn_dim=576), 24))
        assert qm.pack["layers.0.ffn.w2"].data.dtype == np.float64
        assert qm.pack["layers.0.ffn.w1"].data.dtype == np.float32


def static_t_model(model, seed):
    """``model`` quantized statically, calibrated on 16 random series."""
    cfg = model.config
    calib = seeded_rng(seed).normal(size=(16, cfg.in_channels, cfg.seq_len)).astype(np.float32)
    return quantize_static(model, calibrate(model, calib))


def t_inputs(cfg, batch, seed):
    return seeded_rng(seed).normal(size=(batch, cfg.in_channels, cfg.seq_len)).astype(np.float32)


class TestCompiledSites:
    """Static inference reads sites the model compiles once; the logits stay
    those of the per-site reference."""

    @pytest.mark.parametrize("preset", ["T1", "T2"])
    @pytest.mark.parametrize("batch", [1, 64])
    def test_presets_match_per_site_reference(self, preset, batch):
        qm = static_t_model(build_model(preset_config(preset, seq_len=64, num_classes=4), 41), 42)
        xs = t_inputs(qm.config, batch, 43)
        assert np.array_equal(quantized_forward_batch(qm, xs), per_site_reference(qm, xs))

    @pytest.mark.parametrize("batch", [1, 64])
    def test_l2_pruned_then_quantized(self, batch):
        m = build_model(preset_config("T1", seq_len=64, num_classes=4), 44)
        for granularity in ("neuron", "head"):
            m, _ = prune_structured(m, PruneSpec("l2", granularity, "layerwise", 0.4))
        assert m.config.heads_per_layer and m.config.ffn_per_layer
        qm = static_t_model(m, 45)
        xs = t_inputs(qm.config, batch, 46)
        assert np.array_equal(quantized_forward_batch(qm, xs), per_site_reference(qm, xs))

    def test_save_load_round_trip(self, tmp_path):
        from tsfo.serialize import load, save_quantized

        qm = static_t_model(build_model(preset_config("T1", seq_len=64, num_classes=4), 47), 48)
        xs = t_inputs(qm.config, 64, 49)
        want = quantized_forward_batch(qm, xs)
        save_quantized(qm, tmp_path / "q.tsfo")
        loaded = load(tmp_path / "q.tsfo")
        assert "sites" not in vars(loaded)  # compiled on first use
        assert np.array_equal(quantized_forward_batch(loaded, xs), want)
        assert np.array_equal(want, per_site_reference(loaded, xs))

    def test_compiled_once_per_model(self):
        m = build_model(small_config(), 50)
        qm = static_t_model(m, 51)
        qm.compile()
        sites = qm.sites
        quantized_forward_batch(qm, t_inputs(qm.config, 2, 52))
        assert qm.sites is sites and list(sites) == list(activation_sites(qm.config))
        assert quantize_dynamic(m).sites is None

    def test_sites_requantize_by_float32_multipliers(self):
        qm = static_t_model(build_model(preset_config("T1", seq_len=64, num_classes=4), 53), 54)
        for site, (weight, _) in activation_sites(qm.config).items():
            col_scales = qm.pack[weight].scale
            rescale = qm.sites[site][4]
            assert col_scales.dtype == np.float32 and rescale.dtype == np.float32
            assert np.array_equal(rescale, np.float32(qm.act_qparams[site][0]) * col_scales)


def parent_quantize_folded(x, inv, lo, hi, dtype):
    """The quantize kernel as it ran before it widened x with one cast: numpy's
    mixed-dtype multiply, the clamp, and ``np.rint`` into a float32 buffer.
    A dynamic site, which passes no bounds, is clamped to its zero point's
    [-128, 127], as it was before its clamp was dropped."""
    if lo is None:
        lo, hi = INT8_MIN, INT8_MAX
    r = np.multiply(x, inv, dtype=np.float64)
    np.maximum(r, lo, out=r)
    np.minimum(r, hi, out=r)
    return np.rint(r, out=r if dtype == np.float64 else np.empty(r.shape, dtype))


class TestQuantizePassAndFoldedRelu:
    """Int8 inference quantizes each activation after one widening cast, and a
    static site whose clamp starts at 0 rectifies by that clamp; neither moves a bit."""

    @pytest.mark.parametrize("preset", ["T1", "T2"])
    @pytest.mark.parametrize("batch", [1, 64])
    def test_same_logits_as_the_parent_kernel_with_an_explicit_relu(
        self, monkeypatch, preset, batch
    ):
        m = build_model(preset_config(preset, seq_len=64, num_classes=4), 71)
        qs = static_t_model(m, 72)
        qd = quantize_dynamic(m)
        xs = t_inputs(m.config, batch, 73)
        got = [quantized_forward_batch(q, xs) for q in (qs, qd)]
        assert all(qs.sites[site][1] == 0 for site in qs.sites if site.endswith("ffn.mid.in"))
        monkeypatch.setattr(tensor, "_quantize_folded", parent_quantize_folded)
        monkeypatch.setattr(quantization._Int8Ops, "relu", FloatOps.relu)  # always rectify
        for q, logits in zip((qs, qd), got):
            assert np.array_equal(logits, quantized_forward_batch(q, xs))

    def test_a_site_whose_clamp_keeps_negatives_still_rectifies(self):
        m = build_model(preset_config("T1", seq_len=64, num_classes=4), 74)
        qm = static_t_model(m, 75)
        qm.compile()
        site = "layers.3.ffn.mid.in"
        scale, zero_point = qm.act_qparams[site]
        assert zero_point == INT8_MIN
        qm.act_qparams[site] = (scale, 0)
        del qm.sites  # the cached plan, compiled again from the edited map
        assert qm.sites[site][1] == INT8_MIN
        xs = t_inputs(m.config, 8, 76)
        assert np.array_equal(quantized_forward_batch(qm, xs), per_site_reference(qm, xs))


@pytest.mark.parametrize("preset", ["T1", "T2"])
def test_logits_keep_their_bits_in_blocks(monkeypatch, preset):
    """With a 4 kB budget, every attention core of a batch runs one instance at
    a time and every int8 quantize pass in blocks of 512 values; float, static
    and dynamic int8 logits keep the bits of one buffer."""
    m = build_model(preset_config(preset, seq_len=192, num_classes=4), 0)
    xs = t_inputs(m.config, 9, 64)
    serve = [(forward_batch, m), (quantized_forward_batch, static_t_model(m, 65)),
             (quantized_forward_batch, quantize_dynamic(m))]

    def logits(budget):
        monkeypatch.setattr(tensor, "BLOCK_BYTES", budget)
        monkeypatch.setattr(model_mod, "BLOCK_BYTES", budget)
        return [fn(obj, xs) for fn, obj in serve]

    for got, want in zip(logits(2**12), logits(2**62)):
        assert np.array_equal(got, want)


def test_quantized_forward_call_budget():
    """A T1 batch-1 int8 forward: at most 600 calls static (556 today), 760 dynamic
    (742 today).

    A static site reads the arguments its model compiled once, so it skips
    the scale, bound and rescale work each call used to redo (624 calls).
    The dynamic path compiles its scale on every call and must stay lean: a
    per-call record or one more helper per site would cost 34 calls.
    """
    m = build_model(preset_config("T1", seq_len=192, num_classes=4), 0)
    x = seeded_rng(62).normal(size=(1, 192)).astype(np.float32)
    assert count_calls(quantized_forward, static_t_model(m, 63), x) <= 600
    assert count_calls(quantized_forward, quantize_dynamic(m), x) <= 760
