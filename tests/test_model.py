import dataclasses
import math
import sys

import numpy as np
import pytest

from conftest import count_calls, python_scalars, with_random_vectors
from tsfo import bench
import tsfo.model as model_mod
import tsfo.training as training_mod
from tsfo.data import subject_wise_split, synth_generate
from tsfo.errors import ConfigError, InputError, ShapeError
from tsfo.metrics import attention_complexity
from tsfo.model import (
    FloatOps,
    ModelConfig,
    TransformerModel,
    build_model,
    count_flops,
    count_params,
    encode,
    flop_breakdown,
    forward,
    forward_batch,
    param_shapes,
    positional_encoding,
    preset_config,
)
from tsfo.pruning import PruneSpec, apply_unstructured_mask, prune_structured, prune_unstructured
from tsfo.quantization import QuantizedModel, _ObservedOps, activation_sites
from tsfo.tensor import im2col_batch, seeded_rng, softmax
from tsfo.training import TrainConfig, fit, train


def tiny_config(**overrides):
    base = dict(
        num_layers=1, num_heads=1, model_dim=4, ffn_dim=8, patch_size=2,
        patch_stride=2, seq_len=6, in_channels=1, num_classes=3, dropout=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(
                num_layers=1, num_heads=3, model_dim=4, ffn_dim=8,
                patch_size=2, patch_stride=2, seq_len=8,
            )

    def test_patch_not_longer_than_series(self):
        with pytest.raises(ConfigError):
            tiny_config(patch_size=10, seq_len=6)

    @pytest.mark.parametrize("size, stride", [(0, 2), (2, 0), (-2, 2)])
    def test_patch_of_no_steps_is_a_config_error(self, size, stride):
        # a zero-step patch would feed the encoder no input at all
        with pytest.raises(ConfigError, match="patch_size and patch_stride must be >= 1"):
            tiny_config(patch_size=size, patch_stride=stride, seq_len=8)

    def test_presets(self):
        t1 = preset_config("T1", seq_len=96, num_classes=7)
        assert (t1.num_layers, t1.num_heads) == (8, 8)
        t2 = preset_config("T2", seq_len=96, num_classes=7)
        assert (t2.num_layers, t2.num_heads) == (12, 16)

    @pytest.mark.parametrize("preset", ["T1", "T2"])
    def test_preset_patch_follows_the_series_length(self, preset):
        for seq_len, patch in ((16, 8), (96, 8), (192, 8), (511, 8), (512, 16), (720, 16)):
            cfg = preset_config(preset, seq_len=seq_len, num_classes=3)
            assert (cfg.patch_size, cfg.patch_stride) == (patch, patch)
        assert preset_config(preset, seq_len=720, num_classes=3, patch_size=8).patch_size == 8

    def test_preset_param_counts_same_order_of_magnitude(self):
        # published totals are 180,041 and 425,789; the hidden sizes are not
        # published, so only the order of magnitude can be matched
        t1 = count_params(preset_config("T1", seq_len=96, num_classes=7))
        t2 = count_params(preset_config("T2", seq_len=96, num_classes=7))
        assert 1e5 < t1 < 1e7
        assert t2 > t1


class TestBuild:
    def test_same_seed_bit_identical(self):
        cfg = tiny_config()
        a = build_model(cfg, 123)
        b = build_model(cfg, 123)
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_different_seed_differs(self):
        cfg = tiny_config()
        a = build_model(cfg, 1)
        b = build_model(cfg, 2)
        assert any(not np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_init_bound(self):
        cfg = tiny_config()
        m = build_model(cfg, 0)
        w = m.params["layers.0.ffn.w1"]
        bound = math.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        assert np.abs(w).max() <= bound


def patch_embed(m, x):
    """[C, T] series -> [P, d] patch vectors: the encoder's embedding step."""
    cols = im2col_batch(x[None], m.config.patch_size, m.config.patch_stride)
    return FloatOps(m.params).linear("embed.in", cols, "patch_embed.weight", "patch_embed.bias")[0]


class TestPatchEmbed:
    @pytest.mark.parametrize(
        "t,k,s,expected", [(96, 8, 8, 12), (720, 16, 16, 45), (64, 64, 64, 1)]
    )
    def test_patch_counts(self, t, k, s, expected):
        cfg = tiny_config(seq_len=t, patch_size=k, patch_stride=s)
        assert cfg.num_patches == expected
        m = build_model(cfg, 0)
        x = seeded_rng(0).normal(size=(1, t)).astype(np.float32)
        assert patch_embed(m, x).shape == (expected, 4)


class TestPositionalEncoding:
    def test_position_zero(self):
        table = positional_encoding(4, 6)
        assert np.allclose(table[0, 0::2], 0.0)
        assert np.allclose(table[0, 1::2], 1.0)

    def test_first_position_sin(self):
        assert abs(positional_encoding(2, 4)[1, 0] - math.sin(1.0)) < 1e-6

    def test_rows_distinct_within_period(self):
        table = positional_encoding(10000, 8)
        assert len(np.unique(table, axis=0)) == 10000

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            positional_encoding(4, 5)


def reference_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    """Independent single-loop attention for oracle comparisons."""
    p, d = x.shape
    dh = wq.shape[1] // heads
    out_heads = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        q = x @ wq[:, sl] + bq[sl]
        k = x @ wk[:, sl] + bk[sl]
        v = x @ wv[:, sl] + bv[sl]
        ctx = np.zeros_like(q)
        for i in range(p):
            scores = np.array([q[i] @ k[j] / math.sqrt(dh) for j in range(p)])
            scores = np.exp(scores - scores.max())
            weights = scores / scores.sum()
            ctx[i] = sum(weights[j] * v[j] for j in range(p))
        out_heads.append(ctx)
    return np.concatenate(out_heads, axis=1) @ wo + bo


def multi_head_attention(m, layer, xs):
    """One layer's attention sublayer on [B, P, d] input, through the float ops."""
    ops = FloatOps(m.params)
    pre = f"layers.{layer}.attn."
    ctx = ops.attend(pre, *ops.qkv(pre, xs), m.config.heads_at(layer))
    return ops.linear(pre + "proj.in", ctx, pre + "wo", pre + "bo")


def attention_forward(m, layer, x):
    """The sublayer on one [P, d] input (no norm/residual)."""
    return multi_head_attention(m, layer, x[None])[0]


class Recorder(list):
    """An observer for the calibration ops that keeps every array it is given."""

    update = list.append


def observed_encode(m, xs):
    """Logits from the calibration ops, and each site's inputs."""
    seen = {site: Recorder() for site in activation_sites(m.config)}
    return encode(m.config, xs, _ObservedOps(m.params, seen)), seen


class TestAttention:
    def test_single_patch_reduces_to_projection(self):
        cfg = tiny_config()
        m = build_model(cfg, 3)
        for name in ("bq", "bk", "bv", "bo"):
            m.params[f"layers.0.attn.{name}"][:] = 0
        x = seeded_rng(1).normal(size=(1, 4)).astype(np.float32)
        got = attention_forward(m, 0, x)
        want = x @ m.params["layers.0.attn.wv"] @ m.params["layers.0.attn.wo"]
        assert np.allclose(got, want, atol=1e-6)

    def test_identical_rows_give_identical_outputs(self):
        cfg = tiny_config(seq_len=8, patch_size=2, patch_stride=2)
        m = build_model(cfg, 5)
        row = seeded_rng(2).normal(size=4).astype(np.float32)
        x = np.tile(row, (4, 1))
        out = attention_forward(m, 0, x)
        assert np.allclose(out, out[0], atol=1e-6)

    def test_against_brute_force_reference(self):
        cfg = tiny_config(model_dim=8, num_heads=2, seq_len=8)
        m = build_model(cfg, 9)
        x = seeded_rng(4).normal(size=(4, 8)).astype(np.float32)
        p = m.params
        want = reference_attention(
            x,
            p["layers.0.attn.wq"], p["layers.0.attn.bq"],
            p["layers.0.attn.wk"], p["layers.0.attn.bk"],
            p["layers.0.attn.wv"], p["layers.0.attn.bv"],
            p["layers.0.attn.wo"], p["layers.0.attn.bo"],
            2,
        )
        assert np.allclose(attention_forward(m, 0, x), want, atol=1e-5)

    def test_attention_rows_sum_to_one(self):
        cfg = tiny_config(model_dim=8, num_heads=2, seq_len=8)
        m = build_model(cfg, 9)
        x = seeded_rng(4).normal(size=(1, 4, 8)).astype(np.float32)
        p = m.params
        q = model_mod._split_heads(x @ p["layers.0.attn.wq"] + p["layers.0.attn.bq"], 2)
        k = model_mod._split_heads(x @ p["layers.0.attn.wk"] + p["layers.0.attn.bk"], 2)
        from tsfo.tensor import softmax

        weights = softmax(np.matmul(q, k.swapaxes(-1, -2)) / math.sqrt(q.shape[-1]), axis=-1)
        assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-6)


def reference_context(q, k, v, heads):
    """Straight-line float64 attention core: one query row at a time."""
    q, k, v = (np.asarray(t, dtype=np.float64) for t in (q, k, v))
    b, p, a = q.shape
    dh = a // heads
    out = np.zeros((b, p, a))
    for n in range(b):
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            for i in range(p):
                scores = np.array([q[n, i, sl] @ k[n, j, sl] for j in range(p)]) / math.sqrt(dh)
                weights = np.exp(scores - scores.max())
                out[n, i, sl] = (weights / weights.sum()) @ v[n, :, sl]
    return out


def split_heads(x, heads):
    # [B, P, a] -> [B, H, P, a/H] view
    return x.reshape(x.shape[0], x.shape[1], heads, x.shape[2] // heads).transpose(0, 2, 1, 3)


def key_major_context(q, k, v, heads):
    """The core the key-outermost layout replaced: scores stored [B, H, key, query]."""
    dh = q.shape[-1] // heads
    q_t = split_heads(q * (1.0 / math.sqrt(dh)), heads).swapaxes(-1, -2)
    scores = np.matmul(split_heads(k, heads), q_t)
    softmax(scores, axis=-2, out=scores)
    ctx = np.empty(q.shape, dtype=np.result_type(scores, v))
    np.matmul(scores.swapaxes(-1, -2), split_heads(v, heads), out=split_heads(ctx, heads))
    return ctx


def strided_attention_weights(q, k, heads):
    """``attention_weights`` as it was before its [dh, P] query operand: the score
    GEMM reads each head's q / sqrt(dh) as a transposed strided view."""
    b, p, a = q.shape
    weights = np.empty((p, b, heads, p), np.result_type(q, k)).transpose(1, 2, 0, 3)
    np.matmul(
        split_heads(k, heads),
        split_heads(q * (1.0 / math.sqrt(a // heads)), heads).swapaxes(-1, -2),
        out=weights,
    )
    rows = weights.transpose(2, 0, 1, 3).reshape(p, -1)
    softmax(rows, axis=0, out=rows)
    return weights


def strided_attention_backward(q, k, v, weights, d_ctx):
    """``attention_backward`` as it was before its [dh, P] operand of the d_s GEMM."""
    heads = weights.shape[1]
    d_ctx = split_heads(d_ctx, heads)
    qh, kh, vh = (split_heads(t, heads) for t in (q, k, v))
    d_q, d_k, d_v = (np.empty(t.shape, np.result_type(weights, d_ctx)) for t in (q, k, v))
    np.matmul(weights, d_ctx, out=split_heads(d_v, heads))
    d_s = np.empty_like(weights, dtype=d_v.dtype)
    np.matmul(vh, d_ctx.swapaxes(-1, -2) * (1.0 / math.sqrt(qh.shape[-1])), out=d_s)
    d_rows, w_rows = (t.transpose(2, 0, 1, 3).reshape(t.shape[2], -1) for t in (d_s, weights))
    d_rows -= (d_rows * w_rows).sum(axis=0)
    d_rows *= w_rows
    np.matmul(d_s, qh, out=split_heads(d_k, heads))
    np.matmul(d_s.swapaxes(-1, -2), kh, out=split_heads(d_q, heads))
    return d_q, d_k, d_v


def pruned_heads_config():
    return tiny_config(
        num_layers=2, num_heads=4, model_dim=16, seq_len=12, heads_per_layer=(2, 1)
    )


class TestAttentionCore:
    @pytest.mark.parametrize(
        "b, p, heads, dh",
        [(2, 5, 1, 8), (3, 6, 4, 4), (2, 1, 3, 4), (1, 1, 1, 2), (1, 24, 8, 8)],
    )
    def test_matches_float64_reference(self, b, p, heads, dh):
        rng = seeded_rng(40 + p)
        q, k, v = (rng.normal(size=(b, p, heads * dh)).astype(np.float32) for _ in range(3))
        got = model_mod.attention_context(q, k, v, heads)
        assert got.shape == q.shape and got.dtype == np.float32
        assert np.abs(got - reference_context(q, k, v, heads)).max() <= 1e-6

    def test_inputs_untouched(self):
        rng = seeded_rng(41)
        qkv = [rng.normal(size=(2, 6, 8)).astype(np.float32) for _ in range(3)]
        before = [t.copy() for t in qkv]
        model_mod.attention_context(*qkv, 2)
        assert all(np.array_equal(t, c) for t, c in zip(qkv, before))

    def test_pruned_heads_per_layer(self):
        m = build_model(pruned_heads_config(), 42)
        x = seeded_rng(43).normal(size=(6, 16)).astype(np.float32)
        p64 = {name: arr.astype(np.float64) for name, arr in m.params.items()}
        for layer in range(2):
            pre = f"layers.{layer}.attn."
            want = reference_attention(
                x.astype(np.float64),
                *(p64[pre + n] for n in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")),
                m.config.heads_at(layer),
            )
            assert np.abs(attention_forward(m, layer, x) - want).max() <= 1e-6

    def test_proj_hook_array_reproduces_sublayer(self):
        m = build_model(pruned_heads_config(), 44)
        xs = seeded_rng(45).normal(size=(3, 1, 12)).astype(np.float32)
        _, sites = observed_encode(m, xs)
        seen = {site: arrays[0] for site, arrays in sites.items()}
        p = m.params
        for layer in range(2):
            pre = f"layers.{layer}.attn."
            out = multi_head_attention(m, layer, seen[pre + "qkv.in"])
            ctx = seen[pre + "proj.in"]
            assert ctx.shape == (3, 6, m.config.attn_width(layer))
            assert np.array_equal(ctx @ p[pre + "wo"] + p[pre + "bo"], out)

    def test_hooked_forward_computes_attention_once(self, monkeypatch):
        m = build_model(pruned_heads_config(), 46)
        xs = seeded_rng(47).normal(size=(2, 1, 12)).astype(np.float32)
        calls = []
        real = model_mod.softmax
        monkeypatch.setattr(model_mod, "softmax", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        plain = forward_batch(m, xs)
        assert len(calls) == 2
        hooked, _ = observed_encode(m, xs)
        assert len(calls) == 4
        assert np.array_equal(plain, hooked)

    @pytest.mark.parametrize("b, heads, dh", [(1, 8, 8), (64, 8, 8), (64, 16, 6), (64, 10, 6)])
    def test_equals_key_major_core(self, b, heads, dh):
        rng = seeded_rng(50 + b + heads)
        q, k, v = (rng.normal(size=(b, 24, heads * dh)).astype(np.float32) for _ in range(3))
        assert np.array_equal(
            model_mod.attention_context(q, k, v, heads), key_major_context(q, k, v, heads)
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("heads, dh", [(16, 6), (10, 6), (8, 8)])
    def test_blocks_equal_one_buffer(self, monkeypatch, heads, dh, dtype):
        """With a budget of 5 instances' scores, a batch runs in blocks and gives
        the bits of one [key, B, H, query] buffer, at every block edge."""
        block, p, itemsize = 5, 24, np.dtype(dtype).itemsize
        monkeypatch.setattr(model_mod, "BLOCK_BYTES", block * heads * p * p * itemsize)
        rng = seeded_rng(56 + heads)
        q, k, v = (rng.normal(size=(64, p, heads * dh)).astype(dtype) for _ in range(3))
        real, calls = model_mod.attention_weights, []
        monkeypatch.setattr(
            model_mod, "attention_weights", lambda *a: calls.append(len(a[0])) or real(*a)
        )
        for b in (1, block - 1, block, block + 1, 64):
            calls.clear()
            got = model_mod.attention_context(q[:b], k[:b], v[:b], heads)
            assert calls == [min(block, b - i) for i in range(0, b, block)]
            want = model_mod.weighted_values(real(q[:b], k[:b], heads), v[:b])
            assert got.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dh", [1, 4, 6, 8, 16, 24])
    def test_query_operand_keeps_the_strided_bits(self, dh, dtype):
        """Scaled queries written as each head's row-major [dh, P] operand give
        the bits of the transposed strided view: weights, context (batch 14
        is one full block of 16 float32 heads, 15 and 64 run in blocks) and
        the backward's gradients. Head widths of 32 and up can differ in the
        last place and are left out (see ``attention_weights``). Widths 1, 4
        and 16 scale by a power of two, so only 6, 8 and 24 tell scaling
        before the GEMM from scaling after."""
        rng = seeded_rng(60 + dh)
        for heads in (16, 9, 8):
            q, k, v, d_ctx = (rng.normal(size=(64, 24, heads * dh)).astype(dtype) for _ in range(4))
            for b in (1, 14, 15, 64):
                args = q[:b], k[:b], v[:b]
                want = strided_attention_weights(q[:b], k[:b], heads)
                got = model_mod.attention_weights(q[:b], k[:b], heads)
                assert got.dtype == want.dtype == dtype and np.array_equal(got, want)
                ctx = model_mod.attention_context(*args, heads)
                want_ctx = model_mod.weighted_values(want, v[:b])
                assert ctx.dtype == want_ctx.dtype and np.array_equal(ctx, want_ctx)
                grads = model_mod.attention_backward(*args, want, d_ctx[:b])
                for g, w in zip(grads, strided_attention_backward(*args, want, d_ctx[:b])):
                    assert g.dtype == w.dtype == dtype and np.array_equal(g, w)

    @pytest.mark.parametrize("b", [1, 64])
    def test_pruned_forward_equals_key_major_core(self, monkeypatch, b):
        # 24 patches, as in the presets, so that reduction order shows in the bits
        m = build_model(dataclasses.replace(pruned_heads_config(), seq_len=48), 51)
        xs = seeded_rng(52).normal(size=(b, 1, 48)).astype(np.float32)
        got = forward_batch(m, xs)
        monkeypatch.setattr(model_mod, "attention_context", key_major_context)
        assert np.array_equal(got, forward_batch(m, xs))

    def test_weights_stored_key_outermost_and_normalized_over_keys(self):
        rng = seeded_rng(53)
        q, k = (rng.normal(size=(3, 7, 12)).astype(np.float32) for _ in range(2))
        w = model_mod.attention_weights(q, k, 3)
        assert w.shape == (3, 3, 7, 7) and w.dtype == np.float32
        # [B, H, key, query] is a view of one [key, B, H, query] buffer
        assert w.transpose(2, 0, 1, 3).flags.c_contiguous
        assert np.allclose(w.sum(axis=2), 1.0, atol=1e-6)
        assert np.all(w >= 0)

    def test_training_uses_the_core_once_per_layer(self, monkeypatch):
        assert training_mod.attention_weights is model_mod.attention_weights
        m = build_model(pruned_heads_config(), 54)
        xs = seeded_rng(55).normal(size=(4, 1, 12)).astype(np.float32)
        ys = np.array([0, 1, 1, 0])
        weights, softmaxes = [], []
        real_weights, real_softmax = training_mod.attention_weights, training_mod.softmax
        monkeypatch.setattr(
            training_mod, "attention_weights",
            lambda *a: weights.append(1) or real_weights(*a),
        )
        monkeypatch.setattr(
            training_mod, "softmax", lambda *a, **kw: softmaxes.append(1) or real_softmax(*a, **kw)
        )
        training_mod.loss_and_grads(m, xs, ys)
        assert len(weights) == m.config.num_layers
        assert len(softmaxes) == 1  # the loss's; attention normalizes inside the core


def reference_forward(m, x):
    """Straight-line single-instance forward, written independently."""
    cfg = m.config
    p = m.params
    k, s = cfg.patch_size, cfg.patch_stride
    n_patches = (cfg.seq_len - k) // s + 1
    h = np.zeros((n_patches, cfg.model_dim))
    for i in range(n_patches):
        window = x[:, i * s : i * s + k].ravel()  # channel-major
        for o in range(cfg.model_dim):
            h[i, o] = (
                np.dot(p["patch_embed.weight"][o].ravel(), window)
                + p["patch_embed.bias"][o]
            )
    h = h + positional_encoding(n_patches, cfg.model_dim)

    def ln(v, gamma, beta):
        mu = v.mean()
        var = ((v - mu) ** 2).mean()
        return gamma * (v - mu) / math.sqrt(var + 1e-5) + beta

    for l in range(cfg.num_layers):
        pre = f"layers.{l}."
        n1 = np.stack([ln(row, p[pre + "norm1.gamma"], p[pre + "norm1.beta"]) for row in h])
        attn = reference_attention(
            n1,
            p[pre + "attn.wq"], p[pre + "attn.bq"],
            p[pre + "attn.wk"], p[pre + "attn.bk"],
            p[pre + "attn.wv"], p[pre + "attn.bv"],
            p[pre + "attn.wo"], p[pre + "attn.bo"],
            cfg.heads_at(l),
        )
        h = h + attn
        n2 = np.stack([ln(row, p[pre + "norm2.gamma"], p[pre + "norm2.beta"]) for row in h])
        mid = np.maximum(n2 @ p[pre + "ffn.w1"] + p[pre + "ffn.b1"], 0)
        h = h + mid @ p[pre + "ffn.w2"] + p[pre + "ffn.b2"]
    pooled = h.mean(axis=0)
    return pooled @ p["classifier.weight"] + p["classifier.bias"]


class TestForward:
    def test_eval_deterministic(self):
        cfg = tiny_config(dropout=0.3)
        m = build_model(cfg, 0)
        x = seeded_rng(7).normal(size=(1, 6)).astype(np.float32)
        assert np.array_equal(forward(m, x), forward(m, x))

    def test_zero_classifier_uniform(self):
        cfg = tiny_config()
        m = build_model(cfg, 0)
        m.params["classifier.weight"][:] = 0
        m.params["classifier.bias"][:] = 0
        x = seeded_rng(8).normal(size=(1, 6)).astype(np.float32)
        logits = forward(m, x)
        assert np.array_equal(logits, np.zeros(3, np.float32))
        from tsfo.tensor import softmax

        assert np.allclose(softmax(logits), 1.0 / 3)

    def test_tiny_model_matches_straight_line_reference(self):
        cfg = tiny_config()
        m = build_model(cfg, 21)
        x = seeded_rng(22).normal(size=(1, 6)).astype(np.float32)
        assert np.allclose(forward(m, x), reference_forward(m, x), atol=1e-5)

    def test_finite_logits_for_large_inputs(self):
        cfg = tiny_config()
        m = build_model(cfg, 0)
        x = np.full((1, 6), 1e6, dtype=np.float32)
        assert np.all(np.isfinite(forward(m, x)))

    def test_shape_mismatch_rejected(self):
        m = build_model(tiny_config(), 0)
        with pytest.raises(ShapeError):
            forward(m, np.zeros((2, 6), np.float32))

    def test_pool_invariant_to_patch_permutation_without_pe(self, monkeypatch):
        cfg = tiny_config(seq_len=8, patch_size=2, patch_stride=2)
        m = build_model(cfg, 11)
        monkeypatch.setattr(
            model_mod,
            "positional_encoding",
            lambda p, d: np.zeros((p, d), dtype=np.float32),
        )
        rng = seeded_rng(12)
        x = rng.normal(size=(1, 8)).astype(np.float32)
        # permute whole patches (stride == patch size, so blocks are patches)
        perm = [3, 0, 2, 1]
        x_perm = np.concatenate([x[:, 2 * j : 2 * j + 2] for j in perm], axis=1)
        got = forward_batch(m, x[None])
        got_perm = forward_batch(m, x_perm[None])
        assert np.allclose(got, got_perm, atol=1e-5)


class TestTypedConstants:
    """The forward's scalar operands are read-only 0-d arrays of the activation's
    dtype (``tensor.constant``), which round as the Python scalars they replace."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", ["float", "pruned"])
    def test_same_logits_as_python_scalars(self, variant, dtype):
        from tsfo.pruning import PruneSpec, prune_structured

        m = build_model(preset_config("T1", seq_len=192, num_classes=4), 80)
        if variant == "pruned":
            for granularity in ("neuron", "head"):
                m, _ = prune_structured(m, PruneSpec("l2", granularity, "layerwise", 0.4))
        m = TransformerModel(m.config, {k: v.astype(dtype) for k, v in m.params.items()})
        for batch in (1, 7, 64):
            xs = seeded_rng(81 + batch).normal(size=(batch, 1, 192)).astype(dtype)
            got = forward_batch(m, xs)
            with python_scalars():
                want = forward_batch(m, xs)
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want), batch


class TestEncode:
    def test_every_path_runs_encode_once_per_call(self, monkeypatch):
        from tsfo import quantization

        calls = []
        real = model_mod.encode

        def counted(cfg, xs, ops):
            calls.append(type(ops).__name__)
            return real(cfg, xs, ops)

        # rebind wherever a tsfo module holds the function
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "tsfo"]:
            if getattr(module, "encode", None) is real:
                monkeypatch.setattr(module, "encode", counted)
        m = build_model(pruned_heads_config(), 60)
        xs = seeded_rng(61).normal(size=(5, 1, 12)).astype(np.float32)
        forward_batch(m, xs)
        assert calls == ["FloatOps"]
        # calibration runs batches of 64: 130 rows take three
        observers = quantization.calibrate(m, np.concatenate([xs] * 26))
        assert calls[1:] == ["_ObservedOps"] * 3
        del calls[:]
        quantization.quantized_forward_batch(quantization.quantize_static(m, observers), xs)
        quantization.quantized_forward_batch(quantization.quantize_dynamic(m), xs)
        training_mod.loss_and_grads(m, xs, np.array([0, 1, 2, 0, 1]))
        assert calls == ["_Int8Ops", "_Int8Ops", "_Tape"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize(
        "run", ["f32", "pruned", "int8s", "int8d", "loss_and_grads", "calibrate"]
    )
    def test_non_finite_input_is_an_input_error(self, run, bad):
        """Every model, training and calibration refuse a NaN or an infinity, rather
        than return NaN logits, clamp it to a plausible answer or fail on a NaN scale."""
        from tsfo import quantization
        from tsfo.pruning import PruneSpec, prune_structured

        m = build_model(pruned_heads_config(), 70)
        xs = seeded_rng(71).normal(size=(3, 1, 12)).astype(np.float32)
        runs = {
            "f32": lambda x: forward_batch(m, x),
            "pruned": lambda x: forward_batch(
                prune_structured(m, PruneSpec("l2", "neuron", "layerwise", 0.5))[0], x
            ),
            "int8s": lambda x: quantization.quantized_forward_batch(
                quantization.quantize_static(m, quantization.calibrate(m, xs)), x
            ),
            "int8d": lambda x: quantization.quantized_forward_batch(
                quantization.quantize_dynamic(m), x
            ),
            "loss_and_grads": lambda x: training_mod.loss_and_grads(m, x, np.array([0, 1, 2])),
            "calibrate": lambda x: quantization.calibrate(m, x),
        }
        runs[run](xs)
        poisoned = xs.copy()
        poisoned[1, 0, 5] = bad
        with pytest.raises(InputError, match="NaN or an infinite"):
            runs[run](poisoned)

    def test_single_instance_forward_call_budget(self):
        """A T1 batch-1 forward makes at most 418 Python and C calls (399 today,
        with the one-call check that the input is finite and the ReLU as an
        ops step; 461 before the layer-name table, the inline head views of
        the attention core, the in-place norm moments and the reshape view of
        the patch unfold). The typed constants left it at 399: ``count_calls``
        sees neither the ufunc calls nor ``tensor.constant``'s cache.

        At batch 1 most of a forward's time is fixed per-call cost, not FLOPs,
        so the call count is what single-instance latency is made of. Routing
        the reductions through ``ndarray.mean``/``max``/``sum`` and the patch
        unfold through ``sliding_window_view`` made 813; this bound keeps such
        overhead from creeping back unseen.
        """
        m = build_model(preset_config("T1", seq_len=192, num_classes=4), 0)
        x = seeded_rng(62).normal(size=(1, 192)).astype(np.float32)
        assert count_calls(forward, m, x) <= 418


class TestCounts:
    def test_enumeration_oracle_random_configs(self):
        rng = seeded_rng(42)
        for _ in range(20):
            heads = int(rng.integers(1, 5))
            cfg = ModelConfig(
                num_layers=int(rng.integers(1, 4)),
                num_heads=heads,
                model_dim=heads * int(rng.integers(1, 5)) * 2,
                ffn_dim=int(rng.integers(2, 33)),
                patch_size=4,
                patch_stride=int(rng.integers(1, 5)),
                seq_len=int(rng.integers(8, 65)),
                in_channels=int(rng.integers(1, 4)),
                num_classes=int(rng.integers(2, 9)),
            )
            enumerated = sum(int(np.prod(s)) for s in param_shapes(cfg).values())
            assert count_params(cfg) == enumerated

    def test_linear_in_depth(self):
        c1 = count_params(tiny_config(num_layers=1))
        c2 = count_params(tiny_config(num_layers=2))
        c3 = count_params(tiny_config(num_layers=3))
        assert c2 - c1 == c3 - c2

    def test_params_match_built_tensors(self):
        cfg = tiny_config(num_layers=2, num_heads=2, model_dim=8)
        m = build_model(cfg, 0)
        assert count_params(cfg) == sum(v.size for v in m.params.values())


class TestFlops:
    def test_attention_core_term(self):
        cfg = ModelConfig(
            num_layers=1, num_heads=8, model_dim=64, ffn_dim=256,
            patch_size=8, patch_stride=8, seq_len=8 * 96 + 0, num_classes=3,
        )
        # seq_len chosen so the patch count is 96
        assert cfg.num_patches == 96
        p, d = cfg.num_patches, cfg.model_dim
        core = attention_complexity(p, d)
        assert core == 96**2 * 64 + 96 * 64**2 == 983040
        # 2 FLOPs per MAC: scores and weighted sum (2 P^2 d MACs) plus the
        # four d x d projections (4 P d^2 MACs) = 4 * core + 4 P d^2
        assert flop_breakdown(cfg)["attention"] == 4 * core + 4 * p * d * d

    def test_halving_ffn_halves_ffn_term(self):
        full = flop_breakdown(tiny_config(ffn_dim=8))
        half = flop_breakdown(tiny_config(ffn_dim=4))
        assert half["ffn"] * 2 == full["ffn"]
        assert half["attention"] == full["attention"]

    def test_total_is_sum_of_components(self):
        b = flop_breakdown(tiny_config(num_layers=2))
        assert b["total"] == b["patch_embed"] + b["attention"] + b["ffn"] + b["classifier"]
        assert count_flops(tiny_config(num_layers=2)) == b["total"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["T1", "T1-l2", "T2", "T2-l2"])
def test_serving_tiles_keep_the_bits_of_n_vectors(variant, dtype):
    """Float and pruned logits served from the [1, P, n] tiles equal those of the
    [n] vectors the tape reads, in the same dtype, at batch 1, 7 and 64, on
    models whose every vector is random (the pruned ones' layers differ in
    width); a tile with one wrong row moves them."""
    cfg = preset_config(variant[:2], seq_len=192, num_classes=4)
    m = with_random_vectors(build_model(cfg, 90), 89)
    if variant.endswith("l2"):
        for granularity in ("neuron", "head"):
            m, _ = prune_structured(m, PruneSpec("l2", granularity, "layerwise", 0.4))
    m.params = {k: v.astype(dtype) for k, v in m.params.items()}
    for batch in (1, 7, 64):
        xs = seeded_rng(92 + batch).normal(size=(batch, 1, 192)).astype(dtype)
        got = forward_batch(m, xs)
        want = encode(m.config, xs, FloatOps(m.params))
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want), batch
    m.serving["layers.0.ffn.b1"][0, -1] += 1  # the last patch's row only
    xs = xs[:1]
    assert not np.array_equal(forward_batch(m, xs), encode(m.config, xs, FloatOps(m.params)))


class TestNoStaleLayout:
    """A model that has served a forward and is then written serves the logits
    of a fresh model of its arrays."""

    @pytest.fixture(scope="class")
    def setting(self):
        dataset = synth_generate(3, 12, 32, 0.05, 0)
        train_ds, val_ds = subject_wise_split(dataset, 0.7, 0)
        cfg = preset_config("T1", seq_len=32, num_classes=3)
        base = with_random_vectors(build_model(cfg, 0), 1)
        xs = seeded_rng(2).normal(size=(5, 1, 32)).astype(np.float32)
        return base, train_ds, val_ds, xs

    @staticmethod
    def served(base, xs):
        m = base.copy()
        forward_batch(m, xs)
        assert "serving" in vars(m)
        return m

    @staticmethod
    def assert_fresh(m, xs):
        fresh = TransformerModel(m.config, {k: v.copy() for k, v in m.params.items()})
        assert np.array_equal(forward_batch(m, xs), forward_batch(fresh, xs))

    def test_fit_and_train(self, setting):
        base, train_ds, val_ds, xs = setting
        cfg = TrainConfig(epochs=2, batch_size=8, seed=0)
        m = fit(self.served(base, xs), train_ds, cfg)
        self.assert_fresh(m, xs)
        # train's per-epoch evaluate serves the model between its epochs
        m, _ = train(self.served(base, xs), train_ds, cfg, val_dataset=val_ds)
        self.assert_fresh(m, xs)

    def test_pruning_masks(self, setting):
        base, _, _, xs = setting
        m, _ = prune_unstructured(self.served(base, xs), PruneSpec("l1", "weight", "global", 0.4))
        self.assert_fresh(m, xs)
        # a masked vector, whose tile the layout holds
        m = apply_unstructured_mask(self.served(base, xs), {"layers.0.ffn.b1": np.arange(5)})
        self.assert_fresh(m, xs)

    @pytest.mark.parametrize("op", ["l1-prune", "l2-prune", "qat"])
    def test_pipeline_branches(self, setting, monkeypatch, op):
        """Each model a branch fine-tunes or masks has served a forward first."""
        base, train_ds, _, xs = setting
        written = []

        def serve_first(real):
            def run(m, *args, **kwargs):
                forward_batch(m, xs)
                out = real(m, *args, **kwargs)
                written.append(out if isinstance(out, TransformerModel) else out[0])
                return out
            return run

        for name in ("fit", "prune_unstructured"):
            monkeypatch.setattr(bench, name, serve_first(getattr(bench, name)))
        config = bench.ExperimentConfig(synth={"classes": 3, "per_class": 12, "length": 32},
                                        fine_tune_epochs=1, calibration_size=8)
        obj, _, _ = bench._apply_pipeline([op], self.served(base, xs), train_ds, config, 0)
        assert written and isinstance(obj, QuantizedModel) == (op == "qat")
        for m in written + [obj] * (op != "qat"):
            self.assert_fresh(m, xs)

    def test_params_reassigned(self, setting):
        base, _, _, xs = setting
        m = self.served(base, xs)
        m.params = {k: v * np.float32(1.5) for k, v in m.params.items()}
        assert "serving" not in vars(m)
        self.assert_fresh(m, xs)

    def test_copies_have_no_layout(self, setting):
        base, _, _, xs = setting
        m = self.served(base, xs)
        for other in (m.copy(), dataclasses.replace(m), dataclasses.replace(m, split=None)):
            assert "serving" not in vars(other)
            self.assert_fresh(other, xs)
