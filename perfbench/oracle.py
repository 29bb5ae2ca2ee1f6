"""Float64 reference forward pass, written from a parameter dict alone.

It shares no code with ``tsfo.model`` or ``tsfo.quantization``: the graph
(patch embedding, sinusoidal positions, pre-norm attention and ReLU
feed-forward blocks, mean pooling, linear classifier) is spelled out here
again so that a bug in the program cannot hide in its own reference.

For int8 models the reference uses the dequantized weights and
fake-quantizes the input of every weight-bearing matmul: at the calibrated
affine map (static) or at a symmetric scale from the block's absmax
(dynamic). Scales are rounded to float32 first, as the program stores them.
"""

from __future__ import annotations

import numpy as np


def _round_half_away(x):
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def _f32(scale):
    return np.float64(np.float32(scale))


def _fake_quant(x, scale, zero_point):
    q = np.clip(_round_half_away(x / scale) + zero_point, -128, 127)
    return (q - zero_point) * scale


class _Quantizer:
    """Fake-quantizes matmul inputs: static, dynamic per batch, or per row."""

    def __init__(self, mode, act_qparams=None, per_row=False):
        self.mode = mode
        self.act_qparams = act_qparams
        self.per_row = per_row

    def __call__(self, site, x):
        if self.mode is None:
            return x
        if self.mode == "static":
            scale, zp = self.act_qparams[site]
            return _fake_quant(x, _f32(scale), int(zp))
        if self.per_row:
            absmax = np.abs(x).reshape(len(x), -1).max(axis=1)
            absmax = absmax.reshape((-1,) + (1,) * (x.ndim - 1))
        else:
            absmax = np.abs(x).max()
        scale = np.maximum(absmax, 1e-8) / 127.0
        return _fake_quant(x, scale.astype(np.float32).astype(np.float64), 0)


def _positions(num, dim):
    pos = np.arange(num, dtype=np.float64)[:, None]
    angle = pos / np.power(10000.0, 2.0 * np.arange(dim // 2)[None, :] / dim)
    table = np.empty((num, dim))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    # the program stores its table in float32
    return table.astype(np.float32).astype(np.float64)


def _layer_norm(x, gamma, beta):
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered**2).mean(axis=-1, keepdims=True)
    return gamma * centered / np.sqrt(var + 1e-5) + beta


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def dequantized_params(weights) -> dict:
    """Float64 parameters from ``name -> (int8 data, scale, zero_point, axis)``."""
    out = {}
    for name, (data, scale, zero_point, axis) in weights.items():
        scale = np.asarray(scale, dtype=np.float32).astype(np.float64)
        if scale.ndim:
            shape = [1] * data.ndim
            shape[axis] = scale.shape[0]
            scale = scale.reshape(shape)
        out[name] = (data.astype(np.float64) - zero_point) * scale
    return out


def reference_logits(params, geometry, xs, mode=None, act_qparams=None, per_row=False):
    """Float64 logits for a [B, C, T] batch.

    ``geometry`` is ``(patch_size, patch_stride, head_dim)``. ``mode`` is
    None (float), "static" or "dynamic"; ``per_row`` computes dynamic scales
    per instance, as if each instance were its own request.
    """
    patch, stride, head_dim = geometry
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    fq = _Quantizer(mode, act_qparams, per_row)
    xs = np.asarray(xs, dtype=np.float64)
    b, c, t = xs.shape
    n = (t - patch) // stride + 1
    starts = np.arange(n) * stride
    # [B, n, C, patch] flattened in (channel, offset) order
    cols = xs[:, :, starts[:, None] + np.arange(patch)].transpose(0, 2, 1, 3).reshape(b, n, c * patch)
    w_embed = p["patch_embed.weight"]
    d = w_embed.shape[0]
    h = fq("embed.in", cols) @ w_embed.reshape(d, -1).T + p["patch_embed.bias"]
    h = h + _positions(n, d)

    num_layers = sum(1 for k in p if k.endswith(".norm1.gamma"))
    for l in range(num_layers):
        pre = f"layers.{l}."
        n1 = fq(f"layers.{l}.attn.qkv.in", _layer_norm(h, p[pre + "norm1.gamma"], p[pre + "norm1.beta"]))
        heads = p[pre + "attn.wq"].shape[1] // head_dim

        def split(z):
            return z.reshape(b, n, heads, head_dim).transpose(0, 2, 1, 3)

        q = split(n1 @ p[pre + "attn.wq"] + p[pre + "attn.bq"])
        k = split(n1 @ p[pre + "attn.wk"] + p[pre + "attn.bk"])
        v = split(n1 @ p[pre + "attn.wv"] + p[pre + "attn.bv"])
        attn = _softmax(q @ k.swapaxes(-1, -2) / np.sqrt(head_dim))
        ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, n, heads * head_dim)
        h = h + fq(f"layers.{l}.attn.proj.in", ctx) @ p[pre + "attn.wo"] + p[pre + "attn.bo"]

        n2 = fq(f"layers.{l}.ffn.in", _layer_norm(h, p[pre + "norm2.gamma"], p[pre + "norm2.beta"]))
        mid = np.maximum(n2 @ p[pre + "ffn.w1"] + p[pre + "ffn.b1"], 0.0)
        h = h + fq(f"layers.{l}.ffn.mid.in", mid) @ p[pre + "ffn.w2"] + p[pre + "ffn.b2"]

    pooled = fq("classifier.in", h.mean(axis=1))
    return pooled @ p["classifier.weight"] + p["classifier.bias"]


def expected_logits(jobs: dict, pool: np.ndarray, per_row: bool) -> dict:
    """Reference logits of every variant for a [R, B, C, T] request pool.

    ``jobs`` maps a variant to ``{"geometry", "params"}`` (float) or
    ``{"geometry", "weights", "mode", "act_qparams"}`` (int8). Instances
    are computed a few at a time, except dynamic int8 on a batch, whose
    scales span the whole request.
    """
    requests, batch = pool.shape[:2]
    flat = pool.reshape(requests * batch, *pool.shape[2:])
    out = {}
    for variant, job in jobs.items():
        mode = job.get("mode")
        if mode is None:
            params = {k: np.asarray(v, dtype=np.float64) for k, v in job["params"].items()}
        else:
            params = dequantized_params(job["weights"])
        chunk = batch if mode == "dynamic" and not per_row else 4
        ref = np.concatenate([
            reference_logits(
                params, job["geometry"], flat[i : i + chunk], mode, job.get("act_qparams"), per_row
            )
            for i in range(0, len(flat), chunk)
        ])
        out[variant] = ref.reshape(requests, batch, -1)
    return out


def fixed_params(layers, heads, dim, ffn, patch=8, classes=4, seed=0) -> dict:
    """A float64 parameter dict of the given size, independent of the program."""
    rng = np.random.default_rng(seed)
    p = {"patch_embed.weight": rng.normal(0, 0.3, (dim, 1, patch)), "patch_embed.bias": np.zeros(dim)}
    for l in range(layers):
        pre = f"layers.{l}."
        for norm in ("norm1", "norm2"):
            p[pre + norm + ".gamma"] = np.ones(dim)
            p[pre + norm + ".beta"] = np.zeros(dim)
        for w, b in (("wq", "bq"), ("wk", "bk"), ("wv", "bv"), ("wo", "bo")):
            p[pre + "attn." + w] = rng.normal(0, dim**-0.5, (dim, dim))
            p[pre + "attn." + b] = np.zeros(dim)
        p[pre + "ffn.w1"] = rng.normal(0, dim**-0.5, (dim, ffn))
        p[pre + "ffn.b1"] = np.zeros(ffn)
        p[pre + "ffn.w2"] = rng.normal(0, ffn**-0.5, (ffn, dim))
        p[pre + "ffn.b2"] = np.zeros(dim)
    p["classifier.weight"] = rng.normal(0, dim**-0.5, (dim, classes))
    p["classifier.bias"] = np.zeros(classes)
    return p


def reference_op(layers, heads, dim, ffn, batch, seq_len=192):
    """A fixed float64 forward of a model of this size, for timing the host.

    Its inputs never change and it calls nothing in the program, so its
    duration moves only with the speed of the machine.
    """
    params = fixed_params(layers, heads, dim, ffn)
    xs = np.random.default_rng(1).normal(size=(batch, 1, seq_len))
    geometry = (8, 8, dim // heads)
    return lambda: reference_logits(params, geometry, xs)


def instance_errors(out, ref) -> np.ndarray:
    """Per instance: largest logit error over the reference's largest logit."""
    out = np.asarray(out, dtype=np.float64).reshape(ref.shape)
    scale = np.maximum(np.abs(ref).max(axis=1), 1e-6)
    return np.abs(out - ref).max(axis=1) / scale


def mismatches(out, ref, tol) -> int:
    """Instances whose logits miss the reference.

    An instance misses when its error (``instance_errors``) exceeds ``tol``,
    or when its argmax differs although the reference's top two logits are
    further apart than twice that allowance. Non-finite output misses.
    """
    out = np.asarray(out, dtype=np.float64).reshape(ref.shape)
    if not np.all(np.isfinite(out)):
        return len(ref)
    allowed = tol * np.maximum(np.abs(ref).max(axis=1), 1e-6)
    top2 = np.sort(ref, axis=1)[:, -2:]
    decisive = (top2[:, 1] - top2[:, 0]) > 2 * allowed
    flipped = decisive & (out.argmax(axis=1) != ref.argmax(axis=1))
    return int(np.count_nonzero((instance_errors(out, ref) > tol) | flipped))


if __name__ == "__main__":
    # Child-process entry: a pickled (jobs, pool, per_row) on stdin, the
    # pickled expected_logits result on stdout. Only the benchmark writes
    # that input.
    import pickle
    import sys

    jobs, pool, per_row = pickle.load(sys.stdin.buffer)
    pickle.dump(expected_logits(jobs, pool, per_row), sys.stdout.buffer)
