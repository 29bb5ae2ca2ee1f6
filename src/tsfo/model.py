"""Time-series transformer: patch embedding, encoder stack, classifier.

The architecture is a pre-norm encoder. A strided 1-D convolution turns the
input series into patch vectors, a fixed sinusoidal table adds position
information, and each encoder block applies multi-head self-attention and a
ReLU feed-forward network, both with residual connections. Patch outputs are
mean-pooled before the linear classifier.

Parameters live in a flat ``name -> ndarray`` dict of C-contiguous arrays, so
that gradients, prune masks, optimizer state, and serialization can all share
one keying scheme; a float model is exactly those arrays.

``encode`` is the one definition of that graph. Float and pruned models run
it on ``FloatOps``; int8 inference, calibration and training on subclasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConfigError, InputError, ShapeError, check_types
from .tensor import BLOCK_BYTES, im2col_batch, layer_norm, relu, seeded_rng, softmax


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int
    num_heads: int
    model_dim: int
    ffn_dim: int
    patch_size: int
    patch_stride: int
    seq_len: int
    in_channels: int = 1
    num_classes: int = 2
    dropout: float = 0.1
    # Per-layer overrides produced by structured pruning; None means uniform.
    heads_per_layer: tuple[int, ...] | None = None
    ffn_per_layer: tuple[int, ...] | None = None

    def __post_init__(self):
        check_types(self, "model")
        if self.num_layers < 1 or self.num_heads < 1:
            raise ConfigError("need at least one layer and one head")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}"
            )
        _check_even_dim(self.model_dim)
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")
        if self.patch_size > self.seq_len:
            raise ConfigError(
                f"patch_size {self.patch_size} exceeds seq_len {self.seq_len}"
            )
        if self.patch_size < 1 or self.patch_stride < 1:
            raise ConfigError("patch_size and patch_stride must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        for name in ("heads_per_layer", "ffn_per_layer"):
            per_layer = getattr(self, name)
            if per_layer is not None:
                # a tuple, however given (JSON gives a list), so configs hash and compare
                per_layer = tuple(per_layer)
                object.__setattr__(self, name, per_layer)
                if len(per_layer) != self.num_layers:
                    raise ConfigError(f"{name} must list all {self.num_layers} layers")
                if any(v < 1 for v in per_layer):
                    raise ConfigError(f"{name} entries must be >= 1")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads

    @property
    def num_patches(self) -> int:
        return (self.seq_len - self.patch_size) // self.patch_stride + 1

    def heads_at(self, layer: int) -> int:
        return self.heads_per_layer[layer] if self.heads_per_layer else self.num_heads

    def ffn_at(self, layer: int) -> int:
        return self.ffn_per_layer[layer] if self.ffn_per_layer else self.ffn_dim

    def attn_width(self, layer: int) -> int:
        return self.heads_at(layer) * self.head_dim


# Published presets give depth and head counts; the hidden sizes below keep
# the parameter counts in the same order of magnitude and are our choice.
_PRESET_DIMS = {
    "T1": dict(num_layers=8, num_heads=8, model_dim=64, ffn_dim=256),
    "T2": dict(num_layers=12, num_heads=16, model_dim=96, ffn_dim=384),
}


def preset_config(
    name: str,
    seq_len: int,
    num_classes: int,
    in_channels: int = 1,
    patch_size: int | None = None,
    patch_stride: int | None = None,
) -> ModelConfig:
    """Build a T1 or T2 configuration for a concrete dataset shape. Unless given,
    patches are 16 steps long from ``seq_len`` 512 on and 8 below it."""
    if name not in _PRESET_DIMS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(_PRESET_DIMS)}")
    if patch_size is None:
        patch_size = 16 if seq_len >= 512 else 8
    return ModelConfig(
        patch_size=patch_size,
        patch_stride=patch_stride if patch_stride is not None else patch_size,
        seq_len=seq_len,
        in_channels=in_channels,
        num_classes=num_classes,
        **_PRESET_DIMS[name],
    )


@dataclass
class TransformerModel:
    config: ModelConfig
    params: dict[str, np.ndarray]
    # train_fraction and seed of the dataset split the model was trained on
    split: dict | None = None

    def copy(self) -> "TransformerModel":
        return replace(self, params={k: v.copy() for k, v in self.params.items()})


def param_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Every parameter tensor's shape, fully determined by the config."""
    d = config.model_dim
    shapes: dict[str, tuple] = {
        "patch_embed.weight": (d, config.in_channels, config.patch_size),
        "patch_embed.bias": (d,),
    }
    for l in range(config.num_layers):
        a = config.attn_width(l)
        f = config.ffn_at(l)
        p = f"layers.{l}."
        shapes[p + "norm1.gamma"] = (d,)
        shapes[p + "norm1.beta"] = (d,)
        shapes[p + "attn.wq"] = (d, a)
        shapes[p + "attn.bq"] = (a,)
        shapes[p + "attn.wk"] = (d, a)
        shapes[p + "attn.bk"] = (a,)
        shapes[p + "attn.wv"] = (d, a)
        shapes[p + "attn.bv"] = (a,)
        shapes[p + "attn.wo"] = (a, d)
        shapes[p + "attn.bo"] = (d,)
        shapes[p + "norm2.gamma"] = (d,)
        shapes[p + "norm2.beta"] = (d,)
        shapes[p + "ffn.w1"] = (d, f)
        shapes[p + "ffn.b1"] = (f,)
        shapes[p + "ffn.w2"] = (f, d)
        shapes[p + "ffn.b2"] = (d,)
    shapes["classifier.weight"] = (d, config.num_classes)
    shapes["classifier.bias"] = (config.num_classes,)
    return shapes


def build_model(config: ModelConfig, rng: np.random.Generator | int) -> TransformerModel:
    """Initialize all weights; deterministic for a fixed seed.

    A parameter's init follows its rank: norm gains start at one, every
    other 1-D parameter at zero, and the [in, out] matrices and the [d, C, k]
    conv kernel use scaled uniform init with bound sqrt(6/(fan_in+fan_out)).
    Tensors are drawn in the fixed order of ``param_shapes``, which pins the
    random stream.
    """
    if isinstance(rng, (int, np.integer)):
        rng = seeded_rng(rng)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".gamma"):
            params[name] = np.ones(shape, dtype=np.float32)
        elif len(shape) == 1:
            params[name] = np.zeros(shape, dtype=np.float32)
        else:
            fan_in, fan_out = (math.prod(shape[1:]), shape[0]) if len(shape) == 3 else shape
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            params[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
    return TransformerModel(config=config, params=params)


def _check_even_dim(dim: int) -> None:
    """The positional table's rule, which ``ModelConfig`` checks before any data
    is read: sin and cos fill its columns in pairs, so ``dim`` must be even."""
    if dim % 2 != 0:
        raise ConfigError(f"model_dim must be even for the positional encoding, got {dim}")


@lru_cache(maxsize=64)
def positional_encoding(num_positions: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal table: sin on even columns, cos on odd columns.

    The table is deterministic, so it is cached, and callers share one
    read-only array. An odd ``dim`` is a ``ConfigError`` (``_check_even_dim``).
    """
    _check_even_dim(dim)
    pos = np.arange(num_positions, dtype=np.float64)[:, None]
    i = np.arange(dim // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / dim)
    table = np.empty((num_positions, dim), dtype=np.float32)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    table.setflags(write=False)
    return table


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    # [B, P, a] -> [B, H, P, a/H]
    b, p, a = x.shape
    return x.reshape(b, p, num_heads, a // num_heads).transpose(0, 2, 1, 3)


def _key_rows(w: np.ndarray) -> np.ndarray:
    # [B, H, key, query] weights stored key-outermost -> a view of their [key, B*H*query] rows
    return w.transpose(2, 0, 1, 3).reshape(w.shape[2], -1)


def attention_weights(q: np.ndarray, k: np.ndarray, num_heads: int) -> np.ndarray:
    """Softmax weights [B, H, key, query] of [B, P, a] projections, stored key-outermost.

    The first half of ``attention_context``; training keeps them for
    ``attention_backward``. The pass that scales q by 1/sqrt(dh) writes each
    head's queries as a C-contiguous [dh, P] array, the score GEMM's right
    operand: OpenBLAS runs these tiny products 2-3x faster from a row-major
    [dh, P] operand than from a transposed view of [P, dh] rows. Orientation
    is the lever, not contiguity: a contiguous [P, dh] q read through
    ``swapaxes`` is slower. With OpenBLAS 0.3.31 the bits equal the
    transposed view's for head widths 1 to 24; from 32 up (no preset) they
    can differ in the last place."""
    b, p, a = q.shape
    dh = a // num_heads
    weights = np.empty((p, b, num_heads, p), np.result_type(q, k)).transpose(1, 2, 0, 3)
    q_t = np.empty((b, num_heads, dh, p), q.dtype)
    np.multiply(q.reshape(b, p, num_heads, dh).transpose(0, 2, 3, 1), 1.0 / math.sqrt(dh), out=q_t)
    np.matmul(_split_heads(k, num_heads), q_t, out=weights)
    rows = _key_rows(weights)
    softmax(rows, axis=0, out=rows)
    return weights


def weighted_values(weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    """[B, H, key, query] weights times [B, P, a] values, written into merged [B, P, a] heads."""
    heads = weights.shape[1]
    ctx = np.empty(v.shape, dtype=np.result_type(weights, v))
    np.matmul(weights.swapaxes(-1, -2), _split_heads(v, heads), out=_split_heads(ctx, heads))
    return ctx


def attention_backward(q, k, v, weights, d_ctx) -> tuple:
    """Gradients (d_q, d_k, d_v), each [B, P, a], of ``weighted_values(weights, v)``
    with ``weights = attention_weights(q, k, H)``, given the [B, P, a] gradient of
    that context. The softmax backward runs over the keys in the weights'
    key-outermost layout, as the forward's softmax does. As for the scores,
    the pass that scales d_ctx^T by 1/sqrt(dh) writes the C-contiguous
    [dh, P] right operand of each head's ``d_s = v_h @ d_ctx_h^T``."""
    heads = weights.shape[1]
    d_ctx = _split_heads(d_ctx, heads)
    qh, kh, vh = (_split_heads(t, heads) for t in (q, k, v))
    d_q, d_k, d_v = (np.empty(t.shape, np.result_type(weights, d_ctx)) for t in (q, k, v))
    np.matmul(weights, d_ctx, out=_split_heads(d_v, heads))
    # d_s, laid out as the weights are, takes the scores' 1/sqrt(dh)
    d_s = np.empty_like(weights, dtype=d_v.dtype)
    d_ctx_t, c = d_ctx.swapaxes(-1, -2), 1.0 / math.sqrt(qh.shape[-1])
    np.matmul(vh, np.multiply(d_ctx_t, c, out=np.empty(d_ctx_t.shape, d_ctx.dtype)), out=d_s)
    d_rows, w_rows = _key_rows(d_s), _key_rows(weights)
    d_rows -= (d_rows * w_rows).sum(axis=0)
    d_rows *= w_rows
    np.matmul(d_s, qh, out=_split_heads(d_k, heads))
    np.matmul(d_s.swapaxes(-1, -2), kh, out=_split_heads(d_q, heads))
    return d_q, d_k, d_v


def attention_context(q: np.ndarray, k: np.ndarray, v: np.ndarray, num_heads: int) -> np.ndarray:
    """Scaled dot-product attention of [B, P, a] projections, merged to [B, P, a].

    ``attention_weights`` then ``weighted_values``, for every inference
    forward; training runs the two itself, as it keeps the weights. BLAS
    writes each head's ``k @ (q / sqrt(dh))^T``, read from a row-major
    [dh, P] q operand (the orientation its small GEMMs run fastest), into a
    [key, B, H, query] buffer, so the softmax normalizes P contiguous rows
    of B*H*P scores in place (same sums, same order, same bits) instead of
    B*H*P short reductions. With the presets' heads that wins at batch 1 as
    at 64.

    A batch whose score buffer exceeds ``tensor.BLOCK_BYTES`` runs in blocks
    of whole instances, each written into one [B, P, a] output, so the
    buffer stays in L2 from the GEMM through the softmax to the values. No
    arithmetic changes: each (instance, head) GEMM keeps its shape, and the
    softmax sums each query's column over the keys in the same order.
    """
    b, p, _ = q.shape
    step = BLOCK_BYTES // (num_heads * p * p * q.itemsize) or 1
    if b <= step:
        return weighted_values(attention_weights(q, k, num_heads), v)
    ctx = np.empty(v.shape, np.result_type(q, k, v))
    for i in range(0, b, step):
        block = slice(i, i + step)
        ctx[block] = weighted_values(attention_weights(q[block], k[block], num_heads), v[block])
    return ctx


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    # x @ w + b with the bias added in place on the fresh product
    out = x @ w
    out += b
    return out


class FloatOps:
    """``encode``'s steps that read parameters, on float ones: ``x @ W + b``.

    A site is named by its input, as ``quantization.activation_sites`` lists
    them; a prefix names the parameters of a norm or an attention sublayer.
    Outputs are fresh arrays.
    """

    def __init__(self, params: dict):
        self.params = params

    def linear(self, site: str, x: np.ndarray, weight: str, bias: str) -> np.ndarray:
        w = self.params[weight]
        if w.ndim == 3:  # the conv kernel [d, C, k] as its [C*k, d] matmul
            w = w.reshape(w.shape[0], -1).T
        return _affine(x, w, self.params[bias])

    def qkv(self, prefix: str, x: np.ndarray) -> tuple:
        """The [B, P, a] query, key and value projections of an attention sublayer."""
        p = self.params
        return (
            _affine(x, p[prefix + "wq"], p[prefix + "bq"]),
            _affine(x, p[prefix + "wk"], p[prefix + "bk"]),
            _affine(x, p[prefix + "wv"], p[prefix + "bv"]),
        )

    def attend(self, prefix: str, q, k, v, heads: int) -> np.ndarray:
        return attention_context(q, k, v, heads)

    def norm(self, x: np.ndarray, prefix: str) -> np.ndarray:
        return layer_norm(x, self.params[prefix + "gamma"], self.params[prefix + "beta"])

    def relu(self, site: str, x: np.ndarray) -> np.ndarray:
        """The ReLU in front of ``site``, in place on the fresh ``x``; int8 ops
        may leave it to that site's clamp (see ``quantization._Int8Ops``)."""
        return relu(x, out=x)


def encode(cfg: ModelConfig, xs: np.ndarray, ops: FloatOps) -> np.ndarray:
    """Logits for a [B, C, T] batch: the encoder graph every model runs.

    ``ops`` supplies the steps that read parameters (see ``FloatOps``) and
    the ReLU in front of each ``ffn.mid.in`` site, which int8 ops may fold
    into that site's quantizer. A NaN or infinite input raises
    ``InputError`` for every model, in inference, calibration and training
    alike.
    """
    if xs.ndim != 3 or xs.shape[1] != cfg.in_channels or xs.shape[2] != cfg.seq_len:
        raise ShapeError(
            f"expected batch [B, {cfg.in_channels}, {cfg.seq_len}], got {xs.shape}"
        )
    if not np.logical_and.reduce(np.isfinite(xs), axis=None):
        raise InputError("input holds a NaN or an infinite value")
    # h and every sublayer output are fresh arrays, so the positional add,
    # the ReLU and the residual adds below all run in place
    cols = im2col_batch(xs, cfg.patch_size, cfg.patch_stride)
    h = ops.linear("embed.in", cols, "patch_embed.weight", "patch_embed.bias")
    h += positional_encoding(cfg.num_patches, cfg.model_dim)
    for l in range(cfg.num_layers):
        pre = f"layers.{l}."
        attn = pre + "attn."
        # q, k, v and the context are passed straight on rather than bound to
        # locals, which would keep them alive through the feed-forward block
        h += ops.linear(
            attn + "proj.in",
            ops.attend(attn, *ops.qkv(attn, ops.norm(h, pre + "norm1.")), cfg.heads_at(l)),
            attn + "wo",
            attn + "bo",
        )
        mid = ops.relu(pre + "ffn.mid.in", ops.linear(
            pre + "ffn.in", ops.norm(h, pre + "norm2."), pre + "ffn.w1", pre + "ffn.b1"
        ))
        h += ops.linear(pre + "ffn.mid.in", mid, pre + "ffn.w2", pre + "ffn.b2")
    pooled = np.add.reduce(h, axis=1) / h.shape[1]  # h.mean(axis=1), bit for bit
    return ops.linear("classifier.in", pooled, "classifier.weight", "classifier.bias")


def forward_batch(model: TransformerModel, xs: np.ndarray) -> np.ndarray:
    """Logits for a [B, C, T] batch (eval mode: no dropout)."""
    return encode(model.config, xs, FloatOps(model.params))


def forward(model: TransformerModel, x: np.ndarray) -> np.ndarray:
    """Logits [K] for a single [C, T] instance."""
    return forward_batch(model, x[None])[0]


def count_params(config: ModelConfig) -> int:
    """Parameter count: the summed sizes of ``param_shapes``."""
    return sum(math.prod(shape) for shape in param_shapes(config).values())


def flop_breakdown(config: ModelConfig) -> dict:
    """Per-component FLOP counts for one inference.

    A multiply-accumulate counts as 2 FLOPs. Softmax, normalization, and
    residual adds contribute only scalar ops and are excluded.
    """
    p = config.num_patches
    d = config.model_dim
    embed_macs = p * d * config.in_channels * config.patch_size
    attn_macs = 0
    ffn_macs = 0
    for l in range(config.num_layers):
        a = config.attn_width(l)
        f = config.ffn_at(l)
        attn_macs += 4 * p * d * a + 2 * p * p * a
        ffn_macs += 2 * p * d * f
    cls_macs = d * config.num_classes
    return {
        "patch_embed": 2 * embed_macs,
        "attention": 2 * attn_macs,
        "ffn": 2 * ffn_macs,
        "classifier": 2 * cls_macs,
        "total": 2 * (embed_macs + attn_macs + ffn_macs + cls_macs),
    }


def count_flops(config: ModelConfig) -> int:
    """Total FLOPs per inference (see flop_breakdown for the accounting)."""
    return flop_breakdown(config)["total"]
