"""Post-training quantization (static and dynamic) and QAT fake-quantization.

Weights are quantized symmetrically, per output channel for matrices and per
tensor for vectors; activations use an affine per-tensor map. Static mode
fixes activation ranges from calibration observers; dynamic mode derives a
symmetric scale from each activation block at call time. Normalization,
softmax, and residual adds always run in float; only the weight-bearing
matmuls are integerized.

A ``QuantizedModel`` packs its int8 weights once, on first use: each weight
matrix is laid out for ``compiled_linear`` (wq, wk and wv fused into one
matrix), every vector is dequantized, and a static model compiles each site's
activation map, then tiles the vectors it serves (``_serving``). Inference runs
``model.encode`` with one ``compiled_linear`` call per weight-bearing site: a
float64 quantize pass, one exact GEMM, and a requantization by one float32
multiplier per output column, fl32(s_x * s_w).
Calibration runs ``encode`` with the float ops and an observer per site.

QAT is weight-only fake quantization: ``training.fit(weight_fake_quant=True)``
trains on fake-quantized weight matrices, and the activations are quantized
afterwards, from calibration, by ``quantize_static``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CalibrationError, InputError
from .model import FloatOps, ModelConfig, TransformerModel, encode, layer_names, patch_tile
from .tensor import (
    INT8_MAX,
    INT8_MIN,
    SCALE_FLOOR,
    PackedWeight,
    QTensor,
    compile_dynamic_linear,
    compile_linear,
    compiled_linear,
    dequantize_linear,
    pack_weight,
    quantize_linear,
    round_half_away,
)


def scale_zero_point(min_val: float, max_val: float):
    """Affine quantization parameters for an observed [min, max] range.

    scale = (max - min) / 255, zero_point = round(-128 - min/scale) clamped
    to int8. A degenerate range (min == max) falls back to a symmetric scale
    of max(|max|, 1e-8) / 127.
    """
    if not -math.inf < min_val <= max_val < math.inf:  # NaN fails too
        raise InputError(f"need a finite range with min <= max, got [{min_val}, {max_val}]")
    if min_val == max_val:
        return max(abs(max_val), SCALE_FLOOR) / 127.0, 0
    scale = (max_val - min_val) / 255.0
    zp = int(round_half_away(np.float64(-128.0 - min_val / scale)))
    return scale, int(np.clip(zp, INT8_MIN, INT8_MAX))


@dataclass
class CalibrationObserver:
    """Running min/max of one activation site over calibration batches."""

    site: str
    min_val: float = math.inf
    max_val: float = -math.inf
    batches: int = 0

    def update(self, x: np.ndarray) -> None:
        self.min_val = min(self.min_val, float(np.min(x)))
        self.max_val = max(self.max_val, float(np.max(x)))
        self.batches += 1

    @property
    def valid(self) -> bool:
        return self.batches > 0 and self.min_val <= self.max_val


def activation_sites(config: ModelConfig) -> dict[str, tuple[str, str]]:
    """The observed sites, input of every weight-bearing matmul: the packed
    weight and bias each one's matmul reads."""
    sites = {"embed.in": ("patch_embed.weight", "patch_embed.bias")}
    for n in layer_names(config.num_layers):
        sites[n.qkv_in] = (n.wqkv, n.bqkv)
        sites[n.proj_in] = (n.wo, n.bo)
        sites[n.ffn_in] = (n.w1, n.b1)
        sites[n.mid_in] = (n.w2, n.b2)
    sites["classifier.in"] = ("classifier.weight", "classifier.bias")
    return sites


def calibrate(model: TransformerModel, instances: np.ndarray) -> dict[str, CalibrationObserver]:
    """Eval-mode pass over calibration data, in batches of 64, recording per-site min/max."""
    xs = np.asarray(instances)
    if xs.ndim == 2:
        xs = xs[None]
    if len(xs) == 0:
        raise InputError("calibration needs at least one instance")
    observers = {s: CalibrationObserver(s) for s in activation_sites(model.config)}
    ops = _ObservedOps(model.params, observers)
    for start in range(0, len(xs), 64):
        encode(model.config, xs[start : start + 64], ops)
    return observers


class _ObservedOps(FloatOps):
    """The float ops, handing each site's input to ``observers[site].update``."""

    def __init__(self, params: dict, observers: dict):
        super().__init__(params)
        self.observers = observers

    def linear(self, site, x, weight, bias):
        self.observers[site].update(x)
        return super().linear(site, x, weight, bias)

    def qkv(self, prefix, x):
        self.observers[prefix + "qkv.in"].update(x)
        return super().qkv(prefix, x)


def quantize_weight(arr: np.ndarray) -> QTensor:
    """Symmetric int8: per output channel for matrices, per tensor for vectors.

    Output channels are the last axis of a stored matrix (and the first axis
    of the conv kernel, which is flattened channel-last before use).
    """
    if arr.ndim >= 2:
        if arr.ndim == 3:  # conv kernel [O, C, k]: channel axis 0
            flat = arr.reshape(arr.shape[0], -1)
            absmax = np.maximum(np.abs(flat).max(axis=1), SCALE_FLOOR)
            return quantize_linear(arr, absmax / 127.0, 0, channel_axis=0)
        absmax = np.maximum(np.abs(arr).max(axis=0), SCALE_FLOOR)
        return quantize_linear(arr, absmax / 127.0, 0, channel_axis=1)
    scale = max(float(np.abs(arr).max()), SCALE_FLOOR) / 127.0
    return quantize_linear(arr, scale, 0)


@dataclass
class QuantizedModel:
    """Int8 weights plus, in static mode, the calibrated activation maps.

    Construction raises ``InputError`` for an unknown mode or a weight layout
    ``pack`` cannot take, and ``CalibrationError`` unless a static model maps
    exactly its sites. Weights and activation maps must not be modified once the
    model has run: inference reads ``serving``, laid out once with ``pack`` and ``sites``.
    """

    config: ModelConfig
    weights: dict[str, QTensor]
    mode: str                                   # static | dynamic
    act_qparams: dict[str, tuple[float, int]] | None = None
    split: dict | None = None                   # the float model's TransformerModel.split

    def __post_init__(self):
        if self.mode not in ("static", "dynamic"):
            raise InputError(f"unknown quantization mode {self.mode!r}")
        for name, q in self.weights.items():
            # pack's layouts: symmetric, the conv kernel per output channel, others per tensor or column
            axes = {3: (0,), 2: (None, 1)}.get(q.data.ndim)
            if axes and (q.zero_point != 0 or q.channel_axis not in axes):
                raise InputError(f"weight {name!r} is not quantized in a layout inference can pack")
        if self.mode == "static":
            sites, act = activation_sites(self.config), self.act_qparams or {}
            odd = [s for s in sites if s not in act] + [s for s in act if s not in sites]
            if odd:
                raise CalibrationError(f"static model has an uncalibrated or unknown site {odd[0]!r}")

    @cached_property
    def pack(self) -> dict[str, PackedWeight | np.ndarray]:
        """The weights laid out for inference (see ``_pack``), built on first use.

        Built lazily rather than at construction: a model that is only saved
        (or only inspected) never holds the float copies of its weights.
        """
        return _pack(self.config, self.weights)

    @cached_property
    def sites(self) -> dict[str, tuple] | None:
        """``compile_linear`` of each static site, built with ``pack`` on first
        use; None if dynamic. Building them lays out ``serving`` with them."""
        pack = self.pack
        sites = None if self.mode != "static" else {
            site: compile_linear(*self.act_qparams[site], pack[weight], pack[bias])
            for site, (weight, bias) in activation_sites(self.config).items()
        }
        self.serving = _serving(self.config, pack, sites)
        return sites

    def compile(self) -> None:
        """Build ``pack``, ``sites`` and ``serving`` now rather than in the first inference."""
        self.sites  # a cached property; building it builds pack and serving


def _pack(config: ModelConfig, weights: dict[str, QTensor]) -> dict:
    """Everything inference needs from the int8 weights, laid out once.

    Weight matrices become ``PackedWeight``s under their own names: the conv
    kernel as its [C*k, d] matmul, and each layer's wq, wk and wv fused into
    one [d, 3a] ``attn.wqkv`` with its biases concatenated as ``attn.bqkv``.
    Every vector (biases, norm gains and betas) is dequantized.
    """
    pack: dict = {
        name: dequantize_linear(q) for name, q in weights.items() if q.data.ndim == 1
    }
    conv = weights["patch_embed.weight"]
    # conv kernel was quantized per output channel on axis 0; as a matmul the
    # channel axis becomes the column axis
    pack["patch_embed.weight"] = pack_weight(
        QTensor(
            np.ascontiguousarray(conv.data.reshape(conv.data.shape[0], -1).T),
            conv.scale,
            0,
            channel_axis=1,
        )
    )
    for n in layer_names(config.num_layers):
        qkv = [pack_weight(weights[n.attn + "w" + p]) for p in "qkv"]
        pack[n.wqkv] = PackedWeight(
            np.concatenate([w.data for w in qkv], axis=1),
            np.concatenate([w.scale for w in qkv]),
        )
        pack[n.bqkv] = np.concatenate([pack.pop(n.attn + "b" + p) for p in "qkv"])
        for name in (n.wo, n.w1, n.w2):
            pack[name] = pack_weight(weights[name])
    pack["classifier.weight"] = pack_weight(weights["classifier.weight"])
    return pack


def _serving(config: ModelConfig, pack: dict, sites: dict | None) -> tuple:
    """What ``_Int8Ops`` reads: (params, sites, folded). Each vector read against
    a [B, P, n] activation is held once as its ``model.patch_tile``: biases and
    norm vectors in params (a static site reads its bias there), static
    multipliers and dynamic column scales. The classifier's, read on [B, d],
    stay [n], as in a float model's ``serving``. ``folded`` holds the
    static sites whose clamp rectifies (lower bound 0)."""
    p = config.num_patches
    named = activation_sites(config)
    params = dict(pack)
    for name, v in pack.items():
        if name in named["classifier.in"]:
            continue
        if isinstance(v, np.ndarray):
            params[name] = patch_tile(v, p)
        elif sites is None:  # a dynamic site's column scales
            params[name] = PackedWeight(v.data, patch_tile(v.scale, p))
    if sites is None:
        return params, None, frozenset()
    served = {site: (*sites[site][:4], patch_tile(sites[site][4], p), params[bias])
              for site, (_, bias) in named.items() if site != "classifier.in"}
    served["classifier.in"] = sites["classifier.in"]
    return params, served, frozenset(site for site, c in sites.items() if c[1] == 0)


def quantize_static(
    model: TransformerModel,
    observers: dict[str, CalibrationObserver],
) -> QuantizedModel:
    """Freeze int8 weights and calibrated activation ranges for inference.

    Observed ranges are extended to include zero before deriving the affine
    parameters; otherwise the zero point clamps and the range cannot be
    represented at all.
    """
    act_qparams = {  # a site left out here is QuantizedModel's CalibrationError
        site: scale_zero_point(min(obs.min_val, 0.0), max(obs.max_val, 0.0))
        for site in activation_sites(model.config)
        if (obs := observers.get(site)) is not None and obs.valid
    }
    weights = {name: quantize_weight(arr) for name, arr in model.params.items()}
    return QuantizedModel(
        model.config, weights, mode="static", act_qparams=act_qparams, split=model.split
    )


def quantize_dynamic(model: TransformerModel) -> QuantizedModel:
    """Int8 weights only; activation scales are computed at call time."""
    weights = {name: quantize_weight(arr) for name, arr in model.params.items()}
    return QuantizedModel(model.config, weights, mode="dynamic", split=model.split)


class _Int8Ops(FloatOps):
    """One ``compiled_linear`` per site on the model's ``serving``; norms use its tiles.

    A static site reads what the model compiled for it; a dynamic one compiles
    its per-call symmetric scale, with no clamp (``compile_dynamic_linear``).
    Q, K and V share one call, and the attention core reads its three
    [B, P, a] column slices without a copy.

    A static site whose lower clamp bound -128 - z is 0 (zero point -128, as
    calibrating a ReLU's output gives) clamps a negative input to its ReLU's
    0, so the ReLU is skipped there. A dynamic site, whose scale reads the
    negatives, and a static one with any other zero point rectify.
    """

    def __init__(self, qmodel: QuantizedModel):
        qmodel.sites  # compiling the sites lays out serving
        params, self.sites, self.folded = qmodel.serving
        super().__init__(params)

    def linear(self, site, x, weight, bias):
        if self.sites is None:
            compiled = compile_dynamic_linear(x, self.params[weight], self.params[bias])
        else:
            compiled = self.sites[site]
        return compiled_linear(x, *compiled)

    def relu(self, site, x):
        return x if site in self.folded else super().relu(site, x)

    def qkv(self, prefix, x):
        qkv = self.linear(prefix + "qkv.in", x, prefix + "wqkv", prefix + "bqkv")
        a = qkv.shape[-1] // 3
        return qkv[..., :a], qkv[..., a : 2 * a], qkv[..., 2 * a :]


def quantized_forward_batch(qmodel: QuantizedModel, xs: np.ndarray) -> np.ndarray:
    """Int8 inference for a [B, C, T] batch: ``model.encode`` on ``_Int8Ops``.

    Attention scores, softmax, norms, pooling, and residual adds stay in float.
    """
    return encode(qmodel.config, xs, _Int8Ops(qmodel))


def quantized_forward(qmodel: QuantizedModel, x: np.ndarray) -> np.ndarray:
    """Logits [K] for a single [C, T] instance."""
    return quantized_forward_batch(qmodel, x[None])[0]


def fake_quant_weight(arr: np.ndarray) -> np.ndarray:
    """Weight-space fake quantization with the same scheme as quantize_weight."""
    return dequantize_linear(quantize_weight(arr)).astype(arr.dtype)


def quantized_energy_estimate(energy_float32_j: float, q_factor: float = 4.0) -> float:
    """Idealized post-quantization energy: E_float32 / Q."""
    if energy_float32_j < 0:
        raise InputError("energy must be nonnegative")
    if q_factor <= 0:
        raise InputError(f"quantization factor must be positive, got {q_factor}")
    return energy_float32_j / q_factor


def payload_bytes(model) -> int:
    """Parameter payload bytes as serialized (4 per f32 element, 1 per int8).

    An unstructured-pruned model keeps its zeros in place, so it reports the
    same payload as its dense baseline.
    """
    if isinstance(model, QuantizedModel):
        return sum(q.data.nbytes for q in model.weights.values())
    return sum(arr.size * 4 for arr in model.params.values())
