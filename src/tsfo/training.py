"""Loss, hand-derived gradients, Adam with cosine annealing, training loops.

The forward pass is ``model.encode`` on ops that record what the backward
reads: every site's input, each layer's q, k, v and attention weights, each
norm's normalized input and inverse deviation, and the dropout masks. The
backward is written out by hand against that graph (conv patch embedding,
positional add, pre-norm attention and feed-forward blocks with residuals,
mean pooling, linear classifier) and reads only the tape. Every gradient is
checked against central finite differences in the test suite.

Training is deterministic for a fixed seed: batch shuffling and dropout masks
come from one seeded generator, and reductions run in a fixed order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, ShapeError
from .model import (
    FloatOps,
    TransformerModel,
    _key_rows,
    _split_heads,
    attention_weights,
    encode,
    forward_batch,
    weighted_values,
)
from .quantization import QuantizedModel, fake_quant_weight, quantized_forward_batch
from .tensor import seeded_rng, softmax


def _batch_ce(logits: np.ndarray, labels: np.ndarray):
    """Mean loss, upstream gradient (already divided by B), correct count."""
    b, k = logits.shape
    if np.any(labels < 0) or np.any(labels >= k):
        raise InputError("label out of range")
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    logp = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    loss = -float(np.mean(logp[np.arange(b), labels]))
    grad = softmax(logits)
    grad[np.arange(b), labels] -= 1.0
    grad /= b
    correct = int(np.sum(np.argmax(logits, axis=1) == labels))
    return loss, grad, correct


def _layer_norm_backward(d_out, xhat, inv_std, gamma):
    d_gamma = np.add.reduce(d_out * xhat, axis=tuple(range(d_out.ndim - 1)))
    d_beta = np.add.reduce(d_out, axis=tuple(range(d_out.ndim - 1)))
    d_xhat = d_out * gamma
    m1 = np.add.reduce(d_xhat, axis=-1, keepdims=True) / d_out.shape[-1]
    m2 = np.add.reduce(d_xhat * xhat, axis=-1, keepdims=True) / d_out.shape[-1]
    d_x = inv_std * (d_xhat - m1 - xhat * m2)
    return d_x, d_gamma, d_beta


def _weight_grad(x: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """sum over batch and patches of x^T d_out: [..., m] x [..., n] -> [m, n].

    One GEMM over the flattened leading axes; ``np.einsum`` without
    ``optimize`` would not use BLAS.
    """
    return x.reshape(-1, x.shape[-1]).T @ d_out.reshape(-1, d_out.shape[-1])


def _input_grad(d_out: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``d_out @ weight.T`` as one GEMM over the flattened rows, not one per batch
    row: 2-3x faster on [B, P, n], and the same bits at the T1 and T2 sizes (a
    much smaller per-row product can take a BLAS small-matrix kernel instead)."""
    return (d_out.reshape(-1, d_out.shape[-1]) @ weight.T).reshape(*d_out.shape[:-1], -1)


class _Tape(FloatOps):
    """The float ops, recording in ``saved`` what the backward reads.

    ``saved`` maps each site to its input, ``<attn prefix>core`` to the
    layer's (q, k, v, attention weights) and each norm prefix to (normalized
    input, inverse deviation). Given an rng, the outputs of the two residual
    branches are scaled by inverted dropout masks, drawn in forward order and
    saved as ``<site> mask``.
    """

    def __init__(self, params: dict, dropout: float, rng: np.random.Generator | None):
        super().__init__(params)
        self.keep = 1.0 - dropout
        self.rng = rng
        self.saved: dict = {}

    def linear(self, site, x, weight, bias):
        self.saved[site] = x
        out = super().linear(site, x, weight, bias)
        # these two sites read a residual branch's input; dropout scales the branch
        if self.rng is not None and site.endswith(("attn.proj.in", "ffn.mid.in")):
            mask = (self.rng.random(out.shape) < self.keep).astype(out.dtype) / self.keep
            out *= mask
            self.saved[site + " mask"] = mask
        return out

    def qkv(self, prefix, x):
        self.saved[prefix + "qkv.in"] = x
        return super().qkv(prefix, x)

    def attend(self, prefix, q, k, v, heads):
        weights = attention_weights(q, k, heads)
        self.saved[prefix + "core"] = q, k, v, weights
        return weighted_values(weights, v)

    def norm(self, x, prefix):
        d = x.shape[-1]
        centred = x - np.add.reduce(x, axis=-1, keepdims=True) / d
        inv_std = 1.0 / np.sqrt(np.add.reduce(centred * centred, axis=-1, keepdims=True) / d + 1e-5)
        xhat = centred * inv_std
        self.saved[prefix] = (xhat, inv_std)
        return self.params[prefix + "gamma"] * xhat + self.params[prefix + "beta"]


def loss_and_grads(
    model: TransformerModel,
    xs: np.ndarray,
    ys: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
):
    """Forward with caching, then exact reverse-mode gradients.

    Returns (mean loss, correct count, gradient dict keyed like params).
    Dropout masks are drawn once in the forward pass and reused in the
    backward pass, so the gradients are exact for the sampled network.
    Attention goes through ``model.attention_weights``; its backward keeps that layout.
    """
    cfg = model.config
    p = model.params
    use_dropout = train and cfg.dropout > 0.0
    if use_dropout and rng is None:
        raise InputError("train-mode gradients with dropout need an rng")
    tape = _Tape(p, cfg.dropout, rng if use_dropout else None)
    loss, d_logits, correct = _batch_ce(encode(cfg, xs, tape), ys)
    saved = tape.saved

    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    grads["classifier.weight"] = saved["classifier.in"].T @ d_logits
    grads["classifier.bias"] = d_logits.sum(axis=0)
    d_pooled = d_logits @ p["classifier.weight"].T
    d_h = np.repeat(d_pooled[:, None, :], cfg.num_patches, axis=1) / cfg.num_patches

    for l in reversed(range(cfg.num_layers)):
        pre = f"layers.{l}."
        attn = pre + "attn."

        mask = saved.get(pre + "ffn.mid.in mask")
        d_z2 = d_h * mask if mask is not None else d_h
        r = saved[pre + "ffn.mid.in"]
        grads[pre + "ffn.w2"] = _weight_grad(r, d_z2)
        grads[pre + "ffn.b2"] = d_z2.sum(axis=(0, 1))
        d_r = _input_grad(d_z2, p[pre + "ffn.w2"])
        d_z1 = d_r * (r > 0)   # r = relu(z1), so r > 0 exactly where z1 > 0
        grads[pre + "ffn.w1"] = _weight_grad(saved[pre + "ffn.in"], d_z1)
        grads[pre + "ffn.b1"] = d_z1.sum(axis=(0, 1))
        d_n2 = _input_grad(d_z1, p[pre + "ffn.w1"])
        d_hmid_ln, d_g2, d_b2 = _layer_norm_backward(
            d_n2, *saved[pre + "norm2."], p[pre + "norm2.gamma"]
        )
        grads[pre + "norm2.gamma"] = d_g2
        grads[pre + "norm2.beta"] = d_b2
        d_hmid = d_h + d_hmid_ln

        mask = saved.get(attn + "proj.in mask")
        d_attn = d_hmid * mask if mask is not None else d_hmid
        grads[attn + "wo"] = _weight_grad(saved[attn + "proj.in"], d_attn)
        grads[attn + "bo"] = d_attn.sum(axis=(0, 1))
        q, k, v, w = saved[attn + "core"]
        heads = w.shape[1]
        d_ctx = _split_heads(_input_grad(d_attn, p[attn + "wo"]), heads)
        qh, kh, vh = (_split_heads(t, heads) for t in (q, k, v))
        d_q, d_k, d_v = (np.empty(t.shape, np.result_type(w, d_ctx)) for t in (q, k, v))
        np.matmul(w, d_ctx, out=_split_heads(d_v, heads))
        # softmax backward over the keys in the core's layout; d_s takes its 1/sqrt(dh)
        d_s = np.empty_like(w, dtype=d_v.dtype)
        np.matmul(vh, d_ctx.swapaxes(-1, -2) * (1.0 / math.sqrt(qh.shape[-1])), out=d_s)
        d_rows, w_rows = _key_rows(d_s), _key_rows(w)
        d_rows -= (d_rows * w_rows).sum(axis=0)
        d_rows *= w_rows
        np.matmul(d_s, qh, out=_split_heads(d_k, heads))
        np.matmul(d_s.swapaxes(-1, -2), kh, out=_split_heads(d_q, heads))
        n1 = saved[attn + "qkv.in"]
        grads[attn + "wq"] = _weight_grad(n1, d_q)
        grads[attn + "bq"] = d_q.sum(axis=(0, 1))
        grads[attn + "wk"] = _weight_grad(n1, d_k)
        grads[attn + "bk"] = d_k.sum(axis=(0, 1))
        grads[attn + "wv"] = _weight_grad(n1, d_v)
        grads[attn + "bv"] = d_v.sum(axis=(0, 1))
        d_n1 = _input_grad(d_q, p[attn + "wq"]) + _input_grad(d_k, p[attn + "wk"])
        d_n1 += _input_grad(d_v, p[attn + "wv"])
        d_hin_ln, d_g1, d_b1 = _layer_norm_backward(
            d_n1, *saved[pre + "norm1."], p[pre + "norm1.gamma"]
        )
        grads[pre + "norm1.gamma"] = d_g1
        grads[pre + "norm1.beta"] = d_b1
        d_h = d_hmid + d_hin_ln

    d_w2d = _weight_grad(saved["embed.in"], d_h)   # [C*k, d]
    grads["patch_embed.weight"] = d_w2d.T.reshape(p["patch_embed.weight"].shape)
    grads["patch_embed.bias"] = d_h.sum(axis=(0, 1))
    return loss, correct, grads


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``."""
    total = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        factor = max_norm / (total + 1e-12)
        for g in grads.values():
            g *= factor
    return total


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
    )


def adam_step(
    state: AdamState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr_t: float,
):
    """Bias-corrected Adam update (betas 0.9 and 0.999, eps 1e-8), in place.
    Returns (params, state)."""
    state.t += 1
    bc1 = 1.0 - _BETA1**state.t
    bc2 = 1.0 - _BETA2**state.t
    for name, g in grads.items():
        if g.shape != params[name].shape:
            raise ShapeError(f"gradient shape mismatch for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        params[name] -= lr_t * (m / bc1) / (np.sqrt(v / bc2) + _EPS)
    return params, state


@dataclass(frozen=True)
class CosineSchedule:
    lr_max: float
    lr_min: float
    total_steps: int

    def __post_init__(self):
        if not (self.lr_max >= self.lr_min > 0):
            raise InputError("need lr_max >= lr_min > 0")
        if self.total_steps < 1:
            raise InputError("total_steps must be >= 1")


def cosine_lr(schedule: CosineSchedule, t: int) -> float:
    """Cosine annealing from lr_max at t=0 to lr_min at t=total_steps."""
    if not 0 <= t <= schedule.total_steps:
        raise InputError(f"step {t} outside [0, {schedule.total_steps}]")
    span = schedule.lr_max - schedule.lr_min
    return schedule.lr_min + 0.5 * span * (1.0 + math.cos(math.pi * t / schedule.total_steps))


@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch Adam with a cosine learning rate from ``lr_max`` down to 1e-5,
    and gradients clipped to a global norm of 1."""

    epochs: int = 30
    batch_size: int = 32
    lr_max: float = 1e-3
    seed: int = 0


def _epochs(model: TransformerModel, dataset, cfg: TrainConfig, mask, weight_fake_quant: bool):
    """Mini-batch training loop; yields (epoch, lr, mean train loss) after each epoch.

    Each step: shuffled batch -> loss_and_grads -> global-norm clip -> Adam
    with a cosine-annealed learning rate over the full step budget. When
    ``mask`` is given it is re-applied after every optimizer step so pruned
    coordinates stay exactly zero. When ``weight_fake_quant`` is set, each
    forward/backward runs on fake-quantized weight matrices while updates are
    applied to the float master weights (straight-through estimator; the
    symmetric scale covers the full range so no value is ever clamped).
    That is the whole of QAT here: weight-only fake quantization, with the
    activations quantized afterwards from calibration (``quantize_static``).
    It evaluates nothing; ``train`` adds the history.
    """
    n = len(dataset.instances)
    if n == 0:
        raise InputError("cannot train on an empty dataset")
    if mask is not None:
        _apply_mask(model.params, mask)
    rng = seeded_rng(cfg.seed)
    batches_per_epoch = max(1, math.ceil(n / cfg.batch_size))
    schedule = CosineSchedule(cfg.lr_max, 1e-5, max(1, cfg.epochs * batches_per_epoch))
    state = init_adam(model.params)
    xs_all = dataset.instances
    ys_all = dataset.labels

    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xs = xs_all[idx]
            ys = ys_all[idx]
            if weight_fake_quant:
                saved = _swap_in_fake_quant_weights(model.params)
                try:
                    loss, _, grads = loss_and_grads(model, xs, ys, train=True, rng=rng)
                finally:
                    model.params.update(saved)
            else:
                loss, _, grads = loss_and_grads(model, xs, ys, train=True, rng=rng)
            epoch_loss += loss * len(idx)
            clip_global_norm(grads, 1.0)
            adam_step(state, model.params, grads, cosine_lr(schedule, step))
            if mask is not None:
                _apply_mask(model.params, mask)
            step += 1
        yield epoch + 1, cosine_lr(schedule, min(step, schedule.total_steps)), epoch_loss / n


def fit(
    model: TransformerModel, dataset, cfg: TrainConfig, mask=None, weight_fake_quant: bool = False
) -> TransformerModel:
    """``train`` without its history: the same steps, and nothing is evaluated."""
    for _ in _epochs(model, dataset, cfg, mask, weight_fake_quant):
        pass
    return model


def train(
    model: TransformerModel, dataset, cfg: TrainConfig, val_dataset=None
) -> tuple[TransformerModel, list[dict]]:
    """``fit`` without a mask or fake quantization, returning also a per-epoch history
    (epoch, lr, train_loss, train_acc, val_acc): ``dataset`` and ``val_dataset`` are
    scored after every epoch."""
    history = []
    for epoch, lr, loss in _epochs(model, dataset, cfg, None, False):
        row = {"epoch": epoch, "lr": lr, "train_loss": loss, "train_acc": evaluate(model, dataset)}
        row["val_acc"] = evaluate(model, val_dataset) if val_dataset is not None else ""
        history.append(row)
    return model, history


def _apply_mask(params: dict[str, np.ndarray], mask: dict[str, np.ndarray]):
    for name, m in mask.items():
        if name not in params or m.shape != params[name].shape:
            raise InputError(f"mask shape mismatch for {name}")
        params[name] *= m.astype(params[name].dtype)


def _swap_in_fake_quant_weights(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Replace weight matrices (every parameter of two or more axes, as
    ``quantize_weight`` decides) by their fake-quantized version; return originals."""
    saved = {}
    for name, arr in params.items():
        if arr.ndim >= 2:
            saved[name] = arr
            params[name] = fake_quant_weight(arr)
    return saved


def fine_tune(
    model: TransformerModel,
    masks: dict[str, np.ndarray] | None,
    dataset,
    epochs: int,
    cfg: TrainConfig,
) -> TransformerModel:
    """Recovery training after pruning, ``cfg`` run for ``epochs`` epochs.

    Coordinates zeroed in ``masks`` stay exactly zero; a structurally pruned
    model, whose removed units are gone from its shapes, passes ``None``.
    """
    if epochs == 0:
        return model
    return fit(model, dataset, replace(cfg, epochs=epochs), mask=masks)


def evaluate(model: TransformerModel | QuantizedModel, dataset) -> float:
    """Eval-mode classification accuracy of a float or int8 model over a dataset,
    in batches of 128."""
    n = len(dataset.instances)
    if n == 0:
        raise InputError("cannot evaluate on an empty dataset")
    run = quantized_forward_batch if isinstance(model, QuantizedModel) else forward_batch
    correct = 0
    for start in range(0, n, 128):
        rows = slice(start, start + 128)
        logits = run(model, dataset.instances[rows])
        correct += int(np.sum(np.argmax(logits, axis=1) == dataset.labels[rows]))
    return correct / n


def history_to_csv(history: list[dict], path) -> None:
    """Write the training history in the epoch/lr/loss/accuracy layout."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["epoch", "lr", "train_loss", "train_acc", "val_acc"]
        )
        writer.writeheader()
        for row in history:
            writer.writerow(row)
