"""Loss, hand-derived gradients, Adam with cosine annealing, training loops.

The forward pass is ``model.encode`` on ops that record what the backward
reads: every site's input, each layer's q, k, v and attention weights, each
norm's normalized input and inverse deviation, and the dropout masks. Each of
those ops has its hand-derived reverse beside it, and the backward calls them
in the mirror order of ``encode``, with the pooling, ReLU and residual
steps between them. Every gradient is checked against central finite
differences in the test suite.

Training is deterministic for a fixed seed: batch shuffling and dropout masks
come from one seeded generator, and reductions run in a fixed order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InputError, ShapeError, check_types
from .model import (
    FloatOps,
    TransformerModel,
    attention_backward,
    attention_weights,
    encode,
    forward_batch,
    layer_names,
    weighted_values,
)
from .pruning import prunable_pools
from .quantization import QuantizedModel, fake_quant_weight, quantized_forward_batch
from .tensor import check_seed, seeded_rng, softmax, standardize


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
    """The float ops, recording in ``saved`` what their reverse steps read.

    ``saved`` maps each site to (input, weight name, bias name, dropout mask
    or None), ``<attn prefix>qkv.in`` to that sublayer's input,
    ``<attn prefix>core`` to the layer's (q, k, v, attention weights) and each
    norm prefix to (normalized input, inverse deviation). Given an rng, the
    outputs of the two residual branches are scaled by inverted dropout masks,
    drawn in forward order.

    Each step's reverse (``*_back``) takes the gradient of the step's output,
    writes the gradients of the parameters it read into ``grads`` and returns
    the gradient of its input. ``loss_and_grads`` sets ``grads`` up after the
    forward.
    """

    def __init__(self, params: dict, dropout: float, rng: np.random.Generator | None):
        super().__init__(params)
        self.keep = 1.0 - dropout
        self.rng = rng
        self.saved: dict = {}
        self.grads: dict = {}

    def linear(self, site, x, weight, bias):
        out = super().linear(site, x, weight, bias)
        mask = None
        # these two sites read a residual branch's input; dropout scales the branch
        if self.rng is not None and site.endswith(("attn.proj.in", "ffn.mid.in")):
            mask = (self.rng.random(out.shape) < self.keep).astype(out.dtype) / self.keep
            out *= mask
        self.saved[site] = x, weight, bias, mask
        return out

    def linear_back(self, site, d_out):
        x, weight, bias, mask = self.saved[site]
        if mask is not None:
            d_out = d_out * mask
        w = self.params[weight]
        d_w = _weight_grad(x, d_out)
        self.grads[bias] = np.add.reduce(d_out, axis=tuple(range(d_out.ndim - 1)))
        if w.ndim == 3:  # the conv kernel; its input is the series, which takes no gradient
            self.grads[weight] = d_w.T.reshape(w.shape)
            return None
        self.grads[weight] = d_w
        return _input_grad(d_out, w)

    def qkv(self, prefix, x):
        self.saved[prefix + "qkv.in"] = x
        return super().qkv(prefix, x)

    def qkv_back(self, prefix, d_q, d_k, d_v):
        x = self.saved[prefix + "qkv.in"]
        for name, d in zip("qkv", (d_q, d_k, d_v)):
            self.grads[prefix + "w" + name] = _weight_grad(x, d)
            self.grads[prefix + "b" + name] = np.add.reduce(d, axis=(0, 1))
        p = self.params
        d_x = _input_grad(d_q, p[prefix + "wq"]) + _input_grad(d_k, p[prefix + "wk"])
        d_x += _input_grad(d_v, p[prefix + "wv"])
        return d_x

    def attend(self, prefix, q, k, v, heads):
        weights = attention_weights(q, k, heads)
        self.saved[prefix + "core"] = q, k, v, weights
        return weighted_values(weights, v)

    def attend_back(self, prefix, d_ctx):
        return attention_backward(*self.saved[prefix + "core"], d_ctx)

    def norm(self, x, prefix):
        xhat, std = standardize(x)
        self.saved[prefix] = xhat, 1.0 / std
        return self.params[prefix + "gamma"] * xhat + self.params[prefix + "beta"]

    def norm_back(self, prefix, d_out):
        xhat, inv_std = self.saved[prefix]
        lead = tuple(range(d_out.ndim - 1))
        self.grads[prefix + "gamma"] = np.add.reduce(d_out * xhat, axis=lead)
        self.grads[prefix + "beta"] = np.add.reduce(d_out, axis=lead)
        d_xhat = d_out * self.params[prefix + "gamma"]
        m1 = np.add.reduce(d_xhat, axis=-1, keepdims=True) / d_out.shape[-1]
        m2 = np.add.reduce(d_xhat * xhat, axis=-1, keepdims=True) / d_out.shape[-1]
        return inv_std * (d_xhat - m1 - xhat * m2)


def loss_and_grads(
    model: TransformerModel,
    xs: np.ndarray,
    ys: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
):
    """Forward on the recording ops, then exact reverse-mode gradients.

    Returns (mean loss, correct count, gradient dict keyed like params).
    Dropout masks are drawn once in the forward pass and reused in the
    backward pass, so the gradients are exact for the sampled network.
    The backward mirrors ``encode``, one reverse step per forward step.
    """
    cfg = model.config
    use_dropout = train and cfg.dropout > 0.0
    if use_dropout and rng is None:
        raise InputError("train-mode gradients with dropout need an rng")
    tape = _Tape(model.params, cfg.dropout, rng if use_dropout else None)
    loss, d_logits, correct = _batch_ce(encode(cfg, xs, tape), ys)
    # Allocating grads here, after the forward, and running the ReLU and residual
    # steps out of place keeps glibc's heap trim and regrowth down: with grads
    # allocated first and those steps in place, a T1 study took 2-3x the minor
    # page faults. zeros_like also fixes the dict's order, which clipping sums in.
    tape.grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    d_pooled = tape.linear_back("classifier.in", d_logits)
    d_h = np.repeat(d_pooled[:, None, :], cfg.num_patches, axis=1) / cfg.num_patches
    for n in reversed(layer_names(cfg.num_layers)):
        d_mid = tape.linear_back(n.mid_in, d_h)
        d_mid = d_mid * (tape.saved[n.mid_in][0] > 0)  # relu(z) > 0 where z > 0
        d_h = d_h + tape.norm_back(n.norm2, tape.linear_back(n.ffn_in, d_mid))
        d_ctx = tape.linear_back(n.proj_in, d_h)
        d_n1 = tape.qkv_back(n.attn, *tape.attend_back(n.attn, d_ctx))
        d_h = d_h + tape.norm_back(n.norm1, d_n1)
    tape.linear_back("embed.in", d_h)
    return loss, correct, tape.grads


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


# peak learning rate of fine-tuning a trained model, after pruning and in QAT
FINE_TUNE_LR = 3e-4


@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch Adam with a cosine learning rate from ``lr_max`` down to 1e-5,
    and gradients clipped to a global norm of 1."""

    epochs: int = 30
    batch_size: int = 32
    lr_max: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        check_types(self, "train")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        check_seed(self.seed)


def _epochs(model: TransformerModel, dataset, cfg: TrainConfig, weight_fake_quant: bool):
    """Mini-batch training loop; yields (epoch, lr, mean train loss) after each epoch.

    Each step: shuffled batch -> loss_and_grads -> global-norm clip -> Adam
    with a cosine-annealed learning rate over the full step budget. After every
    step, each prunable pool holding a zero at the start is multiplied by its
    keep-mask ``w != 0``, so pruned weights stay exactly zero through every
    fine-tune; biases, norms and the classifier are no pools and train freely.
    When ``weight_fake_quant`` is set, each forward/backward runs on a model
    whose weight matrices are fake-quantized copies, while updates are applied
    to the float master weights (straight-through estimator; the symmetric
    scale covers the full range so no value is ever clamped).
    That is the whole of QAT here: weight-only fake quantization, with the
    activations quantized afterwards from calibration (``quantize_static``).
    It evaluates nothing; ``train`` adds the history.
    """
    n = len(dataset.instances)
    if n == 0:
        raise InputError("cannot train on an empty dataset")
    # built once, in each pool's dtype: a multiply per step, no per-step cast
    keep = {name: (w != 0).astype(w.dtype) for name in prunable_pools(model)
            if not (w := model.params[name]).all()}
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
            seen = model
            if weight_fake_quant:  # arrays of two or more axes, as quantize_weight decides
                fq = {k: fake_quant_weight(w) if w.ndim > 1 else w for k, w in model.params.items()}
                seen = replace(model, params=fq)
            loss, _, grads = loss_and_grads(seen, xs, ys, train=True, rng=rng)
            epoch_loss += loss * len(idx)
            clip_global_norm(grads, 1.0)
            vars(model).pop("serving", None)  # the update writes into model.params
            adam_step(state, model.params, grads, cosine_lr(schedule, step))
            for name, mask in keep.items():
                model.params[name] *= mask
            step += 1
        yield epoch + 1, cosine_lr(schedule, min(step, schedule.total_steps)), epoch_loss / n


def fit(
    model: TransformerModel, dataset, cfg: TrainConfig, weight_fake_quant: bool = False
) -> TransformerModel:
    """``train`` without its history: the same steps, which keep a pruned model's
    zeros, and nothing is evaluated."""
    for _ in _epochs(model, dataset, cfg, weight_fake_quant):
        pass
    return model


def train(
    model: TransformerModel, dataset, cfg: TrainConfig, val_dataset=None
) -> tuple[TransformerModel, list[dict]]:
    """``fit`` without fake quantization, returning also a per-epoch history
    (epoch, lr, train_loss, train_acc, val_acc): ``dataset`` and ``val_dataset`` are
    scored after every epoch. Like ``fit``, it keeps the model's pruned zeros."""
    history = []
    for epoch, lr, loss in _epochs(model, dataset, cfg, False):
        row = {"epoch": epoch, "lr": lr, "train_loss": loss, "train_acc": evaluate(model, dataset)}
        row["val_acc"] = evaluate(model, val_dataset) if val_dataset is not None else ""
        history.append(row)
    return model, history


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
