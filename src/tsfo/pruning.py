"""Magnitude pruning: scoring, mask-based sparsification, structured removal.

Prunable pools are the attention projection matrices, the feed-forward
matrices, and the patch-embedding convolution weight. Biases, norm
parameters, the positional table, and the classifier are excluded: they are
tiny and removing them hurts far more than the parameters saved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, PruneSpecError, check_types
from .model import ModelConfig, TransformerModel, count_flops, count_params

PRUNABLE_SUFFIXES = (".wq", ".wk", ".wv", ".wo", ".w1", ".w2", "patch_embed.weight")

# A structured unit of each granularity: its sublayer, its per-layer count (config
# field and reader), and the axis on which each tensor holds one slice per unit.
_UNITS = {
    "neuron": ("ffn", "ffn_per_layer", ModelConfig.ffn_at, {"w1": 1, "b1": 0, "w2": 0}),
    "head": ("attn", "heads_per_layer", ModelConfig.heads_at,
             {"wq": 1, "bq": 0, "wk": 1, "bk": 0, "wv": 1, "bv": 0, "wo": 0}),
}


def _check_method(method: str) -> None:
    if method not in ("l1", "l2"):
        raise PruneSpecError(f"unknown method {method!r}")


@dataclass(frozen=True)
class PruneSpec:
    method: str = "l1"            # l1 | l2
    granularity: str = "weight"   # weight | neuron | head
    scope: str = "global"         # global | layerwise
    sparsity: float = 0.0

    def __post_init__(self):
        check_types(self, "prune")
        _check_method(self.method)
        if self.granularity not in ("weight", "neuron", "head"):
            raise PruneSpecError(f"unknown granularity {self.granularity!r}")
        if self.scope not in ("global", "layerwise"):
            raise PruneSpecError(f"unknown scope {self.scope!r}")
        if not 0.0 <= self.sparsity < 1.0:
            raise PruneSpecError(f"sparsity must be in [0, 1), got {self.sparsity}")


@dataclass
class PruneReport:
    """What a pruning step removed."""

    achieved_sparsity: float
    params_removed: int
    flops_before: int
    flops_after: int
    transform_seconds: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def prunable_pools(model: TransformerModel) -> list[str]:
    """Names of the weight tensors that participate in pruning."""
    return [n for n in model.params if n.endswith(PRUNABLE_SUFFIXES)]


def score_weights(model: TransformerModel, method: str) -> dict[str, np.ndarray]:
    """Per-scalar magnitude scores for every prunable tensor, flattened.

    For a single weight the L1 and L2 norms are both its absolute value, so
    the two methods rank identically at weight granularity.
    """
    _check_method(method)
    return {n: np.abs(model.params[n]).ravel() for n in prunable_pools(model)}


def score_units(model: TransformerModel, granularity: str, method: str) -> dict[str, np.ndarray]:
    """Per-unit scores: one value per FFN neuron or attention head.

    A unit's group is its slice of each weight matrix in ``_UNITS``: a neuron's
    column of w1 and row of w2, a head's head_dim columns of wq, wk and wv and
    its head_dim rows of wo. Scores are the L2 (or L1) norm of the group.
    """
    _check_method(method)
    if granularity not in _UNITS:
        raise PruneSpecError(f"structured pruning needs neuron or head, got {granularity!r}")
    sub, _, count, axes = _UNITS[granularity]
    cfg = model.config
    names = [f"layers.{l}.{sub}" for l in range(cfg.num_layers)]
    counts = [count(cfg, l) for l in range(cfg.num_layers)]
    # one row per unit of every layer, in the group's flat order, so a row sums
    # as the group would. Each matrix's rows are concatenated, once for all
    # layers, straight into their columns of one [units, group] array: the
    # calls per layer stay few, and no second copy of the rows is made.
    mats, width = [], 0
    for t, axis in axes.items():
        ws = [model.params[f"{name}.{t}"] for name in names]
        if ws[0].ndim == 2:  # the biases are not scored
            mats += [(axis, ws, width, width + ws[0].size // counts[0])]
            width = mats[-1][3]
    groups = np.empty((sum(counts), width), mats[0][1][0].dtype)
    for axis, ws, start, stop in mats:
        np.concatenate([
            w.reshape(n, -1) if axis == 0
            else w.reshape(w.shape[0], n, -1).transpose(1, 0, 2).reshape(n, -1)
            for w, n in zip(ws, counts)
        ], out=groups[:, start:stop])
    norms = (np.sqrt(np.add.reduce(np.square(groups, out=groups), axis=1)) if method == "l2"
             else np.add.reduce(np.abs(groups, out=groups), axis=1)).astype(np.float64)
    scores, start = {}, 0
    for name, n in zip(names, counts):
        scores[name] = norms[start : start + n]
        start += n
    return scores


def _lowest_k(vals: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices of the k lowest values, ranked by (value, index).

    NaN ranks above every number, as ``np.sort`` places it; -0.0 and 0.0 tie.
    """
    kth = np.partition(vals, k - 1)[k - 1]
    if np.isnan(kth):
        below, tied = ~np.isnan(vals), np.isnan(vals)
    else:
        below, tied = vals < kth, vals == kth
    below[np.flatnonzero(tied)[: k - np.count_nonzero(below)]] = True
    return np.flatnonzero(below)


def select_prune_set(
    scores: dict[str, np.ndarray],
    spec: PruneSpec,
) -> dict[str, np.ndarray]:
    """Indices of the lowest-scoring entries to prune.

    Global scope ranks all pools together and takes the lowest
    ceil(p * total); layerwise takes ceil(p * n) from each pool. Ties break
    by ascending (pool order, flat index), which makes selection
    deterministic.
    """
    if not scores or any(len(v) == 0 for v in scores.values()):
        raise PruneSpecError("cannot select from an empty pool")
    p = spec.sparsity
    if p == 0.0:
        return {name: np.array([], dtype=np.int64) for name in scores}

    if spec.scope == "layerwise":
        return {n: _lowest_k(v, int(np.ceil(p * len(v)))) for n, v in scores.items()}

    all_scores = np.concatenate(list(scores.values()))
    chosen = _lowest_k(all_scores, int(np.ceil(p * len(all_scores))))
    offsets = np.cumsum([0] + [len(v) for v in scores.values()])
    bounds = np.searchsorted(chosen, offsets)
    return {name: chosen[bounds[i] : bounds[i + 1]] - offsets[i] for i, name in enumerate(scores)}


def apply_unstructured_mask(
    model: TransformerModel,
    indices: dict[str, np.ndarray],
) -> TransformerModel:
    """Zero the selected weights in place; shapes are untouched.

    Earlier zeros stay zero, so repeated calls accumulate, and every later
    ``training.fit`` keeps them: the model's zeros are its mask.
    """
    vars(model).pop("serving", None)  # a tile of a masked vector would be stale
    for name, idx in indices.items():
        if name not in model.params:
            raise InputError(f"unknown parameter {name!r}")
        arr = model.params[name]
        if len(idx) and (idx.min() < 0 or idx.max() >= arr.size):
            raise InputError(f"prune index out of range for {name}")
        arr.reshape(-1)[idx] *= 0  # a view, as every parameter is C-contiguous
    return model


def prune_unstructured(
    model: TransformerModel, spec: PruneSpec
) -> tuple[TransformerModel, PruneReport]:
    """Magnitude-mask pruning at the requested sparsity; shapes unchanged."""
    start = time.perf_counter()
    indices = select_prune_set(score_weights(model, spec.method), spec)
    model = apply_unstructured_mask(model, indices)
    report = PruneReport(
        achieved_sparsity=sparsity(model),
        params_removed=int(sum(len(i) for i in indices.values())),
        flops_before=count_flops(model.config),
        flops_after=count_flops(model.config),
        transform_seconds=time.perf_counter() - start,
    )
    return model, report


def prune_structured(
    model: TransformerModel, spec: PruneSpec
) -> tuple[TransformerModel, PruneReport]:
    """Physically remove the lowest-scoring FFN neurons or attention heads.

    The returned model is new and smaller; its config carries per-layer unit
    counts so parameter and FLOP accounting stay exact.
    """
    start = time.perf_counter()
    cfg = model.config
    scores = score_units(model, spec.granularity, spec.method)  # checks the granularity
    indices = select_prune_set(scores, spec)
    _, field, _, axes = _UNITS[spec.granularity]

    flops_before = count_flops(cfg)
    params_before = count_params(cfg)
    new_params = {k: v.copy() for k, v in model.params.items()}
    counts = []
    # np.take returns each kept slice as a fresh C-contiguous array
    for unit, idx in indices.items():
        n = len(scores[unit])
        keep = np.setdiff1d(np.arange(n), idx)
        if len(keep) == 0:
            raise PruneSpecError(f"refusing to remove every unit in {unit}")
        for name, axis in axes.items():
            w = new_params[f"{unit}.{name}"]
            width = w.shape[axis] // n
            cols = (keep[:, None] * width + np.arange(width)).ravel()
            new_params[f"{unit}.{name}"] = np.take(w, cols, axis=axis)
        counts.append(len(keep))
    new_cfg = replace(cfg, **{field: tuple(counts)})
    new_model = replace(model, config=new_cfg, params=new_params)
    removed = params_before - count_params(new_cfg)
    report = PruneReport(
        achieved_sparsity=removed / params_before,
        params_removed=removed,
        flops_before=flops_before,
        flops_after=count_flops(new_cfg),
        transform_seconds=time.perf_counter() - start,
    )
    return new_model, report


def pruned_energy_estimate(energy_j: float, p: float) -> float:
    """Energy after removing a fraction p of parameters: E * (1 - p)."""
    if energy_j < 0:
        raise InputError("energy must be nonnegative")
    if not 0.0 <= p < 1.0:
        raise InputError(f"p must be in [0, 1), got {p}")
    return energy_j * (1.0 - p)


def sparsity(model: TransformerModel) -> float:
    """Fraction of exactly-zero weights across the prunable pools."""
    total = 0
    zeros = 0
    for name in prunable_pools(model):
        arr = model.params[name]
        total += arr.size
        zeros += arr.size - np.count_nonzero(arr)
    return zeros / total
