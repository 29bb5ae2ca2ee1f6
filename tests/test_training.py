import math
import types
from dataclasses import replace

import numpy as np
import pytest

from conftest import count_calls
from tsfo.data import TimeSeriesDataset, synth_generate, subject_wise_split
from tsfo.errors import ConfigError, InputError
from tsfo.model import ModelConfig, build_model, encode, forward_batch, preset_config
from tsfo.pruning import (
    PruneSpec, prunable_pools, prune_structured, prune_unstructured, sparsity,
)
from tsfo.tensor import layer_norm, seeded_rng
from tsfo import training
from tsfo.training import (
    CosineSchedule,
    TrainConfig,
    _Tape,
    _batch_ce,
    _input_grad,
    adam_step,
    clip_global_norm,
    cosine_lr,
    evaluate,
    fit,
    history_to_csv,
    init_adam,
    loss_and_grads,
    train,
)


def tiny_config(**overrides):
    base = dict(
        num_layers=1, num_heads=1, model_dim=4, ffn_dim=8, patch_size=2,
        patch_stride=2, seq_len=6, in_channels=1, num_classes=3, dropout=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def model_in_f64(cfg, seed):
    m = build_model(cfg, seed)
    m.params = {k: v.astype(np.float64) for k, v in m.params.items()}
    return m


def cross_entropy(logits, label):
    """Loss of one instance, through the batch loss."""
    return _batch_ce(np.asarray(logits)[None], np.array([label]))[0]


def cross_entropy_grad(logits, label):
    """d loss / d logits of one instance, through the batch loss."""
    return _batch_ce(np.asarray(logits)[None], np.array([label]))[1][0]


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert abs(cross_entropy(np.zeros(7), 3) - math.log(7)) < 1e-9

    def test_confident_correct_class(self):
        logits = np.array([50.0, 0.0, 0.0])
        assert cross_entropy(logits, 0) < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(InputError):
            cross_entropy(np.zeros(3), 3)

    def test_grad_matches_finite_differences(self):
        rng = seeded_rng(0)
        logits = rng.normal(size=5)
        label = 2
        grad = cross_entropy_grad(logits, label)
        h = 1e-6
        for i in range(5):
            bumped = logits.copy()
            bumped[i] += h
            minus = logits.copy()
            minus[i] -= h
            fd = (cross_entropy(bumped, label) - cross_entropy(minus, label)) / (2 * h)
            assert abs(grad[i] - fd) / max(abs(fd), 1e-4) < 1e-4


class TestBackward:
    def test_cached_forward_matches_model_forward(self):
        cfg = tiny_config(num_layers=2, num_heads=2, model_dim=8)
        m = build_model(cfg, 3)
        xs = seeded_rng(4).normal(size=(3, 1, 6)).astype(np.float32)
        ys = np.array([0, 1, 2])
        # same graph: compare losses computed from the two forward paths
        loss, _, _ = loss_and_grads(m, xs, ys)
        logits = forward_batch(m, xs)
        want, _, _ = _batch_ce(logits, ys)
        assert abs(loss - want) < 1e-6

    @pytest.mark.parametrize("batch", [1, 32])
    @pytest.mark.parametrize("variant", ["T1", "T2", "T1-l2"])
    def test_tape_logits_are_the_served_logits(self, variant, batch):
        """Without dropout, training differentiates the very graph inference runs."""
        m = build_model(preset_config(variant[:2], seq_len=192, num_classes=4), 0)
        if variant.endswith("l2"):
            for granularity in ("neuron", "head"):
                m, _ = prune_structured(m, PruneSpec("l2", granularity, "layerwise", 0.4))
        xs = seeded_rng(11).normal(size=(batch, 1, 192)).astype(np.float32)
        logits = encode(m.config, xs, _Tape(m.params, m.config.dropout, None))
        assert np.array_equal(logits, forward_batch(m, xs))

    def test_training_step_call_budget(self):
        """A T1 batch-32 ``loss_and_grads`` with dropout makes at most 2,300 Python
        and C calls (2,045 today): one reverse step per forward step, with no
        per-parameter or per-head Python loop, as in the forward's call budget."""
        m = build_model(preset_config("T1", seq_len=192, num_classes=4), 0)
        xs = seeded_rng(63).normal(size=(32, 1, 192)).astype(np.float32)
        ys = np.arange(32) % 4
        assert count_calls(loss_and_grads, m, xs, ys, train=True, rng=seeded_rng(1)) <= 2300

    def test_finite_differences_tiny_model(self):
        # L=1, H=1, d=4, P=3, K=3 in float64 so the oracle itself is clean
        cfg = tiny_config()
        m = model_in_f64(cfg, 0)
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
            # norm-based relative error with an absolute floor for zero
            # gradients (the key bias cancels under softmax exactly)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), np.linalg.norm(fd), 1e-6)
            assert rel < 1e-3, f"{name}: rel={rel:.2e}"

    def test_saturated_softmax_gives_zero_gradients(self):
        cfg = tiny_config()
        m = build_model(cfg, 1)
        m.params["classifier.weight"][:] = 0
        m.params["classifier.bias"][:] = np.array([100.0, 0.0, 0.0], np.float32)
        xs = seeded_rng(5).normal(size=(2, 1, 6)).astype(np.float32)
        _, _, grads = loss_and_grads(m, xs, np.array([0, 0]))
        assert all(np.allclose(g, 0.0) for g in grads.values())

    def test_masked_weights_receive_gradient_but_stay_zero(self):
        cfg = tiny_config()
        m = build_model(cfg, 2)
        m, _ = prune_unstructured(m, PruneSpec("l1", "weight", "global", 0.5))
        xs = seeded_rng(6).normal(size=(4, 1, 6)).astype(np.float32)
        ys = np.array([0, 1, 2, 0])
        _, _, grads = loss_and_grads(m, xs, ys)
        name = "layers.0.ffn.w1"
        pruned_coords = m.params[name] == 0
        assert np.any(grads[name][pruned_coords] != 0)
        fit(m, TimeSeriesDataset("rows", xs, ys), TrainConfig(epochs=1, batch_size=4))
        assert np.all(m.params[name][pruned_coords] == 0)


def mean_formula_layer_norm_backward(d_out, xhat, inv_std, gamma):
    """The backward written with np.sum and np.mean, as it was before it called
    np.add.reduce directly; the reference for bit identity."""
    d_gamma = np.sum(d_out * xhat, axis=tuple(range(d_out.ndim - 1)))
    d_beta = np.sum(d_out, axis=tuple(range(d_out.ndim - 1)))
    d_xhat = d_out * gamma
    m1 = np.mean(d_xhat, axis=-1, keepdims=True)
    m2 = np.mean(d_xhat * xhat, axis=-1, keepdims=True)
    return inv_std * (d_xhat - m1 - xhat * m2), d_gamma, d_beta


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


class TestBackwardKernels:
    """The backward's kernels against the formulas they replace, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize(
        "d_shape, w_shape",
        [
            ((24, 24, 64), (256, 64)),    # T1 ffn.w2 at batch 24
            ((32, 24, 256), (64, 256)),   # T1 ffn.w1 at batch 32
            ((24, 24, 64), (64, 64)),     # T1 wo, wq, wk, wv
            ((16, 24, 96), (384, 96)),    # T2 ffn.w2 at batch 16
            ((16, 24, 384), (96, 384)),   # T2 ffn.w1
            ((16, 24, 96), (96, 96)),     # T2 wo, wq, wk, wv
            ((24, 64), (256, 64)),        # [B, n]
            ((32, 96), (96, 96)),
        ],
    )
    def test_input_grad_is_the_matmul(self, d_shape, w_shape, dtype):
        rng = seeded_rng(8)
        d_out = rng.normal(size=d_shape).astype(dtype)
        weight = rng.normal(size=w_shape).astype(dtype)
        assert_same_bits(_input_grad(d_out, weight), d_out @ weight.T)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("shape", [(24, 24, 64), (16, 24, 96), (5, 3)])
    def test_layer_norm_matches_the_mean_formula(self, shape, dtype):
        rng = seeded_rng(9)
        x = (rng.normal(size=shape) * 3.0 + 1.0).astype(dtype)
        gamma = rng.normal(size=shape[-1]).astype(dtype)
        beta = rng.normal(size=shape[-1]).astype(dtype)
        tape = _Tape({"n.gamma": gamma, "n.beta": beta}, 0.0, None)
        out = tape.norm(x, "n.")
        xhat, inv_std = tape.saved["n."]
        centred = x - np.mean(x, axis=-1, keepdims=True)
        want_std = np.sqrt(np.mean(centred**2, axis=-1, keepdims=True) + 1e-5)
        want_xhat = centred / want_std
        assert_same_bits(inv_std, 1.0 / want_std)
        assert_same_bits(xhat, want_xhat)
        assert_same_bits(out, gamma * want_xhat + beta)
        assert_same_bits(out, layer_norm(x, gamma, beta))

        d_out = rng.normal(size=shape).astype(dtype)
        d_x = tape.norm_back("n.", d_out)
        got = d_x, tape.grads["n.gamma"], tape.grads["n.beta"]
        want = mean_formula_layer_norm_backward(d_out, xhat, inv_std, gamma)
        for g, w in zip(got, want):
            assert_same_bits(g, w)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        params = {"w": np.array([1.0, 1.0], np.float64)}
        grads = {"w": np.array([0.35, -2.0], np.float64)}
        state = init_adam(params)
        adam_step(state, params, grads, 1e-3)
        # bias correction cancels on step one: update ~ -lr * sign(g)
        assert np.allclose(params["w"], [1.0 - 1e-3, 1.0 + 1e-3], atol=1e-6)

    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([3.0], np.float64)}
        state = init_adam(params)
        adam_step(state, params, {"w": np.zeros(1)}, 1e-3)
        assert params["w"][0] == 3.0
        assert state.t == 1

    def test_two_runs_bit_identical(self):
        def run():
            params = {"w": np.full(4, 0.5, np.float32)}
            state = init_adam(params)
            for step in range(10):
                g = {"w": np.sin(np.arange(4, dtype=np.float32) + step)}
                adam_step(state, params, g, 1e-3)
            return params["w"]

        assert np.array_equal(run(), run())


class TestCosine:
    def test_endpoints_and_midpoint(self):
        sched = CosineSchedule(1e-3, 1e-5, 100)
        assert cosine_lr(sched, 0) == pytest.approx(1e-3)
        assert cosine_lr(sched, 100) == pytest.approx(1e-5)
        assert cosine_lr(sched, 50) == pytest.approx((1e-3 + 1e-5) / 2)

    def test_monotone_non_increasing(self):
        sched = CosineSchedule(1e-2, 1e-4, 57)
        values = [cosine_lr(sched, t) for t in range(58)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        sched = CosineSchedule(1e-3, 1e-5, 10)
        with pytest.raises(InputError):
            cosine_lr(sched, 11)


class TestClip:
    def test_clips_to_max_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        total = clip_global_norm(grads, 1.0)
        assert total == pytest.approx(5.0)
        clipped = math.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
        assert clipped == pytest.approx(1.0, rel=1e-5)


GOLDEN_CFG = ModelConfig(
    num_layers=2, num_heads=4, model_dim=32, ffn_dim=64, patch_size=8,
    patch_stride=8, seq_len=96, in_channels=1, num_classes=3, dropout=0.1,
)
GOLDEN_SEED = 7
# recovery training at the lower peak rate tsfo prune and tsfo bench use
FT_CFG = TrainConfig(lr_max=3e-4)


def golden_splits(noise=0.05):
    ds = synth_generate(3, 40, 96, noise, seed=42)
    return subject_wise_split(ds, 0.7, 42)


class TestTrain:
    def test_empty_dataset_rejected(self):
        stub = types.SimpleNamespace(
            instances=np.zeros((0, 1, 6), np.float32), labels=np.zeros(0, np.int64)
        )
        with pytest.raises(InputError):
            train(build_model(tiny_config(), 0), stub, TrainConfig(epochs=1))

    @pytest.mark.parametrize("fields", [{"epochs": -1}, {"batch_size": 0}],
                             ids=["negative-epochs", "zero-batch-size"])
    def test_config_without_a_valid_step_count_rejected(self, fields):
        with pytest.raises(ConfigError):
            TrainConfig(**fields)
        assert TrainConfig(epochs=0).epochs == 0  # a fit that trains nothing stays valid

    def test_single_class_dataset_one_epoch(self):
        ds = synth_generate(3, 12, 96, 0.05, seed=1)
        only = ds.subset(np.where(ds.labels == 0)[0], "")
        m = build_model(GOLDEN_CFG, 0)
        m, hist = train(m, only, TrainConfig(epochs=1, batch_size=8, seed=0))
        assert hist[0]["train_acc"] == 1.0

    def test_golden_run_reaches_90pct_within_30_epochs(self):
        train_ds, _ = golden_splits()
        m = build_model(GOLDEN_CFG, GOLDEN_SEED)
        m, hist = train(m, train_ds, TrainConfig(epochs=30, batch_size=32, seed=GOLDEN_SEED))
        assert max(h["train_acc"] for h in hist) >= 0.9
        losses = [h["train_loss"] for h in hist]
        assert all(np.isfinite(l) for l in losses)
        assert losses[-1] <= losses[0]

    def test_training_deterministic(self):
        train_ds, _ = golden_splits()

        def run():
            m = build_model(GOLDEN_CFG, GOLDEN_SEED)
            m, _ = train(m, train_ds, TrainConfig(epochs=2, batch_size=32, seed=GOLDEN_SEED))
            return m

        a, b = run(), run()
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)


    def test_history_is_pinned(self):
        # d 64, ffn 256, 24 patches: T1's per-row GEMM sizes. The literals are
        # this seed's history from float32 OpenBLAS on x86-64; another BLAS may
        # round the losses differently in the last bits.
        cfg = ModelConfig(
            num_layers=2, num_heads=4, model_dim=64, ffn_dim=256, patch_size=8,
            patch_stride=8, seq_len=192, in_channels=1, num_classes=3, dropout=0.1,
        )
        train_ds, val_ds = subject_wise_split(synth_generate(3, 16, 192, 0.3, seed=5), 0.7, 5)
        _, hist = train(
            build_model(cfg, 3), train_ds, TrainConfig(epochs=3, batch_size=24, seed=3),
            val_dataset=val_ds,
        )
        assert hist == [
            {"epoch": 1, "lr": 0.0007525, "train_loss": 1.8515546321868896,
             "train_acc": 0.6111111111111112, "val_acc": 0.6666666666666666},
            {"epoch": 2, "lr": 0.00025750000000000013, "train_loss": 1.6112247705459595,
             "train_acc": 0.6666666666666666, "val_acc": 0.6666666666666666},
            {"epoch": 3, "lr": 1e-05, "train_loss": 0.6510646343231201,
             "train_acc": 1.0, "val_acc": 1.0},
        ]


class TestFineTune:
    """Recovery training after pruning: ``fit`` keeping the model's zeros."""

    def test_evaluates_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(training, "evaluate", lambda *args: calls.append(args) or 0.0)
        train_ds, _ = golden_splits()
        m = build_model(GOLDEN_CFG, GOLDEN_SEED)
        m, _ = prune_unstructured(m, PruneSpec("l1", "weight", "global", 0.5))
        fit(m, train_ds, replace(FT_CFG, epochs=2))
        assert calls == []

    def test_zero_epochs_unchanged(self):
        # zero epochs take no step: no bit moves
        m = build_model(GOLDEN_CFG, 0)
        m, _ = prune_unstructured(m, PruneSpec("l1", "weight", "global", 0.5))
        before = {k: v.tobytes() for k, v in m.params.items()}
        out = fit(m, golden_splits()[0], replace(FT_CFG, epochs=0))
        assert {k: v.tobytes() for k, v in out.params.items()} == before

    def test_sparsity_invariant_through_fine_tuning(self):
        train_ds, _ = golden_splits()
        m = build_model(GOLDEN_CFG, GOLDEN_SEED)
        m, _ = train(m, train_ds, TrainConfig(epochs=3, batch_size=32, seed=GOLDEN_SEED))
        m, _ = prune_unstructured(m, PruneSpec("l1", "weight", "global", 0.6))
        s_before = sparsity(m)
        pruned = {name: m.params[name] == 0 for name in prunable_pools(m)}
        m = fit(m, train_ds, replace(FT_CFG, epochs=3))
        assert sparsity(m) == s_before
        for name, zero in pruned.items():
            assert np.all(m.params[name][zero] == 0)

    @pytest.mark.parametrize("structured", [False, True])
    @pytest.mark.parametrize("weight_fake_quant", [False, True])
    def test_keeps_zeros_without_a_mask(self, structured, weight_fake_quant):
        """Every fine-tune keeps the zeros of the model's prunable pools, also after a
        structured prune and in QAT, while the pools' other weights, the biases
        and the classifier train."""
        train_ds, _ = golden_splits()
        m = build_model(GOLDEN_CFG, GOLDEN_SEED)
        m, _ = prune_unstructured(m, PruneSpec("l1", "weight", "global", 0.5))
        if structured:
            m, _ = prune_structured(m, PruneSpec("l2", "neuron", "layerwise", 0.25))
        before = m.copy()
        m = fit(m, train_ds, replace(FT_CFG, epochs=1), weight_fake_quant=weight_fake_quant)
        for name in prunable_pools(m):
            zero = before.params[name] == 0
            assert zero.any() and np.all(m.params[name][zero] == 0), name
            assert np.any(m.params[name][~zero] != before.params[name][~zero]), name
        for name in ("layers.0.ffn.b1", "layers.1.attn.bq", "classifier.weight", "classifier.bias"):
            assert np.any(m.params[name] != before.params[name]), name

    def test_golden_recovery_after_heavy_pruning(self):
        # 90% pruning hurts; fine-tuning must recover at least half the loss
        ds = synth_generate(3, 40, 96, 0.25, seed=42)
        train_ds, test_ds = subject_wise_split(ds, 0.7, 42)
        m = build_model(GOLDEN_CFG, GOLDEN_SEED)
        m, _ = train(m, train_ds, TrainConfig(epochs=25, batch_size=32, seed=GOLDEN_SEED))
        base = evaluate(m, test_ds)
        m, _ = prune_unstructured(m, PruneSpec("l1", "weight", "global", 0.9))
        pruned = evaluate(m, test_ds)
        assert pruned < base  # the golden setting really loses accuracy
        m = fit(m, train_ds, replace(FT_CFG, epochs=8))
        recovered = evaluate(m, test_ds)
        assert recovered - pruned >= (base - pruned) / 2


def test_history_csv(tmp_path):
    train_ds, val_ds = golden_splits()
    m = build_model(GOLDEN_CFG, GOLDEN_SEED)
    m, hist = train(
        m, train_ds, TrainConfig(epochs=2, batch_size=32, seed=GOLDEN_SEED),
        val_dataset=val_ds,
    )
    path = tmp_path / "history.csv"
    history_to_csv(hist, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,train_loss,train_acc,val_acc"
    assert len(lines) == 3
