import numpy as np
import pytest

from tsfo.errors import PruneSpecError
from tsfo.model import ModelConfig, build_model, count_flops, count_params, forward_batch
from tsfo.pruning import (
    PruneSpec,
    apply_unstructured_mask,
    prunable_pools,
    prune_structured,
    prune_unstructured,
    pruned_energy_estimate,
    score_units,
    score_weights,
    select_prune_set,
    sparsity,
)
from tsfo.tensor import seeded_rng


def small_config(**overrides):
    base = dict(
        num_layers=2, num_heads=2, model_dim=8, ffn_dim=6, patch_size=2,
        patch_stride=2, seq_len=8, in_channels=1, num_classes=3, dropout=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestWeightScores:
    def test_absolute_value(self):
        m = build_model(small_config(), 0)
        m.params["layers.0.ffn.w1"][0, 0] = -3.0
        scores = score_weights(m, "l1")
        assert scores["layers.0.ffn.w1"][0] == 3.0

    def test_ties_for_equal_weights(self):
        m = build_model(small_config(), 0)
        m.params["layers.0.ffn.w1"][:] = 0.25
        scores = score_weights(m, "l1")
        assert np.all(scores["layers.0.ffn.w1"] == 0.25)

    def test_hand_computed_list(self):
        m = build_model(small_config(), 0)
        w = np.array([0.5, -0.1, 0.0, 2.0, -1.5], dtype=np.float32)
        m.params["classifier.weight"] = w  # not prunable; use an ffn row instead
        m.params["layers.0.ffn.w1"][0, :5] = w
        scores = score_weights(m, "l1")["layers.0.ffn.w1"]
        assert np.allclose(scores[:5], [0.5, 0.1, 0.0, 2.0, 1.5])

    def test_biases_and_norms_excluded(self):
        m = build_model(small_config(), 0)
        pools = prunable_pools(m)
        assert not any(".b" in n or "norm" in n or "classifier" in n for n in pools)
        assert "patch_embed.weight" in pools


class TestUnitScores:
    def test_zero_neuron_scores_zero(self):
        m = build_model(small_config(), 0)
        m.params["layers.0.ffn.w1"][:, 2] = 0
        m.params["layers.0.ffn.w2"][2, :] = 0
        scores = score_units(m, "neuron", "l2")
        assert scores["layers.0.ffn"][2] == 0.0
        assert np.all(scores["layers.0.ffn"][np.arange(6) != 2] > 0)

    def test_two_neuron_hand_computation(self):
        cfg = small_config(model_dim=2, num_heads=1, ffn_dim=2)
        m = build_model(cfg, 0)
        m.params["layers.0.ffn.w1"] = np.array([[1.0, 0.0], [2.0, 3.0]], np.float32)
        m.params["layers.0.ffn.w2"] = np.array([[2.0, 0.0], [0.0, 4.0]], np.float32)
        scores = score_units(m, "neuron", "l2")["layers.0.ffn"]
        assert scores[0] == pytest.approx(np.sqrt(1 + 4 + 4))
        assert scores[1] == pytest.approx(np.sqrt(9 + 16))

    def test_head_scaling_homogeneous(self):
        m = build_model(small_config(), 1)
        before = score_units(m, "head", "l2")["layers.0.attn"]
        dh = m.config.head_dim
        for w in ("wq", "wk", "wv"):
            m.params[f"layers.0.attn.{w}"][:, :dh] *= 3.0
        m.params["layers.0.attn.wo"][:dh, :] *= 3.0
        after = score_units(m, "head", "l2")["layers.0.attn"]
        assert after[0] == pytest.approx(3.0 * before[0], rel=1e-6)
        assert np.allclose(after[1:], before[1:])

    def test_granularity_validated(self):
        m = build_model(small_config(), 0)
        with pytest.raises(PruneSpecError):
            score_units(m, "weight")


def sort_oracle(scores, spec):
    """Brute-force selection: full sort of (score, pool, index) triples."""
    names = list(scores)
    triples = [
        (float(scores[n][i]), pi, i)
        for pi, n in enumerate(names)
        for i in range(len(scores[n]))
    ]
    if spec.scope == "global":
        k = int(np.ceil(spec.sparsity * len(triples)))
        chosen = sorted(triples)[:k]
        out = {n: [] for n in names}
        for _, pi, i in chosen:
            out[names[pi]].append(i)
        return {n: np.array(sorted(v), dtype=np.int64) for n, v in out.items()}
    out = {}
    for n in names:
        k = int(np.ceil(spec.sparsity * len(scores[n])))
        chosen = sorted((float(s), i) for i, s in enumerate(scores[n]))[:k]
        out[n] = np.array(sorted(i for _, i in chosen), dtype=np.int64)
    return out


class TestSelect:
    def test_spec_example_global_vs_layerwise(self):
        scores = {"A": np.array([0.1, 0.2]), "B": np.array([0.5, 0.6])}
        got = select_prune_set(scores, PruneSpec("l1", "weight", "global", 0.5))
        assert got["A"].tolist() == [0, 1] and got["B"].tolist() == []
        got = select_prune_set(scores, PruneSpec("l1", "weight", "layerwise", 0.5))
        assert got["A"].tolist() == [0] and got["B"].tolist() == [0]

    def test_zero_sparsity_empty(self):
        scores = {"A": np.array([1.0, 2.0])}
        got = select_prune_set(scores, PruneSpec("l1", "weight", "global", 0.0))
        assert got["A"].size == 0

    @pytest.mark.parametrize("scope", ["global", "layerwise"])
    def test_matches_sort_oracle_random(self, scope):
        rng = seeded_rng(13)
        for trial in range(100):
            pools = int(rng.integers(1, 5))
            scores = {
                f"p{j}": rng.uniform(0, 1, size=int(rng.integers(1, 40)))
                for j in range(pools)
            }
            spec = PruneSpec("l1", "weight", scope, float(rng.uniform(0, 0.95)))
            got = select_prune_set(scores, spec)
            want = sort_oracle(scores, spec)
            for name in scores:
                assert np.array_equal(got[name], want[name]), (trial, name)

    def test_scale_invariance(self):
        rng = seeded_rng(14)
        scores = {"a": rng.uniform(0, 1, 17), "b": rng.uniform(0, 1, 9)}
        spec = PruneSpec("l1", "weight", "global", 0.4)
        base = select_prune_set(scores, spec)
        scaled = select_prune_set({k: 7.5 * v for k, v in scores.items()}, spec)
        for name in scores:
            assert np.array_equal(base[name], scaled[name])

    def test_empty_pool_rejected(self):
        with pytest.raises(PruneSpecError):
            select_prune_set({"a": np.array([])}, PruneSpec("l1", "weight", "global", 0.5))


class TestUnstructured:
    def test_exact_zero_count(self):
        m = build_model(small_config(), 3)
        name = "layers.0.ffn.w1"
        pool = m.params[name]
        indices = {name: np.argsort(np.abs(pool).ravel())[: int(0.6 * pool.size)]}
        apply_unstructured_mask(m, indices)
        assert pool.size - np.count_nonzero(pool) == int(0.6 * pool.size)

    def test_forward_still_valid_and_matches_manual_zeroing(self):
        m = build_model(small_config(), 4)
        manual = m.copy()
        spec = PruneSpec("l1", "weight", "global", 0.4)
        indices = select_prune_set(score_weights(m, "l1"), spec)
        m, masks = apply_unstructured_mask(m, indices)
        for name, idx in indices.items():
            flat = manual.params[name].ravel()
            flat[idx] = 0.0
        xs = seeded_rng(5).normal(size=(3, 1, 8)).astype(np.float32)
        assert np.array_equal(forward_batch(m, xs), forward_batch(manual, xs))

    def test_achieved_sparsity_within_one_per_pool(self):
        m = build_model(small_config(), 6)
        for p in (0.17, 0.5, 0.83):
            trial = m.copy()
            trial, _, report = prune_unstructured(trial, PruneSpec("l1", "weight", "layerwise", p))
            for name in prunable_pools(trial):
                arr = trial.params[name]
                zeros = arr.size - np.count_nonzero(arr)
                assert abs(zeros / arr.size - p) <= 1.0 / arr.size + 1e-9

    def test_report_energy_applies_removal_fraction(self):
        m = build_model(small_config(), 7)
        m, _, report = prune_unstructured(m, PruneSpec("l1", "weight", "global", 0.5), 10.0)
        frac = report.params_removed / count_params(m.config)
        assert report.energy_after_j == pytest.approx(10.0 * (1 - frac))
        assert report.flops_after == report.flops_before  # masking keeps shapes


class TestStructured:
    def test_remove_one_of_two_heads_halves_projection_weights(self):
        cfg = small_config()
        m = build_model(cfg, 8)
        before_w = sum(
            m.params[f"layers.0.attn.{w}"].size for w in ("wq", "wk", "wv", "wo")
        )
        pruned, report = prune_structured(m, PruneSpec("l2", "head", "layerwise", 0.5))
        after_w = sum(
            pruned.params[f"layers.0.attn.{w}"].size for w in ("wq", "wk", "wv", "wo")
        )
        assert after_w * 2 == before_w
        assert pruned.config.heads_per_layer == (1, 1)

    def test_param_and_flop_deltas_closed_form(self):
        cfg = small_config()
        m = build_model(cfg, 9)
        d, dh = cfg.model_dim, cfg.head_dim
        pruned, _ = prune_structured(m, PruneSpec("l2", "head", "layerwise", 0.5))
        per_head = 4 * d * dh + 3 * dh
        assert count_params(cfg) - count_params(pruned.config) == 2 * per_head
        m2 = build_model(cfg, 9)
        pruned2, _ = prune_structured(m2, PruneSpec("l2", "neuron", "layerwise", 0.5))
        per_neuron = 2 * d + 1
        assert count_params(cfg) - count_params(pruned2.config) == 2 * 3 * per_neuron
        # flop delta: ffn term drops by 2 * (2 * P * d) per removed neuron
        p_count = cfg.num_patches
        assert count_flops(cfg) - count_flops(pruned2.config) == 2 * 3 * (2 * 2 * p_count * d)

    def test_remove_nothing_identical(self):
        m = build_model(small_config(), 10)
        pruned, report = prune_structured(m, PruneSpec("l2", "neuron", "layerwise", 0.0))
        assert report.params_removed == 0
        assert all(np.array_equal(m.params[k], pruned.params[k]) for k in m.params)

    def test_zero_weight_neuron_removal_keeps_logits(self):
        m = build_model(small_config(num_layers=1), 11)
        m.params["layers.0.ffn.w1"][:, 3] = 0
        m.params["layers.0.ffn.b1"][3] = 0
        m.params["layers.0.ffn.w2"][3, :] = 0
        xs = seeded_rng(12).normal(size=(4, 1, 8)).astype(np.float32)
        before = forward_batch(m, xs)
        pruned, _ = prune_structured(m, PruneSpec("l2", "neuron", "layerwise", 1 / 6))
        assert pruned.config.ffn_per_layer == (5,)
        assert np.array_equal(before, forward_batch(pruned, xs))

    def test_flops_decrease_when_units_removed(self):
        m = build_model(small_config(), 13)
        pruned, report = prune_structured(m, PruneSpec("l2", "neuron", "layerwise", 0.34))
        assert report.flops_after < report.flops_before

    def test_refuses_to_empty_a_layer(self):
        m = build_model(small_config(ffn_dim=2), 14)
        with pytest.raises(PruneSpecError):
            prune_structured(m, PruneSpec("l2", "neuron", "layerwise", 0.99))


class TestEnergyEstimate:
    def test_formula_values(self):
        assert pruned_energy_estimate(50.0, 0.2) == pytest.approx(40.0)
        assert pruned_energy_estimate(5.0, 0.0) == 5.0
        assert pruned_energy_estimate(100.0, 0.37) == pytest.approx(63.0)


class TestSparsity:
    def test_fresh_model_dense(self):
        assert sparsity(build_model(small_config(), 15)) == 0.0

    def test_exact_half_mask(self):
        m = build_model(small_config(), 16)
        total = sum(m.params[n].size for n in prunable_pools(m))
        assert total % 2 == 0
        indices = select_prune_set(
            score_weights(m, "l1"), PruneSpec("l1", "weight", "global", 0.5)
        )
        apply_unstructured_mask(m, indices)
        assert sparsity(m) == pytest.approx(0.5, abs=1.0 / total)

    def test_matches_brute_force_count(self):
        m = build_model(small_config(), 17)
        m, _, _ = prune_unstructured(m, PruneSpec("l1", "weight", "global", 0.3))
        zeros = total = 0
        for name in prunable_pools(m):
            zeros += int(np.sum(m.params[name] == 0))
            total += m.params[name].size
        assert sparsity(m) == zeros / total
