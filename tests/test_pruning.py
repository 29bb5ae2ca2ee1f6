import tracemalloc

import numpy as np
import pytest

from conftest import count_calls
import tsfo.pruning as pruning_mod
from tsfo.errors import PruneSpecError
from tsfo.model import (
    ModelConfig,
    build_model,
    count_flops,
    count_params,
    forward_batch,
    preset_config,
)
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
            score_units(m, "weight", "l2")

    def test_method_validated(self):
        m = build_model(small_config(), 0)
        for granularity in ("neuron", "head"):
            with pytest.raises(PruneSpecError, match="unknown method 'bogus'"):
                score_units(m, granularity, "bogus")
        with pytest.raises(PruneSpecError, match="unknown method 'bogus'"):
            score_weights(m, "bogus")


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
        m = apply_unstructured_mask(m, indices)
        for name, idx in indices.items():
            flat = manual.params[name].ravel()
            flat[idx] = 0.0
        xs = seeded_rng(5).normal(size=(3, 1, 8)).astype(np.float32)
        assert np.array_equal(forward_batch(m, xs), forward_batch(manual, xs))

    def test_achieved_sparsity_within_one_per_pool(self):
        m = build_model(small_config(), 6)
        for p in (0.17, 0.5, 0.83):
            trial = m.copy()
            trial, report = prune_unstructured(trial, PruneSpec("l1", "weight", "layerwise", p))
            for name in prunable_pools(trial):
                arr = trial.params[name]
                zeros = arr.size - np.count_nonzero(arr)
                assert abs(zeros / arr.size - p) <= 1.0 / arr.size + 1e-9

    def test_report_holds_no_energy_fields(self):
        # a pruning step's energy is bench's pruned_energy_estimate of params_removed
        m = build_model(small_config(), 7)
        m, report = prune_unstructured(m, PruneSpec("l1", "weight", "global", 0.5))
        assert set(report.to_dict()) == {
            "achieved_sparsity", "params_removed", "flops_before", "flops_after",
            "transform_seconds",
        }
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
        m, _ = prune_unstructured(m, PruneSpec("l1", "weight", "global", 0.3))
        zeros = total = 0
        for name in prunable_pools(m):
            zeros += int(np.sum(m.params[name] == 0))
            total += m.params[name].size
        assert sparsity(m) == zeros / total


def lexsort_select(scores, spec):
    """Reference selection: a full (score, pool, index) lexsort, as select_prune_set
    once ranked, before it found the k-th score by partition."""
    p = spec.sparsity
    if p == 0.0:
        return {name: np.array([], dtype=np.int64) for name in scores}
    if spec.scope == "layerwise":
        out = {}
        for name, vals in scores.items():
            k = int(np.ceil(p * len(vals)))
            order = np.lexsort((np.arange(len(vals)), vals))
            out[name] = np.sort(order[:k])
        return out
    names = list(scores)
    all_scores = np.concatenate([scores[n] for n in names])
    pool_idx = np.concatenate(
        [np.full(len(scores[n]), i, dtype=np.int64) for i, n in enumerate(names)]
    )
    flat_idx = np.concatenate([np.arange(len(scores[n]), dtype=np.int64) for n in names])
    k = int(np.ceil(p * len(all_scores)))
    chosen = np.lexsort((flat_idx, pool_idx, all_scores))[:k]
    return {
        name: np.sort(flat_idx[chosen[pool_idx[chosen] == i]]) for i, name in enumerate(names)
    }


def loop_unit_scores(model, granularity, method="l2"):
    """Reference unit scores: one concatenated group and one reduction per unit."""
    norm = (lambda g: float(np.sqrt(np.sum(g**2)))) if method == "l2" else (
        lambda g: float(np.sum(np.abs(g)))
    )
    cfg = model.config
    scores = {}
    for l in range(cfg.num_layers):
        pre = f"layers.{l}."
        if granularity == "neuron":
            w1, w2 = model.params[pre + "ffn.w1"], model.params[pre + "ffn.w2"]
            groups = [np.concatenate([w1[:, j], w2[j, :]]) for j in range(w1.shape[1])]
            name = pre + "ffn"
        else:
            wq, wk, wv, wo = (model.params[pre + "attn." + w] for w in ("wq", "wk", "wv", "wo"))
            sls = [slice(h * cfg.head_dim, (h + 1) * cfg.head_dim) for h in range(cfg.heads_at(l))]
            groups = [
                np.concatenate([wq[:, s].ravel(), wk[:, s].ravel(), wv[:, s].ravel(), wo[s].ravel()])
                for s in sls
            ]
            name = pre + "attn"
        scores[name] = np.array([norm(g) for g in groups], dtype=np.float64)
    return scores


def preset_model(preset, seed=0):
    """A preset model whose weight tensors are rescaled apart, so unit norms spread."""
    m = build_model(preset_config(preset, seq_len=192, num_classes=4), seed)
    rng = seeded_rng(seed + 100)
    for name in m.params:
        m.params[name] *= np.float32(rng.uniform(0.25, 4.0))
    return m


def pools_of(sizes, rng, make):
    return {f"p{j}": make(rng, n) for j, n in enumerate(sizes)}


def _nan_share(share):
    def make(rng, n):
        v = rng.normal(size=n)
        v[rng.random(n) < share] = np.nan
        return v
    return make


SELECTION_CASES = {
    "ties": lambda rng, n: np.round(rng.uniform(0, 1, n), 2),
    "nan": _nan_share(0.3),
    "nan-beyond-k": _nan_share(0.8),
    "signed-zeros": lambda rng, n: rng.choice([-0.0, 0.0, 0.25, np.nan], size=n),
    "float32": lambda rng, n: np.round(rng.normal(size=n), 1).astype(np.float32),
}


class TestSameBitsAsTheLexsortPath:
    """The partition selection and the per-layer unit scores give exactly what
    the lexsort selection and the per-unit loop gave."""

    @pytest.mark.parametrize("scope", ["global", "layerwise"])
    @pytest.mark.parametrize("case", sorted(SELECTION_CASES))
    def test_selection(self, scope, case):
        rng = seeded_rng(31)
        for trial in range(40):
            sizes = rng.integers(1, 60, size=int(rng.integers(1, 5)))
            scores = pools_of(sizes, rng, SELECTION_CASES[case])
            for p in (0.01, 0.4, 0.5, 0.9, 0.99):
                spec = PruneSpec("l1", "weight", scope, p)
                got, want = select_prune_set(scores, spec), lexsort_select(scores, spec)
                assert list(got) == list(want)
                for name in want:
                    assert np.array_equal(got[name], want[name]), (trial, p, name)
                    assert got[name].dtype == want[name].dtype

    @pytest.mark.parametrize("scope", ["global", "layerwise"])
    @pytest.mark.parametrize("k", ["1", "n-1"])
    def test_selection_at_the_ends(self, scope, k):
        rng = seeded_rng(32)
        scores = pools_of([37] * 4, rng, SELECTION_CASES["ties"])
        n = 37 if scope == "layerwise" else 4 * 37
        p = 0.5 / n if k == "1" else (n - 1.5) / n
        spec = PruneSpec("l1", "weight", scope, p)
        got, want = select_prune_set(scores, spec), lexsort_select(scores, spec)
        for name in want:
            assert np.array_equal(got[name], want[name])
        pools = 4 if scope == "layerwise" else 1
        assert sum(map(len, got.values())) == pools * (1 if k == "1" else n - 1)

    @pytest.mark.parametrize("decimals", [None, 2])
    def test_t1_sized_global_selection(self, decimals):
        scores = score_weights(preset_model("T1"), "l1")
        if decimals is not None:
            scores = {n: np.round(v, decimals) for n, v in scores.items()}
        assert sum(map(len, scores.values())) == 393_728
        spec = PruneSpec("l1", "weight", "global", 0.4)
        got, want = select_prune_set(scores, spec), lexsort_select(scores, spec)
        for name in want:
            assert np.array_equal(got[name], want[name])

    @pytest.mark.parametrize("preset", ["T1", "T2"])
    @pytest.mark.parametrize("granularity", ["neuron", "head"])
    @pytest.mark.parametrize("method", ["l1", "l2"])
    def test_unit_scores(self, preset, granularity, method):
        m = preset_model(preset, seed=3)
        self._same_scores(m, granularity, method)

    def test_unit_scores_of_a_pruned_config(self):
        m = preset_model("T1", seed=4)
        for granularity in ("neuron", "head"):
            m, _ = prune_structured(m, PruneSpec("l2", granularity, "layerwise", 0.4))
        assert m.config.heads_per_layer is not None and m.config.ffn_per_layer is not None
        for granularity in ("neuron", "head"):
            for method in ("l1", "l2"):
                self._same_scores(m, granularity, method)

    @staticmethod
    def _same_scores(m, granularity, method):
        got = score_units(m, granularity, method)
        want = loop_unit_scores(m, granularity, method)
        assert list(got) == list(want)
        for name in want:
            assert got[name].dtype == np.float64
            assert np.array_equal(got[name], want[name]), name

    @staticmethod
    def _on_the_reference_path(monkeypatch, fn, *args):
        with monkeypatch.context() as patched:
            patched.setattr(pruning_mod, "select_prune_set", lexsort_select)
            patched.setattr(pruning_mod, "score_units", loop_unit_scores)
            return fn(*args)

    def test_unstructured_pruning(self, monkeypatch):
        m = preset_model("T1", seed=5)
        spec = PruneSpec("l1", "weight", "global", 0.4)
        got, got_report = prune_unstructured(m.copy(), spec)
        want, want_report = self._on_the_reference_path(
            monkeypatch, prune_unstructured, m.copy(), spec
        )
        assert got.config == want.config
        assert got.params.keys() == want.params.keys()
        assert all(np.array_equal(got.params[n], want.params[n]) for n in want.params)
        assert got_report.params_removed == want_report.params_removed

    def test_structured_pruning(self, monkeypatch):
        m = preset_model("T1", seed=6)
        got = want = m
        for granularity in ("neuron", "head"):
            spec = PruneSpec("l2", granularity, "layerwise", 0.4)
            got, _ = prune_structured(got, spec)
            want, _ = self._on_the_reference_path(monkeypatch, prune_structured, want, spec)
        assert got.config == want.config
        assert got.params.keys() == want.params.keys()
        assert all(np.array_equal(got.params[n], want.params[n]) for n in want.params)


def test_pruning_call_budget():
    """Unit scoring and global selection make a number of Python and C calls
    that grows with layers and pools, not with units or weights.

    T2 neuron scoring makes 79 calls (12 layers; laying out each layer's w1
    and w2 unit rows takes 4) and a global selection over T1's 49 pools 205.
    A loop over units, one concatenation and reduction each, made 41,498 for
    T2's 4,608 neurons; the lexsort selection, which split its result with a
    mask per pool, made 651.
    """
    t2 = build_model(preset_config("T2", seq_len=192, num_classes=4), 0)
    assert count_calls(score_units, t2, "neuron", "l2") <= 5 * t2.config.num_layers + 20
    t1 = build_model(preset_config("T1", seq_len=192, num_classes=4), 0)
    scores = score_weights(t1, "l1")
    spec = PruneSpec("l1", "weight", "global", 0.4)
    assert count_calls(select_prune_set, scores, spec) <= 4 * len(scores) + 60


@pytest.mark.parametrize("granularity", ["neuron", "head"])
def test_unit_scoring_holds_one_copy_of_the_scored_weights(granularity):
    """Scoring T2's units lays their rows out once: its traced peak stays below
    1.5 times the scored matrices' bytes. Concatenating per-matrix parts into
    a second array peaked at twice them (6.8 MB for neurons, 3.4 MB for heads)."""
    t2 = build_model(preset_config("T2", seq_len=192, num_classes=4), 0)
    sub, _, _, axes = pruning_mod._UNITS[granularity]
    scored = sum(a.nbytes for n, a in t2.params.items()
                 if f".{sub}." in n and a.ndim == 2 and n.rsplit(".", 1)[1] in axes)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        score_units(t2, granularity, "l2")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 1.5 * scored
