"""A float model is exactly its parameter arrays, in the C-contiguous layout that
``save_model`` writes: every model ``src/`` makes serves the same logits before
and after a save/load round trip. An int8 model serves from one layout, laid
out when it is compiled, and a float model from one laid out on its first
forward: [1, P, n] tiles of the vectors its activations read."""

import numpy as np
import pytest

from conftest import with_random_vectors
from tsfo import bench, cli
from tsfo.bench import ExperimentConfig, _apply_pipeline
from tsfo.cli import main
from tsfo.data import subject_wise_split, synth_generate
import tsfo.model as model_mod
from tsfo import tensor
from tsfo.model import build_model, forward, forward_batch, preset_config
from tsfo.pruning import PruneSpec, prune_structured, prune_unstructured
from tsfo.quantization import (
    QuantizedModel, activation_sites, calibrate, quantize_dynamic, quantize_static,
    quantized_forward_batch,
)
from tsfo.serialize import load, save_dataset, save_model, save_quantized
from tsfo.tensor import PackedWeight, seeded_rng
from tsfo.training import TrainConfig, fit

SYNTH = {"classes": 3, "per_class": 12, "length": 32}
PIPELINES = [[op] for op in bench.KNOWN_OPS] + [
    ["l1-prune", "static-quant"], ["static-quant", "l1-prune"],
    ["l1-prune", "qat"], ["l1-prune", "l2-prune"], ["l1-prune", "l1-prune"],
]


@pytest.fixture(scope="module")
def setting():
    """A T1 model trained for one epoch, the train side it was trained on, and
    inputs at batch 1 and batch 64."""
    dataset = synth_generate(SYNTH["classes"], SYNTH["per_class"], SYNTH["length"], 0.05, 0)
    train_ds, _ = subject_wise_split(dataset, 0.7, 0)
    model = build_model(preset_config("T1", seq_len=SYNTH["length"], num_classes=3), 0)
    model.split = {"train_fraction": 0.7, "seed": 0}
    model = fit(model, train_ds, TrainConfig(epochs=1, batch_size=16, seed=0))
    xs = seeded_rng(1).normal(size=(64, 1, SYNTH["length"])).astype(np.float32)
    return dataset, train_ds, model, xs


def assert_round_trip_serves_the_same_logits(obj, path, xs):
    quantized = isinstance(obj, QuantizedModel)
    (save_quantized if quantized else save_model)(obj, path)
    back = load(path)
    run = quantized_forward_batch if quantized else forward_batch
    for batch in (xs[:1], xs):
        assert np.array_equal(run(back, batch), run(obj, batch)), len(batch)


@pytest.mark.parametrize("pipeline", PIPELINES, ids="+".join)
def test_every_bench_pipeline_round_trips(setting, tmp_path, pipeline):
    _, train_ds, model, xs = setting
    config = ExperimentConfig(synth=SYNTH, fine_tune_epochs=1, calibration_size=16)
    obj, _, _ = _apply_pipeline(pipeline, model, train_ds, config, 0)
    assert_round_trip_serves_the_same_logits(obj, tmp_path / "m.tsfo", xs)


@pytest.mark.parametrize("granularity", ["weight", "neuron", "head"])
def test_what_tsfo_prune_writes_round_trips(setting, tmp_path, monkeypatch, granularity):
    dataset, _, model, xs = setting
    model_path, ds_path, out = (str(tmp_path / n) for n in ("m.tsfo", "d.tsfo", "p.tsfo"))
    save_model(model, model_path)
    save_dataset(dataset, ds_path)
    written = []
    monkeypatch.setattr(cli, "save_model", lambda m, path: written.append(m))
    assert main(["prune", "--model", model_path, "--granularity", granularity,
                 "--method", "l2", "--data", ds_path, "--fine-tune-epochs", "1",
                 "--out", out]) == 0
    (pruned,) = written
    assert_round_trip_serves_the_same_logits(pruned, out, xs)


def test_every_parameter_is_c_contiguous(setting, tmp_path):
    _, train_ds, model, _ = setting
    ft = TrainConfig(epochs=1, batch_size=16, seed=1)
    bad = []

    def check(how, m):
        bad.extend(f"{how}: {n}" for n, arr in m.params.items() if not arr.flags.c_contiguous)
        return m

    check("build_model", build_model(model.config, 2))
    spec = PruneSpec("l1", "weight", "global", 0.4)
    check("prune_unstructured", prune_unstructured(model.copy(), spec)[0])
    pruned = model
    for granularity in ("neuron", "head"):
        spec = PruneSpec("l2", granularity, "layerwise", 0.4)
        pruned = check(f"prune_structured {granularity}", prune_structured(pruned, spec)[0])
    # fit updates in place, so it runs on the pruned arrays themselves
    check("fit", fit(pruned, train_ds, ft))
    check("fit with fake quantization", fit(pruned, train_ds, ft, weight_fake_quant=True))
    check("copy", pruned.copy())
    save_model(pruned, tmp_path / "m.tsfo")
    check("load", load(tmp_path / "m.tsfo"))
    assert not bad


@pytest.mark.parametrize("variant", ["T1", "T1-l2"])
def test_a_float_model_serves_patch_tiles_and_its_own_matrices(variant):
    """Every vector but the classifier's bias is served as a C-contiguous
    [1, P, n] tile whose every row is the parameter; every matrix and the
    classifier's bias are the parameter arrays themselves."""
    m = with_random_vectors(build_model(preset_config("T1", seq_len=192, num_classes=4), 3), 2)
    if variant.endswith("l2"):
        for granularity in ("neuron", "head"):
            m, _ = prune_structured(m, PruneSpec("l2", granularity, "layerwise", 0.4))
    forward(m, seeded_rng(4).normal(size=(1, 192)).astype(np.float32))
    p = m.config.num_patches
    assert m.serving.keys() == m.params.keys()
    for name, v in m.params.items():
        got = m.serving[name]
        if v.ndim > 1 or name == "classifier.bias":
            assert got is v, name
        else:
            assert got.shape == (1, p, v.shape[0]) and got.dtype == v.dtype, name
            assert got.flags.c_contiguous and got.base is None, name
            assert np.array_equal(got, np.broadcast_to(v, got.shape)), name


@pytest.fixture(scope="module", params=["T1", "T1-l2"])
def int8_models(request):
    """A static and a dynamic int8 model of T1 at 24 patches, compiled; with
    ``T1-l2``, of its l2-pruned model, whose layers differ in width."""
    m = build_model(preset_config("T1", seq_len=192, num_classes=4), 3)
    rng = seeded_rng(2)
    for name, v in m.params.items():  # vectors that differ from column to column
        if v.ndim == 1:
            m.params[name] = (v + rng.normal(0, 0.2, size=v.shape)).astype(np.float32)
    if request.param.endswith("l2"):
        for granularity in ("neuron", "head"):
            m, _ = prune_structured(m, PruneSpec("l2", granularity, "layerwise", 0.4))
    calib = seeded_rng(4).normal(size=(16, 1, 192)).astype(np.float32)
    models = quantize_static(m, calibrate(m, calib)), quantize_dynamic(m)
    for qm in models:
        qm.compile()
    return models


def served_vectors(qm):
    """(where, array) of every vector the serving layout holds: the params'
    vectors and column scales, and each static site's multipliers and bias."""
    params, sites, _ = qm.serving
    for name, v in params.items():
        yield name, v.scale if isinstance(v, PackedWeight) else v
    for site, compiled in (sites or {}).items():
        yield f"{site}[4]", compiled[4]
        yield f"{site}[5]", compiled[5]


def test_every_serving_operand_is_a_patch_tile_but_the_classifiers(int8_models):
    """Every vector read against a [B, P, n] activation is served as a C-contiguous
    [1, P, n] tile whose every row is the [n] vector; the classifier reads the
    pooled [B, d] and keeps its [n] vectors."""
    for qm in int8_models:
        p, (params, sites, _) = qm.config.num_patches, qm.serving
        want = {name: v.scale if isinstance(v, PackedWeight) else v for name, v in qm.pack.items()}
        for site, compiled in (sites or {}).items():
            want[f"{site}[4]"] = qm.sites[site][4]
            want[f"{site}[5]"] = qm.sites[site][5]
        for where, got in served_vectors(qm):
            if where.startswith("classifier."):
                assert got is want[where], where
            elif isinstance(params.get(where), PackedWeight) and qm.mode == "static":
                assert got is want[where], where  # a static site reads its multipliers instead
            else:
                assert got.shape == (1, p, want[where].shape[0]) and got.flags.c_contiguous, where
                assert np.array_equal(got, np.broadcast_to(want[where], got.shape)), where


def test_one_copy_of_each_tile(int8_models):
    """A static site reads the bias tile the dynamic path and the norms' params
    hold, and nothing no op reads is tiled: per non-classifier site one bias
    and one multiplier or column-scale tile, and two norms of two vectors per
    layer, each owning its memory."""
    for qm in int8_models:
        params, sites, _ = qm.serving
        if sites:
            for site, (_, bias) in activation_sites(qm.config).items():
                assert sites[site][5] is params[bias], site
        tiles = {id(v): v for _, v in served_vectors(qm) if v.ndim == 3}
        assert len(tiles) == 2 * (len(activation_sites(qm.config)) - 1) + 4 * qm.config.num_layers
        assert all(v.base is None for v in tiles.values())


def test_pack_and_sites_keep_their_n_vectors(int8_models):
    for qm in int8_models:
        for name, v in qm.pack.items():
            assert (v.scale if isinstance(v, PackedWeight) else v).ndim == 1, name
        for site, compiled in (qm.sites or {}).items():
            assert compiled[4].ndim == compiled[5].ndim == 1, site


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scalar_operands_are_read_only_and_of_the_operands_dtype(int8_models, monkeypatch, dtype):
    """Each static site's reciprocal and clamp bounds are read-only 0-d float64
    arrays, the quantize pass's dtype, and every constant a forward reads has
    its activations' dtype: float32 for int8 models, the parameters' for float ones."""
    static, dynamic = int8_models
    for compiled in static.sites.values():
        assert all(c.shape == () and c.dtype == np.float64 and not c.flags.writeable
                   for c in compiled[:3])
    read = []

    def spy(value, dt):
        read.append(real(value, dt))
        return read[-1]

    real = tensor.constant
    monkeypatch.setattr(tensor, "constant", spy)
    monkeypatch.setattr(model_mod, "constant", spy)
    m = build_model(static.config, 5)
    m.params = {k: v.astype(dtype) for k, v in m.params.items()}
    xs = seeded_rng(6).normal(size=(2, 1, 192))
    for run, obj, want in [(forward_batch, m, dtype), (quantized_forward_batch, static, np.float32),
                           (quantized_forward_batch, dynamic, np.float32)]:
        del read[:]
        assert run(obj, xs.astype(want)).dtype == want
        assert read and all(c.shape == () and c.dtype == want and not c.flags.writeable
                            for c in read)
