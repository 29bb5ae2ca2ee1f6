"""A float model is exactly its parameter arrays, in the C-contiguous layout that
``save_model`` writes: every model ``src/`` makes serves the same logits before
and after a save/load round trip."""

import numpy as np
import pytest

from tsfo import bench, cli
from tsfo.bench import ExperimentConfig, _apply_pipeline
from tsfo.cli import main
from tsfo.data import subject_wise_split, synth_generate
from tsfo.model import build_model, forward_batch, preset_config
from tsfo.pruning import PruneSpec, prune_structured, prune_unstructured
from tsfo.quantization import QuantizedModel, quantized_forward_batch
from tsfo.serialize import load, save_dataset, save_model, save_quantized
from tsfo.tensor import seeded_rng
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
