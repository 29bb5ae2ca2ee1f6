import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsfo.data import synth_generate
from tsfo.errors import ParseError
from tsfo.model import ModelConfig, build_model, forward_batch
from tsfo.pruning import PruneSpec, prunable_pools, prune_unstructured
from tsfo.quantization import (
    QuantizedModel,
    activation_sites,
    calibrate,
    quantize_dynamic,
    quantize_static,
    quantize_weight,
    quantized_forward_batch,
)
from tsfo.serialize import (
    MAGIC,
    load,
    read_container,
    save_dataset,
    save_model,
    save_quantized,
)
from tsfo.tensor import seeded_rng


def small_config():
    return ModelConfig(
        num_layers=2, num_heads=2, model_dim=8, ffn_dim=16, patch_size=4,
        patch_stride=4, seq_len=16, in_channels=1, num_classes=3, dropout=0.1,
    )


class TestModelRoundTrip:
    def test_bit_exact(self, tmp_path):
        m = build_model(small_config(), 0)
        path = tmp_path / "m.tsfo"
        save_model(m, path)
        back = load(path)
        assert back.config == m.config
        assert set(back.params) == set(m.params)
        for name in m.params:
            assert np.array_equal(back.params[name], m.params[name])
            assert back.params[name].dtype == np.float32

    def test_zeros_survive(self, tmp_path):
        """A pruned model's zeros are its masks: they survive a round trip, and a
        file of the earlier format, which also carried each keep-mask as an i8
        ``mask/<name>`` tensor, loads to the same params."""
        m = build_model(small_config(), 1)
        m, _ = prune_unstructured(m, PruneSpec("l1", "weight", "global", 0.5))
        masks = {n: m.params[n] != 0 for n in prunable_pools(m)}
        path, old = tmp_path / "m.tsfo", tmp_path / "old.tsfo"
        save_model(m, path)
        header, payload = split_container(path.read_bytes())
        assert not any(entry["name"].startswith("mask/") for entry in header["tensors"])
        header["tensors"] += [
            {"name": f"mask/{n}", "dtype": "i8", "shape": list(k.shape)} for n, k in masks.items()
        ]
        payload += b"".join(keep.astype(np.int8).tobytes() for keep in masks.values())
        old.write_bytes(join_container(header, payload))
        for back in (load(path), load(old)):
            assert back.params.keys() == m.params.keys()
            assert all(back.params[n].tobytes() == m.params[n].tobytes() for n in m.params)
            assert all(np.array_equal(back.params[n] != 0, keep) for n, keep in masks.items())

    def test_structured_config_survives(self, tmp_path):
        from tsfo.pruning import prune_structured

        m = build_model(small_config(), 2)
        pruned, _ = prune_structured(m, PruneSpec("l2", "neuron", "layerwise", 0.5))
        path = tmp_path / "p.tsfo"
        save_model(pruned, path)
        back = load(path)
        assert back.config.ffn_per_layer == pruned.config.ffn_per_layer
        xs = seeded_rng(3).normal(size=(2, 1, 16)).astype(np.float32)
        assert np.array_equal(forward_batch(back, xs), forward_batch(pruned, xs))


    def test_config_given_lists_equals_its_round_trip(self, tmp_path):
        # a custom model block read from JSON gives its per-layer counts as lists
        config = dataclasses.replace(small_config(), heads_per_layer=[2, 1], ffn_per_layer=[16, 8])
        assert (config.heads_per_layer, config.ffn_per_layer) == ((2, 1), (16, 8))
        path = tmp_path / "m.tsfo"
        save_model(build_model(config, 0), path)
        back = load(path).config
        assert back == config and hash(back) == hash(config)
        header, _ = split_container(path.read_bytes())
        assert header["meta"]["config"]["heads_per_layer"] == [2, 1]

    def test_split_record_survives(self, tmp_path):
        m = build_model(small_config(), 4)
        path = tmp_path / "m.tsfo"
        save_model(m, path)
        assert load(path).split is None
        m.split = {"train_fraction": 0.6, "seed": 5}
        save_model(m, path)
        assert load(path).split == m.split
        q = quantize_dynamic(m)
        q.split = m.split
        save_quantized(q, path)
        assert load(path).split == m.split


class TestQuantizedRoundTrip:
    def test_static_model_identical_inference(self, tmp_path):
        m = build_model(small_config(), 4)
        xs = seeded_rng(5).normal(size=(6, 1, 16)).astype(np.float32)
        qm = quantize_static(m, calibrate(m, xs))
        path = tmp_path / "q.tsfo"
        save_quantized(qm, path)
        back = load(path)
        assert back.mode == "static"
        assert back.act_qparams == qm.act_qparams
        assert np.array_equal(
            quantized_forward_batch(back, xs), quantized_forward_batch(qm, xs)
        )

    def test_scales_preserved_exactly(self, tmp_path):
        from tsfo.quantization import quantize_dynamic

        m = build_model(small_config(), 6)
        qm = quantize_dynamic(m)
        path = tmp_path / "q.tsfo"
        save_quantized(qm, path)
        back = load(path)
        for name, q in qm.weights.items():
            assert np.array_equal(back.weights[name].data, q.data)
            assert np.array_equal(
                np.asarray(back.weights[name].scale), np.asarray(q.scale)
            )
            assert back.weights[name].zero_point == q.zero_point


class TestDatasetRoundTrip:
    def test_lossless(self, tmp_path):
        ds = synth_generate(3, 7, 48, 0.2, seed=11)
        path = tmp_path / "ds.tsfo"
        save_dataset(ds, path)
        back = load(path)
        assert np.array_equal(back.instances, ds.instances)
        assert np.array_equal(back.labels, ds.labels)
        assert back.subjects.tolist() == ds.subjects.tolist()
        assert back.name == ds.name


# sha256 of each pinned_object container: any change to the manifest or the
# payload layout, however small, shows here
PINNED_SHA256 = {
    "dataset": "489fc40147a78a26467ab22634259f12936b244f40c96796216a21580eb40510",
    "model": "7dd35dc6881388111b9c7585ae4d8d051a09c1e845612c75f086c8766fa3d97d",
    "static": "571b2c7c5ac01598f86e52c126f056529a899c8d690a295e7662e6201069958c",
}


def pinned_object(kind):
    """A tiny object of each container kind: an L1-pruned model with a split (its
    zeros are its only masks), a static int8 model with per-column weight
    scales, and a synthetic dataset."""
    m = build_model(small_config(), 21)
    if kind == "model":
        m, _ = prune_unstructured(m, PruneSpec("l1", "weight", "global", 0.5))
        m.split = {"train_fraction": 0.7, "seed": 3}
        return m, save_model
    if kind == "static":
        weights = {name: quantize_weight(arr) for name, arr in m.params.items()}
        act = {site: (0.0125, -3) for site in activation_sites(m.config)}
        split = {"train_fraction": 0.6, "seed": 5}
        return QuantizedModel(m.config, weights, "static", act, split), save_quantized
    return synth_generate(2, 3, 16, 0.1, seed=22), save_dataset


class TestContainerFormat:
    def test_magic_and_layout(self, tmp_path):
        m = build_model(small_config(), 7)
        path = tmp_path / "m.tsfo"
        save_model(m, path)
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        version, header_len = struct.unpack("<IQ", raw[4:16])
        assert version == 1
        header = json.loads(raw[16 : 16 + header_len])
        assert header["kind"] == "model"
        payload = raw[16 + header_len :]
        expected = sum(
            int(np.prod(e["shape"])) * (4 if e["dtype"] == "f32" else 1)
            for e in header["tensors"]
        )
        assert len(payload) == expected

    def test_payload_little_endian(self, tmp_path):
        m = build_model(small_config(), 8)
        path = tmp_path / "m.tsfo"
        save_model(m, path)
        _, _, tensors = read_container(path)
        name = "patch_embed.weight"
        arr, _ = tensors[name]
        raw = m.params[name].astype("<f4").tobytes()
        assert arr.astype("<f4").tobytes() == raw

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ParseError):
            read_container(path)

    def test_truncated_payload_rejected(self, tmp_path):
        m = build_model(small_config(), 9)
        path = tmp_path / "m.tsfo"
        save_model(m, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ParseError):
            read_container(path)

    @pytest.mark.parametrize("kind", sorted(PINNED_SHA256))
    def test_bytes_are_pinned(self, tmp_path, kind):
        """Every byte of the manifest and payload, on fixed objects that need no BLAS."""
        path = tmp_path / kind
        obj, save = pinned_object(kind)
        save(obj, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256[kind]


def split_container(raw: bytes) -> tuple[dict, bytes]:
    (header_len,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16 : 16 + header_len]), raw[16 + header_len :]


def join_container(header: dict, payload: bytes) -> bytes:
    blob = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<IQ", 1, len(blob)) + blob + payload


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """Valid container bytes of every kind, and a path to write fuzzed bytes to."""
    out = tmp_path_factory.mktemp("containers")
    m = build_model(small_config(), 12)
    masked, _ = prune_unstructured(m, PruneSpec("l1", "weight", "global", 0.5))
    calib = seeded_rng(13).normal(size=(4, 1, 16)).astype(np.float32)
    raw = {}
    for kind, obj, save in (
        ("model", masked, save_model),
        ("static", quantize_static(m, calibrate(m, calib)), save_quantized),
        ("dynamic", quantize_dynamic(m), save_quantized),
        ("dataset", synth_generate(2, 3, 16, 0.1, seed=14), save_dataset),
    ):
        save(obj, out / kind)
        raw[kind] = (out / kind).read_bytes()
    return raw, out / "fuzzed.tsfo"


def loads_or_parse_error(path, raw: bytes) -> None:
    """The only failure a malformed container may produce is ParseError.

    A quantized model that loads must also pack, the first step of serving it.
    """
    path.write_bytes(raw)
    try:
        obj = load(path)
    except ParseError:
        return
    if isinstance(obj, QuantizedModel):
        assert obj.pack


def json_paths(node, prefix=()):
    """Every path into a parsed JSON value, the root's empty path first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from json_paths(child, prefix + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
KINDS = ["model", "static", "dynamic", "dataset"]


class TestMalformedContainers:
    def edited(self, containers, kind, edit):
        header, payload = split_container(containers[0][kind])
        edit(header)
        return join_container(header, payload)

    def expect_parse_error(self, containers, raw, reader=load):
        path = containers[1]
        path.write_bytes(raw)
        with pytest.raises(ParseError):
            reader(path)

    @pytest.mark.parametrize("key", ["tensors", "kind", "meta"])
    def test_header_key_missing(self, containers, key):
        raw = self.edited(containers, "model", lambda h: h.pop(key))
        self.expect_parse_error(containers, raw, read_container)

    @pytest.mark.parametrize("key", ["name", "dtype", "shape"])
    def test_manifest_key_missing(self, containers, key):
        raw = self.edited(containers, "static", lambda h: h["tensors"][3].pop(key))
        self.expect_parse_error(containers, raw, read_container)

    def test_zero_point_missing(self, containers):
        raw = self.edited(containers, "static", lambda h: h["tensors"][0].pop("zero_point"))
        self.expect_parse_error(containers, raw, read_container)

    def test_huge_header_length(self, containers):
        raw = containers[0]["model"]
        self.expect_parse_error(containers, raw[:8] + struct.pack("<Q", 2**40) + raw[16:])

    def test_huge_manifest_shape(self, containers):
        def grow(header):
            header["tensors"][0]["shape"] = [2**20, 2**20]

        self.expect_parse_error(containers, self.edited(containers, "model", grow))

    def test_truncated_preamble(self, containers):
        self.expect_parse_error(containers, containers[0]["model"][:10])

    def test_trailing_bytes(self, containers):
        self.expect_parse_error(containers, containers[0]["model"] + b"\x00")

    def test_config_disagrees_with_tensors(self, containers):
        def deeper(header):
            header["meta"]["config"]["num_layers"] += 1

        self.expect_parse_error(containers, self.edited(containers, "model", deeper))

    def test_weight_layout_inference_cannot_pack(self, containers):
        def per_row(header):
            entry = next(e for e in header["tensors"] if e["name"] == "layers.0.attn.wq")
            entry["channel_axis"] = 0

        self.expect_parse_error(containers, self.edited(containers, "dynamic", per_row))

    def test_static_model_without_calibration(self, containers):
        def drop(header):
            header["meta"]["act_qparams"] = None

        self.expect_parse_error(containers, self.edited(containers, "static", drop))

    @pytest.mark.parametrize(
        "split", [[0.7, 5], {"train_fraction": 0.7}, {"train_fraction": 1.5, "seed": 5},
                  {"train_fraction": 0.7, "seed": "5"}, {"train_fraction": "0.7", "seed": 5}],
    )
    @pytest.mark.parametrize("kind", ["model", "static"])
    def test_malformed_split_record(self, containers, kind, split):
        def record(header):
            header["meta"]["split"] = split

        self.expect_parse_error(containers, self.edited(containers, kind, record))

    @pytest.mark.parametrize("kind", KINDS)
    def test_unedited_containers_load(self, containers, kind):
        path = containers[1]
        path.write_bytes(containers[0][kind])
        load(path)

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(KINDS), data=st.data())
    def test_truncated(self, containers, kind, data):
        raw = containers[0][kind]
        cut = data.draw(st.integers(0, len(raw) - 1))
        loads_or_parse_error(containers[1], raw[:cut])

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(KINDS), data=st.data())
    def test_byte_mutated(self, containers, kind, data):
        raw = bytearray(containers[0][kind])
        # the header is where a flipped byte can change structure, so aim
        # half of the mutations inside it
        (header_len,) = struct.unpack("<Q", raw[8:16])
        ends = st.sampled_from([16 + header_len, len(raw)])
        for _ in range(data.draw(st.integers(1, 8))):
            pos = data.draw(ends.flatmap(lambda end: st.integers(0, end - 1)))
            raw[pos] = data.draw(st.integers(0, 255))
        loads_or_parse_error(containers[1], bytes(raw))

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(KINDS), data=st.data())
    def test_header_edited(self, containers, kind, data):
        header, payload = split_container(containers[0][kind])
        path = data.draw(st.sampled_from(list(json_paths(header))[1:]))
        parent = header
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(json_values)
        loads_or_parse_error(containers[1], join_container(header, payload))
