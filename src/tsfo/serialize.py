"""Binary container shared by models, quantized models, and dataset caches.

Layout: magic bytes ``TSFO``, a little-endian u32 format version, a u64
header length, a UTF-8 JSON header, then raw little-endian tensor payloads in
manifest order. The header holds the kind ("model", "quantized_model",
"dataset"), a kind-specific meta block, and the tensor manifest (name,
element type f32|i8|i64, shape, and for a quantized tensor its scale_shape,
zero_point and optional channel_axis). Version 2, which ``write_container``
writes, stores each quantized tensor's scale, a scalar (scale_shape ``[]``)
or an [n] vector, as a float32 payload right after the tensor's own.
Version 1 kept the scales in the header as a JSON ``scale``; such files
still load to the same objects. Round-trips are bit-exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct

import numpy as np

from .data import TimeSeriesDataset, check_train_fraction, load_ucr, ucr_file
from .errors import InputError, ParseError, TsfoError
from .model import ModelConfig, TransformerModel, param_shapes
from .quantization import QuantizedModel
from .tensor import INT8_MAX, INT8_MIN, QTensor

MAGIC = b"TSFO"
VERSION = 2
# format version (u32) and header length (u64), after the magic
_PREAMBLE = struct.Struct("<IQ")

_DTYPES = {"f32": np.dtype("<f4"), "i8": np.dtype("<i1"), "i64": np.dtype("<i8")}
_DTYPE_NAMES = {v: k for k, v in _DTYPES.items()}
_F32_MAX = float(np.finfo(np.float32).max)


def write_container(path, kind: str, meta: dict, tensors: list[tuple]) -> None:
    """Write (name, array, qinfo) tensors; qinfo is None or (scale, zp, axis).

    A scale goes into the file as float32, the type ``QTensor`` holds it in.
    """
    manifest = []
    payloads = []
    for name, arr, qinfo in tensors:
        dtype = _DTYPE_NAMES[np.dtype(arr.dtype).newbyteorder("<")]
        entry = {"name": name, "dtype": dtype, "shape": list(arr.shape)}
        payloads.append(np.ascontiguousarray(arr, dtype=_DTYPES[dtype]).tobytes())
        if qinfo is not None:
            scale, zp, axis = qinfo
            scale = np.asarray(scale, dtype=_DTYPES["f32"])
            entry["scale_shape"] = list(scale.shape)
            entry["zero_point"] = int(zp)
            if axis is not None:
                entry["channel_axis"] = axis
            payloads.append(scale.tobytes())
        manifest.append(entry)
    header = json.dumps(
        {"kind": kind, "meta": meta, "tensors": manifest}, sort_keys=True
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_PREAMBLE.pack(VERSION, len(header)))
        fh.write(header)
        for payload in payloads:
            fh.write(payload)


def _read_exact(fh, n: int, remaining: int, what: str, path) -> bytes:
    if n > remaining:
        raise ParseError(f"{path}: {what} needs {n} bytes, only {remaining} left")
    return fh.read(n)


def _is_scale(v) -> bool:
    # positive and finite in float32; comparisons keep huge JSON ints exact
    return type(v) in (int, float) and 0 < v <= _F32_MAX


def _is_qparams(v) -> bool:
    return (
        isinstance(v, list)
        and len(v) == 2
        and _is_scale(v[0])
        and type(v[1]) is int
        and INT8_MIN <= v[1] <= INT8_MAX
    )


def _split(meta: dict) -> dict | None:
    """The recorded training split of a model container, if it has one."""
    split = meta.get("split")
    if split is None:
        return None
    if not (
        isinstance(split, dict)
        and set(split) == {"train_fraction", "seed"}
        and type(split["seed"]) is int
        and split["seed"] >= 0
    ):
        raise ParseError(f"split needs a train_fraction and a non-negative int seed: {split!r}")
    check_train_fraction(split["train_fraction"])  # ``load`` makes its error a ParseError
    return split


def _is_shape(v) -> bool:
    return isinstance(v, list) and all(type(d) is int and d >= 0 for d in v)


def _check_entry(entry, path, version: int) -> None:
    """Raise ParseError unless ``entry`` is a well-formed manifest entry."""
    if not isinstance(entry, dict):
        raise ParseError(f"{path}: manifest entry is not an object")
    name = entry.get("name")
    if not isinstance(name, str):
        raise ParseError(f"{path}: manifest entry without a string name")
    dtype = entry.get("dtype")
    if not isinstance(dtype, str) or dtype not in _DTYPES:
        raise ParseError(f"{path}: {name!r} has unknown dtype {dtype!r}")
    if not _is_shape(entry.get("shape")):
        raise ParseError(f"{path}: {name!r} has a malformed shape {entry.get('shape')!r}")
    if version == 1:
        return
    if "scale" in entry:
        raise ParseError(f"{path}: {name!r} has a header scale; version {version} stores a payload")
    scale_shape = entry.get("scale_shape", [])
    if not (_is_shape(scale_shape) and len(scale_shape) <= 1):
        raise ParseError(f"{path}: {name!r} has a malformed scale_shape {scale_shape!r}")


def _read_array(fh, dtype: str, shape: list, remaining: int, what: str, path) -> np.ndarray:
    """The next payload, bounded by the ``remaining`` bytes before it is read."""
    dtype = _DTYPES[dtype]
    raw = _read_exact(fh, math.prod(shape) * dtype.itemsize, remaining, what, path)
    try:
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    except ValueError as exc:  # more axes than numpy supports
        raise ParseError(f"{path}: {what} has an unusable shape ({exc})") from None


def _json_scale(entry: dict, path):
    """A version-1 entry's header scale: a number, or a list read as one float64
    array, since per-element Python checks would cost milliseconds on a T2
    model's thousands of scales. None for a plain entry."""
    if "scale" not in entry:
        return None
    scale = entry["scale"]
    if not isinstance(scale, list):
        return scale  # checked by ``_qinfo``
    try:
        values = np.asarray(scale, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # not numbers, ragged, huge ints
        values = None
    if values is None or values.ndim != 1:
        raise ParseError(f"{path}: {entry['name']!r} has a scale that is not a list of numbers")
    return values


def _qinfo(entry: dict, scale, path) -> tuple:
    """(scale, zero_point, channel_axis) of a quantized entry: a scale array is
    checked whole and made float32, a number is checked and kept as it is."""
    name = entry["name"]
    if isinstance(scale, np.ndarray):
        ok = bool((scale > 0).all() and (scale <= _F32_MAX).all())
    else:
        ok = _is_scale(scale)
    if not ok:
        raise ParseError(f"{path}: {name!r} has a scale that is not positive float32")
    zero_point = entry.get("zero_point")
    if type(zero_point) is not int:
        raise ParseError(f"{path}: {name!r} has a scale but no integer zero_point")
    axis = entry.get("channel_axis")
    if axis is not None and type(axis) is not int:
        raise ParseError(f"{path}: {name!r} has a malformed channel_axis")
    if isinstance(scale, np.ndarray):
        scale = scale.astype(np.float32, copy=False)
    return scale, zero_point, axis


def read_container(path) -> tuple[str, dict, dict[str, tuple]]:
    """Return (kind, meta, tensors) where tensors maps name -> (array, qinfo).

    Reads version 2 and version 1. A malformed file raises ``ParseError``,
    never a stray ``KeyError`` or ``MemoryError``: the header and every
    payload, scale payloads included, are bounded by the bytes left in the
    file before anything is allocated, the header and manifest schema are
    checked, and bytes past the last payload are rejected.
    """
    with open(path, "rb") as fh:
        remaining = os.fstat(fh.fileno()).st_size - len(MAGIC) - _PREAMBLE.size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ParseError(f"{path}: not a TSFO container (magic {magic!r})")
        if remaining < 0:
            raise ParseError(f"{path}: truncated container preamble")
        version, header_len = _PREAMBLE.unpack(fh.read(_PREAMBLE.size))
        if version not in (1, VERSION):
            raise ParseError(f"{path}: unsupported container version {version}")
        raw = _read_exact(fh, header_len, remaining, "header", path)
        remaining -= header_len
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"{path}: bad container header ({exc})") from None
        if not (
            isinstance(header, dict)
            and isinstance(header.get("kind"), str)
            and isinstance(header.get("meta"), dict)
            and isinstance(header.get("tensors"), list)
        ):
            raise ParseError(f"{path}: header needs a string kind, a meta object and a tensor list")
        tensors = {}
        for entry in header["tensors"]:
            _check_entry(entry, path, version)
            name = entry["name"]
            if name in tensors:
                raise ParseError(f"{path}: duplicate tensor {name!r}")
            what = f"payload of {name!r}"
            arr = _read_array(fh, entry["dtype"], entry["shape"], remaining, what, path)
            remaining -= arr.nbytes
            if version == 1:
                scale = _json_scale(entry, path)
            elif "scale_shape" in entry:
                what = f"scale of {name!r}"
                scale = _read_array(fh, "f32", entry["scale_shape"], remaining, what, path)
                remaining -= scale.nbytes
            else:
                scale = None
            tensors[name] = (arr, None if scale is None else _qinfo(entry, scale, path))
        if remaining:
            raise ParseError(f"{path}: {remaining} bytes past the last payload")
    return header["kind"], header["meta"], tensors


def save_model(model: TransformerModel, path) -> None:
    tensors = [(name, arr, None) for name, arr in model.params.items()]
    meta = {"config": dataclasses.asdict(model.config)}
    if model.split is not None:
        meta["split"] = model.split
    write_container(path, "model", meta, tensors)


def save_quantized(qmodel: QuantizedModel, path) -> None:
    meta = {
        "config": dataclasses.asdict(qmodel.config),
        "mode": qmodel.mode,
        "act_qparams": qmodel.act_qparams,
    }
    if qmodel.split is not None:
        meta["split"] = qmodel.split
    tensors = [
        (name, q.data, (q.scale, q.zero_point, q.channel_axis))
        for name, q in qmodel.weights.items()
    ]
    write_container(path, "quantized_model", meta, tensors)


def save_dataset(dataset: TimeSeriesDataset, path) -> None:
    meta = {
        "name": dataset.name,
        "label_map": {str(k): v for k, v in dataset.label_map.items()},
        "subjects": dataset.subjects.tolist() if dataset.subjects is not None else None,
        "predefined_split": (
            [dataset.predefined_split[0].tolist(), dataset.predefined_split[1].tolist()]
            if dataset.predefined_split is not None
            else None
        ),
    }
    tensors = [
        ("instances", dataset.instances.astype(np.float32), None),
        ("labels", dataset.labels.astype(np.int64), None),
    ]
    write_container(path, "dataset", meta, tensors)


def _check_shapes(kind: str, got: dict[str, tuple], want: dict[str, tuple]) -> None:
    if got != want:
        diff = sorted(set(got) ^ set(want)) or [n for n in want if got[n] != want[n]]
        raise ParseError(f"{kind} tensors do not match the config (first: {diff[0]!r})")


def _config_for(meta: dict, tensor_count: int) -> ModelConfig:
    config = ModelConfig(**meta["config"])
    # every layer holds several tensors; checked before the per-layer shape
    # table is built, so a corrupt layer count cannot make that table huge
    if config.num_layers > tensor_count:
        raise ParseError(f"config lists {config.num_layers} layers for {tensor_count} tensors")
    return config


def _load_model(meta: dict, tensors: dict) -> TransformerModel:
    config = _config_for(meta, len(tensors))
    # older files also carry prune masks as mask/<name>; the weights' zeros say the same
    params = {n: arr for n, (arr, _) in tensors.items() if not n.startswith("mask/")}
    for name, arr in params.items():
        if arr.dtype != np.float32:
            raise ParseError(f"parameter {name!r} is {arr.dtype}, not float32")
    _check_shapes("model", {n: a.shape for n, a in params.items()}, param_shapes(config))
    return TransformerModel(config=config, params=params, split=_split(meta))


def _load_quantized(meta: dict, tensors: dict) -> QuantizedModel:
    config = _config_for(meta, len(tensors))
    weights = {}
    for name, (arr, qinfo) in tensors.items():
        if qinfo is None:
            raise ParseError(f"weight {name!r} has no quantization parameters")
        weights[name] = QTensor(arr, *qinfo)
    _check_shapes(
        "quantized model", {n: q.shape for n, q in weights.items()}, param_shapes(config)
    )
    act = meta.get("act_qparams")
    if act is not None:
        if not isinstance(act, dict) or not all(map(_is_qparams, act.values())):
            raise ParseError("act_qparams must map sites to [scale, int8 zero point]")
        act = {site: (float(s), z) for site, (s, z) in act.items()}
    return QuantizedModel(
        config=config, weights=weights, mode=meta["mode"], act_qparams=act, split=_split(meta)
    )


def _load_dataset(meta: dict, tensors: dict) -> TimeSeriesDataset:
    instances = tensors["instances"][0]
    labels = tensors["labels"][0]
    if instances.dtype != np.float32 or labels.dtype != np.int64 or labels.ndim != 1:
        raise ParseError("dataset needs float32 instances and 1-D int64 labels")
    return TimeSeriesDataset(
        name=meta["name"],
        instances=instances,
        labels=labels,
        label_map=meta["label_map"],
        # JSON lists, which the dataset checks and makes arrays
        subjects=meta.get("subjects"),
        predefined_split=meta.get("predefined_split"),
    )


_LOADERS = {"model": _load_model, "quantized_model": _load_quantized, "dataset": _load_dataset}


def load(path):
    """Load any TSFO container and return the matching object.

    Content that does not describe a valid object of its kind (a missing
    meta field, a config that fails validation, tensors that do not match
    the config, a bad scale) raises ``ParseError``, as a malformed container
    does.
    """
    kind, meta, tensors = read_container(path)
    loader = _LOADERS.get(kind)
    if loader is None:
        raise ParseError(f"{path}: unknown container kind {kind!r}")
    try:
        return loader(meta, tensors)
    except (KeyError, IndexError, TypeError, ValueError, TsfoError) as exc:
        raise ParseError(f"{path}: malformed {kind} container ({exc})") from exc


def load_kind(path, *kinds):
    """Load a TSFO container, rejecting any other kind as a data error."""
    obj = load(path)
    if not isinstance(obj, kinds):
        wanted = " or ".join(kind.__name__ for kind in kinds)
        raise InputError(f"{path} holds a {type(obj).__name__}, not a {wanted}")
    return obj


def load_any_dataset(path):
    """Load either a TSFO dataset container or a UCR-style delimited file.

    ``data.ucr_file`` maps a UCR archive folder to the file it stands for,
    container or not, and ``data.load_ucr`` reads a UCR file with the
    archive's split of a pair.
    """
    path = ucr_file(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == MAGIC:
        return load_kind(path, TimeSeriesDataset)
    return load_ucr(path)
