"""Dataset ingestion, preprocessing, splitting, and a synthetic generator.

Input files are UCR-style delimited text: one series per line, class label in
the first field, values tab- or comma-separated with dot decimal points.
Datasets are immutable after construction and safe to share across readers.
Loaders only read; ``subject_wise_split`` alone decides a train/test split.
This module alone knows the UCR archive's layout (``ucr_file``, ``load_ucr``).
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, InputError, ParseError, check_types
from .tensor import check_seed, seeded_rng

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TimeSeriesDataset:
    name: str
    instances: np.ndarray                 # [N, C, T] float32
    labels: np.ndarray                    # [N] int64 in 0..K-1
    label_map: dict = field(default_factory=dict)   # original label -> index
    subjects: np.ndarray | None = None    # [N] subject/household ids
    # (train_idx, test_idx) carried by datasets loaded from pre-split archives
    predefined_split: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if len(self.instances) == 0:
            raise InputError("dataset must be nonempty")
        if self.instances.ndim != 3:
            raise InputError(f"instances must be [N, C, T], got {self.instances.shape}")
        if len(self.labels) != len(self.instances):
            raise InputError("labels and instances disagree in length")
        if np.any(self.labels < 0) or np.any(self.labels >= self.num_classes):
            raise InputError("labels must be dense 0..K-1")
        if self.subjects is not None:
            object.__setattr__(self, "subjects", np.asarray(self.subjects))
            if self.subjects.shape != self.labels.shape:
                raise InputError("subjects and labels disagree in length")
        if self.predefined_split is not None:
            split = _checked_split(self.predefined_split, len(self))
            object.__setattr__(self, "predefined_split", split)

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.label_map == {} else len(self.label_map)

    @property
    def seq_len(self) -> int:
        return self.instances.shape[2]

    @property
    def channels(self) -> int:
        return self.instances.shape[1]

    def subset(self, idx: np.ndarray, name_suffix: str) -> "TimeSeriesDataset":
        return TimeSeriesDataset(
            name=self.name + name_suffix,
            instances=self.instances[idx],
            labels=self.labels[idx],
            label_map=self.label_map,
            subjects=self.subjects[idx] if self.subjects is not None else None,
        )


def _checked_split(split, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``split`` as (train_idx, test_idx) arrays; InputError unless it holds two
    non-empty integer index lists that share no row, each row in [0, n) and
    named once."""
    sides = tuple(np.asarray(side) for side in split)
    if len(sides) != 2 or not all(s.ndim == 1 and s.size and s.dtype.kind in "iu" for s in sides):
        raise InputError("predefined_split needs two non-empty 1-D integer index arrays")
    rows = np.concatenate(sides)
    if rows.min() < 0 or rows.max() >= n or len(np.unique(rows)) != len(rows):
        raise InputError(f"predefined_split needs distinct row indices in [0, {n})")
    return sides


def _sniff_delimiter(line: str, where: str) -> str:
    if "\t" in line:
        return "\t"
    if "," in line:
        return ","
    if line.strip() and " " in line.strip():
        return None  # whitespace-separated; split() handles runs
    raise ParseError(f"{where}: cannot determine delimiter (need tab or comma)")


def _read_ucr_rows(path) -> tuple[list[str], np.ndarray]:
    """One UCR-style file's raw labels and its [N, 1, T] float32 rows.

    Every ParseError names the file and, where a line is at fault, that line:
    a NaN or infinite cell (such as the NaN padding of a variable-length
    archive), a short row, a bad number or text that is not UTF-8.
    """
    raw_labels: list[str] = []
    rows: list[list[float]] = []
    linenos: list[int] = []
    width = None
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode()
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: line {lineno}: not UTF-8 text ({exc})") from None
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            delim = _sniff_delimiter(line, where)
            fields = line.strip().split(delim) if delim else line.split()
            if len(fields) < 2:
                raise ParseError(f"{where}: need a label and at least one value")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ParseError(f"{where}: expected {width} fields, found {len(fields)}")
            raw_labels.append(fields[0])
            linenos.append(lineno)
            try:
                rows.append([float(v) for v in fields[1:]])
            except ValueError as exc:
                raise ParseError(f"{where}: bad numeric value ({exc})") from None
    if not rows:
        raise ParseError(f"{path}: file contains no data rows")
    instances = np.asarray(rows, dtype=np.float32)[:, None, :]
    finite = np.isfinite(instances).all(axis=(1, 2))
    if not finite.all():
        raise ParseError(f"{path}: line {linenos[np.argmin(finite)]}: NaN or infinite value")
    return raw_labels, instances


def load_ucr_delimited(path, test_path=None) -> TimeSeriesDataset:
    """Parse a UCR-style file, or a train file and its test file, into one dataset.

    Each line holds a label, then T values. Labels may be arbitrary numbers
    or strings; every label read, from either file, is mapped to a dense
    0..K-1 index in sorted order (numbers in numeric order, then text). Series
    are univariate (C = 1). With ``test_path``, its rows follow those of ``path``
    and ``predefined_split`` records the two files' rows, so
    ``subject_wise_split`` keeps the archive's split; files of different
    series lengths are a ParseError naming both files and lengths.
    """
    raw_labels, instances = _read_ucr_rows(path)
    split = None
    if test_path is not None:
        test_labels, test_instances = _read_ucr_rows(test_path)
        if instances.shape[2] != test_instances.shape[2]:
            raise ParseError(
                f"{path} has series of length {instances.shape[2]} but {test_path} "
                f"has length {test_instances.shape[2]}"
            )
        n_train = len(raw_labels)
        split = (np.arange(n_train), np.arange(n_train, n_train + len(test_labels)))
        raw_labels += test_labels
        instances = np.concatenate([instances, test_instances])
    uniques = sorted(set(raw_labels), key=_label_sort_key)
    label_map = {lbl: i for i, lbl in enumerate(uniques)}
    return TimeSeriesDataset(
        name=str(path),
        instances=instances,
        labels=np.array([label_map[l] for l in raw_labels], dtype=np.int64),
        label_map=label_map,
        predefined_split=split,
    )


def _label_sort_key(label: str):
    # numbers in numeric order, then text (and "nan", which no number orders);
    # the text breaks ties such as "1" and "1.0", so no map hangs on set order
    try:
        value = float(label)
    except ValueError:
        return (1, 0.0, label)
    return (0, value, label) if value == value else (1, 0.0, label)


def min_max_normalize(series: np.ndarray) -> np.ndarray:
    """Scale each channel of a series into [0, 1].

    Constant channels map to 0.5 (midpoint convention: 0 or 1 would bias the
    classifier toward an arbitrary extreme).
    """
    arr = np.asarray(series, dtype=np.float32)
    if arr.size == 0:
        raise InputError("cannot normalize an empty series")
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[None, :]
    lo = arr.min(axis=-1, keepdims=True)
    hi = arr.max(axis=-1, keepdims=True)
    span = hi - lo
    flat = span[..., 0] == 0
    safe = np.where(span == 0, 1.0, span)
    out = (arr - lo) / safe
    out[flat] = 0.5
    return out[0] if squeeze else out


def normalize_dataset(dataset: TimeSeriesDataset) -> TimeSeriesDataset:
    # each [C, T] row over its last axis
    return replace(dataset, instances=min_max_normalize(dataset.instances))


@dataclass(frozen=True)
class WindowSpec:
    length: int
    stride: int

    def __post_init__(self):
        if not 1 <= self.stride <= self.length:
            raise InputError(f"need 1 <= stride <= length, got {self}")


def window_count(t: int, w: int, s: int) -> int:
    return (t - w) // s + 1


def segment_windows(series: np.ndarray, spec: WindowSpec) -> list[np.ndarray]:
    """Cut a [C, T] series into ``window_count(T, w, s)`` overlapping [C, w] windows."""
    arr = np.asarray(series)
    if arr.ndim != 2:
        raise InputError(f"expected [C, T] series, got shape {arr.shape}")
    t = arr.shape[1]
    if spec.length > t:
        raise InputError(f"window length {spec.length} exceeds series length {t}")
    return [
        arr[:, i * spec.stride : i * spec.stride + spec.length].copy()
        for i in range(window_count(t, spec.length, spec.stride))
    ]


def ucr_file(path):
    """The file that ``path`` stands for in the UCR archive's layout.

    A folder ``<dir>/<name>`` stands for its ``<name>_TRAIN.*`` file
    (``.tsv`` or ``.txt`` first when there are several); a folder without one
    is an InputError. Any other path stands for itself.
    """
    if not os.path.isdir(path):
        return path
    folder = os.path.normpath(path)
    name = os.path.basename(folder)
    found = sorted(
        (f for f in os.listdir(folder) if f.startswith(name + "_TRAIN.")),
        key=lambda f: (not f.endswith((".tsv", ".txt")), f),
    )
    if not found:
        raise InputError(f"{path} is a directory without a {name}_TRAIN.* file")
    return os.path.join(folder, found[0])


def load_ucr(path) -> TimeSeriesDataset:
    """Load a UCR file, with the archive's split when it is one half of a pair.

    ``<name>_TRAIN.<ext>`` is read with its ``<name>_TEST.<ext>`` sibling,
    whose rows ``predefined_split`` records as the test side. Any other file,
    or a TRAIN file without that sibling, is loaded alone and
    ``subject_wise_split`` splits it.
    """
    folder, base = os.path.split(os.fspath(path))
    head, found, tail = base.rpartition("_TRAIN")
    test_path = os.path.join(folder, head + "_TEST" + tail)
    return load_ucr_delimited(path, test_path if found and os.path.isfile(test_path) else None)


def check_train_fraction(train_fraction: float) -> None:
    """The rule of every split's train fraction: strictly between 0 and 1."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train_fraction must be in (0, 1)")


def stratified_split(
    labels: np.ndarray, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (train_idx, test_idx) taking round(fraction * n) of each class to train.

    Each class with two or more instances keeps at least one on each side.
    """
    check_train_fraction(train_fraction)
    rng = seeded_rng(seed)
    train = []
    for cls in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == cls))
        train.append(idx[: min(max(round(train_fraction * len(idx)), 1), max(len(idx) - 1, 1))])
    train_idx = np.sort(np.concatenate(train))
    test_idx = np.setdiff1d(np.arange(len(labels)), train_idx)
    if len(test_idx) == 0:
        raise InputError("a stratified split needs a class with at least two instances")
    return train_idx, test_idx


def subject_wise_split(
    dataset: TimeSeriesDataset,
    train_fraction: float,
    seed: int,
) -> tuple[TimeSeriesDataset, TimeSeriesDataset]:
    """The one place a dataset is split into its train and test sides.

    With subject ids, the split is by subject so no household spans train
    and test: subjects are shuffled with a seeded generator and the first
    round(fraction * S) of them (clamped so both sides stay nonempty) become
    the training side. Without them, the predefined archive split is used,
    with a warning. Failing both, the rows get a seeded per-class split
    (``stratified_split``), with one warning.
    """
    check_train_fraction(train_fraction)
    if dataset.subjects is None:
        if dataset.predefined_split is not None:
            log.warning(
                "dataset %s has no subject ids; using its predefined split",
                dataset.name,
            )
            train_idx, test_idx = dataset.predefined_split
        else:
            log.warning(
                "dataset %s has no subject ids and no predefined split; "
                "using a %.2f/%.2f per-class split, seed %d",
                dataset.name, train_fraction, 1.0 - train_fraction, seed,
            )
            train_idx, test_idx = stratified_split(dataset.labels, train_fraction, seed)
        return dataset.subset(train_idx, ":train"), dataset.subset(test_idx, ":test")
    subjects = np.array(sorted(set(dataset.subjects.tolist())))
    if len(subjects) < 2:
        raise InputError("subject-wise split needs at least two subjects")
    rng = seeded_rng(seed)
    order = rng.permutation(len(subjects))
    n_train = int(round(train_fraction * len(subjects)))
    n_train = min(max(n_train, 1), len(subjects) - 1)
    train_subjects = set(subjects[order[:n_train]].tolist())
    is_train = np.array([s in train_subjects for s in dataset.subjects.tolist()])
    return (
        dataset.subset(np.where(is_train)[0], ":train"),
        dataset.subset(np.where(~is_train)[0], ":test"),
    )


@dataclass(frozen=True)
class SynthSpec:
    """The arguments of ``synth_generate``, in its order, checked when built."""

    classes: int
    per_class: int
    length: int
    noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_types(self, "synth")
        if self.classes < 2:
            raise ConfigError("synth: need at least two classes")
        if self.per_class < 1:
            raise ConfigError("synth: need at least one instance per class")
        if self.length < 16:
            raise ConfigError("synth: series length must be at least 16")
        if self.noise < 0:
            raise ConfigError(f"synth: noise sigma must be nonnegative, got {self.noise}")
        check_seed(self.seed)


def synth_generate(
    num_classes: int,
    per_class: int,
    length: int,
    noise: float,
    seed: int,
) -> TimeSeriesDataset:
    """Device-like synthetic dataset for desk-scale verification.

    Each class is a duty-cycled square wave with a class-specific period,
    duty cycle, and amplitude, plus i.i.d. Gaussian noise. Subject ids are
    assigned round-robin over ceil(per_class / 5) synthetic households, so
    every household sees every class.
    """
    SynthSpec(num_classes, per_class, length, noise, seed)
    rng = seeded_rng(seed)
    t = np.arange(length)
    households = max(1, math.ceil(per_class / 5))

    instances = []
    labels = []
    subjects = []
    for c in range(num_classes):
        period = max(4, length // (3 + 2 * c))
        duty = 0.25 + 0.5 * c / max(1, num_classes - 1)
        amplitude = 0.6 + 0.4 * c / max(1, num_classes - 1)
        base = np.where((t % period) < duty * period, amplitude, 0.05).astype(np.float32)
        for i in range(per_class):
            wave = base + rng.normal(0.0, noise, size=length) if noise > 0 else base.copy()
            instances.append(wave.astype(np.float32)[None, :])
            labels.append(c)
            subjects.append(f"h{i % households}")
    return TimeSeriesDataset(
        name="synthetic",
        instances=np.stack(instances),
        labels=np.array(labels, dtype=np.int64),
        label_map={c: c for c in range(num_classes)},
        subjects=np.array(subjects),
    )
