import dataclasses
import logging
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsfo.data import (
    TimeSeriesDataset,
    WindowSpec,
    load_ucr,
    load_ucr_delimited,
    min_max_normalize,
    normalize_dataset,
    segment_windows,
    stratified_split,
    subject_wise_split,
    synth_generate,
    ucr_file,
    window_count,
)
from tsfo.errors import ConfigError, InputError, ParseError
from tsfo.serialize import load, load_any_dataset, save_dataset, write_container


class TestLoader:
    def test_tab_separated(self, tmp_path):
        path = tmp_path / "toy.tsv"
        path.write_text("1\t0.5\t0.6\t0.7\n2\t1.0\t1.1\t1.2\n")
        ds = load_ucr_delimited(path)
        assert ds.instances.shape == (2, 1, 3)
        assert ds.labels.tolist() == [0, 1]

    def test_comma_separated_sparse_labels_remap(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("9,1.0,2.0\n5,3.0,4.0\n")
        ds = load_ucr_delimited(path)
        assert ds.label_map == {"5": 0, "9": 1}
        assert ds.labels.tolist() == [1, 0]

    def test_label_map_does_not_hang_on_set_order(self, tmp_path):
        # "1", "1.0" and "01" name one number, and "nan" no orderable one
        path = tmp_path / "toy.csv"
        path.write_text("nan,0.4\n1,0.5\n1.0,0.7\nb,0.3\n01,0.2\n2,0.1\n")
        assert list(load_ucr_delimited(path).label_map.items()) == [
            ("01", 0), ("1", 1), ("1.0", 2), ("2", 3), ("b", 4), ("nan", 5)
        ]

    def test_ragged_rows_report_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,1.0,2.0\n2,3.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_ucr_delimited(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,1.0,2.0\n2,oops,4.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_ucr_delimited(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n")
        with pytest.raises(ParseError):
            load_ucr_delimited(path)

    def test_pair_keeps_predefined_split(self, tmp_path):
        train = tmp_path / "X_TRAIN.txt"
        test = tmp_path / "X_TEST.txt"
        train.write_text("1,0.0,1.0\n2,2.0,3.0\n")
        test.write_text("2,4.0,5.0\n")
        ds = load_ucr_delimited(train, test)
        assert len(ds) == 3
        tr_idx, te_idx = ds.predefined_split
        assert tr_idx.tolist() == [0, 1] and te_idx.tolist() == [2]

    def test_train_file_resolves_its_test_sibling(self, tmp_path, caplog):
        train = tmp_path / "X_TRAIN.tsv"
        train.write_text("1\t0.0\t1.0\n2\t2.0\t3.0\n")
        (tmp_path / "X_TEST.tsv").write_text("2\t4.0\t5.0\n")
        with caplog.at_level(logging.WARNING):
            ds = load_ucr(train)
        assert not caplog.records
        want = load_ucr_delimited(train, tmp_path / "X_TEST.tsv")
        assert np.array_equal(ds.instances, want.instances)
        assert [a.tolist() for a in ds.predefined_split] == [[0, 1], [2]]

    @pytest.mark.parametrize("name", ["X_TRAIN.tsv", "X.tsv"])
    def test_lone_file_gets_seeded_stratified_split(self, tmp_path, caplog, name):
        path = tmp_path / name
        labels = [1] * 10 + [2] * 5
        path.write_text("".join(f"{l}\t{i}.0\t{-i}.0\n" for i, l in enumerate(labels)))
        ds = load_ucr(path)
        assert ds.predefined_split is None
        with caplog.at_level(logging.WARNING):
            train_ds, test_ds = subject_wise_split(ds, 0.6, seed=3)
        assert len([r for r in caplog.records if r.levelno == logging.WARNING]) == 1
        # the first value of each row is its index
        tr = train_ds.instances[:, 0, 0].astype(int)
        te = test_ds.instances[:, 0, 0].astype(int)
        assert [tr.tolist(), te.tolist()] == [
            a.tolist() for a in stratified_split(ds.labels, 0.6, seed=3)
        ]
        assert tr.tolist() == [0, 1, 2, 4, 6, 9, 10, 11, 14]
        assert np.bincount(ds.labels[tr]).tolist() == [6, 3]
        assert np.bincount(ds.labels[te]).tolist() == [4, 2]
        again, _ = subject_wise_split(load_ucr(path), 0.6, seed=3)
        assert np.array_equal(again.instances, train_ds.instances)
        assert len(train_ds) == 9 and len(test_ds) == 6


# files written under a test's tmp_path (None: the CONTAINER dataset), the path
# loaded, and the test file of a UCR pair
UCR_FIXTURES = {
    "numeric-labels-pair": ({"N_TRAIN.csv": "9,0.1,0.2\n10,1.5,-2\n",
                             "N_TEST.csv": "2.5,3,4e-3\n-1,0.5,6\n"}, "N_TRAIN.csv", "N_TEST.csv"),
    "string-labels-pair": ({"S_TRAIN.tsv": "b\t1\t2\t3\na\t4\t5\t6\n",
                            "S_TEST.tsv": "c\t7\t8\t9\na\t0\t0\t0\n"}, "S_TRAIN.tsv", "S_TEST.tsv"),
    "labels-only-in-test": ({"O_TRAIN.txt": "1,0.25,0.5\n1,0.75,1\n",
                             "O_TEST.txt": "3,1,2\n2,3,4\n"}, "O_TRAIN.txt", "O_TEST.txt"),
    "mixed-labels-pair": ({"M_TRAIN.tsv": "x\t1.0\t-1.0\n1\t2.0\t-2.0\n",
                           "M_TEST.tsv": "2\t3.0\t-3.0\n"}, "M_TRAIN.tsv", "M_TEST.tsv"),
    "comma-file": ({"c.csv": "5,1.0,2.0,3.0\n4,-1,0.3,7\n5,9,9,9\n"}, "c.csv", None),
    "tab-file": ({"t.tsv": "2\t0.5\t0.6\n1\t1e3\t-1e-3\n"}, "t.tsv", None),
    "lone-file": ({"L.txt": "  1  0.5  0.25\n\n  2  -0.5  0.75\n"}, "L.txt", None),
    "train-file-without-sibling": ({"W_TRAIN.tsv": "1\t0.1\t0.2\n0\t0.3\t0.4\n"},
                                   "W_TRAIN.tsv", None),
    "archive-folder": ({"A/A_TRAIN.txt": "1,1,2\n2,3,4\n", "A/A_TEST.txt": "2,5,6\n",
                        "A/A_TRAIN.csv": "1,9,9\n", "A/A_TEST.csv": "1,9,9\n"}, "A", "A/A_TEST.txt"),
    "folder-with-container": ({"B/B_TRAIN.tsfo": None}, "B", None),
}
CONTAINER = TimeSeriesDataset(
    name="box",
    instances=np.arange(9, dtype=np.float32).reshape(3, 1, 3) / 8,
    labels=np.array([1, 0, 1]),
    label_map={"a": 0, "b": 1},
    subjects=np.array(["h0", "h1", "h0"]),
    predefined_split=(np.array([0, 2]), np.array([1])),
)
# what each fixture loaded as when a pair's two files were mapped apart and
# serialize globbed a folder's TRAIN file: (name, rows, labels, label_map,
# predefined_split), a name under tmp_path given relative to it
FROZEN_LOADS = {
    "numeric-labels-pair": ("N_TRAIN.csv", [[0.1, 0.2], [1.5, -2], [3, 0.004], [0.5, 6]], [2, 3, 1, 0],
                            {"-1": 0, "2.5": 1, "9": 2, "10": 3}, [[0, 1], [2, 3]]),
    "string-labels-pair": ("S_TRAIN.tsv", [[1, 2, 3], [4, 5, 6], [7, 8, 9], [0, 0, 0]], [1, 0, 2, 0],
                           {"a": 0, "b": 1, "c": 2}, [[0, 1], [2, 3]]),
    "labels-only-in-test": ("O_TRAIN.txt", [[0.25, 0.5], [0.75, 1], [1, 2], [3, 4]], [0, 0, 2, 1],
                            {"1": 0, "2": 1, "3": 2}, [[0, 1], [2, 3]]),
    "mixed-labels-pair": ("M_TRAIN.tsv", [[1, -1], [2, -2], [3, -3]], [2, 0, 1],
                          {"1": 0, "2": 1, "x": 2}, [[0, 1], [2]]),
    "comma-file": ("c.csv", [[1, 2, 3], [-1, 0.3, 7], [9, 9, 9]], [1, 0, 1], {"4": 0, "5": 1}, None),
    "tab-file": ("t.tsv", [[0.5, 0.6], [1000, -0.001]], [1, 0], {"1": 0, "2": 1}, None),
    "lone-file": ("L.txt", [[0.5, 0.25], [-0.5, 0.75]], [0, 1], {"1": 0, "2": 1}, None),
    "train-file-without-sibling": ("W_TRAIN.tsv", [[0.1, 0.2], [0.3, 0.4]], [1, 0],
                                   {"0": 0, "1": 1}, None),
    "archive-folder": ("A/A_TRAIN.txt", [[1, 2], [3, 4], [5, 6]], [0, 1, 1],
                       {"1": 0, "2": 1}, [[0, 1], [2]]),
    "folder-with-container": ("box", [[0, 0.125, 0.25], [0.375, 0.5, 0.625], [0.75, 0.875, 1]],
                              [1, 0, 1], {"a": 0, "b": 1}, [[0, 2], [1]]),
}
LOADERS = {
    "load_any_dataset": lambda target, test: load_any_dataset(target),
    "load_ucr": lambda target, test: load_ucr(ucr_file(target)),
    "load_ucr_delimited": lambda target, test: load_ucr_delimited(ucr_file(target), test),
}


@pytest.mark.parametrize(
    "fixture, loader",
    [(f, loader) for f in UCR_FIXTURES for loader in LOADERS
     if f != "folder-with-container" or loader == "load_any_dataset"],
)
def test_every_load_path_gives_the_frozen_dataset(tmp_path, fixture, loader):
    files, target, test = UCR_FIXTURES[fixture]
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(exist_ok=True)
        if text is None:
            save_dataset(CONTAINER, tmp_path / rel)
        else:
            (tmp_path / rel).write_text(text)
    ds = LOADERS[loader](tmp_path / target, test and tmp_path / test)
    name, rows, labels, label_map, split = FROZEN_LOADS[fixture]
    assert ds.name.removeprefix(f"{tmp_path}{os.sep}") == name
    assert ds.instances.dtype == np.float32 and ds.labels.dtype == np.int64
    assert ds.instances.tobytes() == np.array(rows, np.float32)[:, None, :].tobytes()
    assert ds.labels.tobytes() == np.array(labels, np.int64).tobytes()
    assert list(ds.label_map.items()) == list(label_map.items())
    if split is None:
        assert ds.predefined_split is None
    else:
        assert [side.dtype for side in ds.predefined_split] == [np.int64, np.int64]
        assert [side.tolist() for side in ds.predefined_split] == split


# a dataset of 12 rows whose subjects or predefined split no split may trust
BAD_ROW_IDS = {
    "overlapping-sides": ({"predefined_split": [list(range(7)), list(range(5, 12))]}, "predefined_split"),
    "negative-index": ({"predefined_split": [list(range(6)), [6, 7, 8, 9, 10, -1]]}, "predefined_split"),
    "index-out-of-range": ({"predefined_split": [list(range(6)), [6, 7, 50]]}, "predefined_split"),
    "empty-side": ({"predefined_split": [list(range(12)), []]}, "predefined_split"),
    "subjects-length": ({"subjects": ["a", "b", "c"]}, "subjects"),
}


@pytest.mark.parametrize("case", BAD_ROW_IDS)
class TestDatasetChecksItsRowIds:
    def test_built_in_python(self, case):
        meta, what = BAD_ROW_IDS[case]
        with pytest.raises(InputError, match=what):
            TimeSeriesDataset("bad", np.zeros((12, 1, 4), np.float32), np.arange(12) % 2, **meta)

    def test_through_a_saved_container(self, tmp_path, case):
        meta, what = BAD_ROW_IDS[case]
        path = tmp_path / "bad.tsfo"
        tensors = [("instances", np.zeros((12, 1, 4), np.float32), None),
                   ("labels", np.arange(12) % 2, None)]
        write_container(path, "dataset", {"name": "bad", "label_map": {}, **meta}, tensors)
        with pytest.raises(ParseError, match=what):
            load(path)

    def test_assigned_after_construction(self, case):
        # a frozen dataset cannot take the ids its constructor would refuse
        meta, what = BAD_ROW_IDS[case]
        ds = TimeSeriesDataset("good", np.zeros((12, 1, 4), np.float32), np.arange(12) % 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ds, what, meta[what])
        assert ds.subjects is None and ds.predefined_split is None


def test_a_split_given_as_lists_need_not_cover_every_row(tmp_path):
    ds = TimeSeriesDataset("part", np.arange(4, dtype=np.float32).reshape(4, 1, 1),
                           np.array([0, 1, 0, 1]), predefined_split=([3, 0], [1]))
    save_dataset(ds, tmp_path / "part.tsfo")
    train, test = subject_wise_split(load(tmp_path / "part.tsfo"), 0.5, seed=0)
    assert train.instances.ravel().tolist() == [3, 0] and test.instances.ravel().tolist() == [1]


class TestStratifiedSplit:
    def test_every_class_on_both_sides(self):
        labels = np.array([0] * 2 + [1] * 7 + [2] * 3)
        tr, te = stratified_split(labels, 0.9, seed=1)
        assert set(labels[tr]) == set(labels[te]) == {0, 1, 2}
        assert sorted(tr.tolist() + te.tolist()) == list(range(12))

    def test_single_instance_classes_cannot_split(self):
        with pytest.raises(InputError):
            stratified_split(np.array([0, 1, 2]), 0.5, seed=0)


UCR_DIR = os.environ.get("TSFO_UCR_DIR")


@pytest.mark.skipif(not UCR_DIR, reason="set TSFO_UCR_DIR to run archive shape checks")
class TestUcrArchiveShapes:
    def test_refrigeration_devices(self):
        ds = load_ucr_delimited(
            os.path.join(UCR_DIR, "RefrigerationDevices", "RefrigerationDevices_TRAIN.tsv")
        )
        assert len(ds) == 375
        assert ds.seq_len == 720
        assert ds.num_classes == 3

    def test_electric_devices(self):
        train = load_ucr_delimited(
            os.path.join(UCR_DIR, "ElectricDevices", "ElectricDevices_TRAIN.tsv")
        )
        test = load_ucr_delimited(
            os.path.join(UCR_DIR, "ElectricDevices", "ElectricDevices_TEST.tsv")
        )
        assert len(train) == 8926
        assert len(test) == 7711
        assert train.seq_len == test.seq_len == 96
        assert train.num_classes == 7


class TestNormalize:
    def test_basic(self):
        assert np.allclose(min_max_normalize([2.0, 4.0, 6.0]), [0.0, 0.5, 1.0])

    def test_idempotent_on_normalized(self):
        x = np.array([0.0, 0.25, 1.0], np.float32)
        assert np.allclose(min_max_normalize(x), x)

    def test_constant_midpoint(self):
        assert np.allclose(min_max_normalize([7.0, 7.0, 7.0]), [0.5, 0.5, 0.5])

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=50))
    def test_range_invariant(self, values):
        out = min_max_normalize(np.array(values, np.float32))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_dataset_wrapper(self):
        ds = synth_generate(2, 3, 32, 0.5, seed=0)
        norm = normalize_dataset(ds)
        assert norm.instances.min() >= 0.0 and norm.instances.max() <= 1.0

    def test_dataset_is_normalized_as_each_row_would_be(self):
        rng = np.random.default_rng(5)
        x = (rng.normal(size=(40, 3, 24)) * 50).astype(np.float32)
        x[::7, 1] = 3.0  # constant channels map to the midpoint
        x[5] = -2.0      # and so does a row of them
        ds = TimeSeriesDataset("rows", x, np.arange(40) % 2)
        per_row = np.stack([min_max_normalize(row) for row in x])
        assert np.array_equal(normalize_dataset(ds).instances, per_row)


class TestWindows:
    def test_count_and_offsets(self):
        x = np.arange(5, dtype=np.float32)[None, :]
        windows = segment_windows(x, WindowSpec(3, 1))
        assert len(windows) == 3
        assert [w[0, 0] for w in windows] == [0.0, 1.0, 2.0]

    def test_whole_series_window(self):
        x = np.zeros((1, 7), np.float32)
        assert len(segment_windows(x, WindowSpec(7, 7))) == 1

    def test_non_overlapping_tiling(self):
        x = np.zeros((1, 12), np.float32)
        assert len(segment_windows(x, WindowSpec(4, 4))) == 3

    def test_window_longer_than_series(self):
        with pytest.raises(InputError):
            segment_windows(np.zeros((1, 3), np.float32), WindowSpec(4, 4))

    def test_exhaustive_formula_to_t100(self):
        x = np.zeros((1, 100), dtype=np.float32)
        for t in range(1, 101):
            for w in range(1, t + 1):
                for s in range(1, w + 1):
                    got = len(segment_windows(x[:, :t], WindowSpec(w, s)))
                    assert got == window_count(t, w, s)


def toy_subjects_dataset():
    subjects = np.array(["a"] * 3 + ["b"] + ["c"] * 2 + ["d"] * 2)
    return TimeSeriesDataset(
        name="toy",
        instances=np.arange(8, dtype=np.float32).reshape(8, 1, 1).repeat(16, axis=2),
        labels=np.array([0, 1, 0, 1, 0, 1, 0, 1]),
        label_map={0: 0, 1: 1},
        subjects=subjects,
    )


class TestSubjectSplit:
    def test_four_subjects_half(self):
        ds = toy_subjects_dataset()
        train, test = subject_wise_split(ds, 0.5, seed=0)
        assert len(set(train.subjects) & set(test.subjects)) == 0
        assert len(set(train.subjects)) == 2
        assert len(set(test.subjects)) == 2

    def test_deterministic(self):
        ds = toy_subjects_dataset()
        a = subject_wise_split(ds, 0.5, seed=11)
        b = subject_wise_split(ds, 0.5, seed=11)
        assert np.array_equal(a[0].instances, b[0].instances)

    def test_golden_assignment_seed_42(self):
        train, test = subject_wise_split(toy_subjects_dataset(), 0.5, seed=42)
        assert sorted(set(train.subjects.tolist())) == ["c", "d"]
        assert sorted(set(test.subjects.tolist())) == ["a", "b"]
        assert len(train) == 4 and len(test) == 4

    def test_partition_property_random_assignments(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n_subjects = int(rng.integers(2, 9))
            n = int(rng.integers(n_subjects, 40))
            subjects = np.array(
                [f"s{rng.integers(0, n_subjects)}" for _ in range(n_subjects)]
                + [f"s{rng.integers(0, n_subjects)}" for _ in range(n - n_subjects)]
            )
            # make sure every subject id actually appears at least once
            subjects[:n_subjects] = [f"s{i}" for i in range(n_subjects)]
            ds = TimeSeriesDataset(
                name="r",
                instances=np.zeros((n, 1, 16), np.float32),
                labels=np.zeros(n, dtype=np.int64),
                label_map={0: 0},
                subjects=subjects,
            )
            train, test = subject_wise_split(ds, float(rng.uniform(0.2, 0.8)), seed=trial)
            assert len(train) + len(test) == n
            assert set(train.subjects) | set(test.subjects) == set(subjects)
            assert not set(train.subjects) & set(test.subjects)

    def test_missing_subjects_falls_back_to_predefined(self, caplog, tmp_path):
        train = tmp_path / "T_TRAIN.txt"
        test = tmp_path / "T_TEST.txt"
        train.write_text("1,0.0,1.0\n1,2.0,3.0\n")
        test.write_text("1,4.0,5.0\n")
        ds = load_ucr_delimited(train, test)
        with caplog.at_level(logging.WARNING):
            tr, te = subject_wise_split(ds, 0.5, seed=0)
        assert "predefined" in caplog.text
        assert len(tr) == 2 and len(te) == 1

    def test_no_subjects_no_predefined_falls_back_to_stratified(self, caplog):
        ds = dataclasses.replace(synth_generate(2, 3, 32, 0.05, seed=0), subjects=None)
        with caplog.at_level(logging.WARNING):
            train, test = subject_wise_split(ds, 0.5, seed=0)
        assert len([r for r in caplog.records if r.levelno == logging.WARNING]) == 1
        tr, te = stratified_split(ds.labels, 0.5, seed=0)
        assert np.array_equal(train.instances, ds.instances[tr])
        assert np.array_equal(test.instances, ds.instances[te])
        # classes of one instance each cannot be split
        lone = TimeSeriesDataset("lone", ds.instances[[0, 3]], np.array([0, 1]))
        with pytest.raises(InputError):
            subject_wise_split(lone, 0.5, seed=0)


def nearest_neighbor_accuracy(train, test):
    """Brute-force 1-NN on raw series (independent separability oracle)."""
    correct = 0
    flat_train = train.instances.reshape(len(train), -1)
    for x, y in zip(test.instances, test.labels):
        dists = np.linalg.norm(flat_train - x.ravel(), axis=1)
        correct += int(train.labels[np.argmin(dists)] == y)
    return correct / len(test)


class TestSynth:
    def test_zero_noise_identical_within_class(self):
        ds = synth_generate(3, 5, 64, 0.0, seed=1)
        for c in range(3):
            members = ds.instances[ds.labels == c]
            assert all(np.array_equal(members[0], m) for m in members)

    def test_same_seed_bit_identical(self):
        a = synth_generate(3, 4, 64, 0.1, seed=9)
        b = synth_generate(3, 4, 64, 0.1, seed=9)
        assert np.array_equal(a.instances, b.instances)

    def test_household_round_robin(self):
        ds = synth_generate(2, 12, 32, 0.0, seed=0)
        assert len(set(ds.subjects.tolist())) == 3  # ceil(12 / 5)

    def test_golden_one_nn_separability(self):
        ds = synth_generate(3, 30, 96, 0.05, seed=42)
        train, test = subject_wise_split(ds, 0.5, seed=42)
        assert nearest_neighbor_accuracy(train, test) >= 0.95

    def test_validation(self):
        with pytest.raises(ConfigError):
            synth_generate(1, 5, 64, 0.0, seed=0)
        with pytest.raises(ConfigError):
            synth_generate(3, 5, 8, 0.0, seed=0)
