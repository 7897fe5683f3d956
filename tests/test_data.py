import struct

import numpy as np
import pytest

from qrepair.data import Dataset, DatasetError, load_cifar10_batch, load_dataset, \
    save_dataset


def test_csv_two_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0,1.5,-2.0\n1,0.25,3.0\n")
    ds = load_dataset(path)
    assert len(ds) == 2
    assert ds.labels.tolist() == [0, 1]
    np.testing.assert_allclose(ds.features, [[1.5, -2.0], [0.25, 3.0]])
    assert ds.ids == [0, 1]


def test_csv_label_out_of_range(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("9,1.0\n")
    with pytest.raises(DatasetError):
        load_dataset(path, num_classes=5)


def test_csv_malformed_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0,1.0\nnot_a_label,2.0\n")
    with pytest.raises(DatasetError):
        load_dataset(path)


def test_csv_inconsistent_width(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0,1.0,2.0\n1,3.0\n")
    with pytest.raises(DatasetError):
        load_dataset(path)


def test_csv_whitespace_only_lines_are_skipped(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("\n0,1.5,-2.0\n   \n\t\n1,0.25,3.0\n \n")
    ds = load_dataset(path)
    assert ds.labels.tolist() == [0, 1]
    np.testing.assert_allclose(ds.features, [[1.5, -2.0], [0.25, 3.0]])
    empty = tmp_path / "e.csv"
    empty.write_text(" \n\n")
    assert len(load_dataset(empty)) == 0


@pytest.mark.parametrize("label", ["1.5", "nan", "1e400", "1.0"])
def test_csv_non_integer_label(tmp_path, label):
    path = tmp_path / "d.csv"
    path.write_text(f"0,1.0\n{label},2.0\n")
    with pytest.raises(DatasetError, match=str(path)):
        load_dataset(path)


@pytest.mark.parametrize("rows,n_feat", [(20, 3), (0, 4), (5, 0)])
def test_bin_bytes_match_hand_packed_rows(tmp_path, rows, n_feat):
    rng = np.random.default_rng(rows + n_feat)
    ds = Dataset(rng.normal(size=(rows, n_feat)).astype(np.float32),
                 rng.integers(0, 3, size=rows), 3)
    want = [b"QNRD", struct.pack("<III", rows, n_feat, 3)]
    for label, x in zip(ds.labels, ds.features):
        want.append(struct.pack(f"<I{n_feat}f", int(label), *x.tolist()))
    save_dataset(ds, tmp_path / "d.bin")
    assert (tmp_path / "d.bin").read_bytes() == b"".join(want)
    back = load_dataset(tmp_path / "d.bin")
    assert back.features.shape == (rows, n_feat)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_bin_bad_magic(tmp_path):
    path = tmp_path / "d.bin"
    path.write_bytes(b"XXXX" + b"\0" * 12)
    with pytest.raises(DatasetError):
        load_dataset(path)


def test_bin_truncated(tmp_path):
    path = tmp_path / "d.bin"
    path.write_bytes(b"QNRD" + struct.pack("<III", 2, 3, 4) + b"\0" * 4)
    with pytest.raises(DatasetError):
        load_dataset(path)


def test_dual_format_1000_rows_identical(tmp_path):
    rng = np.random.default_rng(77)
    ds = Dataset(rng.normal(size=(1000, 5)).astype(np.float32),
                 rng.integers(0, 4, size=1000), 4)
    save_dataset(ds, tmp_path / "d.csv")
    save_dataset(ds, tmp_path / "d.bin")
    from_csv = load_dataset(tmp_path / "d.csv", num_classes=4)
    from_bin = load_dataset(tmp_path / "d.bin")
    assert np.array_equal(from_csv.features, from_bin.features)
    assert np.array_equal(from_csv.labels, from_bin.labels)
    assert from_csv.num_classes == from_bin.num_classes == 4


def test_roundtrip_identity_both_formats(tmp_path):
    rng = np.random.default_rng(78)
    ds = Dataset(rng.normal(size=(20, 3)).astype(np.float32),
                 rng.integers(0, 3, size=20), 3)
    for name in ("r.csv", "r.bin"):
        save_dataset(ds, tmp_path / name)
        back = load_dataset(tmp_path / name, num_classes=3)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)


def test_row_order_preserved(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("2,9.0\n0,1.0\n1,5.0\n")
    ds = load_dataset(path)
    assert ds.labels.tolist() == [2, 0, 1]
    assert ds.features[:, 0].tolist() == [9.0, 1.0, 5.0]


def test_subset_keeps_ids():
    ds = Dataset(np.zeros((5, 2), np.float32), np.zeros(5, np.int64), 1)
    sub = ds.subset([3, 1])
    assert sub.ids == [3, 1]
    assert len(sub) == 2


def test_dataset_label_validation():
    with pytest.raises(DatasetError):
        Dataset(np.zeros((2, 2), np.float32), np.array([0, 7]), 3)


def test_cifar10_batch_hook(tmp_path):
    rng = np.random.default_rng(55)
    rows = []
    labels = [3, 9]
    for lab in labels:
        rows.append(bytes([lab]) + rng.integers(0, 256, 3072, dtype=np.uint8).tobytes())
    path = tmp_path / "data_batch_1.bin"
    path.write_bytes(b"".join(rows))
    ds = load_cifar10_batch(path)
    assert len(ds) == 2
    assert ds.labels.tolist() == labels
    assert ds.features.shape == (2, 3072)
    assert float(ds.features.max()) <= 1.0
    (tmp_path / "short.bin").write_bytes(b"xx")
    with pytest.raises(DatasetError):
        load_cifar10_batch(tmp_path / "short.bin")
