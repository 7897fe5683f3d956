import csv
import io
import re
import struct

import numpy as np
import pytest

from qrepair.data import Dataset, DatasetError, load_dataset, save_dataset


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


@pytest.mark.parametrize("text,lineno,reason", [
    ("0,1\n\nx,2\n", 3, "could not convert string 'x' to int64 in column 1"),
    ("1,2\n0,1,2\n", 2, "expected 2 fields, got 3"),
], ids=["bad_value_after_blank_line", "extra_field"])
def test_csv_error_names_the_file_line(tmp_path, text, lineno, reason):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(DatasetError, match=f"^{re.escape(f'{path}:{lineno}: {reason}')}"):
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


def _csv_writer_bytes(ds: Dataset) -> bytes:
    """The CSV bytes the standard library's csv.writer gives for a dataset."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    for i in range(len(ds)):
        writer.writerow([int(ds.labels[i])] + [str(np.float32(v)) for v in ds.features[i]])
    return out.getvalue().encode()


@pytest.mark.parametrize("features", [
    [[np.nan, np.inf, -np.inf], [-0.0, 0.0, 1e-45], [3.4e38, -1.5, 0.1]],
    np.zeros((4, 0)),
    np.zeros((0, 3)),
], ids=["specials", "zero-width", "empty"])
def test_csv_bytes_match_csv_writer(tmp_path, features):
    features = np.asarray(features, dtype=np.float32)
    ds = Dataset(features, np.arange(len(features)) % 3, 3)
    save_dataset(ds, tmp_path / "d.csv")
    assert (tmp_path / "d.csv").read_bytes() == _csv_writer_bytes(ds)


def _float32_rows(n: int, width: int) -> np.ndarray:
    """n seeded random finite float32 bit patterns, then nan, +-inf, -0.0, 1e-45
    and the float32 maximum, zero-padded into rows of `width`."""
    bits = np.random.default_rng(18).integers(0, 2**32, size=n + n // 16, dtype=np.uint64)
    floats = bits.astype(np.uint32).view(np.float32)
    finite = floats[np.isfinite(floats)][:n]
    assert finite.size == n
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-45, np.finfo(np.float32).max],
                        dtype=np.float32)
    values = np.concatenate([finite, specials])
    return np.concatenate([values, np.zeros(-values.size % width, np.float32)]).reshape(-1, width)


def _assert_bit_equal(got: np.ndarray, want: np.ndarray) -> None:
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint32), want[~nan].view(np.uint32))


def test_csv_round_trips_every_float32_bit_pattern(tmp_path):
    # the shortest text goes decimal -> float64 -> float32 on load, so it is
    # checked to land on the written bits
    rows = _float32_rows(200_000, 100)
    ds = Dataset(rows, np.arange(len(rows)) % 3, 3)
    save_dataset(ds, tmp_path / "d.csv")
    back = load_dataset(tmp_path / "d.csv", num_classes=3)
    _assert_bit_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_csv_written_as_float64_repr_loads_the_same_bits(tmp_path):
    # files written before the float32 shortest text, as repr(float(v))
    rows = _float32_rows(2_000, 10)
    ds = Dataset(rows, np.arange(len(rows)) % 2, 2)
    old = tmp_path / "old.csv"
    old.write_text("".join(",".join([str(label), *(repr(float(v)) for v in row)]) + "\r\n"
                           for label, row in zip(ds.labels.tolist(), ds.features)))
    save_dataset(ds, tmp_path / "new.csv")
    for path in (old, tmp_path / "new.csv"):
        back = load_dataset(path, num_classes=2)
        _assert_bit_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
