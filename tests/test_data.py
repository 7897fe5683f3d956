import csv
import io
import math
import re
import struct

import numpy as np
import pytest

from conftest import FIXTURES
from oracles import read_text_csv
from qrepair.data import Dataset, DatasetError, load_dataset, save_dataset


def test_csv_two_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0,1.5,-2.0\n1,0.25,3.0\n")
    ds = load_dataset(path)
    assert len(ds) == 2
    assert ds.labels.tolist() == [0, 1]
    np.testing.assert_allclose(ds.features, [[1.5, -2.0], [0.25, 3.0]])


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


def _assert_loads_as_read_text_csv(path):
    features, labels, num_classes = read_text_csv(path)
    ds = load_dataset(path)
    assert ds.features.tobytes() == features.tobytes()
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == labels.tolist()
    assert ds.num_classes == num_classes


@pytest.mark.parametrize("text", [
    "0,1.5,-2\n1,0.25,3\n2,-0.0,1e-45\n",
    "0,1.5,-2\r\n1,0.25,3\r\n2,-0.0,1e-45\r\n",
    "0,1.5,-2\r1,0.25,3\r2,-0.0,1e-45\r",
    "0,1.5,-2\r\n1,0.25,3\r2,-0.0,1e-45\n\r\n3,7,8",
    "\n  \r\n0,1.5,-2\n\t \r1,0.25,3\r\n \n2,-0.0,1e-45\n   ",
    "0,1.5,-2\n\f\n1,0.25,3\f2,-0.0,1e-45\r\n \f \r\n",
], ids=["lf", "crlf", "cr", "mixed", "whitespace_lines", "form_feed"])
def test_csv_loads_what_a_read_text_reader_loads(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    _assert_loads_as_read_text_csv(path)


def test_csv_fixture_loads_what_a_read_text_reader_loads():
    _assert_loads_as_read_text_csv(FIXTURES / "conv3_val.csv")


def test_csv_1000_random_rows_load_what_a_read_text_reader_loads(tmp_path):
    rng = np.random.default_rng(35)
    bits = rng.integers(0, 2**32, size=(1000, 6), dtype=np.uint64).astype(np.uint32)
    features = bits.view(np.float32)
    features[~np.isfinite(features)] = 0.5
    ds = Dataset(features, rng.integers(0, 7, 1000), 7)
    path = tmp_path / "d.csv"
    save_dataset(ds, path)
    _assert_loads_as_read_text_csv(path)
    # the same rows with a random line end each and blank lines between
    rows = path.read_bytes().decode().splitlines()
    ends = rng.choice(["\n", "\r\n", "\r", "\n \n", "\r\n\r\n"], size=len(rows))
    path.write_bytes("".join(r + e for r, e in zip(rows, ends)).encode())
    _assert_loads_as_read_text_csv(path)
    assert load_dataset(path).features.tobytes() == ds.features.tobytes()


@pytest.mark.parametrize("raw,lineno,reason", [
    (b"0,1\r\n\r\n  \r\n1,2\r\nx,3\r\n", 5,
     "could not convert string 'x' to int64 in column 1"),
    (b"\r\n0,1\r\n\r\n1,2,3\r\n", 4, "expected 2 fields, got 3"),
    (b"0,1\r\r\n1,y\r", 3, "could not convert string 'y' to float32 in column 2"),
], ids=["crlf_bad_value", "crlf_extra_field", "cr_then_crlf"])
def test_csv_error_names_the_file_line_across_line_ends(tmp_path, raw, lineno, reason):
    path = tmp_path / "d.csv"
    path.write_bytes(raw)
    with pytest.raises(DatasetError, match=f"^{re.escape(f'{path}:{lineno}: {reason}')}"):
        load_dataset(path)


@pytest.mark.parametrize("raw,reason,at", [
    (b"\xff0,1\n", "invalid start byte", 0),
    (b"0,1\r\n1,\xe9\r\n", "invalid continuation byte", 7),
    (b"0,1\n1,2\xe2\x82", "unexpected end of data", 7),
], ids=["first_byte", "mid_file", "cut_sequence"])
def test_csv_that_is_not_utf8_fails_naming_the_file(tmp_path, raw, reason, at):
    path = tmp_path / "d.csv"
    path.write_bytes(raw)
    with pytest.raises(DatasetError,
                       match=f"^{re.escape(f'{path}: not UTF-8 text ({reason} at byte {at})')}$"):
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


def test_subset_takes_the_named_rows_in_order():
    ds = Dataset(np.arange(10, dtype=np.float32).reshape(5, 2), [0, 1, 2, 0, 1], 3)
    sub = ds.subset([3, 1])
    assert sub.labels.tolist() == [0, 1]
    assert sub.features.tolist() == [[6.0, 7.0], [2.0, 3.0]]
    assert sub.num_classes == 3


def test_dataset_label_validation():
    with pytest.raises(DatasetError):
        Dataset(np.zeros((2, 2), np.float32), np.array([0, 7]), 3)


@pytest.mark.parametrize("label", [1.5, 1.0, "1", True, math.nan],
                         ids=["fraction", "integral_float", "string", "bool", "nan"])
def test_dataset_rejects_labels_that_are_not_integers(label):
    # an int64 cast would read 1.5 as 1 and "1" as 1, and NaN would fail with
    # numpy's own ValueError
    with pytest.raises(DatasetError, match="^labels must be integers, got "):
        Dataset(np.zeros((2, 2), np.float32), [label, label], 3)


@pytest.mark.parametrize("labels", [[0, True], [np.True_, 1]], ids=["bool", "numpy_bool"])
def test_dataset_rejects_a_bool_among_integer_labels(labels):
    # np.asarray makes both lists int64, so the dtype rule alone cannot see the bool
    with pytest.raises(DatasetError, match="^labels must be integers, got bool values$"):
        Dataset(np.zeros((2, 2), np.float32), labels, 3)


def test_dataset_takes_unsigned_and_empty_labels():
    # an IDX file's labels are uint8, and an empty set has no dtype to speak of;
    # a uint64 label is checked before the int64 cast, which would wrap it
    ds = Dataset(np.zeros((2, 2), np.float32), np.array([2, 0], np.uint8), 3)
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [2, 0]
    assert Dataset(np.zeros((0, 2), np.float32), [], 3).labels.dtype == np.int64
    with pytest.raises(DatasetError, match="^label 9223372036854775808 out of range"):
        Dataset(np.zeros((1, 2), np.float32), np.array([2**63], np.uint64), 3)


@pytest.mark.parametrize("num_classes,message", [
    (2.5, "num_classes must be an integer, got 2.5"),
    ("3", "num_classes must be an integer, got '3'"),
    (np.bool_(True), "num_classes must be an integer, got "),
    (0, "num_classes must be >= 1, got 0"),
], ids=["float", "string", "np_bool", "zero"])
def test_dataset_rejects_a_class_count_that_is_not_an_integer_at_least_1(num_classes, message):
    # unchecked, 2.5 fails a later .bin save with a bare struct.error and "3"
    # the label range check with numpy's UFuncTypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        Dataset(np.zeros((2, 3)), [0, 1], num_classes)


@pytest.mark.parametrize("suffix", [".bin", ".csv"])
@pytest.mark.parametrize("num_classes,message", [
    ("3", "num_classes must be an integer, got '3'"),
    (True, "num_classes must be an integer, got True"),
    (3.0, "num_classes must be an integer, got 3.0"),
    (0, "num_classes must be >= 1, got 0"),
], ids=["string", "bool", "float", "zero"])
def test_load_dataset_checks_the_class_count_before_reading_either_format(
        tmp_path, suffix, num_classes, message):
    # unchecked, a .bin header compared with "3" reads "file says 3 classes,
    # expected 3", and 3.0 passes where a CSV rejects it
    path = tmp_path / f"d{suffix}"
    save_dataset(Dataset(np.zeros((3, 2)), [0, 1, 2], 3), path)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        load_dataset(path, num_classes=num_classes)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        load_dataset(tmp_path / f"missing{suffix}", num_classes=num_classes)  # before the read


def test_dataset_takes_a_numpy_class_count_as_a_python_int(tmp_path):
    ds = Dataset(np.zeros((2, 3)), [0, 1], np.int64(3))
    assert type(ds.num_classes) is int
    save_dataset(ds, tmp_path / "d.bin")
    assert load_dataset(tmp_path / "d.bin").num_classes == 3


@pytest.mark.parametrize("features,labels", [
    (np.zeros(3, np.float32), []),  # three values for no rows
    (np.zeros(3, np.float32), [0, 1]),  # three values for two rows
    (np.zeros((2, 2, 2), np.float32), [0, 1, 0]),
])
def test_dataset_rejects_features_that_do_not_reshape_to_the_rows(features, labels):
    with pytest.raises(DatasetError, match="feature values do not make"):
        Dataset(features, labels, 2)


def test_dataset_reshapes_features_to_the_rows():
    assert Dataset(np.zeros((2, 2, 3), np.float32), [0, 1], 2).features.shape == (2, 6)
    assert Dataset(np.zeros(4, np.float32), [0, 1], 2).features.shape == (2, 2)
    assert Dataset(np.zeros(0, np.float32), [], 2).features.shape == (0, 0)


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
