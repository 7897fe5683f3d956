"""Dataset loading: labeled flat feature rows in CSV or binary form.

CSV rows are `label, v1, v2, ...`. The binary format is little-endian:
magic `QNRD`, u32 row count, u32 feature count, u32 num_classes, then per
row a u32 label followed by f32 features.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"QNRD"
_CSV_CHUNK_ROWS = 16  # rows turned to text at once by save_dataset


class DatasetError(ValueError):
    """Raised on malformed dataset files or out-of-range labels."""


@dataclass
class Dataset:
    features: np.ndarray  # float32 [rows, dim]
    labels: np.ndarray  # int64 [rows]
    num_classes: int
    ids: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float32)
        if self.features.ndim != 2:
            self.features = self.features.reshape(len(self.labels), -1)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.size:
            raise DatasetError("row count mismatch between features and labels")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            bad = int(self.labels.max() if self.labels.max() >= self.num_classes else self.labels.min())
            raise DatasetError(f"label {bad} out of range for {self.num_classes} classes")
        if not self.ids:
            self.ids = list(range(self.labels.size))

    def __len__(self):
        return self.labels.size

    def subset(self, indices) -> "Dataset":
        idx = list(indices)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes,
                       [self.ids[i] for i in idx])


def load_dataset(path, *, num_classes: int | None = None) -> Dataset:
    """Load a `.bin` dataset, or a CSV one for any other suffix."""
    path = Path(path)
    return _load_bin(path, num_classes) if path.suffix == ".bin" else _load_csv(path, num_classes)


def _load_csv(path: Path, num_classes: int | None) -> Dataset:
    numbered = [(i, ln) for i, ln in enumerate(path.read_text().splitlines(), 1) if ln.strip()]
    if not numbered:
        return Dataset(np.zeros((0, 0), np.float32), np.zeros(0, np.int64),
                       num_classes or 1)
    row = _row_dtype("<i8", numbered[0][1].count(","))
    try:
        rows = _parse_csv([ln for _, ln in numbered], row)
    except ValueError as e:
        raise DatasetError(_csv_error(path, numbered, row, e)) from None
    if num_classes is None:
        num_classes = int(rows["label"].max()) + 1
    return Dataset(rows["x"].copy(), rows["label"].copy(), num_classes)


def _parse_csv(lines: list[str], row: np.dtype) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, dtype=row)


def _csv_error(path: Path, numbered: list, row: np.dtype, error: ValueError) -> str:
    """Name the first file line that does not parse; runs only on the error path."""
    fields = 1 + row["x"].shape[0]
    for lineno, line in numbered:
        got = line.count(",") + 1
        if got != fields:
            return f"{path}:{lineno}: expected {fields} fields, got {got}"
        try:
            _parse_csv([line], row)
        except ValueError as e:  # numpy's row number counts within this one line
            return f"{path}:{lineno}: " + re.sub(r" at row \d+,", " in", str(e))
    return f"{path}: {error}"


def _row_dtype(label: str, n_feat: int) -> np.dtype:
    """One dataset row: the label, then the features."""
    return np.dtype([("label", label), ("x", "<f4", (n_feat,))])


def _load_bin(path: Path, num_classes: int | None) -> Dataset:
    raw = path.read_bytes()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise DatasetError(f"{path}: not a {MAGIC.decode()} dataset file")
    n_rows, n_feat, n_classes = struct.unpack_from("<III", raw, 4)
    if num_classes is not None and num_classes != n_classes:
        raise DatasetError(f"{path}: file says {n_classes} classes, expected {num_classes}")
    row = _row_dtype("<u4", n_feat)
    expected = 16 + n_rows * row.itemsize
    if len(raw) != expected:
        raise DatasetError(f"{path}: expected {expected} bytes, got {len(raw)}")
    rows = np.frombuffer(raw, dtype=row, count=n_rows, offset=16)
    return Dataset(rows["x"].copy(), rows["label"].astype(np.int64), n_classes)


def save_dataset(ds: Dataset, path) -> None:
    """Write a `.bin` dataset, or a CSV one for any other suffix."""
    path = Path(path)
    if path.suffix == ".bin":
        rows = np.empty(len(ds), _row_dtype("<u4", ds.features.shape[1]))
        rows["label"], rows["x"] = ds.labels, ds.features
        header = struct.pack("<III", len(ds), ds.features.shape[1], ds.num_classes)
        path.write_bytes(MAGIC + header + rows.tobytes())
        return
    # the bytes csv.writer would write, each feature as its float32 shortest
    # round-trip text, which loads back to the same bits; the text is made a
    # few rows at a time so the file is never held whole
    with open(path, "w", newline="") as fh:
        for start in range(0, len(ds), _CSV_CHUNK_ROWS):
            chunk = ds.features[start:start + _CSV_CHUNK_ROWS].astype(str).tolist()
            labels = ds.labels[start:start + _CSV_CHUNK_ROWS].tolist()
            fh.writelines(",".join([str(label), *row]) + "\r\n"
                          for label, row in zip(labels, chunk))
