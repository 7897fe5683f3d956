"""Dataset loading: labeled flat feature rows in CSV or binary form.

CSV rows are `label, v1, v2, ...`. The binary format is little-endian:
magic `QNRD`, u32 row count, u32 feature count, u32 num_classes, then per
row a u32 label followed by f32 features.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"QNRD"


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

    def input_array(self, i: int, input_shape) -> np.ndarray:
        return self.features[i].reshape(input_shape)

    def subset(self, indices) -> "Dataset":
        idx = list(indices)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes,
                       [self.ids[i] for i in idx])


def load_dataset(path, fmt: str | None = None, num_classes: int | None = None) -> Dataset:
    """Load a dataset; `fmt` is inferred from the suffix when omitted."""
    path = Path(path)
    if fmt is None:
        fmt = "bin" if path.suffix == ".bin" else "csv"
    if fmt == "csv":
        return _load_csv(path, num_classes)
    if fmt == "bin":
        return _load_bin(path, num_classes)
    raise DatasetError(f"unknown dataset format {fmt!r}")


def _load_csv(path: Path, num_classes: int | None) -> Dataset:
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        return Dataset(np.zeros((0, 0), np.float32), np.zeros(0, np.int64),
                       num_classes or 1)
    try:
        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1,
                          dtype=_row_dtype("<i8", lines[0].count(",")))
    except ValueError as e:
        raise DatasetError(f"{path}: {e}") from None
    if num_classes is None:
        num_classes = int(rows["label"].max()) + 1
    return Dataset(rows["x"].copy(), rows["label"].copy(), num_classes)


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


def load_cifar10_batch(path, num_rows: int | None = None) -> Dataset:
    """Consume a user-supplied CIFAR-10 binary batch (not bundled here).

    Standard batch layout: 3073 bytes per row, u8 label then 3072 u8 pixels
    (3x32x32, channel-major). Pixels are scaled to [0, 1] floats.
    """
    raw = Path(path).read_bytes()
    row_bytes = 3073
    if len(raw) % row_bytes != 0:
        raise DatasetError(f"{path}: size {len(raw)} is not a multiple of {row_bytes}")
    n = len(raw) // row_bytes
    if num_rows is not None:
        n = min(n, num_rows)
    arr = np.frombuffer(raw, dtype=np.uint8, count=n * row_bytes).reshape(n, row_bytes)
    labels = arr[:, 0].astype(np.int64)
    feats = arr[:, 1:].astype(np.float32) / 255.0
    return Dataset(feats, labels, 10)


def save_dataset(ds: Dataset, path, fmt: str | None = None) -> None:
    path = Path(path)
    if fmt is None:
        fmt = "bin" if path.suffix == ".bin" else "csv"
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for i in range(len(ds)):
                writer.writerow([int(ds.labels[i])] + [repr(float(v)) for v in ds.features[i]])
    elif fmt == "bin":
        rows = np.empty(len(ds), _row_dtype("<u4", ds.features.shape[1]))
        rows["label"], rows["x"] = ds.labels, ds.features
        header = struct.pack("<III", len(ds), ds.features.shape[1], ds.num_classes)
        path.write_bytes(MAGIC + header + rows.tobytes())
    else:
        raise DatasetError(f"unknown dataset format {fmt!r}")
