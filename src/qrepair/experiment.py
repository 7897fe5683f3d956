"""Desk-scale experiment harness: train, quantize, damage, repair, compare.

The mlp-blobs preset trains a small MLP on synthetic Gaussian blobs with
plain SGD, quantizes it, then sign-flips an escalating fraction of the
quantized output layer's codes until the float-vs-quantized validation gap
reaches at least two points. All seven importance metrics plus a seeded
random-selection baseline then repair the same damaged model, and the
harness emits a comparison table over the strategies.

The validation set is only ever used for accuracy measurement; localization
and LP constraints see the repair set alone.
"""

from __future__ import annotations

import gzip
import json
import logging
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Dataset, DatasetError, save_dataset
from .evaluate import evaluate
from .localize import METRICS
from .model import Layer, Model, QuantizedTensor, check_number, save_model
from .quantize import clone_quantized, quantize_model
from .repair import Prepared, RepairConfig, prepare, repair, round6

log = logging.getLogger("qrepair")

PRESETS = ("mlp-blobs", "mnist-mini")
GAP_TARGET = 0.02  # two accuracy points
# sign-flip fractions; the final rung negates the whole layer, which drops a
# working classifier to argmin-picking and guarantees a measurable gap
DAMAGE_LEVELS = (0.1, 0.2, 0.35, 0.5, 1.0)


@dataclass
class PresetSpec:
    dim: int
    num_classes: int
    hidden: int
    n_train: int
    n_repair: int
    n_val: int
    epochs: int
    lr: float
    batch: int

    def __post_init__(self):
        least = {"dim": 1, "num_classes": 2, "hidden": 1, "n_train": 1, "n_repair": 1,
                 "n_val": 1, "epochs": 0, "batch": 1}
        for name, low in least.items():
            setattr(self, name, check_number(name, getattr(self, name), low, integer=True))
        self.lr = check_number("lr", self.lr, 0, above=True)


MLP_BLOBS = PresetSpec(dim=20, num_classes=3, hidden=24, n_train=600,
                       n_repair=240, n_val=300, epochs=40, lr=0.15, batch=32)
MNIST_MINI = PresetSpec(dim=784, num_classes=10, hidden=32, n_train=2000,
                        n_repair=500, n_val=500, epochs=8, lr=0.1, batch=64)


def make_blobs(rng: np.random.Generator, spec: PresetSpec, n: int) -> Dataset:
    """Gaussian blobs: one unit-variance cluster per class around seeded means."""
    means = rng.normal(0.0, 2.0, size=(spec.num_classes, spec.dim))
    labels = rng.integers(0, spec.num_classes, size=n)
    feats = means[labels] + rng.normal(0.0, 1.0, size=(n, spec.dim))
    return Dataset(feats.astype(np.float32), labels, spec.num_classes)


def train_mlp(rng: np.random.Generator, train: Dataset, spec: PresetSpec) -> Model:
    """Two-layer ReLU MLP trained with plain minibatch SGD on softmax CE.

    All four parameters are views into one flat vector, and the gradients
    into a second, so an SGD step updates them all in two calls.

    The batch schedule is built once per call: each epoch gathers its
    permutation of the inputs and one-hot targets into two buffers in
    place, each batch is a row view of them, and each step writes through
    `out=` into scratch sized for the largest batch (a short last batch
    takes its leading rows). The operations, operands and order are those
    of fresh arrays, so the float64 parameters stay bit-identical to
    `tests/oracles.py::loop_train_mlp`.

    The products go through `np.dot`, which makes the same dgemm call as
    `@` on the same operands with less per-call overhead, so their bits are
    the same. The ReLU gradient mask is one multiply by `z1 > 0`: x * 1 is
    x and x * 0 is +-0, which only the gradient buffer ever holds, so no
    parameter's bits change (a gradient that is already inf or NaN at a
    masked unit becomes NaN instead of 0, in a run that has diverged).
    """
    d, h, c = spec.dim, spec.hidden, spec.num_classes
    params = np.zeros(d * h + h + h * c + c)
    grads = np.empty_like(params)
    w1, b1, w2, b2 = _split(params, d, h, c)
    gw1, gb1, gw2, gb2 = _split(grads, d, h, c)
    w1[...] = rng.normal(0.0, np.sqrt(2.0 / d), size=(d, h))
    w2[...] = rng.normal(0.0, np.sqrt(2.0 / h), size=(h, c))
    x_all = train.features.astype(np.float64)
    t_all = np.eye(c)[train.labels]
    n = len(train)
    xs, ts = np.empty_like(x_all), np.empty_like(t_all)
    rows = min(spec.batch, n)
    z1s, a1s, da1s = np.empty((3, rows, h))
    ps, cols, masks = np.empty((rows, c)), np.empty((rows, 1)), np.empty((rows, h), bool)
    schedule = []
    for start in range(0, n, spec.batch):
        k = min(spec.batch, n - start)
        x, a1 = xs[start : start + k], a1s[:k]
        schedule.append((x, x.T, ts[start : start + k], z1s[:k], a1, a1.T, ps[:k], cols[:k],
                         da1s[:k], masks[:k], k))
    dot, w2_t = np.dot, w2.T
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    maximum, exp, greater = np.maximum, np.exp, np.greater
    row_max, row_sum = maximum.reduce, add.reduce
    for _ in range(spec.epochs):
        perm = rng.permutation(n)
        np.take(x_all, perm, axis=0, out=xs, mode="clip")  # in range: "clip" only skips a copy
        np.take(t_all, perm, axis=0, out=ts, mode="clip")
        for x, x_t, t, z1, a1, a1_t, p, col, da1, mask, k in schedule:
            dot(x, w1, out=z1)
            add(z1, b1, out=z1)
            maximum(z1, 0, out=a1)
            dot(a1, w2, out=p)
            add(p, b2, out=p)
            row_max(p, axis=1, keepdims=True, out=col)
            subtract(p, col, out=p)
            exp(p, out=p)
            row_sum(p, axis=1, keepdims=True, out=col)
            divide(p, col, out=p)
            subtract(p, t, out=p)  # subtracting 0.0 leaves the other entries' bits as they are
            divide(p, k, out=p)
            dot(a1_t, p, out=gw2)
            row_sum(p, axis=0, out=gb2)
            dot(p, w2_t, out=da1)
            greater(z1, 0.0, out=mask)
            multiply(da1, mask, out=da1)
            dot(x_t, da1, out=gw1)
            row_sum(da1, axis=0, out=gb1)
            multiply(spec.lr, grads, out=grads)
            subtract(params, grads, out=params)
    return Model([Layer("dense", w1, b1), Layer("relu"), Layer("dense", w2, b2)], (d,), c)


def _split(flat: np.ndarray, d: int, h: int, c: int) -> tuple[np.ndarray, ...]:
    """Views w1 (d, h), b1 (h,), w2 (h, c), b2 (c,) into one flat vector."""
    w1, b1, w2, b2 = np.split(flat, np.cumsum([d * h, h, h * c]))
    return w1.reshape(d, h), b1, w2.reshape(h, c), b2


def damage_layer(qmodel: Model, layer_index: int,
                 rng: np.random.Generator, flip_fraction: float) -> None:
    """Flip the sign of a random fraction of one layer's int8 codes."""
    layer = qmodel.layers[layer_index]
    codes = layer.qweights.data
    damaged = np.where(rng.random(codes.shape) < flip_fraction, -codes, codes)
    layer.set_codes(QuantizedTensor(layer.qweights.shape, damaged, layer.qweights.scale))


def damaged_quantized_model(fmodel: Model, val: Dataset, repair_set: Dataset,
                            seed_seq: np.random.SeedSequence, config: RepairConfig | None = None
                            ) -> tuple[Model, float, Prepared]:
    """Quantize and perturb until the float-vs-quantized val gap is >= 2 points.

    Also requires a handful of failing tests in the repair set, so the
    localization stage has evidence to work with. The float model is quantized
    once; each damage level damages a copy and scores it with the record
    `prepare` makes, the float model's passes over each set made at the first
    level only. Returns the damaged model, the float val accuracy and the
    record its repairs share.
    """
    if not len(val):
        raise ValueError("cannot evaluate on an empty dataset")
    config = config or RepairConfig()
    target = fmodel.last_dense_index()
    undamaged, record = quantize_model(fmodel), None
    for level, child in zip(DAMAGE_LEVELS, seed_seq.spawn(len(DAMAGE_LEVELS))):
        qmodel = clone_quantized(undamaged)
        damage_layer(qmodel, target, np.random.default_rng(child), level)
        record = (prepare(fmodel, qmodel, repair_set, val, config) if record is None
                  else record.requantized(qmodel))
        acc_f = evaluate(record.validation.float_labels, val).accuracy
        gap, failing = acc_f - record.before.accuracy, int(record.comparison.failing.sum())
        if gap >= GAP_TARGET and failing >= 3:
            log.info("damage fraction %.2f: gap %.4f, %d failing repair tests",
                     level, gap, failing)
            return qmodel, acc_f, record
    raise RuntimeError("could not reach the required accuracy gap")


def load_mnist_idx(data_dir, spec: PresetSpec, rng: np.random.Generator) -> Dataset:
    """Read IDX image/label files (optionally gzipped) from a local directory."""
    data_dir = Path(data_dir or ".")

    def find(stem):
        for name in (stem, stem + ".gz"):
            p = data_dir / name
            if p.exists():
                return p
        raise DatasetError(f"missing {stem}[.gz] under {data_dir}")

    def read(stem, magic, ndim):
        """One IDX file's path, its dimensions and its uint8 payload."""
        path = find(stem)
        opener = gzip.open if path.suffix == ".gz" else open
        with opener(path, "rb") as fh:
            raw = fh.read()
        head = 4 + 4 * ndim
        if len(raw) < head or struct.unpack_from(">I", raw)[0] != magic:
            raise DatasetError(f"{path}: not an IDX file with magic {magic}")
        dims = struct.unpack_from(f">{ndim}I", raw, 4)
        expected = head + math.prod(dims)
        if len(raw) != expected:
            raise DatasetError(f"{path}: expected {expected} bytes, got {len(raw)}")
        return path, dims, np.frombuffer(raw, dtype=np.uint8, offset=head)

    img_path, (n, h, w), imgs = read("train-images-idx3-ubyte", 2051, 3)
    if h * w != spec.dim:
        raise DatasetError(f"{img_path}: {h}x{w} images, the preset takes {spec.dim} features")
    lbl_path, (n_lbl,), labels = read("train-labels-idx1-ubyte", 2049, 1)
    if n_lbl != n:
        raise DatasetError(f"{lbl_path}: {n_lbl} labels for {n} images")
    take = spec.n_train + spec.n_repair + spec.n_val
    if n < take:
        raise DatasetError(f"need {take} rows, IDX files hold {n}")
    idx = rng.permutation(n)[:take]
    return Dataset(imgs.reshape(n, h * w)[idx].astype(np.float32) / 255.0,
                   labels[idx], spec.num_classes)


def run_experiment(preset: str = "mlp-blobs", seed: int = 42, out_dir=None,
                   spec: PresetSpec | None = None, config: RepairConfig | None = None,
                   trials: int = 10, data_dir=None) -> dict:
    """Full train/quantize/damage/repair cycle; returns the comparison report."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {PRESETS}")
    seed = check_number("seed", seed, 0, integer=True)  # a seed below 0 has no SeedSequence
    trials = check_number("trials", trials, 1, integer=True)  # no trials: a NaN mean
    spec = spec or (MLP_BLOBS if preset == "mlp-blobs" else MNIST_MINI)
    config = config or RepairConfig()

    root = np.random.SeedSequence(seed)
    ss_data, ss_train, ss_damage, ss_random = root.spawn(4)

    if preset == "mlp-blobs":
        rng_data = np.random.default_rng(ss_data)
        total = make_blobs(rng_data, spec, spec.n_train + spec.n_repair + spec.n_val)
    else:
        total = load_mnist_idx(data_dir, spec, np.random.default_rng(ss_data))

    train = total.subset(range(spec.n_train))
    repair_set = total.subset(range(spec.n_train, spec.n_train + spec.n_repair))
    val = total.subset(range(spec.n_train + spec.n_repair, len(total)))

    fmodel = train_mlp(np.random.default_rng(ss_train), train, spec)
    # every repair below shares the search's record of these models, sets and
    # config: one comparison per set, the before-repair scores and each neuron's LP
    qmodel, acc_f, shared = damaged_quantized_model(fmodel, val, repair_set, ss_damage, config)
    acc_q = shared.before.accuracy

    strategies = {}
    reports = {}
    for metric in METRICS:
        _, rep = repair(fmodel, qmodel, repair_set, val, replace(config, metric=metric),
                        shared=shared)
        reports[metric] = rep
        d = rep.to_dict()
        strategies[metric] = {k: d[k] for k in ("accuracy_after", "fidelity_after", "counts")}
        log.info("metric %-10s accuracy %.4f -> %.4f", metric,
                 rep.accuracy_before, rep.accuracy_after)

    width = shared.comparison.weights.shape[1]  # the target layer's neurons
    rng_rand = np.random.default_rng(ss_random)
    rand_accs = []
    for _ in range(trials):
        order = rng_rand.permutation(width).tolist()
        _, rep = repair(fmodel, qmodel, repair_set, val, config, neuron_order=order,
                        shared=shared)
        rand_accs.append(rep.accuracy_after)
    strategies["random"] = {
        "accuracy_after": round6(float(np.mean(rand_accs))),
        "trials": int(trials),
    }

    best = max(METRICS, key=lambda m: (strategies[m]["accuracy_after"], -METRICS.index(m)))
    report = {
        "preset": preset,
        "seed": int(seed),
        "float_accuracy": round6(acc_f),
        "quantized_accuracy": round6(acc_q),
        "gap_points": round6(100.0 * (acc_f - acc_q)),
        "fidelity_before": round6(shared.before.fidelity),
        "n_repair": len(repair_set),
        "n_val": len(val),
        "strategies": strategies,
        "best_metric": best,
        "best_accuracy": strategies[best]["accuracy_after"],
    }

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_model(fmodel, out / "float_model.json")
        save_model(qmodel, out / "quantized_model.json")
        save_dataset(repair_set, out / "repair_set.bin")
        save_dataset(val, out / "validation_set.bin")
        for metric, rep in reports.items():
            (out / f"repair_{metric}.json").write_text(rep.to_json())
        (out / "comparison.csv").write_text(comparison_csv(report))
        (out / "experiment_report.json").write_text(
            json.dumps(report, indent=2) + "\n"
        )
    return report


def comparison_csv(report: dict) -> str:
    lines = ["strategy,accuracy_after,delta_vs_quantized"]
    base = report["quantized_accuracy"]
    for name, entry in report["strategies"].items():
        acc = entry["accuracy_after"]
        lines.append(f"{name},{acc:.6g},{acc - base:+.6g}")
    return "\n".join(lines) + "\n"


def comparison_table(report: dict) -> str:
    rows = [
        f"preset {report['preset']}  seed {report['seed']}",
        f"float accuracy     {report['float_accuracy']:.4f}",
        f"quantized accuracy {report['quantized_accuracy']:.4f}"
        f"  (gap {report['gap_points']:.2f} points)",
        f"{'strategy':<12} {'repaired acc':>12} {'vs quantized':>13}",
    ]
    base = report["quantized_accuracy"]
    for name, entry in report["strategies"].items():
        acc = entry["accuracy_after"]
        rows.append(f"{name:<12} {acc:>12.4f} {acc - base:>+13.4f}")
    rows.append(f"best: {report['best_metric']} at {report['best_accuracy']:.4f}")
    return "\n".join(rows) + "\n"
