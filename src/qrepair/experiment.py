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
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, DatasetError, save_dataset
from .evaluate import accuracy, predict
from .localize import METRICS
from .model import Layer, Model, Tensor, save_model
from .quantize import (
    QuantizedModel,
    QuantizedTensor,
    quantize_model,
    save_qmodel,
)
from .repair import RepairConfig, prepare, repair, round6

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
    """Two-layer ReLU MLP trained with plain minibatch SGD on softmax CE."""
    d, h, c = spec.dim, spec.hidden, spec.num_classes
    w1 = rng.normal(0.0, np.sqrt(2.0 / d), size=(d, h))
    b1 = np.zeros(h)
    w2 = rng.normal(0.0, np.sqrt(2.0 / h), size=(h, c))
    b2 = np.zeros(c)
    x_all = train.features.astype(np.float64)
    y_all = train.labels
    n = len(train)
    for _ in range(spec.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, spec.batch):
            idx = perm[start : start + spec.batch]
            x, y = x_all[idx], y_all[idx]
            z1 = x @ w1 + b1
            a1 = np.maximum(z1, 0)
            z2 = a1 @ w2 + b2
            z2 -= z2.max(axis=1, keepdims=True)
            p = np.exp(z2)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(len(y)), y] -= 1.0
            p /= len(y)
            dw2 = a1.T @ p
            db2 = p.sum(axis=0)
            da1 = p @ w2.T
            da1[z1 <= 0] = 0.0
            dw1 = x.T @ da1
            db1 = da1.sum(axis=0)
            w1 -= spec.lr * dw1
            b1 -= spec.lr * db1
            w2 -= spec.lr * dw2
            b2 -= spec.lr * db2
    layers = [
        Layer("dense", Tensor.from_array(w1.astype(np.float32)),
              Tensor.from_array(b1.astype(np.float32))),
        Layer("relu"),
        Layer("dense", Tensor.from_array(w2.astype(np.float32)),
              Tensor.from_array(b2.astype(np.float32))),
    ]
    return Model(layers, (d,), c)


def damage_layer(qmodel: QuantizedModel, layer_index: int,
                 rng: np.random.Generator, flip_fraction: float) -> None:
    """Flip the sign of a random fraction of one layer's int8 codes."""
    layer = qmodel.layers[layer_index]
    codes = layer.qweights.data.astype(np.int32)
    if flip_fraction >= 1.0:
        mask = np.ones(codes.shape, dtype=bool)
    else:
        mask = rng.random(codes.shape) < flip_fraction
    damaged = np.where(mask, -codes, codes).astype(np.int8)
    layer.set_codes(QuantizedTensor(layer.qweights.shape, damaged, layer.qweights.scale))


def damaged_quantized_model(fmodel: Model, val: Dataset, repair_set: Dataset,
                            seed_seq: np.random.SeedSequence
                            ) -> tuple[QuantizedModel, float, float]:
    """Quantize and perturb until the float-vs-quantized val gap is >= 2 points.

    Also requires a handful of failing tests in the repair set, so the
    localization stage has evidence to work with. The float model runs once
    over each set; each damage level runs only the damaged quantized model.
    """
    target = fmodel.last_dense_index()
    acc_f = accuracy(fmodel, val).accuracy
    float_repair_labels = predict(fmodel, repair_set)
    for level, child in zip(DAMAGE_LEVELS, seed_seq.spawn(len(DAMAGE_LEVELS))):
        qmodel = quantize_model(fmodel)
        damage_layer(qmodel, target, np.random.default_rng(child), level)
        acc_q = accuracy(qmodel, val).accuracy
        failing = int(np.sum(predict(qmodel, repair_set) != float_repair_labels))
        if acc_f - acc_q >= GAP_TARGET and failing >= 3:
            log.info("damage fraction %.2f: gap %.4f, %d failing repair tests",
                     level, acc_f - acc_q, failing)
            return qmodel, acc_f, acc_q
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

    def read(path):
        opener = gzip.open if path.suffix == ".gz" else open
        with opener(path, "rb") as fh:
            return fh.read()

    img_raw = read(find("train-images-idx3-ubyte"))
    lbl_raw = read(find("train-labels-idx1-ubyte"))
    magic, n, h, w = struct.unpack_from(">IIII", img_raw, 0)
    if magic != 2051:
        raise DatasetError("bad IDX image magic")
    imgs = np.frombuffer(img_raw, dtype=np.uint8, offset=16).reshape(n, h * w)
    magic, n_lbl = struct.unpack_from(">II", lbl_raw, 0)
    if magic != 2049 or n_lbl != n:
        raise DatasetError("bad IDX label file")
    labels = np.frombuffer(lbl_raw, dtype=np.uint8, offset=8).astype(np.int64)
    take = spec.n_train + spec.n_repair + spec.n_val
    if n < take:
        raise DatasetError(f"need {take} rows, IDX files hold {n}")
    idx = rng.permutation(n)[:take]
    return Dataset(imgs[idx].astype(np.float32) / 255.0, labels[idx], 10)


def run_experiment(preset: str = "mlp-blobs", seed: int = 42, out_dir=None,
                   spec: PresetSpec | None = None, config: RepairConfig | None = None,
                   trials: int = 10, data_dir=None) -> dict:
    """Full train/quantize/damage/repair cycle; returns the comparison report."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {PRESETS}")
    if trials < 1:  # the random baseline's mean would be NaN
        raise ValueError(f"trials must be >= 1, got {trials}")
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
    qmodel, acc_f, acc_q = damaged_quantized_model(fmodel, val, repair_set, ss_damage)
    # every repair below starts from the same models, sets and config, so they
    # share one comparison, one before-repair evaluation and each neuron's LP
    shared = prepare(fmodel, qmodel, repair_set, val, config)

    strategies = {}
    reports = {}
    for metric in METRICS:
        cfg = RepairConfig(**{**config.__dict__, "metric": metric})
        _, rep = repair(fmodel, qmodel, repair_set, val, cfg, shared=shared)
        reports[metric] = rep
        strategies[metric] = {
            "accuracy_after": round6(rep.accuracy_after),
            "fidelity_after": round6(rep.fidelity_after),
            "counts": rep.counts(),
        }
        log.info("metric %-10s accuracy %.4f -> %.4f", metric,
                 rep.accuracy_before, rep.accuracy_after)

    width = shared.comparison.weights.shape[1]  # the target layer's neurons
    rng_rand = np.random.default_rng(ss_random)
    rand_accs = []
    for _ in range(trials):
        order = [int(v) for v in rng_rand.permutation(width)]
        _, rep = repair(fmodel, qmodel, repair_set, val, config, neuron_order=order,
                        shared=shared)
        rand_accs.append(rep.accuracy_after)
    strategies["random"] = {
        "accuracy_after": round6(float(np.mean(rand_accs))),
        "trials": trials,
    }

    best = max(METRICS, key=lambda m: (strategies[m]["accuracy_after"], -METRICS.index(m)))
    report = {
        "preset": preset,
        "seed": seed,
        "float_accuracy": round6(acc_f),
        "quantized_accuracy": round6(acc_q),
        "gap_points": round6(100.0 * (acc_f - acc_q)),
        "fidelity_before": round6(shared.fidelity_before),
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
        save_qmodel(qmodel, out / "quantized_model.json")
        save_dataset(repair_set, out / "repair_set.csv")
        save_dataset(val, out / "validation_set.csv")
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
