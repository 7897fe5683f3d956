import gzip
import hashlib
import json
import struct

import numpy as np
import pytest

from qrepair import experiment
from qrepair.experiment import (
    GAP_TARGET,
    PresetSpec,
    comparison_csv,
    load_mnist_idx,
    make_blobs,
    run_experiment,
    train_mlp,
)
from qrepair.data import DatasetError
from qrepair.evaluate import accuracy
from qrepair.repair import RepairConfig

TINY = PresetSpec(dim=10, num_classes=3, hidden=12, n_train=200, n_repair=100,
                  n_val=100, epochs=20, lr=0.15, batch=32)


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    report = run_experiment(preset="mlp-blobs", seed=7, spec=TINY, trials=2,
                            out_dir=out)
    return report, out


def test_training_reaches_useful_accuracy():
    rng = np.random.default_rng(np.random.SeedSequence(3))
    ds = make_blobs(rng, TINY, 300)
    model = train_mlp(np.random.default_rng(np.random.SeedSequence(4)), ds, TINY)
    assert accuracy(model, ds).accuracy >= 0.9


def test_gap_guarantee(tiny_report):
    report, _ = tiny_report
    assert report["gap_points"] >= 100 * GAP_TARGET
    assert report["float_accuracy"] > report["quantized_accuracy"]


def test_best_metric_improves(tiny_report):
    report, _ = tiny_report
    assert report["best_accuracy"] >= report["quantized_accuracy"]
    assert report["best_metric"] in report["strategies"]


def test_all_strategies_present(tiny_report):
    report, _ = tiny_report
    from qrepair.localize import METRICS

    assert set(report["strategies"]) == set(METRICS) | {"random"}
    assert report["strategies"]["random"]["trials"] == 2


def test_artifacts_written(tiny_report):
    _, out = tiny_report
    for name in ("float_model.json", "quantized_model.json", "repair_set.csv",
                 "validation_set.csv", "comparison.csv", "experiment_report.json",
                 "repair_tarantula.json", "repair_euclid.json"):
        assert (out / name).exists(), name


def test_comparison_csv_shape(tiny_report):
    report, out = tiny_report
    text = (out / "comparison.csv").read_text()
    assert text == comparison_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "strategy,accuracy_after,delta_vs_quantized"
    assert len(lines) == 1 + 8  # 7 metrics + random


def test_seeded_run_is_byte_deterministic(tmp_path):
    a = run_experiment(preset="mlp-blobs", seed=11, spec=TINY, trials=2,
                       out_dir=tmp_path / "a")
    b = run_experiment(preset="mlp-blobs", seed=11, spec=TINY, trials=2,
                       out_dir=tmp_path / "b")
    assert json.dumps(a) == json.dumps(b)
    assert (tmp_path / "a" / "experiment_report.json").read_bytes() == \
        (tmp_path / "b" / "experiment_report.json").read_bytes()


MODEL_FILE_SHA256 = {  # the model files and per-metric repair reports of the default experiment
    42: {"float_model.json": "9afa3cbec844ff76b509711e65ae75b580cb45cdad1b04af4f1807e9d1137974",
         "quantized_model.json": "1f3068d3bd639f381b4cb1e2d64e2f011dbd6da8c4b69e22b23e574941825cf4",
         "repair_ample.json": "71022f3c140e4495a6623bf2520e98b545bef568bf9e404795e6aadad00f1af7",
         "repair_dstar.json": "223120d7e7153aa0a079c7eb3ac5fbf23ecc1ef188eca99900dc450c392b5dd3",
         "repair_euclid.json": "b87af14c3bf80cb95456782beacd892a1ac9baab5a9e90cad2d2633689146b2f",
         "repair_jaccard.json": "d7e5516162d398401f1840717dcaaf5be26d5b13ce44d11b9d8c32f8d4c3b73e",
         "repair_ochiai.json": "a0bbdf0f947159e4f836f6851a4189a47c79418ad44e5a32555619834f6118a1",
         "repair_tarantula.json": "81dd57a9ff2ca95099a7a5e24a0a9f1ca8f9f28f6868d171635cb8a4deae1c6f",
         "repair_wong3.json": "a139fc0d36cc24fdd23541051b23b4dbb64bc917459a6aa5b91250162c6807e1"},
    7: {"float_model.json": "8696a07b3ac2fe831a5e7b9486a165afa3519f395e25388e84dea8d71dc30e52",
        "quantized_model.json": "68c107bafce3c7a00357748c6a4c1a14143a28d592bcb99996ab7b454043e527",
        "repair_ample.json": "8d9b7d5b70cb7c2194575280440a8889c78b1eccbc34dfec7112e07c5c28eb6c",
        "repair_dstar.json": "53638c9ec1ce355dab7b7c8c0f4c8d29bc9d3b0f4c7bb9ae9c94d6ec19c56e0e",
        "repair_euclid.json": "151faca2d937f880a8b0bddc02465e0f4cfc7919141994e24c417f4be474433c",
        "repair_jaccard.json": "e3de4d818e787a0b203a808096796fbeea4bd9904e130732ae1d0ca475f9da2f",
        "repair_ochiai.json": "13909e65864f213706017935c55b2ee28e67fe7a089bfeb3b8f6eb61887a6911",
        "repair_tarantula.json": "2c9a7789bcd1e28ed042451573ed278da3f62dbf64e0ed09c6eaff161a01673f",
        "repair_wong3.json": "08f9dbbc04a8351b215ed62ffe4b7a36718168c15c89d5769662edc2cc9f8a6c"},
}


REPORT_SHA256 = {  # the default experiment's report bytes
    42: "ed81087c5b91c98bbe15853c929774549569e3b4fb6a633a02c34dbf1a8647ec",
    7: "fcdefaaff4a55f82f4f31212ada8cb4bc2b17da7b56594138544183dd3bf5636",
}


@pytest.mark.parametrize("seed", sorted(REPORT_SHA256, reverse=True))
def test_default_experiment_report_fingerprint(tmp_path, seed):
    # the default experiment's report, model-file and repair-report bytes; a change that
    # moves them must be deliberate and explained, never a side effect of a
    # refactor
    run_experiment(preset="mlp-blobs", seed=seed, out_dir=tmp_path)
    files = {"experiment_report.json": REPORT_SHA256[seed], **MODEL_FILE_SHA256[seed]}
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in files}
    assert got == files


def test_unknown_preset():
    with pytest.raises(ValueError):
        run_experiment(preset="nope")


def test_mnist_loader_missing_files(tmp_path):
    with pytest.raises(DatasetError):
        load_mnist_idx(tmp_path, TINY, np.random.default_rng(0))


def test_mnist_loader_reads_idx(tmp_path):
    # tiny synthetic IDX pair, gzipped, 40 images of 4x4
    n, h, w = 40, 4, 4
    rng = np.random.default_rng(5)
    imgs = rng.integers(0, 256, size=(n, h, w), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    with gzip.open(tmp_path / "train-images-idx3-ubyte.gz", "wb") as fh:
        fh.write(struct.pack(">IIII", 2051, n, h, w) + imgs.tobytes())
    with gzip.open(tmp_path / "train-labels-idx1-ubyte.gz", "wb") as fh:
        fh.write(struct.pack(">II", 2049, n) + labels.tobytes())
    spec = PresetSpec(dim=16, num_classes=10, hidden=4, n_train=20, n_repair=10,
                      n_val=10, epochs=1, lr=0.1, batch=8)
    ds = load_mnist_idx(tmp_path, spec, np.random.default_rng(1))
    assert len(ds) == 40
    assert ds.features.shape == (40, 16)
    assert ds.features.max() <= 1.0


def test_random_baseline_draws_neurons_of_the_target_layer(monkeypatch):
    # the damage stays in the last layer; a repair of the 24-wide hidden
    # layer must draw its random neurons from all 24, not from the 3 outputs
    orders, real_repair = [], experiment.repair

    def spy(*args, neuron_order=None, **kwargs):
        if neuron_order is not None:
            orders.append(neuron_order)
        return real_repair(*args, neuron_order=neuron_order, **kwargs)

    monkeypatch.setattr(experiment, "repair", spy)
    run_experiment(preset="mlp-blobs", seed=42, config=RepairConfig(target_layer=0, top_n=3))
    assert len(orders) == 10
    assert all(sorted(order) == list(range(24)) for order in orders)
    assert {n for order in orders for n in order[:3]} - {0, 1, 2}


@pytest.mark.parametrize("trials", [0, -1])
def test_experiment_rejects_fewer_than_one_trial(tmp_path, trials):
    with pytest.raises(ValueError, match="trials"):
        run_experiment(preset="mlp-blobs", seed=7, spec=TINY, trials=trials, out_dir=tmp_path)
    assert not list(tmp_path.iterdir())


def test_every_written_json_file_is_strict_json(tiny_report):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    _, out = tiny_report
    names = sorted(p.name for p in out.glob("*.json"))
    assert "experiment_report.json" in names and "repair_dstar.json" in names
    for name in names:
        json.loads((out / name).read_text(), parse_constant=reject)
