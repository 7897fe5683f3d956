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
         "repair_ample.json": "d6ee7fc1064c94b7b1452b2add2484e7f72cf05b0640827a3b13162e8f81e859",
         "repair_dstar.json": "ced60b245fc332c371a214d50b0de0fab6f20ed2181602671658cb24d038eac5",
         "repair_euclid.json": "f658eb4eaebb503035bd606c2f9bd6cd4cb69248ef54cd5dd4a27b3c28b761b8",
         "repair_jaccard.json": "8bdc428550ea3f6fece9c49bf71d32a5f2f20ca775cf61c14c0729a5bbb15c9b",
         "repair_ochiai.json": "a79a2fdef1077c8770d58e3ca669b3803d0429c1affc94568d1935ff82a041f3",
         "repair_tarantula.json": "61417da2dde3708636fe855bb55217edbcbdd9114ac75f507ca4a4eec45427a1",
         "repair_wong3.json": "7d92d135706fcf4f59475aff7e84fcef12742a434c32e39a9a433ec8179ac0ee"},
    7: {"float_model.json": "8696a07b3ac2fe831a5e7b9486a165afa3519f395e25388e84dea8d71dc30e52",
        "quantized_model.json": "68c107bafce3c7a00357748c6a4c1a14143a28d592bcb99996ab7b454043e527",
        "repair_ample.json": "152c565769d31ed2622241813b3a5ceb23f56b39abe7f9eaf451aca233a4b6ed",
        "repair_dstar.json": "70ea46f314fbb33373fc29b45d2c3942133d084c8228a8afef10c3ba60473b8b",
        "repair_euclid.json": "8747e83180a855a2bf526c6f87ee9709e1e96d0d851920032925eb08ab08adb8",
        "repair_jaccard.json": "7c452cb4dd4a720583a217fc97f5b7236e754bf30f7303f714fb15a1734d0fa8",
        "repair_ochiai.json": "e5740affe620091619e0f107b36466f5c24355ba2457740fc90160f7dbbe5947",
        "repair_tarantula.json": "eaa135bf353dd9ef005638cfb54ed8e91b6b5d30a8da25777fdb087ba5f746dc",
        "repair_wong3.json": "9314af370af77444212599aa5d6306aca0525010cc89d4b17dfd097683407264"},
}


REPORT_SHA256 = {  # the default experiment's report bytes
    42: "37c5f913c3568e762365fb1c99e217c35062dda90d49747494b468899c640afc",
    7: "59ecea1fb8a6865f349614d1ba7be5bd49bdabeddd42bcd0f77bc1516fcf155f",
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
