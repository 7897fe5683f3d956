import copy
import gzip
import hashlib
import json
import re
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest

import qrepair.model as model_mod
from qrepair import experiment
from qrepair.experiment import (
    DAMAGE_LEVELS,
    GAP_TARGET,
    MLP_BLOBS,
    PresetSpec,
    comparison_csv,
    damage_layer,
    damaged_quantized_model,
    load_mnist_idx,
    make_blobs,
    run_experiment,
    train_mlp,
)
from qrepair.cli import cli_main
from qrepair.data import Dataset, DatasetError, load_dataset
from qrepair.evaluate import accuracy, predict
from qrepair.localize import METRICS
from qrepair.quantize import clone_quantized, quantize_model
from qrepair.repair import RepairConfig

from oracles import loop_train_mlp

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


def _blobs_train_set(seed, spec):
    # the data and training streams run_experiment draws from for this seed
    ss_data, ss_train, _, _ = np.random.SeedSequence(seed).spawn(4)
    total = make_blobs(np.random.default_rng(ss_data), spec,
                       spec.n_train + spec.n_repair + spec.n_val)
    return total.subset(range(spec.n_train)), ss_train


def _random_train_set(seed, spec):
    rng = np.random.default_rng(seed)
    feats = rng.random((spec.n_train, spec.dim), dtype=np.float32)
    labels = rng.integers(0, spec.num_classes, size=spec.n_train)
    return Dataset(feats, labels, spec.num_classes), np.random.SeedSequence(seed + 1)


@pytest.mark.parametrize("make,seed,spec", [
    (_blobs_train_set, 42, MLP_BLOBS),
    (_blobs_train_set, 7, MLP_BLOBS),
    (_blobs_train_set, 3, MLP_BLOBS),
    (_blobs_train_set, 5, TINY),  # 200 rows: a last batch of 8
    (_blobs_train_set, 6, replace(TINY, batch=500)),  # one batch larger than n
    (_random_train_set, 9, PresetSpec(dim=49, num_classes=10, hidden=16, n_train=150,
                                      n_repair=1, n_val=1, epochs=2, lr=0.1, batch=64)),
    # shapes where BLAS may take a matrix-vector path: a one-row last batch,
    # one-row batches throughout, and one input, one hidden unit, two classes
    (_blobs_train_set, 11, replace(TINY, n_train=97, batch=32)),
    (_blobs_train_set, 12, replace(TINY, n_train=40, epochs=3, batch=1)),
    (_random_train_set, 13, replace(TINY, dim=1, hidden=1, num_classes=2)),
    # a schedule built but never run, and one with no short last batch
    (_blobs_train_set, 14, replace(TINY, epochs=0)),
    (_blobs_train_set, 15, replace(TINY, n_train=96, batch=32)),
], ids=["blobs42", "blobs7", "blobs3", "ragged", "batch_over_n", "ten_class", "last_row",
        "batch_one", "one_by_one", "no_epochs", "even_batches"])
def test_train_mlp_bit_identical_to_loop_oracle(monkeypatch, make, seed, spec):
    # the float64 parameter vector is caught where train_mlp splits it into
    # views: a last-bit drift there rarely shows in the float32 weights
    flats, real_split = [], experiment._split
    monkeypatch.setattr(experiment, "_split",
                        lambda flat, *dims: flats.append(flat) or real_split(flat, *dims))
    train, ss_train = make(seed, spec)
    features = train.features.tobytes()
    model = train_mlp(np.random.default_rng(ss_train), train, spec)
    assert train.features.tobytes() == features  # the epoch gathers write to their own buffers
    want = loop_train_mlp(np.random.default_rng(ss_train), train, spec)
    got = [model.layers[0].weights, model.layers[0].bias,
           model.layers[2].weights, model.layers[2].bias]
    for tensor, ref in zip(got, want):
        assert tensor.array().tobytes() == ref.astype(np.float32).tobytes()
    assert flats[0].tobytes() == np.concatenate([r.ravel() for r in want]).tobytes()


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
    for name in ("float_model.json", "quantized_model.json", "repair_set.bin",
                 "validation_set.bin", "comparison.csv", "experiment_report.json",
                 "repair_tarantula.json", "repair_euclid.json"):
        assert (out / name).exists(), name
    assert not list(out.glob("*_set.csv"))


def test_written_sets_load_bit_identical_to_the_sets_used(tiny_report):
    # the sets run_experiment draws for this seed, rebuilt from its data stream
    _, out = tiny_report
    ss_data = np.random.SeedSequence(7).spawn(4)[0]
    total = make_blobs(np.random.default_rng(ss_data), TINY,
                       TINY.n_train + TINY.n_repair + TINY.n_val)
    n = TINY.n_train + TINY.n_repair
    for name, rows in (("repair_set.bin", range(TINY.n_train, n)),
                       ("validation_set.bin", range(n, len(total)))):
        used, got = total.subset(rows), load_dataset(out / name)
        assert got.features.dtype == used.features.dtype == np.float32
        assert got.features.tobytes() == used.features.tobytes(), name
        assert got.labels.dtype == used.labels.dtype
        assert got.labels.tobytes() == used.labels.tobytes(), name
        assert got.num_classes == used.num_classes == TINY.num_classes


def test_cli_repair_on_the_written_files_rewrites_the_experiment_report(tmp_path):
    exp = tmp_path / "experiment"
    assert cli_main(["experiment", "--preset", "mlp-blobs", "--seed", "42", "--trials", "1",
                     "--out", str(exp)]) == 0
    assert cli_main(["repair", "--float", str(exp / "float_model.json"),
                     "--quant", str(exp / "quantized_model.json"),
                     "--repair-set", str(exp / "repair_set.bin"),
                     "--val", str(exp / "validation_set.bin"), "--metric", "tarantula",
                     "--out", str(tmp_path / "repair")]) == 0
    assert (tmp_path / "repair" / "repair_report.json").read_bytes() == \
        (exp / "repair_tarantula.json").read_bytes()


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


IDX_SPEC = PresetSpec(dim=16, num_classes=10, hidden=4, n_train=20, n_repair=10,
                      n_val=10, epochs=1, lr=0.1, batch=8)


def _write_idx(tmp_path, n=40, h=4, w=4, n_lbl=None, img_extra=0, lbl_extra=0):
    """Plain IDX files whose headers say n images of h x w and n_lbl labels,
    with payloads `extra` bytes longer (or, when negative, shorter)."""
    n_lbl = n if n_lbl is None else n_lbl
    imgs = bytes(n * h * w + img_extra)
    lbls = bytes(n_lbl + lbl_extra)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(struct.pack(">IIII", 2051, n, h, w) + imgs)
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(struct.pack(">II", 2049, n_lbl) + lbls)


@pytest.mark.parametrize("kwargs,stem,message", [
    ({"img_extra": -5}, "images", "expected 656 bytes, got 651"),
    ({"img_extra": 3}, "images", "expected 656 bytes, got 659"),
    ({"lbl_extra": -3}, "labels", "expected 48 bytes, got 45"),
    ({"lbl_extra": 2}, "labels", "expected 48 bytes, got 50"),
    ({"n_lbl": 37}, "labels", "37 labels for 40 images"),
    ({"h": 5, "w": 5}, "images", "5x5 images, the preset takes 16 features"),
], ids=["short_images", "long_images", "short_labels", "long_labels", "label_count",
        "image_size"])
def test_mnist_loader_rejects_a_malformed_idx_file(tmp_path, kwargs, stem, message):
    _write_idx(tmp_path, **kwargs)
    with pytest.raises(DatasetError, match=message) as err:
        load_mnist_idx(tmp_path, IDX_SPEC, np.random.default_rng(1))
    assert f"train-{stem}-idx" in str(err.value)


def test_mnist_loader_rejects_a_bad_magic(tmp_path):
    _write_idx(tmp_path)
    path = tmp_path / "train-labels-idx1-ubyte"
    path.write_bytes(struct.pack(">I", 2051) + path.read_bytes()[4:])
    with pytest.raises(DatasetError, match="train-labels-idx1-ubyte: not an IDX file"):
        load_mnist_idx(tmp_path, IDX_SPEC, np.random.default_rng(1))


def test_mnist_loader_checks_labels_against_the_preset_classes(tmp_path):
    # a 3-class preset used to take the 10-class labels and fail inside training
    _write_idx(tmp_path)
    path = tmp_path / "train-labels-idx1-ubyte"
    path.write_bytes(path.read_bytes()[:-1] + bytes([9]))
    with pytest.raises(DatasetError, match="label 9 out of range for 3 classes"):
        load_mnist_idx(tmp_path, replace(IDX_SPEC, num_classes=3), np.random.default_rng(1))


@pytest.mark.parametrize("field,value", [
    ("batch", 0), ("epochs", -1), ("hidden", 0), ("dim", 0), ("n_train", 0),
    ("n_repair", 0), ("n_val", 0), ("num_classes", 1), ("lr", 0.0), ("lr", -0.1),
    ("lr", float("nan")), ("lr", float("inf")), ("lr", True), ("lr", "0.1"),
    ("lr", np.bool_(True)),
])
def test_preset_spec_rejects_a_bad_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must"):
        replace(TINY, **{field: value})


@pytest.mark.parametrize("field,value", [
    ("dim", 2.5), ("epochs", 2.5), ("n_train", 300.0), ("batch", True), ("hidden", True),
    ("num_classes", "3"), ("n_repair", None), ("n_val", np.float64(10)),
    ("batch", np.bool_(True)),
])
def test_preset_spec_rejects_an_integer_field_that_is_not_an_integer(field, value):
    message = f"{field} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(TINY, **{field: value})


def test_preset_spec_takes_numpy_integers():
    assert replace(TINY, hidden=np.int64(5), batch=np.int32(16)).hidden == 5


@pytest.mark.parametrize("kwargs,message", [
    ({"trials": True}, "trials must be an integer, got True"),
    ({"trials": 2.0}, "trials must be an integer, got 2.0"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": 7.5}, "seed must be an integer, got 7.5"),
    ({"seed": "7"}, "seed must be an integer, got '7'"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"trials": np.bool_(True)}, f"trials must be an integer, got {np.bool_(True)!r}"),
])
def test_experiment_rejects_a_seed_or_trials_that_is_not_a_valid_integer(tmp_path, kwargs,
                                                                          message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_experiment(preset="mlp-blobs", spec=TINY, out_dir=tmp_path,
                       **{"seed": 7, "trials": 2, **kwargs})
    assert not list(tmp_path.iterdir())


def test_experiment_takes_numpy_integer_seed_and_trials():
    report = run_experiment(preset="mlp-blobs", seed=np.int64(7), spec=TINY,
                            trials=np.int32(2))
    assert (type(report["seed"]), type(report["strategies"]["random"]["trials"])) == (int, int)
    json.dumps(report)


def test_preset_spec_allows_zero_epochs():
    assert replace(TINY, epochs=0).epochs == 0


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


@pytest.mark.parametrize("seed", [42, 7, 11])
def test_experiment_runs_each_model_over_each_set_once(monkeypatch, seed):
    # the damage search runs the float model once over the repair and the
    # validation set and each damaged model once over each (seed 11 damages
    # at two rungs), and the 17 repairs share its accepted rung's record: each
    # then runs validation rows from the target layer
    rungs = {42: 1, 7: 1, 11: 2}[seed]
    real = model_mod.forward_batch
    calls = []

    def counting(model, inputs, capture=(), input_of=None, start=0):
        calls.append((model, inputs, start))
        return real(model, inputs, capture, input_of, start)

    for name, module in list(sys.modules.items()):
        if name.startswith("qrepair") and getattr(module, "forward_batch", None) is real:
            monkeypatch.setattr(module, "forward_batch", counting)
    run_experiment(preset="mlp-blobs", seed=seed)
    full = [(id(model), id(inputs)) for model, inputs, start in calls if start == 0]
    assert len(full) == len(set(full)) == 2 + 2 * rungs
    assert len({m for m, _ in full}) == 1 + rungs and len({x for _, x in full}) == 2
    assert [start for _, _, start in calls[len(full):]] == [2] * (len(METRICS) + 10)


def _old_damage_search(fmodel, val, repair_set, seed_seq):
    """The damage search as it scored each rung before it used `prepare`:
    float and quantized labels from full passes through `predict`."""
    acc_f = accuracy(fmodel, val).accuracy
    float_labels = predict(fmodel, repair_set)
    undamaged = quantize_model(fmodel)
    for level, child in zip(DAMAGE_LEVELS, seed_seq.spawn(len(DAMAGE_LEVELS))):
        qmodel = clone_quantized(undamaged)
        damage_layer(qmodel, fmodel.last_dense_index(), np.random.default_rng(child), level)
        acc_q = accuracy(qmodel, val).accuracy
        failing = int(np.sum(predict(qmodel, repair_set) != float_labels))
        if acc_f - acc_q >= GAP_TARGET and failing >= 3:
            return qmodel, acc_f, acc_q, failing
    raise RuntimeError("could not reach the required accuracy gap")


def _blobs_parts(seed, spec=MLP_BLOBS):
    """The models, sets and damage stream run_experiment uses for this seed."""
    ss_data, ss_train, ss_damage, _ = np.random.SeedSequence(seed).spawn(4)
    n = spec.n_train + spec.n_repair + spec.n_val
    total = make_blobs(np.random.default_rng(ss_data), spec, n)
    fmodel = train_mlp(np.random.default_rng(ss_train), total.subset(range(spec.n_train)), spec)
    repair_set = total.subset(range(spec.n_train, spec.n_train + spec.n_repair))
    return fmodel, total.subset(range(spec.n_train + spec.n_repair, n)), repair_set, ss_damage


NINETEEN_SEEDS = (42, 7, 1, 2, 3, 4, 5, *range(8, 16), *range(17, 21))


@pytest.mark.parametrize("seed", NINETEEN_SEEDS)
def test_damage_search_scores_each_rung_as_full_passes_do(seed):
    fmodel, val, repair_set, ss_damage = _blobs_parts(seed)
    want_q, want_f, want_acc_q, want_failing = _old_damage_search(
        fmodel, val, repair_set, copy.deepcopy(ss_damage))
    qmodel, acc_f, record = damaged_quantized_model(fmodel, val, repair_set, ss_damage)
    assert (acc_f, record.before.accuracy, int(record.comparison.failing.sum())) == \
        (want_f, want_acc_q, want_failing)
    target = fmodel.last_dense_index()
    assert qmodel.layers[target].qweights.data.tobytes() == \
        want_q.layers[target].qweights.data.tobytes()
    assert all(a is b for a, b in zip(record.made_from, (fmodel, qmodel, repair_set, val)))


def test_damage_search_rejects_an_empty_validation_set():
    fmodel, val, repair_set, ss_damage = _blobs_parts(42, TINY)
    with pytest.raises(ValueError, match="empty dataset"):
        damaged_quantized_model(fmodel, val.subset([]), repair_set, ss_damage)
