import csv
import hashlib
import inspect
import json
import logging
import math
import shlex
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURES, make_desk_parts
from qrepair import cli
from qrepair.cli import build_parser, cli_main
from qrepair.data import Dataset, load_dataset, save_dataset
from qrepair.experiment import PresetSpec
from qrepair.model import ModelFormatError, ShapeMismatchError, load_model, save_model
from qrepair.quantize import load_qmodel, save_qmodel

SPEC = PresetSpec(dim=8, num_classes=3, hidden=10, n_train=200, n_repair=80,
                  n_val=80, epochs=20, lr=0.15, batch=32)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    fmodel, qmodel, repair_set, val = make_desk_parts(SPEC, seed=777)
    save_model(fmodel, root / "float.json")
    save_qmodel(qmodel, root / "quant.json")
    save_dataset(repair_set, root / "repair.csv")
    save_dataset(val, root / "val.csv")
    return root


def test_usage_errors():
    assert cli_main([]) == 64
    assert cli_main(["frobnicate"]) == 64
    assert cli_main(["repair", "--bogus-flag"]) == 64
    assert cli_main(["quantize"]) == 64  # missing required args


def _parsed(parser, argv, capsys):
    """What parsing `argv` prints and raises: help text and exit code, or the usage error."""
    capsys.readouterr()
    try:
        options = vars(parser.parse_args(argv))
    except SystemExit as stop:
        return "exit", stop.code, capsys.readouterr()
    except cli._UsageError as e:
        return "usage error", str(e), capsys.readouterr()
    return "parsed", options["command"], capsys.readouterr()


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["frobnicate"], ["--bogus"], ["repair", "--bogus"],
    *([command, "--help"] for command in cli.COMMANDS),
    *([command] for command in cli.COMMANDS),  # a required flag left out
    ["repair", "--float", "f", "--quant", "q", "--repair-set", "r", "--val", "v"],
    ["repair", "--float", "f", "--quant", "q", "--repair-set", "r", "--val", "v", "--out", "o"],
], ids=lambda argv: " ".join(argv) or "no_argv")
def test_a_parser_for_the_named_command_alone_reads_like_the_whole_one(argv, capsys):
    assert _parsed(build_parser(argv), argv, capsys) == _parsed(build_parser(), argv, capsys)


def test_a_named_command_gets_its_parser_alone():
    assert build_parser(["repair", "--help"]).format_usage() == \
        "usage: qrepair [-h] {repair} ...\n"
    whole = "usage: qrepair [-h] {quantize,eval,localize,repair,experiment} ...\n"
    for argv in ([], ["--help"], ["frobnicate"], ["-h", "repair"]):
        assert build_parser(argv).format_usage() == whole


def test_runtime_error_missing_file(tmp_path):
    assert cli_main(["quantize", "--model", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "q.json")]) == 1


def test_quantize_roundtrip(artifacts, tmp_path):
    out = tmp_path / "q.json"
    code = cli_main(["quantize", "--model", str(artifacts / "float.json"),
                     "--out", str(out)])
    assert code == 0
    qm = load_qmodel(out)
    assert qm.num_classes == SPEC.num_classes


def test_quantize_writes_the_committed_quantized_conv3_fixture(tmp_path):
    out = tmp_path / "q.json"
    assert cli_main(["quantize", "--model", str(FIXTURES / "conv3.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / "conv3_quant.json").read_bytes()


def test_eval_subcommand(artifacts, tmp_path, capsys):
    out = tmp_path / "eval.json"
    code = cli_main(["eval", "--model", str(artifacts / "float.json"),
                     "--data", str(artifacts / "val.csv"), "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == SPEC.n_val
    assert 0.0 <= obj["accuracy"] <= 1.0
    assert obj["fidelity"] is None


def test_eval_float_model_with_sidecar_named_scale(artifacts, tmp_path):
    # a float model whose weights sit in a sidecar file called "scale" is
    # still a float model: only int8 codes ("data_i8") make a model quantized
    obj = json.loads((artifacts / "float.json").read_text())
    blob = bytearray()
    for layer in obj["layers"]:
        for key in ("weights", "bias"):
            if key in layer:
                data = np.asarray(layer[key].pop("data"), dtype="<f4")
                layer[key].update(data_file="scale", offset=len(blob))
                blob += data.tobytes()
    (tmp_path / "scale").write_bytes(bytes(blob))
    (tmp_path / "float.json").write_text(json.dumps(obj))
    results = []
    for i, model in enumerate((artifacts / "float.json", tmp_path / "float.json")):
        out = tmp_path / f"eval{i}.json"
        assert cli_main(["eval", "--model", str(model), "--data",
                         str(artifacts / "val.csv"), "--out", str(out)]) == 0
        results.append(json.loads(out.read_text()))
    assert results[1] == results[0]


def test_eval_with_reference_fidelity(artifacts, tmp_path):
    out = tmp_path / "eval.json"
    code = cli_main(["eval", "--model", str(artifacts / "quant.json"),
                     "--data", str(artifacts / "val.csv"),
                     "--ref-model", str(artifacts / "float.json"),
                     "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert 0.0 <= obj["fidelity"] <= 1.0


def test_eval_csv_output(artifacts, tmp_path):
    out = tmp_path / "eval.csv"
    code = cli_main(["eval", "--model", str(artifacts / "float.json"),
                     "--data", str(artifacts / "val.csv"), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "dataset,n,correct,accuracy,fidelity"
    assert len(lines) == 2


def test_eval_csv_quotes_a_dataset_path_with_a_comma_and_a_quote(artifacts, tmp_path):
    data = tmp_path / 'a,b"c' / "v.csv"
    data.parent.mkdir()
    data.write_bytes((artifacts / "val.csv").read_bytes())
    out = tmp_path / "eval.csv"
    assert cli_main(["eval", "--model", str(artifacts / "float.json"), "--data", str(data),
                     "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dataset", "n", "correct", "accuracy", "fidelity"]
    assert len(rows) == 2 and len(rows[1]) == 5
    assert rows[1][0] == str(data)
    assert rows[1][1] == str(SPEC.n_val)


def test_localize_csv_format(artifacts, tmp_path):
    out = tmp_path / "spectra.csv"
    code = cli_main(["localize", "--float", str(artifacts / "float.json"),
                     "--quant", str(artifacts / "quant.json"),
                     "--repair-set", str(artifacts / "repair.csv"),
                     "--metric", "tarantula", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == SPEC.num_classes  # output layer width
    for rank, line in enumerate(lines, start=1):
        fields = line.split(",")
        assert len(fields) == 7
        assert fields[5].startswith("tarantula=")
        assert int(fields[6]) == rank


def test_repair_subcommand(artifacts, tmp_path):
    out = tmp_path / "run"
    lp_dir = tmp_path / "lps"
    code = cli_main(["repair", "--float", str(artifacts / "float.json"),
                     "--quant", str(artifacts / "quant.json"),
                     "--repair-set", str(artifacts / "repair.csv"),
                     "--val", str(artifacts / "val.csv"),
                     "--metric", "euclid", "--top", "10",
                     "--lp-dir", str(lp_dir), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "repair_report.json").read_text())
    assert report["attempts"] <= 10
    assert report["metric"] == "euclid"
    assert sum(report["counts"].values()) == report["attempts"]
    assert (out / "repaired_model.json").exists()
    assert list(lp_dir.glob("*.lp")), "lp dump directory should not be empty"


def test_repair_reports_identical_with_debug_logging(artifacts, tmp_path, caplog):
    argv = ["repair", "--float", str(artifacts / "float.json"),
            "--quant", str(artifacts / "quant.json"),
            "--repair-set", str(artifacts / "repair.csv"),
            "--val", str(artifacts / "val.csv"), "--top", "3"]
    assert cli_main(argv + ["--out", str(tmp_path / "quiet")]) == 0
    with caplog.at_level(logging.DEBUG, logger="qrepair"):
        assert cli_main(argv + ["--out", str(tmp_path / "loud")]) == 0
    report = json.loads((tmp_path / "loud" / "repair_report.json").read_text())
    solves = [r for r in caplog.records if "bound flips" in r.getMessage()]
    assert len(solves) == report["attempts"] - report["counts"]["skipped"] > 0
    for name in ("repair_report.json", "repaired_model.json"):
        assert (tmp_path / "loud" / name).read_bytes() == \
            (tmp_path / "quiet" / name).read_bytes()


def test_repair_zero_solved_exit_code(artifacts, tmp_path):
    out = tmp_path / "run0"
    code = cli_main(["repair", "--float", str(artifacts / "float.json"),
                     "--quant", str(artifacts / "quant.json"),
                     "--repair-set", str(artifacts / "repair.csv"),
                     "--val", str(artifacts / "val.csv"),
                     "--time-budget", "0", "--out", str(out)])
    assert code == 2
    report = json.loads((out / "repair_report.json").read_text())
    assert report["counts"]["optimal"] == 0


def test_experiment_missing_mnist_files(tmp_path):
    code = cli_main(["experiment", "--preset", "mnist-mini",
                     "--data-dir", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 1


def test_experiment_truncated_mnist_labels_fail_naming_the_file(tmp_path, capsys):
    # the label header promises 3,000 labels and the payload holds 2,997
    (tmp_path / "train-images-idx3-ubyte").write_bytes(
        struct.pack(">IIII", 2051, 3000, 28, 28) + bytes(3000 * 784))
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(
        struct.pack(">II", 2049, 3000) + bytes(2997))
    code = cli_main(["experiment", "--preset", "mnist-mini",
                     "--data-dir", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "train-labels-idx1-ubyte: expected 3008 bytes, got 3005" in err


@pytest.mark.parametrize("command,nan_file", [
    ("eval", "val"), ("repair", "repair"), ("repair", "val"),
])
def test_nan_row_fails_with_finite_message(artifacts, tmp_path, capsys, command, nan_file):
    paths = {name: artifacts / f"{name}.csv" for name in ("repair", "val")}
    lines = paths[nan_file].read_text().splitlines()
    fields = lines[1].split(",")
    fields[2] = "nan"
    lines[1] = ",".join(fields)
    paths[nan_file] = tmp_path / f"{nan_file}_nan.csv"
    paths[nan_file].write_text("\n".join(lines) + "\n")
    if command == "eval":
        argv = ["eval", "--model", str(artifacts / "quant.json"),
                "--data", str(paths["val"])]
    else:
        argv = ["repair", "--float", str(artifacts / "float.json"),
                "--quant", str(artifacts / "quant.json"),
                "--repair-set", str(paths["repair"]), "--val", str(paths["val"]),
                "--out", str(tmp_path / "run")]
    capsys.readouterr()
    assert cli_main(argv) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("layer", ["99", "-1"])
@pytest.mark.parametrize("command", ["localize", "repair"])
def test_bad_layer_fails_with_error_naming_it(artifacts, tmp_path, capsys, command, layer):
    argv = [command, "--float", str(artifacts / "float.json"),
            "--quant", str(artifacts / "quant.json"),
            "--repair-set", str(artifacts / "repair.csv"), "--layer", layer]
    if command == "repair":
        argv += ["--val", str(artifacts / "val.csv"), "--out", str(tmp_path / "run")]
    capsys.readouterr()
    assert cli_main(argv) == 1
    assert f"error: layer {layer} is out of range" in capsys.readouterr().err


def test_repair_refuses_a_quantized_file_whose_weights_also_hold_floats(artifacts, tmp_path,
                                                                        capsys):
    obj = json.loads((artifacts / "quant.json").read_text())
    index, layer = next((i, l) for i, l in enumerate(obj["layers"])
                        if "data_i8" in l.get("weights", {}))
    layer["weights"]["data"] = [0.0] * len(layer["weights"]["data_i8"])
    (tmp_path / "quant.json").write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli_main(["repair", "--float", str(artifacts / "float.json"),
                     "--quant", str(tmp_path / "quant.json"),
                     "--repair-set", str(artifacts / "repair.csv"),
                     "--val", str(artifacts / "val.csv"), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == (f"error: layer {index}: weights hold int8 'data_i8' and "
                                       "float 'data'; a layer stores one or the other\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("bad", ["data", "model"])
def test_eval_on_a_file_that_is_not_utf8_fails_naming_it(artifacts, tmp_path, capsys, bad):
    paths = {"model": artifacts / "quant.json", "data": artifacts / "val.csv"}
    paths[bad] = tmp_path / f"latin1.{'csv' if bad == 'data' else 'json'}"
    paths[bad].write_bytes(b"\xff" + (artifacts / "val.csv").read_bytes())
    capsys.readouterr()
    assert cli_main(["eval", "--model", str(paths["model"]), "--data", str(paths["data"])]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {paths[bad]}: not UTF-8 text (invalid start byte at byte 0)\n"


def _edited_quant_json(artifacts, tmp_path, edit):
    obj = json.loads((artifacts / "quant.json").read_text())
    edit(obj)
    path = tmp_path / "quant.json"
    path.write_text(json.dumps(obj))
    return path


def test_eval_quantized_model_with_sidecar_bias(artifacts, tmp_path):
    def to_sidecar(obj):
        blob = bytearray()
        for layer in obj["layers"]:
            if "bias" in layer:
                data = np.asarray(layer["bias"].pop("data"), dtype="<f4")
                layer["bias"].update(data_file="bias.bin", offset=len(blob))
                blob += data.tobytes()
        (tmp_path / "bias.bin").write_bytes(bytes(blob))

    results = []
    for i, model in enumerate((artifacts / "quant.json",
                               _edited_quant_json(artifacts, tmp_path, to_sidecar))):
        out = tmp_path / f"eval{i}.json"
        assert cli_main(["eval", "--model", str(model), "--data",
                         str(artifacts / "val.csv"), "--out", str(out)]) == 0
        results.append(json.loads(out.read_text()))
    assert results[1] == results[0]


def test_eval_quantized_model_without_scale_fails_cleanly(artifacts, tmp_path, capsys):
    def drop_scale(obj):
        next(l for l in obj["layers"] if "weights" in l)["weights"].pop("scale")

    path = _edited_quant_json(artifacts, tmp_path, drop_scale)
    capsys.readouterr()
    assert cli_main(["eval", "--model", str(path), "--data",
                     str(artifacts / "val.csv")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "'scale'" in err


def _conv_weights_rank_2(layers):
    weights = layers[0]["weights"]
    key = "data_i8" if "data_i8" in weights else "data"
    weights["shape"], weights[key] = [4, 4], weights[key][:16]


def _nan_weight(layers):
    weights = layers[4]["weights"]
    count = int(np.prod(weights["shape"]))
    # the quantized format carries float weights only in a float-patched layer
    layers[4]["weights"] = {"shape": weights["shape"], "data": [math.nan] + [0.0] * (count - 1)}


def _first_weight(value):
    def edit(layers):
        weights = layers[4]["weights"]
        weights["data_i8" if "data_i8" in weights else "data"][0] = value
    return edit


MALFORMED_LAYERS = {  # case: (index of the layer at fault, edit of the layer list)
    "non_object_layer": (0, lambda layers: layers.__setitem__(0, 5)),
    "dense_without_weights": (4, lambda layers: layers[4].pop("weights")),
    "conv_without_weights": (1, lambda layers: layers[1].pop("weights")),
    "conv_weights_rank_2": (0, _conv_weights_rank_2),
    "nan_weight": (4, _nan_weight),
    "nan_scale": (4, lambda layers: layers[4]["weights"].__setitem__("scale", math.nan)),
    "infinite_stride": (0, lambda layers: layers[0].__setitem__("hyperparams", {"stride": 1e400})),
    "fractional_stride": (0, lambda layers: layers[0].__setitem__("hyperparams", {"stride": 1.7})),
    "string_stride": (0, lambda layers: layers[0].__setitem__("hyperparams", {"stride": "1"})),
    "bool_stride": (0, lambda layers: layers[0].__setitem__("hyperparams", {"stride": True})),
    # the walker would run each of these as if the key were absent
    "conv_padding": (0, lambda layers: layers[0].__setitem__("hyperparams", {"padding": "same"})),
    "dense_activation": (
        4, lambda layers: layers[4].__setitem__("hyperparams", {"activation": "relu"})),
    "flatten_kernel": (3, lambda layers: layers[3].__setitem__("hyperparams", {"kernel": 2})),
    "hyperparams_list": (0, lambda layers: layers[0].__setitem__("hyperparams", [["stride", 1]])),
    # numpy would read each of these as a number: "1.5" as 1.5, true as 1
    "string_bias": (5, lambda layers: layers[5]["bias"]["data"].__setitem__(0, "1.5")),
    "bool_bias": (5, lambda layers: layers[5]["bias"]["data"].__setitem__(0, True)),
    "string_scale": (4, lambda layers: layers[4]["weights"].__setitem__("scale", "0.01")),
    "string_weight": (4, _first_weight("5")),
    "bool_weight": (4, _first_weight(True)),
    "missing_sidecar": (4, lambda layers: layers[4].__setitem__(
        "weights", {"shape": layers[4]["weights"]["shape"], "data_file": "missing.bin"})),
    # 32.7 would truncate to the 32 rows the data fills
    "fractional_weight_shape": (
        4, lambda layers: layers[4]["weights"]["shape"].__setitem__(0, 32.7)),
    "float_bias_shape": (5, lambda layers: layers[5]["bias"].__setitem__("shape", [10.0])),
}


@pytest.fixture(scope="module")
def conv3_files():
    return {"float": FIXTURES / "conv3.json", "quant": FIXTURES / "conv3_quant.json"}


@pytest.mark.parametrize("fmt,case", [
    (fmt, case) for fmt in ("float", "quant") for case in MALFORMED_LAYERS
    if fmt == "quant" or not case.endswith("_scale")  # a float model has no scale
])
def test_malformed_model_file_fails_naming_the_layer(conv3_files, tmp_path, capsys, fmt, case):
    index, edit = MALFORMED_LAYERS[case]
    obj = json.loads(conv3_files[fmt].read_text())
    edit(obj["layers"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises((ModelFormatError, ShapeMismatchError), match=rf"^layer {index}: "):
        (load_model if fmt == "float" else load_qmodel)(bad)

    models = {**conv3_files, fmt: bad}
    data = str(FIXTURES / "conv3_val.csv")
    pair = ["--float", str(models["float"]), "--quant", str(models["quant"]), "--repair-set", data]
    for argv in (["eval", "--model", str(bad), "--data", data], ["localize", *pair],
                 ["repair", *pair, "--val", data, "--out", str(tmp_path / "run")]):
        capsys.readouterr()
        assert cli_main(argv) == 1, argv[0]
        assert capsys.readouterr().err.startswith(f"error: layer {index}: "), argv[0]


LOCALIZE_CSV_SHA256 = {  # `qrepair localize` on the quantized conv3 fixture and conv3_val.csv
    "tarantula": "8901bce963c5521d33c851cf28c3936bd454f1f6a0febd565e1cc40c784d0cf2",
    "ochiai": "9ef4d0791089601ef14e08624919efae4dd3a3c2b3dc8f22e8504cd386e214f0",
    "dstar": "1d98b7418f41176bec13a4c2b587b170c3d20f0a674a95b49e432c5b87e33604",
    "jaccard": "7922211c2538db4547bbcd23bc8b2dfaf563267e202d5b6a5721e30a50e79376",
    "ample": "428e54bf7426576c5607e9db655a9f140f2feef224c96f4dd5e317037815cf3b",
    "euclid": "5b56cbb10a636c4a57071e616046a7ab140783c072995979ab352aee34725eb2",
    "wong3": "16461aab454a3f85b7a46a441b696020713def67f6e6444186071bd8eba8bbd1",
}


@pytest.mark.parametrize("metric", sorted(LOCALIZE_CSV_SHA256))
def test_localize_csv_fingerprint(conv3_files, tmp_path, metric):
    # counters, scores and neuron order, byte for byte
    out = tmp_path / "spectra.csv"
    assert cli_main(["localize", "--float", str(conv3_files["float"]),
                     "--quant", str(conv3_files["quant"]),
                     "--repair-set", str(FIXTURES / "conv3_val.csv"),
                     "--metric", metric, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LOCALIZE_CSV_SHA256[metric]


CONV3_REPAIR_SHA256 = {  # `qrepair repair --patch-mode requantize` on the conv3 fixtures
    "repair_report.json": "4c8f626156d56835afb929059a6f499db8b8ab11f3a6b8051b8b4a52ab550668",
    "repaired_model.json": "e51e96b9e196dacb73a114098fd080323f27644a79e5fad76ab7f376a6c7e502",
}


def test_conv3_requantize_repair_fingerprint(conv3_files, tmp_path):
    # an end-to-end conv repair, byte for byte: both conv stacks run over the
    # repair and validation sets, the LPs solve and the patch is requantized
    data = str(FIXTURES / "conv3_val.csv")
    out = tmp_path / "run"
    assert cli_main(["repair", "--float", str(conv3_files["float"]),
                     "--quant", str(conv3_files["quant"]), "--repair-set", data,
                     "--val", data, "--patch-mode", "requantize", "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in CONV3_REPAIR_SHA256}
    assert got == CONV3_REPAIR_SHA256


@pytest.mark.parametrize("option,value", [
    ("--epsilon", "nan"), ("--epsilon", "inf"), ("--delta-bound", "nan"),
    ("--delta-bound", "-1"), ("--max-constraints", "0"), ("--max-constraints", "-3"),
    ("--time-budget", "nan"), ("--top", "0"), ("--lp-dir", ""),
])
def test_malformed_repair_option_fails_before_repairing(conv3_files, tmp_path, capsys,
                                                        option, value):
    data = str(FIXTURES / "conv3_val.csv")
    out = tmp_path / "run"
    capsys.readouterr()
    assert cli_main(["repair", "--float", str(conv3_files["float"]),
                     "--quant", str(conv3_files["quant"]), "--repair-set", data,
                     "--val", data, "--out", str(out), option, value]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _relu_with_bias(layers):
    layers.insert(4, {"kind": "relu", "bias": {"shape": [32], "data": [0.0] * 32}})


def _short_sidecar(layers, root):
    (root / "short.bin").write_bytes(np.zeros(10, dtype="<f4").tobytes())
    layers[4]["weights"] = {"shape": [32, 16], "data_file": "short.bin"}


MODEL_CHECKS = {  # case: (edit of the conv3 float model file, start of the error line)
    "unknown_kind": (lambda obj, root: obj["layers"][3].__setitem__("kind", "softmax"),
                     "error: layer 3: unknown layer kind 'softmax'"),
    "relu_with_bias": (lambda obj, root: _relu_with_bias(obj["layers"]),
                       "error: layer 4: a relu layer takes no weights or bias"),
    "flatten_with_weights": (
        lambda obj, root: obj["layers"][3].__setitem__("weights", obj["layers"][4]["weights"]),
        "error: layer 3: a flatten layer takes no weights or bias"),
    "short_bias": (lambda obj, root: obj["layers"][4].__setitem__(
        "bias", {"shape": [3], "data": [0.0, 0.0, 0.0]}),
        "error: layer 4: dense bias shape (3,) != (16,)"),
    "conv_flat_input": (lambda obj, root: obj.__setitem__("input_shape", [64]),
                        "error: layer 0: conv2d expects [h, w, c] input, got (64,)"),
    "conv_channel_mismatch": (lambda obj, root: obj.__setitem__("input_shape", [8, 8, 2]),
                              "error: layer 0: conv2d expects 1 input channels, got 2"),
    "zero_stride": (lambda obj, root: obj["layers"][0].__setitem__("hyperparams", {"stride": 0}),
                    "error: layer 0: conv2d window 3x3 and stride 0 must be positive"),
    "conv_padding": (lambda obj, root: obj["layers"][0].__setitem__(
        "hyperparams", {"padding": "same"}),
        "error: layer 0: conv2d takes no hyperparameter 'padding'"),
    "dense_activation": (lambda obj, root: obj["layers"][5].__setitem__(
        "hyperparams", {"activation": "relu"}),
        "error: layer 5: dense takes no hyperparameter 'activation'"),
    "hyperparams_not_an_object": (lambda obj, root: obj["layers"][0].__setitem__(
        "hyperparams", [["stride", 1]]),
        "error: layer 0: hyperparams must be an object, got [['stride', 1]]"),
    "zero_pool_window": (lambda obj, root: obj["layers"].insert(
        1, {"kind": "maxpool2d", "hyperparams": {"kernel": 0}}),
        "error: layer 1: maxpool2d window 0x0 and stride 0 must be positive"),
    "window_too_large": (lambda obj, root: obj.__setitem__("input_shape", [4, 4, 1]),
                         "error: layer 1: conv2d window 3x3 too large for input (2, 2, 4)"),
    "no_layers": (lambda obj, root: obj.__setitem__("layers", []),
                  "error: model needs at least one layer"),
    "tensor_without_shape": (lambda obj, root: obj["layers"][4]["weights"].pop("shape"),
                             "error: layer 4: a tensor must be an object with a 'shape'"),
    "tensor_without_data": (lambda obj, root: obj["layers"][4]["weights"].pop("data"),
                            "error: layer 4: a tensor needs 'data' or 'data_file'"),
    "fractional_shape": (lambda obj, root: obj["layers"][4]["weights"].__setitem__(
        "shape", [32.5, 16]),
        "error: layer 4: a tensor 'shape' must be a list of non-negative integers, "
        "got [32.5, 16]"),
    "short_sidecar": (lambda obj, root: _short_sidecar(obj["layers"], root),
                      "error: layer 4: sidecar {root}/short.bin has 10 values, need 512"),
    "bool_sidecar_offset": (lambda obj, root: obj["layers"][4].__setitem__(
        "weights", {"shape": [32, 16], "data_file": "w.bin", "offset": True}),
        "error: layer 4: offset must be an integer, got True"),
    "missing_key": (lambda obj, root: obj.pop("num_classes"),
                    "error: {root}/bad.json: missing 'num_classes'"),
    "input_shape_not_a_list": (lambda obj, root: obj.__setitem__("input_shape", "8x8x1"),
                               "error: {root}/bad.json: 'input_shape' must be a list"),
    "bool_input_dim": (lambda obj, root: obj["input_shape"].__setitem__(2, True),
                       "error: {root}/bad.json: 'input_shape' must be a list of integers"),
    "num_classes_not_an_integer": (lambda obj, root: obj.__setitem__("num_classes", "10"),
                                   "error: {root}/bad.json: 'input_shape' must be a list"),
    "layers_not_a_list": (lambda obj, root: obj.__setitem__("layers", {}),
                          "error: {root}/bad.json: 'input_shape' must be a list"),
}


@pytest.mark.parametrize("case", sorted(MODEL_CHECKS))
def test_eval_fails_on_each_model_check(tmp_path, capsys, case):
    edit, message = MODEL_CHECKS[case]
    obj = json.loads((FIXTURES / "conv3.json").read_text())
    edit(obj, tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli_main(["eval", "--model", str(bad), "--data",
                     str(FIXTURES / "conv3_val.csv")]) == 1
    assert capsys.readouterr().err.startswith(message.format(root=tmp_path))


def test_eval_fails_on_a_bin_dataset_of_another_class_count(tmp_path, capsys):
    val = load_dataset(FIXTURES / "conv3_val.csv", num_classes=10)
    data = tmp_path / "val.bin"
    save_dataset(Dataset(val.features, val.labels, 12), data)
    capsys.readouterr()
    assert cli_main(["eval", "--model", str(FIXTURES / "conv3.json"), "--data", str(data)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {data}: file says 12 classes, expected 10")


@pytest.mark.parametrize("argv,status", [
    (["quantize", "--model", str(FIXTURES / "conv3.json"), "--out", "{tmp}/q.json"], 0),
    (["eval", "--model", "{tmp}/missing.json", "--data", "{tmp}/val.csv"], 1),
    (["frobnicate"], 64),
], ids=["success", "runtime_error", "usage_error"])
def test_main_exits_with_the_cli_status(monkeypatch, tmp_path, argv, status):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    monkeypatch.setattr(sys, "argv", ["qrepair", *argv])
    with pytest.raises(SystemExit) as stop:
        cli.main()
    assert stop.value.code == status == cli_main(argv)


def _readme_cli_lines() -> list[list[str]]:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=lambda argv: argv[1])
def test_readme_cli_line_parses(argv):
    assert argv[0] == "qrepair"
    options = vars(build_parser().parse_args(argv[1:]))
    assert options.pop("command") == argv[1]
    # every option reaches the handler, and every value given lands in one
    inspect.signature(options.pop("func")).bind(**options)
    values = [token for token in argv[2:] if not token.startswith("--")]
    assert sorted(values) == sorted(str(v) for v in options.values() if v is not None)


@pytest.mark.parametrize("argv,given", [
    (["repair", "--float", "f", "--quant", "q", "--repair-set", "r", "--val", "v",
      "--out", "o"], {"float_model", "quant", "repair_set", "val", "out_dir"}),
    (["localize", "--float", "f", "--quant", "q", "--repair-set", "r"],
     {"float_model", "quant", "repair_set", "out"}),
    (["experiment", "--out", "o"], {"out_dir"}),
], ids=["repair", "localize", "experiment"])
def test_options_left_out_keep_the_library_defaults(argv, given):
    # RepairConfig and run_experiment hold the defaults; the parser repeats none
    options = vars(build_parser().parse_args(argv))
    assert set(options) == {"command", "func"} | given
