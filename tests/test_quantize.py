import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_model, grid_mlp, pool_model
from oracles import quantization_error_bound
from qrepair.model import (
    Layer,
    Model,
    ModelFormatError,
    QuantizedTensor,
    argmax_label,
    dequantize,
    forward,
    forward_batch,
    load_model,
    save_model,
)
from qrepair.quantize import (
    capture_activations_q,
    check_same_topology,
    load_qmodel,
    quantize_model,
    quantize_tensor,
    quantize_values,
    quantized_forward,
    save_qmodel,
)
from qrepair.repair import RepairConfig, apply_deltas, repair


def test_all_zero_tensor_degenerate_rule():
    qt = quantize_tensor(np.zeros(3, np.float32))
    assert qt.scale == 1.0
    assert qt.data.tolist() == [0, 0, 0]


def test_full_range_scale():
    qt = quantize_tensor(np.array([1.27, -1.27], np.float32))
    assert qt.scale == pytest.approx(0.01, rel=1e-6)
    assert qt.data.tolist() == [127, -127]


def test_fixed_scale_rounding():
    # r = 1.2 at S = 0.5: q = round(2.4) = 2, which dequantizes to 1.0
    q = quantize_values(np.array([1.2]), scale=0.5)
    assert q.tolist() == [2]
    qt = QuantizedTensor((1,), q, 0.5)
    assert dequantize(qt).tolist() == [1.0]


def test_round_half_away_from_zero():
    q = quantize_values(np.array([0.5, -0.5, 1.5, -1.5]), scale=1.0)
    assert q.tolist() == [1, -1, 2, -2]


def test_dequantize_zeros():
    qt = QuantizedTensor((3,), np.zeros(3, np.int8), 7.5)
    assert dequantize(qt).tolist() == [0.0, 0.0, 0.0]


def test_single_large_weight():
    qt = quantize_tensor(np.array([100.0], np.float32))
    assert qt.scale == pytest.approx(100.0 / 127)
    assert qt.data.tolist() == [127]


def test_roundtrip_bound_and_symmetry_1000_tensors():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        size = int(rng.integers(1, 65))
        scale_mag = 10.0 ** rng.uniform(-3, 3)
        values = (rng.normal(size=size) * scale_mag).astype(np.float32)
        qt = quantize_tensor(values)
        back = dequantize(qt)
        assert np.all(np.abs(values.astype(np.float64) - back) <= qt.scale / 2 + 1e-9)
        neg = quantize_tensor(-values)
        assert np.array_equal(neg.data, -qt.data)


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False, width=32), min_size=1, max_size=32))
@settings(deadline=None)
def test_roundtrip_bound_property(values):
    values = np.array(values, dtype=np.float32)
    qt = quantize_tensor(values)
    back = dequantize(qt)
    assert np.all(np.abs(values.astype(np.float64) - back) <= qt.scale / 2 + 1e-9)


def test_quantize_rejects_nonfinite():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            quantize_tensor(np.array([1.0, bad]))


def test_quantize_model_identity_pattern():
    model = dense_model(np.eye(2), np.zeros(2))
    qm = quantize_model(model)
    back = dequantize(qm.layers[0].qweights)
    s = qm.layers[0].qweights.scale
    assert np.all(np.abs(back - np.eye(2)) <= s / 2 + 1e-9)
    # topology preserved
    assert [l.kind for l in qm.layers] == [l.kind for l in model.layers]
    assert qm.layers[0].qweights.shape == (2, 2)


def test_quantize_and_dequantize_keep_the_4d_shape_of_conv_weights(conv3_model):
    weights = conv3_model.layers[0].eff_weights
    assert (conv3_model.layers[0].kind, weights.ndim) == ("conv2d", 4)
    qt = quantize_tensor(weights)
    assert qt.shape == dequantize(qt).shape == weights.shape
    qlayer = quantize_model(conv3_model).layers[0]
    assert qlayer.eff_weights.shape == weights.shape
    assert np.array_equal(dequantize(qlayer.qweights).astype(np.float32), qlayer.eff_weights)


def test_quantize_model_shares_no_array_or_hyperparameters_with_its_input():
    rng = np.random.default_rng(0)

    def t(*shape):
        return rng.normal(size=shape)

    model = Model([Layer("conv2d", t(2, 2, 1, 2), t(2), {"stride": 1}),
                   Layer("maxpool2d", hyperparams={"kernel": 2}), Layer("flatten"),
                   Layer("dense", t(2, 3), t(3))], (4, 4, 1), 3)
    x = rng.normal(size=16)
    logits = forward(model, x).data.copy()
    qm = quantize_model(model)
    for fl, ql in zip(model.layers, qm.layers):
        assert ql.hyperparams == fl.hyperparams and ql.hyperparams is not fl.hyperparams
        ours = [a.data for a in (fl.weights, fl.bias, fl.qweights) if a is not None]
        theirs = [a.data for a in (ql.weights, ql.bias, ql.qweights) if a is not None]
        assert not any(np.shares_memory(a, b) for a in ours for b in theirs)
        if ql.bias is not None:
            ql.bias.data += 1.0
    assert np.array_equal(forward(model, x).data, logits)  # the float biases did not move


def test_bias_stays_float(conv3_model):
    qm = quantize_model(conv3_model)
    for fl, ql in zip(conv3_model.layers, qm.layers):
        if fl.bias is not None:
            assert np.array_equal(ql.bias.data, fl.bias.data)


def test_grid_weights_forward_bit_exact():
    # weights already on the quantization grid: int8 round-trip is lossless,
    # so both forward passes run identical float32 arithmetic
    rng = np.random.default_rng(5)
    model = grid_mlp(rng)
    qm = quantize_model(model)
    for layer, qlayer in zip(model.layers, qm.layers):
        if layer.kind == "dense":
            assert np.array_equal(qlayer.eff_weights, layer.weights.array())
    for _ in range(20):
        x = rng.normal(size=model.input_shape[0]).astype(np.float32)
        assert np.array_equal(quantized_forward(qm, x).data, forward(model, x).data)


def test_quantized_error_within_interval_bound():
    rng = np.random.default_rng(17)
    for _ in range(30):
        dims = [int(d) for d in rng.integers(3, 9, size=3)]
        from qrepair.model import Layer, Model

        layers = [
            Layer("dense", rng.normal(size=(dims[0], dims[1])).astype(np.float32),
                  rng.normal(size=dims[1]).astype(np.float32)),
            Layer("relu"),
            Layer("dense", rng.normal(size=(dims[1], dims[2])).astype(np.float32),
                  rng.normal(size=dims[2]).astype(np.float32)),
        ]
        model = Model(layers, (dims[0],), dims[2])
        qm = quantize_model(model)
        x = rng.normal(size=dims[0]).astype(np.float32)
        _, bound = quantization_error_bound(model, qm, x)
        diff = np.abs(
            quantized_forward(qm, x).data.astype(np.float64)
            - forward(model, x).data.astype(np.float64)
        )
        assert np.all(diff <= bound + 1e-4)


def test_conv3_fixture_has_argmax_flips(conv3_model, conv3_val):
    qm = quantize_model(conv3_model)
    flips = 0
    for i in range(len(conv3_val)):
        x = conv3_val.features[i].reshape(conv3_model.input_shape)
        if argmax_label(forward(conv3_model, x)) != argmax_label(quantized_forward(qm, x)):
            flips += 1
    assert flips >= 1


def test_conv3_quantized_accuracy_within_a_few_points(conv3_model, conv3_val):
    # fixture labels are the float model's own predictions, so the float
    # accuracy is 1.0 and quantization costs at most a handful of rows
    from qrepair.evaluate import accuracy

    acc_f = accuracy(conv3_model, conv3_val).accuracy
    acc_q = accuracy(quantize_model(conv3_model), conv3_val).accuracy
    assert acc_f == 1.0
    assert acc_f > acc_q  # same direction as the full-scale baselines
    assert acc_f - acc_q <= 0.1


def test_capture_q_matches_float_on_grid_weights():
    rng = np.random.default_rng(6)
    model = grid_mlp(rng)
    qm = quantize_model(model)
    from qrepair.model import capture_activations

    idx = [i for i, layer in enumerate(model.layers) if layer.kind == "dense"]
    for _ in range(10):
        x = rng.normal(size=model.input_shape[0]).astype(np.float32)
        recs_f = capture_activations(model, x, set(idx))
        recs_q = capture_activations_q(qm, x, set(idx))
        for rf, rq in zip(recs_f, recs_q):
            assert np.array_equal(rf.status, rq.status)


def test_qmodel_json_roundtrip(tmp_path, conv3_model):
    qm = quantize_model(conv3_model)
    path = tmp_path / "q.json"
    save_qmodel(qm, path)
    again = load_qmodel(path)
    for a, b in zip(again.layers, qm.layers):
        assert a.kind == b.kind
        if a.qweights is not None:
            assert np.array_equal(a.qweights.data, b.qweights.data)
            assert a.qweights.scale == b.qweights.scale
            assert np.array_equal(a.eff_weights, b.eff_weights)


def _saved_qmodel_json(tmp_path, model):
    path = tmp_path / "q.json"
    save_qmodel(quantize_model(model), path)
    return path, json.loads(path.read_text())


def test_qmodel_sidecar_bias_loads_like_inline(tmp_path, conv3_model):
    path, obj = _saved_qmodel_json(tmp_path, conv3_model)
    blob = bytearray()
    for layer in obj["layers"]:
        if "bias" in layer:
            data = np.asarray(layer["bias"].pop("data"), dtype="<f4")
            layer["bias"].update(data_file="bias.bin", offset=len(blob))
            blob += data.tobytes()
    assert blob
    (tmp_path / "side").mkdir()
    (tmp_path / "side" / "bias.bin").write_bytes(bytes(blob))
    (tmp_path / "side" / "q.json").write_text(json.dumps(obj))
    inline, sidecar = load_qmodel(path), load_qmodel(tmp_path / "side" / "q.json")
    for a, b in zip(inline.layers, sidecar.layers):
        assert (a.bias is None) == (b.bias is None)
        if a.bias is not None:
            assert a.bias.shape == b.bias.shape
            assert np.array_equal(a.bias.data, b.bias.data)
        if a.eff_weights is not None:
            assert np.array_equal(a.eff_weights, b.eff_weights)


def test_float_patched_sidecar_weights_load_like_inline(tmp_path, conv3_model):
    qm = quantize_model(conv3_model)
    last = qm.last_dense_index()
    apply_deltas(qm, (last, 1), np.full(qm.layers[last].eff_weights.shape[0], 0.01),
                 "float_patch")
    assert qm.layers[last].qweights is None
    path = tmp_path / "q.json"
    save_qmodel(qm, path)
    obj = json.loads(path.read_text())
    weights = obj["layers"][last]["weights"]
    data = np.asarray(weights.pop("data"), dtype="<f4")
    weights.update(data_file="w.bin", offset=8)
    (tmp_path / "side").mkdir()
    (tmp_path / "side" / "w.bin").write_bytes(bytes(8) + data.tobytes())
    (tmp_path / "side" / "q.json").write_text(json.dumps(obj))
    inline, sidecar = load_qmodel(path), load_qmodel(tmp_path / "side" / "q.json")
    assert sidecar.layers[last].qweights is None  # float-patched: no int8 codes
    for a, b in zip(inline.layers, sidecar.layers):
        assert (a.qweights is None) == (b.qweights is None)
        if a.eff_weights is not None:
            assert a.eff_weights.tobytes() == b.eff_weights.tobytes()
        if a.qweights is not None:
            assert a.qweights.data.tobytes() == b.qweights.data.tobytes()
            assert a.qweights.scale == b.qweights.scale


@pytest.mark.parametrize("edit,message", [
    (lambda w: w.pop("scale"), "scale"),
    (lambda w: w.pop("shape"), "shape"),
    (lambda w: w["data_i8"].__setitem__(0, 200), "200"),
    (lambda w: w.__setitem__("scale", math.nan), "scale"),
    (lambda w: w.__setitem__("scale", math.inf), "scale"),
    (lambda w: w["data_i8"].__setitem__(0, 1.7), "integers"),
    (lambda w: w.__setitem__("zero_point", 3), "^layer 0: zero_point must be 0"),
], ids=["no_scale", "no_shape", "code_out_of_int8", "nan_scale", "inf_scale", "fractional_code",
        "nonzero_zero_point"])
def test_malformed_qweights_raise_model_format_error(tmp_path, conv3_model, edit, message):
    path, obj = _saved_qmodel_json(tmp_path, conv3_model)
    edit(next(l["weights"] for l in obj["layers"] if "weights" in l))
    path.write_text(json.dumps(obj))
    with pytest.raises(ModelFormatError, match=message):
        load_qmodel(path)


def test_save_load_save_is_byte_identical(tmp_path, conv3_model, conv3_val):
    # float weights, int8 codes, and a float_patch repair's mix of the two
    # (the patched layer stored as float "data") each read back through
    # either loader and write again without a changed byte
    qm = quantize_model(conv3_model)
    patched, report = repair(conv3_model, qm, conv3_val, None, RepairConfig(top_n=3))
    assert report.count("optimal") > 0
    encodings = {}
    for name, model, save in [("float", conv3_model, save_model), ("int8", qm, save_qmodel),
                              ("patched", patched, save_qmodel)]:
        first = tmp_path / f"{name}.json"
        save(model, first)
        encodings[name] = ["data_i8" in l["weights"]
                           for l in json.loads(first.read_text())["layers"] if "weights" in l]
        for load in (load_model, load_qmodel):
            again = tmp_path / f"{name}_{load.__name__}.json"
            save(load(first), again)
            assert again.read_bytes() == first.read_bytes(), (name, load.__name__)
    assert encodings == {"float": [False] * 5, "int8": [True] * 5,
                         "patched": [True] * 4 + [False]}


def test_quantized_tensor_invariants():
    with pytest.raises(ValueError):
        QuantizedTensor((1,), np.array([1], np.int8), scale=0.0)
    for scale in (math.nan, math.inf, True, "0.5", np.bool_(True)):  # a JSON 1e400 reads as inf
        with pytest.raises(ValueError, match="scale"):
            QuantizedTensor((1,), np.array([1], np.int8), scale=scale)
    with pytest.raises(ValueError):
        QuantizedTensor((2,), np.array([1], np.int8), scale=1.0)

@pytest.mark.parametrize("scale", [np.float32(0.5), np.int64(1)])
def test_a_numpy_scale_survives_save_and_load(tmp_path, scale):
    codes = QuantizedTensor((1, 2), np.array([3, -4]), scale)
    save_model(Model([Layer("dense", qweights=codes)], (1,), 2), tmp_path / "q.json")
    again = load_model(tmp_path / "q.json").layers[0].qweights
    assert (again.scale, again.data.tolist()) == (float(scale), [3, -4])


@pytest.mark.parametrize("code", [128, 129, 200, -128, 1.5])
def test_quantized_tensor_rejects_codes_outside_int8_before_casting(code):
    # a cast first would wrap 129 to -127 and 200 to -56, and pass them
    with pytest.raises(ValueError, match=rf"\[-127, 127\], got {code:g}$"):
        QuantizedTensor((2,), np.array([1, code]), scale=1.0)


def test_quantized_tensor_takes_int8_codes_as_its_own_copy_and_refuses_minus_128():
    with pytest.raises(ValueError, match=r"\[-127, 127\], got -128$"):
        QuantizedTensor((2,), np.array([1, -128], np.int8), scale=1.0)
    codes = np.array([[1, -127]], np.int8)
    qt = QuantizedTensor((1, 2), codes, scale=1.0)
    codes[0, 0] = 5
    assert qt.data.tolist() == [1, -127] and qt.data.dtype == np.int8


def test_load_qmodel_runs_a_float_model_file_bit_identically(tmp_path, conv3_model, conv3_val):
    save_model(conv3_model, tmp_path / "float.json")
    loaded = load_qmodel(tmp_path / "float.json")
    assert all(layer.qweights is None for layer in loaded.layers)
    float_logits = forward_batch(conv3_model, conv3_val.features)[0]
    assert forward_batch(loaded, conv3_val.features)[0].tobytes() == float_logits.tobytes()


def test_topology_check_compares_input_shapes_and_resolved_windows(conv3_model):
    # both pool a 6x6 input to 3x3, so only the windows tell them apart
    fmodel = pool_model({"kernel": 2})
    with pytest.raises(ValueError, match=r"^layer 0: .*'kernel': 2, 'stride': 2.*"
                                         r"'kernel': 4, 'stride': 1"):
        check_same_topology(fmodel, quantize_model(pool_model({"kernel": 4, "stride": 1})))
    with pytest.raises(ValueError, match=r"^input shape and layer count"):
        check_same_topology(fmodel, quantize_model(pool_model({"kernel": 2}, (7, 7, 1))))
    # a default written out is the same window
    check_same_topology(fmodel, quantize_model(pool_model({"kernel": 2, "stride": 2})))
    for model in (fmodel, conv3_model, grid_mlp(np.random.default_rng(0))):
        check_same_topology(model, quantize_model(model))
