import json

import numpy as np
import pytest

from conftest import dense_model
from oracles import dense_status_oracle, loop_forward
from qrepair.model import (
    Layer,
    Model,
    ModelFormatError,
    ShapeMismatchError,
    Tensor,
    argmax_label,
    capture_activations,
    forward,
    load_model,
    save_model,
    window,
)


def test_load_minimal_identity(tmp_path):
    obj = {
        "input_shape": [2],
        "num_classes": 2,
        "layers": [
            {"kind": "dense", "weights": {"shape": [2, 2], "data": [1, 0, 0, 1]}}
        ],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    model = load_model(path)
    assert len(model.layers) == 1
    assert model.layers[0].kind == "dense"


def test_load_shape_mismatch(tmp_path):
    obj = {
        "input_shape": [3],
        "num_classes": 2,
        "layers": [
            {"kind": "dense", "weights": {"shape": [3, 2], "data": [0] * 6}},
            {"kind": "dense", "weights": {"shape": [5, 2], "data": [0] * 10}},
        ],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ShapeMismatchError):
        load_model(path)


def test_load_malformed_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_conv3_fixture_layer_count(conv3_model):
    assert len(conv3_model.layers) == 6
    kinds = [l.kind for l in conv3_model.layers]
    assert kinds == ["conv2d", "conv2d", "conv2d", "flatten", "dense", "dense"]


def test_forward_identity():
    model = dense_model(np.eye(2), np.zeros(2))
    out = forward(model, np.array([1.5, -2.0], dtype=np.float32))
    assert out.data.tolist() == [1.5, -2.0]


def test_forward_affine_relu():
    # Wx+b = [-2, 3], so post-relu is [0, 3]
    model = dense_model(np.eye(2), np.ones(2), extra_relu=True)
    out = forward(model, np.array([-3.0, 2.0], dtype=np.float32))
    assert out.data.tolist() == [0.0, 3.0]


def test_forward_deterministic():
    rng = np.random.default_rng(42)
    model = Model(
        [
            Layer("dense", Tensor.from_array(rng.normal(size=(4, 5)).astype(np.float32))),
            Layer("relu"),
            Layer("dense", Tensor.from_array(rng.normal(size=(5, 3)).astype(np.float32))),
        ],
        (4,),
        3,
    )
    x = rng.normal(size=4).astype(np.float32)
    first = forward(model, x).data
    for _ in range(10):
        assert np.array_equal(forward(model, x).data, first)


def test_forward_wrong_input_shape():
    model = dense_model(np.eye(2))
    with pytest.raises(ShapeMismatchError):
        forward(model, np.zeros(3, dtype=np.float32))


def test_capture_status_sign_convention():
    # dense pre-activation [0.1, -0.2, 0.0] -> status [1, 0, 0]; zero is off
    model = dense_model(np.eye(3), np.array([0.1, -0.2, 0.0]))
    (rec,) = capture_activations(model, np.zeros(3, dtype=np.float32), {0})
    assert rec.status.tolist() == [1, 0, 0]
    assert rec.pre_activation.data.tolist() == pytest.approx([0.1, -0.2, 0.0])


def test_capture_two_neuron_hand_case():
    # weights [[1, -1]]: input [2] gives pre [2, -2] -> status [1, 0]
    model = dense_model(np.array([[1.0, -1.0]]))
    (rec,) = capture_activations(model, np.array([2.0], dtype=np.float32), {0})
    assert rec.status.tolist() == [1, 0]


def test_capture_repeatable():
    model = dense_model(np.eye(3), np.array([0.5, -0.5, 0.0]))
    x = np.array([1.0, 2.0, -1.0], dtype=np.float32)
    a = capture_activations(model, x, {0})
    b = capture_activations(model, x, {0})
    assert np.array_equal(a[0].status, b[0].status)
    assert np.array_equal(a[0].pre_activation.data, b[0].pre_activation.data)


def test_capture_rejects_bad_layers():
    model = dense_model(np.eye(2), extra_relu=True)
    with pytest.raises(IndexError):
        capture_activations(model, np.zeros(2, dtype=np.float32), {9})
    with pytest.raises(ValueError):
        capture_activations(model, np.zeros(2, dtype=np.float32), {1})  # relu


def test_capture_conv_layer_status(conv3_model):
    rng = np.random.default_rng(14)
    x = rng.normal(size=(8, 8, 1)).astype(np.float32)
    (rec,) = capture_activations(conv3_model, x, {0})
    w = conv3_model.layers[0].weights.array()
    b = conv3_model.layers[0].bias.array()
    kh, kw, _, oc = w.shape
    out = np.zeros((6, 6, oc))
    for i in range(6):
        for j in range(6):
            for o in range(oc):
                out[i, j, o] = np.sum(x[i : i + kh, j : j + kw, :] * w[:, :, :, o]) + b[o]
    assert rec.pre_activation.shape == (6, 6, oc)
    safe = np.abs(out.reshape(-1)) > 1e-5  # skip float32-vs-float64 knife edges
    assert np.array_equal(rec.status[safe], (out.reshape(-1) > 0)[safe])


def test_capture_multiple_layers_ordered(conv3_model):
    x = np.zeros((8, 8, 1), dtype=np.float32)
    records = capture_activations(conv3_model, x, {4, 0, 2})
    assert [r.layer_index for r in records] == [0, 2, 4]


def test_capture_status_matches_matmul_oracle():
    # values on a 0.25 grid make float32 sums exact, so statuses must agree
    rng = np.random.default_rng(7)
    for _ in range(100):
        d_in = int(rng.integers(1, 8))
        d_out = int(rng.integers(1, 8))
        w = (rng.integers(-8, 9, size=(d_in, d_out)) * 0.25).astype(np.float32)
        b = (rng.integers(-8, 9, size=d_out) * 0.25).astype(np.float32)
        x = (rng.integers(-8, 9, size=d_in) * 0.25).astype(np.float32)
        model = dense_model(w, b)
        (rec,) = capture_activations(model, x, {0})
        assert np.array_equal(rec.status, dense_status_oracle(w, b, x))


@pytest.mark.parametrize(
    "logits,expected",
    [([0.1, 0.9, 0.3], 1), ([0.5, 0.5], 0), ([-1.0, -2.0, -3.0], 0)],
)
def test_argmax_label(logits, expected):
    assert argmax_label(np.array(logits)) == expected


def test_argmax_empty():
    with pytest.raises(ValueError):
        argmax_label(np.array([]))


def test_forward_matches_loop_oracle_random_models():
    rng = np.random.default_rng(11)
    for _ in range(50):
        depth = int(rng.integers(1, 5))
        dims = [int(d) for d in rng.integers(2, 7, size=depth + 1)]
        layers = []
        for li, (a, b) in enumerate(zip(dims, dims[1:])):
            layers.append(
                Layer(
                    "dense",
                    Tensor.from_array(rng.normal(size=(a, b)).astype(np.float32)),
                    Tensor.from_array(rng.normal(size=b).astype(np.float32)),
                )
            )
            if li != depth - 1:
                layers.append(Layer("relu"))
        model = Model(layers, (dims[0],), dims[-1])
        x = rng.normal(size=dims[0]).astype(np.float32)
        got = forward(model, x).data
        want = loop_forward(model, x)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


def test_conv_and_pool_match_loop_oracle(conv3_model):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 8, 1)).astype(np.float32)
    got = forward(conv3_model, x).data
    want = loop_forward(conv3_model, x)
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    pooled = Model(
        [
            Layer("conv2d", conv3_model.layers[0].weights, conv3_model.layers[0].bias),
            Layer("maxpool2d"),
            Layer("flatten"),
            Layer("dense", Tensor.from_array(rng.normal(size=(36, 3)).astype(np.float32))),
        ],
        (8, 8, 1),
        3,
    )
    np.testing.assert_allclose(
        forward(pooled, x).data, loop_forward(pooled, x), rtol=1e-4, atol=1e-5
    )


def test_final_layer_must_be_dense():
    with pytest.raises(ShapeMismatchError):
        Model([Layer("relu")], (2,), 2)
    with pytest.raises(ShapeMismatchError):
        # final dense width disagrees with num_classes
        dense_model(np.eye(2), num_classes=5)


def _conv_pool_model(conv_hyperparams):
    return Model([Layer("conv2d", Tensor.from_array(np.ones((2, 2, 1, 1))),
                        hyperparams=conv_hyperparams),
                  Layer("maxpool2d", hyperparams={"kernel": 2, "stride": 1}),
                  Layer("flatten"),
                  Layer("dense", Tensor.from_array(np.ones((1, 2))))], (3, 3, 1), 2)


def test_layer_kinds_take_only_their_hyperparameters():
    _conv_pool_model({"stride": 1})
    with pytest.raises(ModelFormatError,
                       match=r"^layer 0: conv2d takes no hyperparameter 'padding'$"):
        _conv_pool_model({"stride": 1, "padding": "same"})
    with pytest.raises(ModelFormatError, match=r"^layer 0: hyperparams must be an object"):
        _conv_pool_model([("stride", 1)])


def test_window_fills_in_the_defaults():
    assert window("conv2d", {}) == window("conv2d", {"stride": 1}) == {"stride": 1}
    assert window("maxpool2d", {}) == {"kernel": 2, "stride": 2}
    assert window("maxpool2d", {"kernel": 3}) == {"kernel": 3, "stride": 3}
    assert window("maxpool2d", {"stride": 1}) == {"kernel": 2, "stride": 1}
    assert window("dense", {}) == window("relu", {}) == window("flatten", {}) == {}
    with pytest.raises(ModelFormatError, match=r"^kernel must be an integer, got 2\.0$"):
        window("maxpool2d", {"kernel": 2.0})


def test_save_load_roundtrip(tmp_path, conv3_model):
    path = tmp_path / "copy.json"
    save_model(conv3_model, path)
    again = load_model(path)
    assert len(again.layers) == len(conv3_model.layers)
    for a, b in zip(again.layers, conv3_model.layers):
        assert a.kind == b.kind
        if a.weights is not None:
            assert np.array_equal(a.weights.data, b.weights.data)


def test_sidecar_binary_tensor(tmp_path):
    w = np.array([[0.5, -1.5], [2.0, 0.25]], dtype=np.float32)
    (tmp_path / "w.bin").write_bytes(w.reshape(-1).astype("<f4").tobytes())
    obj = {
        "input_shape": [2],
        "num_classes": 2,
        "layers": [
            {"kind": "dense", "weights": {"shape": [2, 2], "data_file": "w.bin"}}
        ],
    }
    (tmp_path / "m.json").write_text(json.dumps(obj))
    model = load_model(tmp_path / "m.json")
    assert np.array_equal(model.layers[0].weights.array(), w)


def test_tensor_invariants():
    with pytest.raises(ShapeMismatchError):
        Tensor((3,), np.zeros(2))
    with pytest.raises(ShapeMismatchError):
        Tensor((-1, -2), np.zeros(2))
    # finiteness is checked once, when a model is built, not per Tensor
    with pytest.raises(ModelFormatError, match="layer 0: .*finite"):
        dense_model(np.array([[1.0, np.nan]]))


def test_concurrent_inference_safe(conv3_model):
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(8)
    xs = [rng.normal(size=(8, 8, 1)).astype(np.float32) for _ in range(16)]
    expected = [forward(conv3_model, x).data for x in xs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda x: forward(conv3_model, x).data, xs))
    for e, g in zip(expected, got):
        assert np.array_equal(e, g)


def _per_tap_conv(x, w, b, stride):
    """conv2d as `patch @ w[a, bb]` added to zeros tap by tap, then the bias."""
    kh, kw, _, out_ch = w.shape
    n, h, wd, _ = x.shape
    ho, wo = (h - kh) // stride + 1, (wd - kw) // stride + 1
    out = np.zeros((n, ho, wo, out_ch), np.float32)
    for a in range(kh):
        for bb in range(kw):
            out += x[:, a : a + stride * ho : stride, bb : bb + stride * wo : stride, :] @ w[a, bb]
    return out if b is None else out + b


def _assert_same_conv_bytes(x, w, b, stride):
    from qrepair.model import _conv2d

    want, got = _per_tap_conv(x, w, b, stride), _conv2d(x, w, b, stride)
    assert got.flags.c_contiguous and got.dtype == np.float32
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# row counts that leave a 32-row block empty, whole, short, or one row long
BATCH_SIZES = (0, 1, 31, 32, 33, 101)


def test_single_channel_conv_matches_stacked_matmul_bits():
    # at in_ch = 1 each tap's `patch @ w[a, bb]` is an exact product, so the
    # batch-innermost conv must reproduce the per-tap sums bit for bit
    rng = np.random.default_rng(31)
    for case in range(300):
        kh, kw = rng.integers(1, 4, size=2)
        stride = int(rng.integers(1, 3))
        h, wd = kh + rng.integers(0, 6), kw + rng.integers(0, 6)
        n = int(rng.choice(BATCH_SIZES)) if case % 2 else int(rng.integers(1, 5))
        out_ch = int(rng.integers(1, 6))
        x = rng.normal(size=(n, h, wd, 1)).astype(np.float32)
        if case % 3 == 0:
            x = np.asfortranarray(x)
        elif case % 3 == 1:
            x = np.repeat(x, 2, axis=2)[:, :, ::2]  # strided rows
        w = rng.normal(size=(kh, kw, 1, out_ch)).astype(np.float32)
        b = rng.normal(size=out_ch).astype(np.float32) if rng.random() < 0.5 else None
        _assert_same_conv_bytes(x, w, b, stride)
    # one output value per row and 9 taps: numpy would sum a lone value's taps
    # pairwise, which changes the bits about half the time
    for n in BATCH_SIZES * 10:
        x = rng.normal(size=(n, 3, 3, 1)).astype(np.float32)
        _assert_same_conv_bytes(x, rng.normal(size=(3, 3, 1, 1)).astype(np.float32), None, 1)
    # every product is -0.0: the per-tap sums start from +0.0, so they are +0.0
    for n in BATCH_SIZES:
        x = np.zeros((n, 5, 4, 1), np.float32)
        w = -rng.uniform(0.5, 2, size=(3, 3, 1, 2)).astype(np.float32)
        _assert_same_conv_bytes(x, w, None, 1)
        _assert_same_conv_bytes(x, w, np.array([-0.0, 0.0], np.float32), 1)


def test_multichannel_conv_matches_per_tap_bits_on_exact_sums():
    # integer values in [-8, 8] make every product and partial sum exact, so
    # the bytes must agree whatever gemm or gemv the BLAS runs: this checks the
    # indexing, strides and blocking, out_ch = 1 and wo = 1 included
    rng = np.random.default_rng(32)
    for case in range(200):
        kh, kw = (int(v) for v in rng.integers(1, 4, size=2))
        stride = int(rng.integers(1, 3))
        h, wd = kh + int(rng.integers(0, 6)), kw + int(rng.integers(0, 6))
        n = int(rng.choice(BATCH_SIZES))
        in_ch, out_ch = (int(v) for v in rng.integers(1, 7, size=2))
        x = rng.integers(-8, 9, size=(n, h, wd, in_ch)).astype(np.float32)
        if case % 2:
            x = np.asfortranarray(x)
        w = rng.integers(-8, 9, size=(kh, kw, in_ch, out_ch)).astype(np.float32)
        b = rng.integers(-8, 9, size=out_ch).astype(np.float32) if case % 3 else None
        _assert_same_conv_bytes(x, w, b, stride)


def test_conv3_layers_match_loop_oracle(conv3_model):
    # each conv layer of the fixture on 40 rows of its real input (two blocks)
    from types import SimpleNamespace

    from qrepair.model import _conv2d

    x = np.random.default_rng(33).normal(size=(40, 8, 8, 1)).astype(np.float32)
    for layer in conv3_model.layers:
        if layer.kind != "conv2d":
            break
        w, b = layer.weights.array(), layer.bias.array()
        got = _conv2d(x, w, b, int(layer.hyperparams.get("stride", 1)))
        one_layer = SimpleNamespace(input_shape=x.shape[1:], layers=[layer])
        want = np.stack([loop_forward(one_layer, row) for row in x])
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6 * np.abs(want).max())
        x = np.maximum(got, 0)


def test_conv3_forward_memory_peak(conv3_model):
    # a 300-row conv3 forward stays under 1 MB of numpy allocations: the
    # conv works in blocks of rows, never on the whole batch's window stack
    import tracemalloc

    from qrepair.model import forward_batch

    x = np.random.default_rng(34).normal(size=(300, 64)).astype(np.float32)
    forward_batch(conv3_model, x)
    tracemalloc.start()
    try:
        forward_batch(conv3_model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
