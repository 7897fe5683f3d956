"""The batched forward walker against per-row loops over the single-sample API.

Every batched caller (classification, diff matrix, LP constraints, accuracy
and fidelity) must give the labels and statuses a row-at-a-time loop gives,
and values equal to 1e-6 relative, on float and quantized twins of a conv
model, a conv+maxpool model and a trained MLP.
"""

import numpy as np
import pytest

from conftest import make_dataset, make_desk_parts
from qrepair.evaluate import accuracy, fidelity
from qrepair.experiment import PresetSpec
from qrepair.localize import build_diff_matrix, classify_tests, compare_at_layer
from qrepair.lp import EmptyLPError, build_neuron_lp
from qrepair.model import (
    Layer,
    Model,
    argmax_label,
    capture_activations,
    forward,
    forward_batch,
)
from qrepair.quantize import (
    capture_activations_q,
    layer_input_vector,
    quantize_model,
    quantized_forward,
)

DESK = PresetSpec(dim=10, num_classes=3, hidden=12, n_train=240, n_repair=120,
                  n_val=120, epochs=25, lr=0.15, batch=32)
RTOL = 1e-6


def pooled_model(conv3_model) -> Model:
    rng = np.random.default_rng(5)

    def dense(d_in, d_out):
        return Layer("dense", rng.normal(size=(d_in, d_out)).astype(np.float32),
                     rng.normal(size=d_out).astype(np.float32))

    conv = conv3_model.layers[0]
    layers = [Layer("conv2d", conv.weights, conv.bias), Layer("relu"), Layer("maxpool2d"),
              Layer("flatten"), dense(36, 8), Layer("relu"), dense(8, 3)]
    return Model(layers, (8, 8, 1), 3)


@pytest.fixture(params=["conv3", "pooled", "desk"])
def case(request, conv3_model, conv3_val):
    """(float model, quantized twin, dataset)."""
    if request.param == "conv3":
        return conv3_model, quantize_model(conv3_model), conv3_val
    if request.param == "pooled":
        fmodel = pooled_model(conv3_model)
        x = np.random.default_rng(6).normal(size=(80, 64)).astype(np.float32)
        labels = [argmax_label(forward(fmodel, row)) for row in x]
        return fmodel, quantize_model(fmodel), make_dataset(x, labels, num_classes=3)
    fmodel, qmodel, repair_set, _ = make_desk_parts(DESK)
    return fmodel, qmodel, repair_set


def rows(model, dataset):
    return [dataset.features[i].reshape(model.input_shape) for i in range(len(dataset))]


def has_codes(model) -> bool:
    return any(layer.qweights is not None for layer in model.layers)


def row_labels(model, dataset) -> np.ndarray:
    run = quantized_forward if has_codes(model) else forward
    return np.array([argmax_label(run(model, x)) for x in rows(model, dataset)])


def row_pre(model, dataset, layer) -> np.ndarray:
    capture = capture_activations_q if has_codes(model) else capture_activations
    return np.array([capture(model, x, {layer})[0].pre_activation.data
                     for x in rows(model, dataset)])


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * np.abs(want).max())


def weight_layers(model):
    return [i for i, l in enumerate(model.layers) if l.kind in ("dense", "conv2d")]


def dense_indices(model):
    return [i for i, l in enumerate(model.layers) if l.kind == "dense"]


def test_forward_batch_matches_rows(case):
    fmodel, qmodel, dataset = case
    for model in (fmodel, qmodel):
        layers = weight_layers(model)
        last = layers[-1]
        logits, pre, x_in = forward_batch(model, dataset.features, set(layers), input_of=last)
        run = forward if model is fmodel else quantized_forward
        want = np.array([run(model, x).data for x in rows(model, dataset)])
        assert_close(logits, want)
        assert np.array_equal(logits.argmax(axis=1), row_labels(model, dataset))
        for layer in layers:
            got = pre[layer].reshape(len(dataset), -1)
            want = row_pre(model, dataset, layer)
            assert np.array_equal(got > 0, want > 0), layer
            assert_close(got, want)
        if model is qmodel:
            want = np.array([layer_input_vector(qmodel, x, last) for x in rows(qmodel, dataset)])
            assert_close(x_in, want)


def test_classify_and_diff_match_rows(case):
    fmodel, qmodel, dataset = case
    outcomes = classify_tests(fmodel, qmodel, dataset)
    want_f, want_q = row_labels(fmodel, dataset), row_labels(qmodel, dataset)
    assert [o.input_id for o in outcomes] == list(range(len(dataset)))
    assert [o.float_label for o in outcomes] == want_f.tolist()
    assert [o.quant_label for o in outcomes] == want_q.tolist()
    for layer in dense_indices(fmodel):
        diff = build_diff_matrix(fmodel, qmodel, dataset, layer)
        want = (row_pre(fmodel, dataset, layer) > 0) != (row_pre(qmodel, dataset, layer) > 0)
        assert np.array_equal(diff, want), layer


@pytest.mark.parametrize("max_constraints", [3, 64])
def test_lp_constraints_match_rows(case, max_constraints):
    fmodel, qmodel, dataset = case
    failing = row_labels(fmodel, dataset) != row_labels(qmodel, dataset)
    order = [i for i in range(len(dataset)) if failing[i]]
    order += [i for i in range(len(dataset)) if not failing[i]]
    for layer in dense_indices(fmodel):
        status_f = (row_pre(fmodel, dataset, layer) > 0).astype(int)
        status_q = (row_pre(qmodel, dataset, layer) > 0).astype(int)
        x_in = [layer_input_vector(qmodel, x, layer) for x in rows(qmodel, dataset)]
        comparison = compare_at_layer(fmodel, qmodel, dataset, layer)
        w = qmodel.layers[layer].eff_weights.astype(np.float64)
        bias = qmodel.layers[layer].bias.array().astype(np.float64)
        for n in range(status_f.shape[1]):
            want = [i for i in order if status_f[i, n] != status_q[i, n]][:max_constraints]
            # then the agreeing rows, nearest the quantized boundary first
            near = sorted((abs(float(np.dot(x_in[i].astype(np.float64), w[:, n])) + bias[n]), i)
                          for i in range(len(dataset)) if status_f[i, n] == status_q[i, n])
            want += [i for _, i in near[:max_constraints]] if want else []
            try:
                lp = build_neuron_lp(comparison, n, max_constraints=max_constraints)
            except EmptyLPError:
                assert want == [], (layer, n)
                continue
            assert [c.test_id for c in lp.constraints] == want, (layer, n)
            for con in lp.constraints:
                assert (con.target_status, con.current_status) == \
                    (status_f[con.test_id, n], status_q[con.test_id, n])
                assert_close(con.x, x_in[con.test_id])


def test_accuracy_and_fidelity_match_rows(case):
    fmodel, qmodel, dataset = case
    labels_f, labels_q = row_labels(fmodel, dataset), row_labels(qmodel, dataset)
    assert accuracy(fmodel, dataset).correct == int(np.sum(labels_f == dataset.labels))
    assert accuracy(qmodel, dataset).correct == int(np.sum(labels_q == dataset.labels))
    n = len(dataset)
    assert fidelity(fmodel, qmodel, dataset) == (n - int(np.sum(labels_f != labels_q))) / n


def test_forward_batch_rejects_non_finite_rows_and_logits(conv3_model):
    x = np.zeros((3, 64), dtype=np.float32)
    x[1, 7] = np.nan
    for model in (conv3_model, quantize_model(conv3_model)):
        with pytest.raises(ValueError, match="finite"):
            forward_batch(model, x)
    huge = Model([Layer("dense", np.full((2, 2), 3e38, np.float32))], (2,), 2)
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        forward_batch(huge, np.ones((4, 2), dtype=np.float32))


def test_forward_batch_from_any_layer_equals_a_full_pass(case):
    # the rows `input_of` returns, run from that layer on, give the bits of a
    # full pass, for every layer kind a walk can start at
    for model in case[:2]:
        full = forward_batch(model, case[2].features)[0]
        for start in range(len(model.layers)):
            _, _, rows_in = forward_batch(model, case[2].features, input_of=start)
            logits, _, again = forward_batch(model, rows_in, input_of=start, start=start)
            assert logits.tobytes() == full.tobytes(), start
            assert again.tobytes() == rows_in.tobytes()


def test_forward_batch_start_is_checked(conv3_model):
    with pytest.raises(IndexError, match="start layer"):
        forward_batch(conv3_model, np.zeros((2, 32), np.float32), start=len(conv3_model.layers))
    with pytest.raises(ValueError, match="layer 4 input"):
        forward_batch(conv3_model, np.zeros((2, 31), np.float32), start=4)
    with pytest.raises(ValueError, match="finite"):
        forward_batch(conv3_model, np.full((2, 32), np.inf, np.float32), start=4)


@pytest.mark.parametrize("kwargs", [
    {"input_of": 2, "start": 4}, {"input_of": 99}, {"input_of": -1},
    {"capture": {99}}, {"capture": {1, 5}, "start": 4}, {"capture": {-1}},
], ids=["input_of_before_start", "input_of_past_end", "input_of_negative",
        "capture_past_end", "capture_before_start", "capture_negative"])
def test_forward_batch_rejects_a_layer_it_does_not_run(conv3_model, kwargs):
    # unchecked, the layer input reads None and the capture dict lacks the layer
    width = 64 if kwargs.get("start", 0) == 0 else 32
    with pytest.raises(IndexError, match="is not run: the layers run are "):
        forward_batch(conv3_model, np.zeros((2, width), np.float32), **kwargs)
