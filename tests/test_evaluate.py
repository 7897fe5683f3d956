import re

import numpy as np
import pytest

from conftest import dense_model, grid_mlp, make_dataset, manual_qmodel
from qrepair.evaluate import accuracy, evaluate, fidelity
from qrepair.localize import classify_tests
from qrepair.quantize import quantize_model


def constant_class0_model():
    return dense_model(np.zeros((2, 3)), np.array([1.0, 0.0, 0.0]))


def test_accuracy_constant_predictor():
    model = constant_class0_model()
    labels = [0, 0, 0, 0, 1, 1, 2, 2, 1, 2]  # 40% zeros
    ds = make_dataset(np.zeros((10, 2)), labels=labels, num_classes=3)
    res = accuracy(model, ds)
    assert res.n == 10
    assert res.correct == 4
    assert res.accuracy == pytest.approx(0.4)


def test_accuracy_perfect_lookup():
    # memorizes three 1-d points: -1 -> 0, 0 -> 1, 1 -> 2
    model = dense_model(np.array([[-5.0, 0.0, 5.0]]), np.array([0.0, 2.0, 0.0]))
    ds = make_dataset([[-1.0], [0.0], [1.0]], labels=[0, 1, 2], num_classes=3)
    assert accuracy(model, ds).accuracy == 1.0


def test_accuracy_repeatable():
    model = constant_class0_model()
    ds = make_dataset(np.zeros((4, 2)), labels=[0, 1, 2, 0], num_classes=3)
    assert accuracy(model, ds) == accuracy(model, ds)


def test_accuracy_empty_dataset():
    model = constant_class0_model()
    ds = make_dataset(np.zeros((0, 2)), labels=np.zeros(0), num_classes=3)
    with pytest.raises(ValueError):
        accuracy(model, ds)


def test_fidelity_identical_models():
    rng = np.random.default_rng(4)
    model = grid_mlp(rng)
    qm = quantize_model(model)  # grid weights quantize losslessly
    ds = make_dataset(rng.normal(size=(12, 6)).astype(np.float32),
                      labels=np.zeros(12, np.int64), num_classes=model.num_classes)
    assert fidelity(model, qm, ds) == 1.0


def test_fidelity_one_of_four():
    fmodel = dense_model(np.eye(2))
    qmodel = manual_qmodel(fmodel, [np.array([[1, 0], [0, 2]])])
    rows = [[2.0, 1.0], [1.0, 0.6], [0.5, 0.1], [-1.0, -1.0]]
    # only [1.0, 0.6] flips: float argmax 0, quantized logits [1.0, 1.2] -> 1
    ds = make_dataset(rows, labels=[0] * 4, num_classes=2)
    assert fidelity(fmodel, qmodel, ds) == pytest.approx(0.75)


def test_fidelity_symmetric_and_order_invariant():
    fmodel = dense_model(np.eye(2))
    qmodel = manual_qmodel(fmodel, [np.array([[1, 0], [0, 2]])])
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(16, 2)).astype(np.float32)
    ds = make_dataset(feats, labels=np.zeros(16, np.int64), num_classes=2)
    f_ab = fidelity(fmodel, qmodel, ds)
    # symmetric: model arguments can swap (quantized first)
    swapped = fidelity(qmodel, fmodel, ds)
    assert f_ab == swapped
    perm = rng.permutation(16)
    shuffled = ds.subset(perm.tolist())
    assert fidelity(fmodel, qmodel, shuffled) == f_ab
    assert accuracy(fmodel, shuffled).accuracy == accuracy(fmodel, ds).accuracy


def test_one_minus_fidelity_equals_failing_fraction(conv3_model, conv3_val):
    qm = quantize_model(conv3_model)
    outcomes = classify_tests(conv3_model, qm, conv3_val)
    failing = sum(o.is_failing for o in outcomes)
    fid = fidelity(conv3_model, qm, conv3_val)
    assert 1.0 - fid == pytest.approx(failing / len(conv3_val), abs=1e-12)


def test_fidelity_empty_dataset():
    fmodel = dense_model(np.eye(2))
    qmodel = manual_qmodel(fmodel, [np.eye(2, dtype=int)])
    ds = make_dataset(np.zeros((0, 2)), labels=np.zeros(0), num_classes=2)
    with pytest.raises(ValueError):
        fidelity(fmodel, qmodel, ds)


@pytest.mark.parametrize("labels", [np.array([1]), np.array([0, 1]), np.zeros(5, np.int64),
                                    np.zeros((4, 1), np.int64), np.int64(0)],
                         ids=["one", "two", "five", "column", "scalar"])
def test_evaluate_refuses_labels_that_are_not_one_per_row(labels):
    ds = make_dataset(np.zeros((4, 2)), labels=[1, 1, 1, 0], num_classes=2)
    shape = re.escape(str(np.shape(labels)))
    with pytest.raises(ValueError, match=f"^predicted has shape {shape}, .* 4 dataset rows"):
        evaluate(labels, ds)
    with pytest.raises(ValueError, match=f"^reference has shape {shape}, .* 4 dataset rows"):
        evaluate(np.ones(4, np.int64), ds, labels)


def test_evaluate_scores_one_label_per_row():
    ds = make_dataset(np.zeros((4, 2)), labels=[1, 1, 1, 0], num_classes=2)
    res = evaluate(np.array([1, 1, 0, 0]), ds, reference=np.array([1, 0, 0, 0]))
    assert (res.n, res.correct, res.accuracy, res.fidelity) == (4, 3, 0.75, 0.75)
