import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_model, grid_mlp, make_dataset, manual_qmodel
from qrepair.localize import (
    METRICS,
    SpectraCounters,
    accumulate_spectra,
    build_diff_matrix,
    classify_tests,
    compare_at_layer,
    importance,
    importance_scores,
    rank_neurons,
    spectra_csv,
)
from qrepair.model import capture_activations
from qrepair.quantize import capture_activations_q, quantize_model

HAND_CASE = (2, 3, 1, 4)
HAND_VALUES = {
    "tarantula": 0.666667,
    "ochiai": 0.516398,
    "dstar": 1.0,
    "jaccard": 0.333333,
    "ample": 0.2,
    "euclid": 2.449490,
    "wong3": 1.0,
}

counters_st = st.tuples(*[st.integers(0, 200)] * 4)


@pytest.mark.parametrize("metric", METRICS)
def test_importance_hand_values(metric):
    assert importance(HAND_CASE, metric) == pytest.approx(HAND_VALUES[metric], abs=1e-6)


def test_importance_zero_counters():
    for metric in METRICS:
        assert importance((0, 0, 0, 0), metric) == 0.0


def test_importance_unknown_metric():
    with pytest.raises(ValueError):
        importance(HAND_CASE, "nope")


def test_dstar_exponent():
    # D* with the exponent fixed at 2: c_af^2 / (c_as + c_nf)
    assert importance((3, 1, 1, 0), "dstar") == pytest.approx(9 / 2)


def test_dstar_infinite_case_gets_sentinel():
    assert importance((2, 0, 0, 5), "dstar") == math.inf
    counters = SpectraCounters([2, 1], [0, 1], [0, 1], [5, 4])
    scores = importance_scores(counters, "dstar")
    assert scores.dtype == np.float64
    assert np.all(np.isfinite(scores))
    assert scores[0] > scores[1]  # sentinel outranks every finite score


@pytest.mark.parametrize("metric", METRICS)
def test_importance_scores_match_importance_per_neuron(metric):
    rng = np.random.default_rng(7)
    columns = rng.integers(0, 50, size=(4, 60))
    columns[:, :5] = 0  # all four counters zero
    columns[0, 5:20] = 0  # c_af == 0
    columns[1:3, 20:30] = 0  # c_nf == c_as == 0: dstar's c_af^2 / 0
    scores = importance_scores(SpectraCounters(*columns), metric)
    want = np.array([importance(tuple(int(c) for c in col), metric) for col in columns.T])
    finite = np.isfinite(want)
    assert scores.dtype == np.float64
    assert scores[finite].tobytes() == want[finite].tobytes()
    assert (~finite).any() == (metric == "dstar")
    assert np.all(scores[~finite] == want[finite].max() + 1)


def test_wong3_piecewise():
    assert importance((5, 0, 1, 0), "wong3") == pytest.approx(5 - 1)
    assert importance((5, 0, 6, 0), "wong3") == pytest.approx(5 - (2 + 0.1 * 4))
    assert importance((5, 0, 20, 0), "wong3") == pytest.approx(5 - (2.8 + 0.01 * 10))


@given(counters_st)
@settings(deadline=None)
def test_metric_ranges(c):
    for metric in ("tarantula", "ochiai", "jaccard", "ample"):
        v = importance(c, metric)
        assert 0.0 <= v <= 1.0 + 1e-12
    assert importance(c, "euclid") >= 0.0
    for metric in METRICS:
        v = importance(c, metric)
        assert not math.isnan(v)


@given(counters_st)
@settings(deadline=None)
def test_monotone_in_failing_activations(c):
    c_af, c_nf, c_as, c_ns = c
    bumped = (c_af + 1, c_nf, c_as, c_ns)
    for metric in ("tarantula", "ochiai", "dstar", "jaccard"):
        assert importance(bumped, metric) >= importance(c, metric) - 1e-12


@given(counters_st)
@settings(deadline=None)
def test_identical_counters_identical_scores(c):
    for metric in METRICS:
        assert importance(c, metric) == importance(tuple(c), metric)


def test_rank_neurons_tie_break():
    assert rank_neurons(np.array([0.2, 0.9, 0.9])) == [1, 2, 0]


def test_rank_all_equal_is_identity():
    assert rank_neurons(np.ones(5)) == [0, 1, 2, 3, 4]


def test_rank_deterministic_with_dominant_neurons():
    rng = np.random.default_rng(0)
    c_af = np.zeros(50, np.int64)
    c_af[[3, 17, 41]] = 90  # a handful dominate
    c_af += rng.integers(0, 3, size=50)
    counters = SpectraCounters(c_af, 100 - c_af, np.zeros(50), np.full(50, 10))
    first = rank_neurons(importance_scores(counters, "ochiai"))
    for _ in range(5):
        assert rank_neurons(importance_scores(counters, "ochiai")) == first
    assert set(first[:3]) == {3, 17, 41}


# --- classify / diff / accumulate ----------------------------------------


def test_classify_exact_quantization_no_failures():
    rng = np.random.default_rng(12)
    model = grid_mlp(rng)
    qm = quantize_model(model)
    ds = make_dataset(rng.normal(size=(20, 6)).astype(np.float32),
                      labels=np.zeros(20), num_classes=model.num_classes)
    outcomes = classify_tests(model, qm, ds)
    assert len(outcomes) == 20
    assert all(not o.is_failing for o in outcomes)


def test_classify_empty_dataset(conv3_model):
    for model in (dense_model(np.eye(2)), conv3_model):
        qm = quantize_model(model)
        ds = make_dataset(np.zeros((0, math.prod(model.input_shape))), labels=np.zeros(0),
                          num_classes=model.num_classes)
        assert classify_tests(model, qm, ds) == []


def test_classify_conv3_fixture_fails_on_row7(conv3_model, conv3_val):
    qm = quantize_model(conv3_model)
    outcomes = classify_tests(conv3_model, qm, conv3_val)
    assert outcomes[7].is_failing
    assert sum(o.is_failing for o in outcomes) >= 1
    # partition: every test is exactly one of passing/failing
    assert all(o.is_failing == (o.float_label != o.quant_label) for o in outcomes)


def test_diff_matrix_zero_when_statuses_match():
    rng = np.random.default_rng(13)
    model = grid_mlp(rng)
    qm = quantize_model(model)
    ds = make_dataset(rng.normal(size=(8, 6)).astype(np.float32),
                      labels=np.zeros(8), num_classes=model.num_classes)
    layer = model.last_dense_index()
    diff = build_diff_matrix(model, qm, ds, layer)
    assert diff.shape == (8, model.layers[layer].weights.shape[1])
    assert not diff.any()


def test_diff_matrix_single_flip():
    # quantized twin flips the sign of neuron 1's weight: x=[1,1] disagrees
    fmodel = dense_model(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]))
    qmodel = manual_qmodel(fmodel, [np.array([[1, 0, 0], [0, -1, 0]])])
    ds = make_dataset([[1.0, 1.0], [1.0, -1.0]], labels=[0, 0], num_classes=3)
    diff = build_diff_matrix(fmodel, qmodel, ds, 0)
    # test 0: float statuses (1,1,1) vs quant (1,0,? ->0 for col2 zero weights)
    # hand check col by col
    (rec_f0,) = capture_activations(fmodel, np.array([1.0, 1.0], np.float32), {0})
    (rec_q0,) = capture_activations_q(qmodel, np.array([1.0, 1.0], np.float32), {0})
    expect0 = np.abs(rec_f0.status.astype(int) - rec_q0.status.astype(int))
    assert np.array_equal(diff[0], expect0)
    assert diff[0, 1]  # the flipped neuron


def test_diff_matrix_rejects_non_dense(conv3_model):
    qm = quantize_model(conv3_model)
    ds = make_dataset(np.zeros((1, 64)), labels=[0], num_classes=10)
    with pytest.raises(ValueError):
        build_diff_matrix(conv3_model, qm, ds, 0)  # conv layer


def test_diff_matrix_entries_rederivable(conv3_model, conv3_val):
    qm = quantize_model(conv3_model)
    layer = conv3_model.last_dense_index()
    sub = conv3_val.subset(range(10))
    diff = build_diff_matrix(conv3_model, qm, sub, layer)
    for t in range(10):
        x = sub.features[t].reshape(conv3_model.input_shape)
        (rf,) = capture_activations(conv3_model, x, {layer})
        (rq,) = capture_activations_q(qm, x, {layer})
        assert np.array_equal(
            diff[t], np.abs(rf.status.astype(int) - rq.status.astype(int))
        )


def test_accumulate_zero_diff():
    failing = np.arange(10) < 5  # 5 fail
    c = accumulate_spectra(np.zeros((10, 4), np.uint8), failing)
    for counter, want in zip(c, (0, 5, 0, 5)):
        assert np.array_equal(counter, np.full(4, want))


def test_accumulate_single_failing_diff():
    c = accumulate_spectra(np.array([[0, 0, 1]], np.uint8), np.array([True]))
    assert np.array_equal(c.c_af, [0, 0, 1])
    assert np.array_equal(c.c_nf, [1, 1, 0])
    assert np.array_equal(c.c_as, [0, 0, 0])
    assert np.array_equal(c.c_ns, [0, 0, 0])


def test_accumulate_length_mismatch():
    with pytest.raises(ValueError):
        accumulate_spectra(np.zeros((2, 3), np.uint8), np.array([False]))


@given(st.integers(0, 2**31 - 1))
@settings(deadline=None, max_examples=100)
def test_accumulate_invariants_random(seed):
    rng = np.random.default_rng(seed)
    t, n = int(rng.integers(1, 12)), int(rng.integers(1, 9))
    diff = rng.integers(0, 2, size=(t, n)).astype(np.uint8)
    failing = rng.integers(0, 2, size=t).astype(bool)
    c = accumulate_spectra(diff, failing)
    n_fail = int(failing.sum())
    assert np.all(c.c_af + c.c_nf == n_fail)
    assert np.all(c.c_as + c.c_ns == t - n_fail)


def test_spectra_csv_format():
    counters = SpectraCounters([2, 0], [3, 5], [1, 0], [4, 5])
    scores = importance_scores(counters, "dstar")
    text = spectra_csv(counters, scores, "dstar")
    lines = text.strip().split("\n")
    assert lines[0] == "0,2,3,1,4,dstar=1,1"
    assert lines[1] == "1,0,5,0,5,dstar=0,2"


def test_compare_at_layer_defaults_to_the_last_dense_layer():
    rng = np.random.default_rng(3)
    fmodel = grid_mlp(rng)
    qmodel = quantize_model(fmodel)
    ds = make_dataset(rng.normal(size=(20, 6)), num_classes=fmodel.num_classes)
    default = compare_at_layer(fmodel, qmodel, ds)
    assert default.layer_index == fmodel.last_dense_index()
    explicit = compare_at_layer(fmodel, qmodel, ds, fmodel.last_dense_index())
    assert np.array_equal(default.status_quant, explicit.status_quant)
