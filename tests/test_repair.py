import json
import re
import sys

import numpy as np
import pytest

import qrepair.model as model_mod
import qrepair.repair as repair_mod

from conftest import (
    FIXTURES,
    GOLDEN,
    dense_model,
    grid_mlp,
    make_dataset,
    make_desk_parts,
    manual_qmodel,
    pool_model,
)
from qrepair.experiment import PresetSpec
from qrepair.localize import classify_tests, compare_at_layer
from qrepair.lp import build_neuron_lp, solve_lp
from qrepair.model import dequantize
from qrepair.quantize import (
    capture_activations_q,
    load_qmodel,
    quantize_model,
    quantized_forward,
    save_qmodel,
)
from qrepair.repair import RepairConfig, apply_deltas, repair

SPEC = PresetSpec(dim=10, num_classes=3, hidden=12, n_train=240, n_repair=120,
                  n_val=120, epochs=25, lr=0.15, batch=32)


@pytest.fixture(scope="module")
def desk_fixture():
    """Small trained MLP with a deliberately mis-quantized output layer."""
    fmodel, qmodel, repair_set, val = make_desk_parts(SPEC)
    outcomes = classify_tests(fmodel, qmodel, repair_set)
    assert sum(o.is_failing for o in outcomes) >= 3, "fixture must have failing tests"
    return fmodel, qmodel, repair_set, val


def test_repair_rejects_topology_mismatch(desk_fixture):
    fmodel, qmodel, repair_set, _ = desk_fixture
    other = dense_model(np.eye(3))
    oq = quantize_model(other)
    with pytest.raises(ValueError):
        repair(fmodel, oq, repair_set, None, RepairConfig())


def test_repair_rejects_a_twin_with_another_pooling_window():
    # both pool the 6x6 input to 3x3, so the weight shapes match
    fmodel, twin = pool_model({"kernel": 2}), quantize_model(pool_model({"kernel": 4, "stride": 1}))
    rows = make_dataset(np.random.default_rng(0).normal(size=(40, 36)), num_classes=2)
    with pytest.raises(ValueError, match=r"^layer 0: .*maxpool2d.*'kernel': 4"):
        repair(fmodel, twin, rows, rows, RepairConfig(top_n=2))


def test_repair_writes_one_lp_file_per_solved_neuron_into_a_missing_directory(
        desk_fixture, tmp_path):
    fmodel, qmodel, repair_set, val = desk_fixture
    lp_dir = tmp_path / "missing" / "lps"
    _, report = repair(fmodel, qmodel, repair_set, val,
                       RepairConfig(top_n=3, lp_dir=str(lp_dir)))
    solved = [r.neuron for r in report.records if r.status != "skipped"]
    assert solved
    assert sorted(p.name for p in lp_dir.iterdir()) == sorted(
        f"neuron_L{report.target_layer}_N{n}.lp" for n in solved)


def test_repair_rejects_non_dense_target(conv3_model, desk_fixture):
    from conftest import make_dataset

    qm = quantize_model(conv3_model)
    ds = make_dataset(np.zeros((2, 64)), labels=[0, 0], num_classes=10)
    with pytest.raises(ValueError):
        repair(conv3_model, qm, ds, None, RepairConfig(target_layer=3))  # flatten


@pytest.mark.parametrize("metric", ["nope", "random", "DStar"])
def test_config_rejects_a_metric_it_cannot_rank_by(metric):
    # caught when the config is built, before any model runs
    with pytest.raises(ValueError, match=rf"^metric must be one of .*got '{metric}'$"):
        RepairConfig(metric=metric)


@pytest.mark.parametrize("field,value", [
    ("top_n", 2.5), ("top_n", True), ("top_n", "3"), ("top_n", None),
    ("max_constraints", 1.5), ("max_constraints", False), ("max_constraints", np.float32(8)),
    ("max_constraints", np.bool_(True)),
    ("target_layer", 1.0), ("target_layer", True), ("target_layer", "0"),
])
def test_config_rejects_a_count_or_layer_that_is_not_an_integer(field, value):
    # caught when the config is built, not by a slice after the model comparison
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
        RepairConfig(**{field: value})


@pytest.mark.parametrize("value", ["", 5, True])
def test_config_rejects_an_lp_dir_that_is_not_a_path(value):
    # "" joined as f"{lp_dir}/name" wrote every LP file at the filesystem root
    with pytest.raises(ValueError, match=r"^lp_dir must be None, a non-empty string or a path, "):
        RepairConfig(lp_dir=value)


def test_repair_takes_an_lp_dir_as_a_path(desk_fixture, tmp_path):
    fmodel, qmodel, repair_set, val = desk_fixture
    _, report = repair(fmodel, qmodel, repair_set, val, RepairConfig(top_n=1, lp_dir=tmp_path))
    (record,) = report.records
    assert [p.name for p in tmp_path.iterdir()] == [
        f"neuron_L{report.target_layer}_N{record.neuron}.lp"]


@pytest.mark.parametrize("field,value", [
    ("epsilon", "0.1"), ("epsilon", None), ("epsilon", True), ("epsilon", np.bool_(True)),
    ("time_budget", None), ("time_budget", False), ("time_budget", "60"),
    ("time_budget", np.bool_(False)),
    ("delta_bound", True), ("delta_bound", "0.5"), ("delta_bound", [0.5]),
    ("delta_bound", np.bool_(True)),
])
def test_config_rejects_a_tolerance_or_budget_that_is_not_a_real_number(field, value):
    # caught when the config is built, with the field named, not by a comparison's bare TypeError
    with pytest.raises(ValueError, match=rf"^{field} must be a real number, got "):
        RepairConfig(**{field: value})


@pytest.mark.parametrize("field,value,message", [
    ("top_n", 0, "top_n must be >= 1, got 0"),
    ("max_constraints", 0, "max_constraints must be >= 1, got 0"),
    ("epsilon", -1e-12, "epsilon must be finite and >= 0, got -1e-12"),
    ("epsilon", np.inf, "epsilon must be finite and >= 0, got inf"),
    ("epsilon", np.nan, "epsilon must be finite and >= 0, got nan"),
    ("time_budget", -1.0, "time_budget must be >= 0, got -1.0"),
    ("time_budget", np.nan, "time_budget must be >= 0, got nan"),
    ("delta_bound", 0.0, "delta_bound must be finite and > 0, got 0.0"),
    ("delta_bound", np.inf, "delta_bound must be finite and > 0, got inf"),
], ids=["top_n_0", "max_constraints_0", "epsilon_negative", "epsilon_inf", "epsilon_nan",
        "time_budget_negative", "time_budget_nan", "delta_bound_0", "delta_bound_inf"])
def test_config_rejects_a_number_out_of_its_range(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RepairConfig(**{field: value})


def test_config_takes_each_range_at_its_bound_and_an_infinite_time_budget():
    config = RepairConfig(top_n=1, max_constraints=1, epsilon=0, time_budget=np.inf)
    assert (config.top_n, config.max_constraints, config.epsilon) == (1, 1, 0.0)
    assert config.time_budget == np.inf


def test_config_takes_numpy_reals_integers_and_no_delta_bound():
    config = RepairConfig(epsilon=np.float32(0.5), time_budget=60, delta_bound=np.float64(0.25))
    assert (config.epsilon, config.time_budget, config.delta_bound) == (0.5, 60, 0.25)
    assert RepairConfig(delta_bound=None).delta_bound is None


def test_config_takes_numpy_integers_and_no_target_layer():
    config = RepairConfig(top_n=np.int64(2), max_constraints=np.int32(8), target_layer=None)
    assert (config.top_n, config.max_constraints, config.target_layer) == (2, 8, None)


@pytest.mark.parametrize("order", [[0, 0, 1], [-1, 1], [0, 3], [0.0, 1], [True, 2], ["0"]],
                         ids=["repeat", "negative", "too_large", "float", "bool", "string"])
def test_repair_rejects_a_neuron_order_of_anything_but_distinct_neurons(desk_fixture, order):
    fmodel, qmodel, repair_set, val = desk_fixture
    with pytest.raises(ValueError, match=r"^neuron_order must hold distinct integers in 0\.\.2, "):
        repair(fmodel, qmodel, repair_set, val, RepairConfig(top_n=3), neuron_order=order)


def test_repair_takes_a_partial_neuron_order_of_numpy_integers(desk_fixture):
    fmodel, qmodel, repair_set, val = desk_fixture
    _, given = repair(fmodel, qmodel, repair_set, val, RepairConfig(top_n=3),
                      neuron_order=np.array([2, 0]))
    _, listed = repair(fmodel, qmodel, repair_set, val, RepairConfig(top_n=3),
                       neuron_order=[2, 0])
    assert [r.neuron for r in given.records] == [2, 0]
    assert given.to_json() == listed.to_json()


def test_zero_failing_returns_unchanged():
    rng = np.random.default_rng(21)
    model = grid_mlp(rng)
    qm = quantize_model(model)  # lossless: behavior identical
    ds = make_dataset(rng.normal(size=(10, 6)).astype(np.float32),
                      labels=np.zeros(10, np.int64), num_classes=model.num_classes)
    patched, report = repair(model, qm, ds, ds, RepairConfig(metric="tarantula"))
    assert report.warning is not None
    assert report.attempts == 0
    for before, after in zip(qm.layers, patched.layers):
        if before.eff_weights is not None:
            assert np.array_equal(before.eff_weights, after.eff_weights)


@pytest.fixture
def conv3_agreeing(conv3_model, conv3_val, monkeypatch):
    """conv3's models and the conv3_val rows they label alike, with LP building
    and solving made to fail: the target layer's statuses still disagree there."""
    qmodel = load_qmodel(FIXTURES / "conv3_quant.json")
    agreeing = conv3_val.subset(np.flatnonzero(
        ~compare_at_layer(conv3_model, qmodel, conv3_val).failing))
    c = compare_at_layer(conv3_model, qmodel, agreeing)
    assert not c.failing.any() and (c.status_float != c.status_quant).sum() == 4

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was built or solved")

    monkeypatch.setattr(repair_mod, "build_neuron_lp", no_lp)
    monkeypatch.setattr(repair_mod, "solve_lp", no_lp)
    return conv3_model, qmodel, agreeing, conv3_val


@pytest.mark.parametrize("val", ["agreeing", "conv3_val", None])
@pytest.mark.parametrize("order", [None, [3, 1, 7]])
def test_no_failing_test_solves_nothing_and_keeps_the_before_scores(conv3_agreeing, val, order):
    fmodel, qmodel, agreeing, conv3_val = conv3_agreeing
    validation = {"agreeing": agreeing, "conv3_val": conv3_val, None: None}[val]
    _, report = repair(fmodel, qmodel, agreeing, validation, RepairConfig(), neuron_order=order)
    assert report.attempts == 0 and report.n_failing == 0 and report.n_passing == len(agreeing)
    assert report.warning == "no failing tests in the repair set; nothing to repair"
    # the after-pass scores the unpatched copy, so the scores match to the bit
    assert report.accuracy_after == report.accuracy_before
    assert report.fidelity_after == report.fidelity_before
    assert (report.accuracy_before is None) == (val is None)
    if val == "conv3_val":
        assert report.accuracy_before < 1 and report.fidelity_before < 1


@pytest.mark.parametrize("order", [[0, 0], [10], [-1], [1.5], ["2"]])
def test_no_failing_test_still_checks_the_order(conv3_agreeing, order):
    fmodel, qmodel, agreeing, conv3_val = conv3_agreeing
    with pytest.raises(ValueError, match="neuron_order"):
        repair(fmodel, qmodel, agreeing, conv3_val, RepairConfig(), neuron_order=order)


def test_desk_fixture_constraint_fidelity(desk_fixture):
    fmodel, qmodel, repair_set, val = desk_fixture
    config = RepairConfig(metric="tarantula", top_n=5)
    patched, report = repair(fmodel, qmodel, repair_set, val, config)
    target = report.target_layer
    comparison = compare_at_layer(fmodel, qmodel, repair_set, target)
    solved = [r for r in report.records if r.status == "optimal"]
    assert solved, "fixture should produce at least one repaired neuron"
    for rec in solved:
        lp = build_neuron_lp(comparison, rec.neuron, epsilon=config.epsilon,
                             max_constraints=config.max_constraints)
        for con in lp.constraints:
            x = repair_set.features[con.test_id].reshape(fmodel.input_shape)
            (rec_q,) = capture_activations_q(patched, x, {target})
            assert int(rec_q.status[rec.neuron]) == con.target_status


def test_attempts_clamped_to_layer_width(desk_fixture):
    fmodel, qmodel, repair_set, val = desk_fixture
    width = fmodel.layers[fmodel.last_dense_index()].weights.shape[1]
    config = RepairConfig(metric="euclid", top_n=width + 50)
    _, report = repair(fmodel, qmodel, repair_set, None, config)
    assert report.attempts == width
    assert len({r.neuron for r in report.records}) == width  # each exactly once


def test_report_counts_sum(desk_fixture):
    fmodel, qmodel, repair_set, _ = desk_fixture
    _, report = repair(fmodel, qmodel, repair_set, None, RepairConfig(top_n=3))
    assert sum(report.counts().values()) == report.attempts


def test_timeout_neurons_left_untouched(desk_fixture):
    fmodel, qmodel, repair_set, _ = desk_fixture
    config = RepairConfig(top_n=3, time_budget=0.0)
    patched, report = repair(fmodel, qmodel, repair_set, None, config)
    assert report.attempts == 3
    assert all(r.status in ("timeout", "skipped") for r in report.records)
    assert report.count("timeout") >= 1
    for before, after in zip(qmodel.layers, patched.layers):
        if before.eff_weights is not None:
            assert np.array_equal(before.eff_weights, after.eff_weights)


def test_infeasible_neurons_left_untouched(desk_fixture):
    fmodel, qmodel, repair_set, _ = desk_fixture
    # margin no box radius can reach: |delta| <= 1e-9 cannot move anything
    config = RepairConfig(top_n=3, epsilon=5.0, delta_bound=1e-9)
    patched, report = repair(fmodel, qmodel, repair_set, None, config)
    assert report.count("infeasible") >= 1
    assert report.count("optimal") == 0
    for before, after in zip(qmodel.layers, patched.layers):
        if before.eff_weights is not None:
            assert np.array_equal(before.eff_weights, after.eff_weights)


def test_untouched_neurons_bit_identical(desk_fixture):
    fmodel, qmodel, repair_set, _ = desk_fixture
    config = RepairConfig(metric="ochiai", top_n=1)
    patched, report = repair(fmodel, qmodel, repair_set, None, config)
    target = report.target_layer
    repaired = {r.neuron for r in report.records if r.status == "optimal"}
    assert len(repaired) == 1
    before = qmodel.layers[target].eff_weights
    after = patched.layers[target].eff_weights
    for col in range(before.shape[1]):
        if col not in repaired:
            assert np.array_equal(before[:, col], after[:, col])


def test_repair_deterministic(desk_fixture):
    fmodel, qmodel, repair_set, val = desk_fixture
    config = RepairConfig(metric="dstar", top_n=3)
    _, r1 = repair(fmodel, qmodel, repair_set, val, config)
    _, r2 = repair(fmodel, qmodel, repair_set, val, config)
    assert r1.to_json() == r2.to_json()


def test_repair_runs_each_model_once_over_the_repair_set(desk_fixture, monkeypatch):
    # ranking and every neuron's LP read one comparison of the pre-repair models
    fmodel, qmodel, repair_set, val = desk_fixture
    real = model_mod.forward_batch
    seen = []

    def counting(model, inputs, *args, **kwargs):
        if inputs is repair_set.features:
            seen.append(model)
        return real(model, inputs, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("qrepair") and getattr(module, "forward_batch", None) is real:
            monkeypatch.setattr(module, "forward_batch", counting)
    _, report = repair(fmodel, qmodel, repair_set, val, RepairConfig(top_n=3))
    assert report.count("optimal") >= 2
    assert len(seen) == 2
    assert {id(m) for m in seen} == {id(fmodel), id(qmodel)}


@pytest.mark.parametrize("patch_mode", ["float_patch", "requantize"])
def test_desk_repair_matches_golden(desk_fixture, patch_mode):
    # tests/golden/desk_repair.json holds the summary this repair produced
    # when the file was written; any change to it must be deliberate
    fmodel, qmodel, repair_set, val = desk_fixture
    want = json.loads((GOLDEN / "desk_repair.json").read_text())[patch_mode]
    _, report = repair(fmodel, qmodel, repair_set, val,
                       RepairConfig(top_n=3, patch_mode=patch_mode))
    got = report.to_dict()
    for key in ("accuracy_before", "accuracy_after", "fidelity_before", "fidelity_after"):
        assert got[key] == want[key], key
    assert len(got["neurons"]) == len(want["neurons"])
    for g, w in zip(got["neurons"], want["neurons"]):
        assert (g["neuron"], g["status"]) == (w["neuron"], w["status"])
        assert g["M"] == pytest.approx(w["M"], rel=1e-5)


@pytest.mark.parametrize("seed", [42, 4242])
def test_repair_after_reload_holds_constraints(tmp_path, seed):
    # a float_patch layer reloads with int8 codes re-derived at a fresh scale,
    # so its codes no longer dequantize to the weights inference uses; a
    # second repair must patch the weights its LPs were solved for; the first
    # repairs one neuron, so the second still finds disagreements to fix
    fmodel, qmodel, repair_set, _ = make_desk_parts(SPEC, seed=seed)
    first, _ = repair(fmodel, qmodel, repair_set, None, RepairConfig(top_n=1))
    save_qmodel(first, tmp_path / "first.json")
    reloaded = load_qmodel(tmp_path / "first.json")
    second, report = repair(fmodel, reloaded, repair_set, None, RepairConfig(top_n=3))
    save_qmodel(second, tmp_path / "second.json")
    stored = load_qmodel(tmp_path / "second.json")
    target = report.target_layer
    comparison = compare_at_layer(fmodel, reloaded, repair_set, target)
    solved = [r.neuron for r in report.records if r.status == "optimal"]
    assert solved, "the second repair should solve at least one neuron"
    for n in solved:
        lp = build_neuron_lp(comparison, n)
        for con in lp.constraints:
            x = repair_set.features[con.test_id].reshape(fmodel.input_shape)
            (rec,) = capture_activations_q(stored, x, {target})
            assert int(rec.status[n]) == con.target_status, (n, con.test_id)


def test_repair_accuracy_recovers(desk_fixture):
    fmodel, qmodel, repair_set, val = desk_fixture
    best = 0.0
    base = None
    for metric in ("tarantula", "euclid", "dstar"):
        _, report = repair(fmodel, qmodel, repair_set, val, RepairConfig(metric=metric))
        base = report.accuracy_before
        best = max(best, report.accuracy_after)
    assert best >= base


# --- apply_deltas ----------------------------------------------------------


def wpair():
    fmodel = dense_model(np.array([[1.0, 0.0], [-0.5, 0.0]]))
    qmodel = manual_qmodel(fmodel, [np.array([[1, 0], [-2, 0]])])
    return fmodel, qmodel


def test_apply_zero_deltas_is_identity():
    _, qmodel = wpair()
    x = np.array([0.3, -0.7], dtype=np.float32)
    before = quantized_forward(qmodel, x).data.copy()
    apply_deltas(qmodel, (0, 0), np.zeros(2), "float_patch")
    after = quantized_forward(qmodel, x).data
    assert np.array_equal(before, after)


def test_apply_deltas_continues_analytic_example():
    # w=[1,-2] with deltas [0.5, 0.5]: pre-activation on x=[1,1] rises by
    # delta.x = 1.0, from -1 to exactly 0 (still not activated; a strictly
    # positive margin needs epsilon > 0 in the solve)
    _, qmodel = wpair()
    apply_deltas(qmodel, (0, 0), np.array([0.5, 0.5]), "float_patch")
    x = np.array([1.0, 1.0], dtype=np.float32)
    pre = quantized_forward(qmodel, x).data[0]
    assert pre == 0.0
    (rec,) = capture_activations_q(qmodel, x, {0})
    assert rec.status[0] == 0  # exactly zero counts as off

    fmodel, qmodel2 = wpair()
    ds = make_dataset([[1.0, 1.0]], labels=[0], num_classes=2)
    lp = build_neuron_lp(compare_at_layer(fmodel, qmodel2, ds, 0), 0, epsilon=1e-3)
    sol = solve_lp(lp, 10.0)
    assert sol.status == "optimal"
    assert sol.M == pytest.approx(0.5005, abs=1e-6)
    apply_deltas(qmodel2, (0, 0), sol.deltas, "float_patch")
    (rec2,) = capture_activations_q(qmodel2, x, {0})
    assert rec2.status[0] == 1


def test_apply_deltas_length_mismatch():
    _, qmodel = wpair()
    with pytest.raises(ValueError):
        apply_deltas(qmodel, (0, 0), np.zeros(3), "float_patch")


def test_requantize_bounds_other_columns():
    fmodel, qmodel = wpair()
    before = qmodel.layers[0].eff_weights.copy()
    apply_deltas(qmodel, (0, 0), np.array([0.5, 0.5]), "requantize")
    layer = qmodel.layers[0]
    new_s = layer.qweights.scale
    after = layer.eff_weights
    # untouched neuron's effective weights move at most half a new grid step
    assert np.all(np.abs(after[:, 1] - before[:, 1]) <= new_s / 2 + 1e-9)
    # patched column lands within half a step of the corrected values
    corrected = np.array([1.5, -1.5])
    assert np.all(np.abs(after[:, 0] - corrected) <= new_s / 2 + 1e-9)
    assert layer.qweights is not None  # pure int8 again
    assert np.array_equal(layer.eff_weights, dequantize(layer.qweights).astype(np.float32))


def test_float_patch_survives_save_load(tmp_path, desk_fixture):
    fmodel, qmodel, repair_set, _ = desk_fixture
    patched, report = repair(fmodel, qmodel, repair_set, None,
                             RepairConfig(metric="ample", top_n=2))
    path = tmp_path / "patched.json"
    save_qmodel(patched, path)
    again = load_qmodel(path)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.normal(size=fmodel.input_shape[0]).astype(np.float32)
        assert np.array_equal(quantized_forward(again, x).data,
                              quantized_forward(patched, x).data)


def test_repair_runs_each_model_once_over_the_validation_set(desk_fixture, monkeypatch):
    # the unrepaired models run once each over the validation set; the
    # repaired one runs only its kept rows, from the patched layer on
    fmodel, qmodel, repair_set, val = desk_fixture
    real = model_mod.forward_batch
    seen = []

    def counting(model, inputs, *args, **kwargs):
        seen.append((model, inputs, kwargs.get("start", 0)))
        return real(model, inputs, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("qrepair") and getattr(module, "forward_batch", None) is real:
            monkeypatch.setattr(module, "forward_batch", counting)
    patched, report = repair(fmodel, qmodel, repair_set, val, RepairConfig(top_n=3))
    assert report.count("optimal") >= 2
    assert {id(m) for m, x, _ in seen if x is val.features} == {id(fmodel), id(qmodel)}
    assert len([1 for _, x, _ in seen if x is val.features]) == 2
    assert [(m, start) for m, _, start in seen if start] == [(patched, report.target_layer)]
    assert len(seen) == 5


def _conv3_parts(conv3_model, conv3_val):
    """conv3 and its quantized twin, the fixture rows as the repair set and
    200 random rows labelled by the float model as the validation set."""
    x = np.random.default_rng(12).normal(size=(200, 64)).astype(np.float32)
    labels = model_mod.forward_batch(conv3_model, x)[0].argmax(axis=1)
    val = make_dataset(x, labels=labels, num_classes=conv3_model.num_classes)
    return conv3_model, quantize_model(conv3_model), conv3_val, val


@pytest.mark.parametrize("case,config", [
    ("conv3", RepairConfig(top_n=10)),
    ("conv3", RepairConfig(top_n=10, patch_mode="requantize")),
    ("conv3", RepairConfig(top_n=10, target_layer=4)),
    ("desk", RepairConfig(top_n=3)),
    ("desk", RepairConfig(top_n=3, patch_mode="requantize")),
], ids=["conv3-float_patch", "conv3-requantize", "conv3-hidden", "desk-float_patch",
        "desk-requantize"])
def test_after_repair_scores_equal_a_full_forward(case, config, conv3_model, conv3_val,
                                                  desk_fixture, tmp_path):
    from qrepair.evaluate import accuracy, fidelity
    from qrepair.repair import prepare

    fmodel, qmodel, repair_set, val = (_conv3_parts(conv3_model, conv3_val) if case == "conv3"
                                       else desk_fixture)
    shared = prepare(fmodel, qmodel, repair_set, val, config)
    patched, report = repair(fmodel, qmodel, repair_set, val, config, shared=shared)
    assert report.count("optimal") >= 1
    save_qmodel(patched, tmp_path / "patched.json")
    for model in (patched, load_qmodel(tmp_path / "patched.json")):
        part = model_mod.forward_batch(model, shared.validation.inputs, start=report.target_layer)[0]
        assert part.tobytes() == model_mod.forward_batch(model, val.features)[0].tobytes()
    assert report.accuracy_before == accuracy(qmodel, val).accuracy
    assert report.fidelity_before == fidelity(fmodel, qmodel, val)
    assert report.accuracy_after == accuracy(patched, val).accuracy
    assert report.fidelity_after == fidelity(fmodel, patched, val)


@pytest.mark.parametrize("case,config", [
    ("conv3", RepairConfig(top_n=10)),
    ("conv3", RepairConfig(top_n=10, target_layer=4)),
    ("desk", RepairConfig(top_n=3)),
], ids=["conv3", "conv3-hidden", "desk"])
def test_prepare_compares_the_validation_set_as_it_compares_the_repair_set(
        case, config, conv3_model, conv3_val, desk_fixture):
    from qrepair.evaluate import evaluate
    from qrepair.repair import prepare

    fmodel, qmodel, repair_set, val = (_conv3_parts(conv3_model, conv3_val) if case == "conv3"
                                       else desk_fixture)
    shared = prepare(fmodel, qmodel, repair_set, val, config)
    target = shared.comparison.layer_index
    direct = compare_at_layer(fmodel, qmodel, val, target)
    assert shared.validation.layer_index == direct.layer_index == target
    for name in ("float_labels", "quant_labels", "status_float", "status_quant", "inputs",
                 "weights", "bias"):
        got, want = getattr(shared.validation, name), getattr(direct, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert shared.before == evaluate(direct.quant_labels, val, direct.float_labels)


@pytest.mark.parametrize("case,config", [
    ("conv3", RepairConfig(top_n=10)),
    ("conv3", RepairConfig(top_n=10, target_layer=4)),
    ("desk", RepairConfig(top_n=3)),
], ids=["conv3", "conv3-hidden", "desk"])
def test_a_requantized_record_is_the_record_prepare_makes(case, config, conv3_model, conv3_val,
                                                           desk_fixture, monkeypatch):
    import qrepair.localize as localize_mod
    from qrepair.experiment import damage_layer
    from qrepair.quantize import clone_quantized
    from qrepair.repair import prepare

    fmodel, qmodel, repair_set, val = (_conv3_parts(conv3_model, conv3_val) if case == "conv3"
                                       else desk_fixture)
    damaged = clone_quantized(qmodel)
    damage_layer(damaged, fmodel.last_dense_index(), np.random.default_rng(5), 0.5)
    first = prepare(fmodel, damaged, repair_set, val, config)
    first.solution(0)
    real, runs = localize_mod.forward_batch, []

    def forward(model, inputs, *args, **kwargs):
        runs.append((model, inputs))
        return real(model, inputs, *args, **kwargs)

    monkeypatch.setattr(localize_mod, "forward_batch", forward)
    got = first.requantized(qmodel)
    assert [(m is qmodel, len(x)) for m, x in runs] == [(True, len(repair_set)), (True, len(val))]
    monkeypatch.undo()
    want = prepare(fmodel, qmodel, repair_set, val, config)
    assert got.config is config and got.solutions == {}
    assert all(a is b for a, b in zip(got.made_from, want.made_from))
    for side in ("comparison", "validation"):
        for name in ("float_labels", "quant_labels", "status_float", "status_quant", "inputs",
                     "weights", "bias"):
            have, expected = getattr(getattr(got, side), name), getattr(getattr(want, side), name)
            assert have.dtype == expected.dtype and have.shape == expected.shape, (side, name)
            assert have.tobytes() == expected.tobytes(), (side, name)
    assert got.before == want.before
    no_val = prepare(fmodel, damaged, repair_set, None, config).requantized(qmodel)
    assert no_val.validation is None and no_val.before is None


def test_an_empty_validation_set_is_measured_as_no_validation_set(desk_fixture, monkeypatch):
    import qrepair.repair as repair_mod

    fmodel, qmodel, repair_set, val = desk_fixture
    empty = val.subset([])
    assert len(empty) == 0
    real_compare, real_forward = repair_mod.compare_at_layer, repair_mod.forward_batch
    seen = []

    def compare(fm, qm, dataset, *args, **kwargs):
        seen.append(("compare", dataset))
        return real_compare(fm, qm, dataset, *args, **kwargs)

    def forward(model, inputs, *args, **kwargs):
        seen.append(("forward", inputs))
        return real_forward(model, inputs, *args, **kwargs)

    monkeypatch.setattr(repair_mod, "compare_at_layer", compare)
    monkeypatch.setattr(repair_mod, "forward_batch", forward)
    config = RepairConfig(top_n=3)
    reports = []
    for validation_set in (empty, None):
        seen.clear()
        shared = repair_mod.prepare(fmodel, qmodel, repair_set, validation_set, config)
        assert shared.validation is None and shared.before is None
        _, report = repair(fmodel, qmodel, repair_set, validation_set, config, shared=shared)
        assert report.count("optimal") >= 1
        assert (report.accuracy_before, report.accuracy_after, report.fidelity_before,
                report.fidelity_after) == (None, None, None, None)
        assert seen == [("compare", repair_set)]  # the repair set only; no validation pass
        reports.append(report.to_json())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("patch_mode", ["float_patch", "requantize"])
def test_the_validation_set_never_steers_a_repair(patch_mode, conv3_model, conv3_val, tmp_path):
    # the fixture's first 30 rows repair; the validation set is its other 30
    # rows, 30 random rows with random labels, or absent
    import hashlib

    qmodel = load_qmodel(FIXTURES / "conv3_quant.json")
    repair_set, rest = conv3_val.subset(range(30)), conv3_val.subset(range(30, 60))
    rng = np.random.default_rng(36)
    noise = make_dataset(rng.normal(size=(30, 64)), labels=rng.integers(0, 10, size=30),
                         num_classes=10)
    config = RepairConfig(top_n=4, patch_mode=patch_mode)
    outcomes = set()
    for i, val in enumerate([rest, noise, None]):
        patched, report = repair(conv3_model, qmodel, repair_set, val, config)
        save_qmodel(patched, tmp_path / f"patched{i}.json")
        digest = hashlib.sha256((tmp_path / f"patched{i}.json").read_bytes()).hexdigest()
        outcomes.add((digest, tuple((r.neuron, r.status, r.M) for r in report.records)))
        assert (report.accuracy_after is None) == (val is None)
    (outcome,) = outcomes
    # the repair did patch something, so the three runs had something to differ in
    assert any(status == "optimal" for _, status, _ in outcome[1])
