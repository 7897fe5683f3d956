"""Repairs that share one `prepare` record, as `run_experiment`'s do.

The experiment's 17 repairs (7 metrics, 10 random trials) start from one
model pair, repair set and config; only the neurons they pick differ. They
share one `repair.prepare` record: one model comparison, one before-repair
evaluation, and each neuron's LP built and solved once.
"""

import copy
import logging
from collections import Counter

import pytest

import qrepair.experiment
import qrepair.repair as repair_mod
from conftest import make_desk_parts
from qrepair.experiment import METRICS, PresetSpec, comparison_table, run_experiment
from qrepair.quantize import quantize_model
from qrepair.repair import RepairConfig, prepare

SPEC = PresetSpec(dim=10, num_classes=3, hidden=12, n_train=240, n_repair=120,
                  n_val=120, epochs=25, lr=0.15, batch=32)


@pytest.fixture(scope="module")
def desk():
    return make_desk_parts(SPEC)


@pytest.fixture
def counted(monkeypatch):
    """Counts comparisons, LP builds (per neuron) and LP solves made by `repair`."""
    counts = {"compare": 0, "build": Counter(), "solve": 0}
    real_compare = repair_mod.compare_at_layer
    real_build, real_solve = repair_mod.build_neuron_lp, repair_mod.solve_lp

    def compare(*args, **kwargs):
        counts["compare"] += 1
        return real_compare(*args, **kwargs)

    def build(comparison, neuron, *args, **kwargs):
        counts["build"][neuron] += 1
        return real_build(comparison, neuron, *args, **kwargs)

    def solve(*args, **kwargs):
        counts["solve"] += 1
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(repair_mod, "compare_at_layer", compare)
    monkeypatch.setattr(repair_mod, "build_neuron_lp", build)
    monkeypatch.setattr(repair_mod, "solve_lp", solve)
    return counts


def _record_experiment(monkeypatch, seed, config, tmp_path):
    """Run the experiment, recording every repair() call."""
    calls = []
    real_repair = repair_mod.repair

    def recording_repair(*args, **kwargs):
        patched, rep = real_repair(*args, **kwargs)
        calls.append((args, kwargs, rep))
        return patched, rep

    monkeypatch.setattr(qrepair.experiment, "repair", recording_repair)
    run_experiment(preset="mlp-blobs", seed=seed, config=config, out_dir=tmp_path)
    return calls


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("config", [None, RepairConfig(patch_mode="requantize")],
                         ids=["default", "requantize"])
def test_experiment_reports_match_memo_free_repairs(seed, config, tmp_path, monkeypatch,
                                                    counted):
    calls = _record_experiment(monkeypatch, seed, config, tmp_path)
    assert len(calls) == len(METRICS) + 10
    shared = calls[0][1]["shared"]
    assert all(kwargs["shared"] is shared for _, kwargs, _ in calls)

    # one comparison per set, and each distinct neuron's LP built and solved once
    assert counted["compare"] == 2
    attempted = {r.neuron for _, _, rep in calls for r in rep.records}
    assert set(counted["build"]) == attempted == set(shared.solutions)
    assert set(counted["build"].values()) == {1}
    assert counted["solve"] == sum(sol is not None for sol in shared.solutions.values())
    if config is None and seed == 42:
        assert (sum(counted["build"].values()), counted["solve"]) == (3, 2)

    for args, kwargs, rep in calls:
        _, plain = repair_mod.repair(*args, **{**kwargs, "shared": None})
        assert plain.to_json() == rep.to_json()
        if kwargs.get("neuron_order") is None:
            written = (tmp_path / f"repair_{rep.metric}.json").read_text()
            assert written == plain.to_json()


def test_top1_separates_random_from_the_metrics():
    report = run_experiment(preset="mlp-blobs", seed=42, config=RepairConfig(top_n=1))
    strategies = report["strategies"]
    assert strategies["random"]["accuracy_after"] != strategies["dstar"]["accuracy_after"]


def test_debug_logging_leaves_reports_unchanged(tmp_path, caplog):
    quiet = run_experiment(seed=7, trials=2, out_dir=tmp_path / "quiet")
    with caplog.at_level(logging.DEBUG, logger="qrepair"):
        loud = run_experiment(seed=7, trials=2, out_dir=tmp_path / "loud")
    assert [r for r in caplog.records if "LP solution reused" in r.getMessage()]
    assert comparison_table(loud) == comparison_table(quiet)
    for path in sorted((tmp_path / "quiet").glob("*.json")):
        assert (tmp_path / "loud" / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("change", [{"epsilon": 2e-3}, {"patch_mode": "requantize"},
                                    {"top_n": 2}], ids=["epsilon", "patch_mode", "top_n"])
def test_shared_record_for_another_config_is_rejected(desk, change, counted):
    fmodel, qmodel, repair_set, val = desk
    shared = prepare(fmodel, qmodel, repair_set, val, RepairConfig(top_n=3))
    with pytest.raises(ValueError, match="another repair config"):
        repair_mod.repair(fmodel, qmodel, repair_set, val,
                          RepairConfig(**{"top_n": 3, **change}), shared=shared)
    assert counted["solve"] == 0 and not shared.solutions


def test_reuse_returns_the_solved_bits_without_solving(desk, counted):
    fmodel, qmodel, repair_set, val = desk
    config = RepairConfig(top_n=3)
    shared = prepare(fmodel, qmodel, repair_set, val, config)
    first, rep1 = repair_mod.repair(fmodel, qmodel, repair_set, val, config, shared=shared)
    solves = counted["solve"]
    assert solves >= 1
    again, rep2 = repair_mod.repair(fmodel, qmodel, repair_set, val,
                                    RepairConfig(top_n=3, metric="ochiai"), shared=shared)
    plain, rep3 = repair_mod.repair(fmodel, qmodel, repair_set, val,
                                    RepairConfig(top_n=3, metric="ochiai"))
    assert counted["solve"] == 2 * solves  # the shared repair solved nothing
    assert rep2.to_json() == rep3.to_json()
    target = rep1.target_layer
    assert again.layers[target].eff_weights.tobytes() == plain.layers[target].eff_weights.tobytes()


def test_timeout_is_not_stored(desk, counted):
    fmodel, qmodel, repair_set, _ = desk
    config = RepairConfig(top_n=3, time_budget=0.0)
    shared = prepare(fmodel, qmodel, repair_set, None, config)
    _, report = repair_mod.repair(fmodel, qmodel, repair_set, None, config, shared=shared)
    assert report.count("timeout") >= 1
    assert {n for n, sol in shared.solutions.items() if sol is None} == \
        {r.neuron for r in report.records if r.status == "skipped"}
    assert all(sol is None for sol in shared.solutions.values())
    repair_mod.repair(fmodel, qmodel, repair_set, None, config, shared=shared)
    assert counted["solve"] == 2 * report.count("timeout")  # tried again


def test_infeasible_is_stored(desk, counted):
    fmodel, qmodel, repair_set, _ = desk
    # margin no box radius can reach: |delta| <= 1e-9 cannot move anything
    config = RepairConfig(top_n=3, epsilon=5.0, delta_bound=1e-9)
    shared = prepare(fmodel, qmodel, repair_set, None, config)
    _, first = repair_mod.repair(fmodel, qmodel, repair_set, None, config, shared=shared)
    assert first.count("infeasible") >= 1
    assert counted["solve"] == first.count("infeasible")
    _, second = repair_mod.repair(fmodel, qmodel, repair_set, None, config, shared=shared)
    assert counted["solve"] == first.count("infeasible")
    assert second.to_json() == first.to_json()


def test_reuse_logs_one_debug_line_per_solved_neuron(desk, caplog):
    fmodel, qmodel, repair_set, _ = desk
    config = RepairConfig(top_n=3)
    shared = prepare(fmodel, qmodel, repair_set, None, config)
    with caplog.at_level(logging.DEBUG, logger="qrepair"):
        _, report = repair_mod.repair(fmodel, qmodel, repair_set, None, config, shared=shared)
        assert not [r for r in caplog.records if "reused" in r.getMessage()]
        repair_mod.repair(fmodel, qmodel, repair_set, None, config, shared=shared)
    solved = [r.neuron for r in report.records if r.status != "skipped"]
    assert solved
    assert [r.getMessage() for r in caplog.records if "reused" in r.getMessage()] == \
        [f"layer {report.target_layer} neuron {n}: LP solution reused" for n in solved]
    assert all(r.levelno == logging.DEBUG for r in caplog.records if "reused" in r.getMessage())


@pytest.mark.parametrize("prepared_on,given", [
    ("val", "copy"), ("val", None), (None, "val"),
    ("val", "float_copy"), ("val", "twin"), ("val", "subset"),
])
def test_shared_record_for_another_validation_set_is_rejected(desk, prepared_on, given,
                                                              counted):
    # the record holds the models' comparison on the repair set and the
    # validation rows and float labels it measured, so a repair given other
    # inputs would report the record's failing tests and accuracy as its own
    fmodel, qmodel, repair_set, val = desk
    sets = {"val": val, "copy": val.subset(range(len(val))), None: None}
    config = RepairConfig(top_n=3)
    shared = prepare(fmodel, qmodel, repair_set, sets[prepared_on], config)
    args = {  # each replaces one input the record was prepared from
        "float_copy": (copy.deepcopy(fmodel), qmodel, repair_set, val),
        "twin": (fmodel, quantize_model(fmodel), repair_set, val),  # nothing to repair
        "subset": (fmodel, qmodel, repair_set.subset(range(60)), val),
    }.get(given, (fmodel, qmodel, repair_set, sets.get(given)))
    with pytest.raises(ValueError, match="prepared from other models or data sets"):
        repair_mod.repair(*args, config, shared=shared)
    assert counted["solve"] == 0 and not shared.solutions
