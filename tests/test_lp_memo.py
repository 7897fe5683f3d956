"""The content-keyed LP memo that `run_experiment` shares across its repairs.

`solve_lp(..., memo=d)` stores optimal and infeasible results by the LP's
content. The experiment's 17 repairs (7 metrics, 10 random trials) start
from one model, repair set and config, and every LP is built from the
pre-repair model, so they meet the same few LPs over and over; with the
memo each is solved once.
"""

import importlib
import logging

import numpy as np
import pytest

import qrepair.experiment
import qrepair.lp
from conftest import repair_lp
from qrepair.experiment import METRICS, comparison_table, run_experiment
from qrepair.lp import LPConstraint, NeuronLP, check_solution, solve_lp
from qrepair.repair import RepairConfig

repair_mod = importlib.import_module("qrepair.repair")  # the package's `repair` is the function


def classic_lp(bias=0.0, target=1):
    """w=[1,-2], one test x=[1,1]; target 1 needs M=0.5 at epsilon 0."""
    return NeuronLP(0, 0, 2, np.array([1.0, -2.0]), bias,
                    [LPConstraint(np.array([1.0, 1.0]), target, 1 - target)], 0.0)


def same_lp(a: NeuronLP, b: NeuronLP) -> bool:
    return (a.m == b.m and a.w.tobytes() == b.w.tobytes()
            and (a.bias, a.epsilon, a.big_M_bound) == (b.bias, b.epsilon, b.big_M_bound)
            and len(a.constraints) == len(b.constraints)
            and all(ca.x.tobytes() == cb.x.tobytes() and ca.target_status == cb.target_status
                    for ca, cb in zip(a.constraints, b.constraints)))


@pytest.fixture
def simplex_calls(monkeypatch):
    """Counts the solver runs behind `solve_lp`."""
    calls = []
    real = qrepair.lp.simplex_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(qrepair.lp, "simplex_solve", counting)
    return calls


# --- solve_lp -------------------------------------------------------------


def test_hit_returns_the_solved_bits_without_solving(simplex_calls):
    lp = repair_lp(24, 64, 1024)
    memo = {}
    first = solve_lp(lp, 60.0, memo=memo)
    again = solve_lp(repair_lp(24, 64, 1024), 60.0, memo=memo)
    plain = solve_lp(lp, 60.0)
    assert len(simplex_calls) == 2  # the miss and the memo-free solve
    assert first.status == again.status == plain.status == "optimal"
    assert again.M == first.M == plain.M
    assert again.deltas.tobytes() == first.deltas.tobytes() == plain.deltas.tobytes()
    assert check_solution(lp, again)


def test_infeasible_is_stored(simplex_calls):
    lp = NeuronLP(0, 0, 1, np.array([0.0]), 0.0,
                  [LPConstraint(np.array([1.0]), 1, 0),
                   LPConstraint(np.array([1.0]), 0, 1)], epsilon=1e-3)
    memo = {}
    assert solve_lp(lp, 10.0, memo=memo).status == "infeasible"
    assert solve_lp(lp, 10.0, memo=memo).status == "infeasible"
    assert len(simplex_calls) == 1


def test_timeout_is_not_stored():
    memo = {}
    assert solve_lp(classic_lp(), time_budget=0.0, memo=memo).status == "timeout"
    assert memo == {}
    sol = solve_lp(classic_lp(), time_budget=60.0, memo=memo)
    assert sol.status == "optimal"
    assert sol.M == pytest.approx(0.5)
    assert len(memo) == 1


@pytest.mark.parametrize("other", [classic_lp(bias=0.25), classic_lp(target=0),
                                   classic_lp(bias=-0.0)],
                         ids=["bias", "target_status", "negative_zero_bias"])
def test_lps_that_differ_do_not_share_an_entry(other, simplex_calls):
    memo = {}
    base = solve_lp(classic_lp(), 10.0, memo=memo)
    sol = solve_lp(other, 10.0, memo=memo)
    assert len(simplex_calls) == 2
    assert len(memo) == 2
    assert sol.M == solve_lp(other, 10.0).M
    assert check_solution(other, sol)
    if other.bias != 0.0 or other.constraints[0].target_status != 1:
        assert sol.M != base.M


def test_mutating_returned_deltas_leaves_the_entry_intact():
    lp = classic_lp()
    memo = {}
    first = solve_lp(lp, 10.0, memo=memo)
    expected = first.deltas.copy()
    first.deltas[:] = 99.0  # the miss hands back an array the memo does not hold
    hit = solve_lp(lp, 10.0, memo=memo)
    assert np.array_equal(hit.deltas, expected)
    hit.deltas += 1.0
    hit.M = -1.0
    again = solve_lp(lp, 10.0, memo=memo)
    assert np.array_equal(again.deltas, expected)
    assert again.M == pytest.approx(0.5)


def test_hit_logs_one_debug_line(caplog):
    lp = NeuronLP(3, 2, 2, np.array([1.0, -2.0]), 0.0,
                  [LPConstraint(np.array([1.0, 1.0]), 1, 0)], 0.0)
    memo = {}
    with caplog.at_level(logging.DEBUG, logger="qrepair"):
        solve_lp(lp, 10.0, memo=memo)
        assert not [r for r in caplog.records if "reused" in r.getMessage()]
        solve_lp(lp, 10.0, memo=memo)
    assert [r.getMessage() for r in caplog.records if "reused" in r.getMessage()] == \
        ["layer 3 neuron 2: LP solution reused"]
    assert all(r.levelno == logging.DEBUG for r in caplog.records)


# --- the experiment's shared memo ------------------------------------------


def _record_experiment(monkeypatch, seed, config, tmp_path):
    """Run the experiment, recording every repair() call and every LP solved."""
    calls, lps = [], []
    real_repair, real_solve = repair_mod.repair, repair_mod.solve_lp

    def recording_repair(*args, **kwargs):
        patched, rep = real_repair(*args, **kwargs)
        calls.append((args, kwargs, rep))
        return patched, rep

    def recording_solve(lp, *args, **kwargs):
        lps.append(lp)
        return real_solve(lp, *args, **kwargs)

    monkeypatch.setattr(qrepair.experiment, "repair", recording_repair)
    monkeypatch.setattr(repair_mod, "solve_lp", recording_solve)
    run_experiment(preset="mlp-blobs", seed=seed, config=config, out_dir=tmp_path)
    return calls, lps


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("config", [None, RepairConfig(patch_mode="requantize")],
                         ids=["default", "requantize"])
def test_experiment_reports_match_memo_free_repairs(seed, config, tmp_path, monkeypatch,
                                                    simplex_calls):
    calls, lps = _record_experiment(monkeypatch, seed, config, tmp_path)
    assert len(calls) == len(METRICS) + 10
    memos = [kwargs["memo"] for _, kwargs, _ in calls]
    assert all(m is memos[0] for m in memos) and memos[0]

    distinct = []
    for lp in lps:
        if not any(same_lp(lp, d) for d in distinct):
            distinct.append(lp)
    assert len(simplex_calls) == len(distinct)
    if config is None and seed == 42:
        assert (len(lps), len(distinct)) == (34, 2)

    for args, kwargs, rep in calls:
        _, plain = repair_mod.repair(*args, **{**kwargs, "memo": None})
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
