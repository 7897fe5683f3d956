import json
import logging
import re

import numpy as np
import pytest

from conftest import (
    FIXTURES,
    GOLDEN,
    dense_model,
    make_dataset,
    manual_qmodel,
    repair_lp,
    wide_head_parts,
)
from oracles import certificate_gap, grid_oracle
from qrepair.data import load_dataset
from qrepair.localize import compare_at_layer
from qrepair.lp import (
    EmptyLPError,
    LPConstraint,
    LPSolution,
    NeuronLP,
    build_neuron_lp,
    check_solution,
    export_lp,
    format_lp,
    solve_lp,
)
from qrepair.model import load_model
from qrepair.quantize import load_qmodel


def classic_lp(epsilon=0.0, bound=None):
    """w=[1,-2], one test x=[1,1] where the float status is 1."""
    return NeuronLP(0, 0, np.array([1.0, -2.0]), 0.0, [[1.0, 1.0]], [1], [0], epsilon, bound)


def golden_b_lp():
    return NeuronLP(5, 3, np.array([0.25, -0.75, 1.5]), 0.125,
                    [[1.5, -2.25, 0.5], [-0.5, 0.125, 2.0]], [0, 1], [1, 0],
                    0.01, big_M_bound=2.0)


# --- rows -----------------------------------------------------------------


@pytest.mark.parametrize("w,x,target,current", [
    (np.ones((2, 1)), [[1.0, 1.0]], [1], [0]),  # w not 1-D
    (np.ones(2), [[1.0, 1.0, 1.0]], [1], [0]),  # rows wider than w
    (np.ones(2), [[1.0], [1.0]], [1, 1], [0, 0]),  # rows narrower than w
    (np.ones(2), [1.0, 1.0], [1], [0]),  # x not 2-D
    (np.ones(2), [[1.0, 1.0]], [1, 0], [0]),  # target_status too long
    (np.ones(2), [[1.0, 1.0]], [1], []),  # current_status too short
], ids=["w_2d", "x_too_wide", "x_too_narrow", "x_1d", "target_len", "current_len"])
def test_neuron_lp_rejects_inconsistent_shapes(w, x, target, current):
    with pytest.raises(ValueError):
        NeuronLP(0, 0, w, 0.0, x, target, current, 0.0)


def test_neuron_lp_rejects_test_ids_of_another_length():
    with pytest.raises(ValueError):
        NeuronLP(0, 0, np.ones(2), 0.0, [[1.0, 1.0]], [1], [0], 0.0, test_id=[3, 4])


def test_constraints_list_the_rows_with_python_ints():
    lp = repair_lp(8, 6, 1008)
    cons = lp.constraints
    assert len(cons) == len(lp.x) == 6
    for k, con in enumerate(cons):
        assert isinstance(con, LPConstraint)
        assert np.array_equal(con.x, lp.x[k])
        assert (con.target_status, con.current_status, con.test_id) == \
            (lp.target_status[k], lp.current_status[k], lp.test_id[k])
        for value in (con.target_status, con.current_status, con.test_id):
            assert type(value) is int
        with pytest.raises(ValueError):
            con.x[0] = 1.0  # a view of the LP's rows, not a copy to edit
    # what a trace consumer does with them: a JSON count of target-1 rows
    assert json.loads(json.dumps(sum(con.target_status for con in cons))) == \
        int(lp.target_status.sum())
    with pytest.raises(AttributeError):
        lp.constraints = []
    # an LP built without test ids marks every row -1
    assert [con.test_id for con in classic_lp().constraints] == [-1]


def substitution_verdict(lp, sol, slack=1e-9):
    """check_solution written out one row at a time."""
    if np.any(np.abs(sol.deltas) > sol.M + slack):
        return False
    for x, target in zip(lp.x, lp.target_status):
        pre = float((lp.w + sol.deltas) @ x) + lp.bias
        if target == 1 and not pre >= lp.epsilon - slack:
            return False
        if target == 0 and not pre <= -lp.epsilon + slack:
            return False
    return True


@pytest.mark.parametrize("m", [8, 64, 256])
def test_check_solution_matches_row_by_row_substitution(m):
    lp = repair_lp(m, 32, 1000 + m)
    sol = solve_lp(lp, 60.0)
    assert sol.status == "optimal"
    verdicts = []
    for scale in (1.0, 0.999, 0.9, 0.5, 0.0):
        trial = LPSolution("optimal", sol.M * scale, sol.deltas * scale)
        verdict = check_solution(lp, trial)
        assert verdict == substitution_verdict(lp, trial), scale
        verdicts.append(verdict)
    assert verdicts[0] and not verdicts[-1]


def test_check_solution_holds_M_against_the_dual_bound():
    sol = solve_lp(classic_lp(epsilon=0.0), 10.0)
    assert sol.bound == pytest.approx(sol.M, rel=1e-12)
    lp = classic_lp(epsilon=0.0)
    for bound, verdict in ((sol.M * (1 - 0.5e-9), True), (sol.M * (1 - 2e-9), False),
                           (None, True)):
        assert check_solution(lp, LPSolution("optimal", sol.M, sol.deltas, bound)) == verdict


@pytest.mark.parametrize("m", [24, 64, 128, 256, 512, 1024, 1280, 2048])
def test_ladder_optimum_is_certified(m):
    # every rung of scripts/lp_ladder.py; each solves in well under a second
    lp = repair_lp(m, 64, 1000 + m)
    sol = solve_lp(lp, 60.0)
    assert sol.status == "optimal" and check_solution(lp, sol)
    gap = certificate_gap(lp, sol.M, sol.y)
    assert abs(gap) <= 1e-9
    assert (sol.M - sol.bound) / sol.M == pytest.approx(gap, abs=1e-12)


def test_t_at_its_bound_is_certified_by_the_row_that_set_it():
    # one violated row (h = 0.5, ||g||_1 = 3) and two that hold: t ends at its
    # bound t_max = 3 / 0.5, where every slack dual is 0; that row alone proves M
    lp = NeuronLP(0, 0, np.array([1.0, -1.0, 0.5]), -1.0, [[1.0, 1.0, 1.0], [2.0, 0.0, 1.0],
                                                          [0.0, -3.0, 0.0]],
                  [1, 1, 1], [0, 1, 1], 0.0)
    sol = solve_lp(lp, 10.0)
    assert sol.status == "optimal" and sol.M == pytest.approx(0.5 / 3.0, rel=1e-12)
    np.testing.assert_array_equal(sol.y, [1.0, 0.0, 0.0])
    assert check_solution(lp, sol)
    assert abs(certificate_gap(lp, sol.M, sol.y)) <= 1e-9


def output_neuron_lps(fmodel, qmodel, dataset, layer):
    """neuron -> its LP, for every neuron of `layer` with a disagreeing test."""
    comparison = compare_at_layer(fmodel, qmodel, dataset, layer)
    lps = {}
    for n in range(comparison.weights.shape[1]):
        try:
            lps[n] = build_neuron_lp(comparison, n)
        except EmptyLPError:
            pass
    return lps


# each output-neuron LP's M as float.hex, as the bounded primal simplex that
# preceded the dual one found it
WIDE_HEAD_M = {0: "0x1.a22aabb011149p-5", 1: "0x1.12545e7e73aeep-3", 2: "0x1.ccbae6e93566cp-4",
               3: "0x1.c158be45581edp-5", 4: "0x1.e51cc5959fd32p-4", 5: "0x1.dc9a218a989a6p-5",
               6: "0x1.179db08c03c1fp-3", 7: "0x1.ba38a0a0d2799p-4", 8: "0x1.ba5fd4320d9eep-4",
               9: "0x1.3424343083cb7p-3"}
CONV3_M = {1: "0x1.ea76e55f9e33ep-15", 5: "0x1.95d756c47f17dp-10", 6: "0x1.5d1307540fa10p-8",
           7: "0x1.e8001c37a5d4fp-9"}


def wide_head_lps():
    fmodel, qmodel, repair_set, _ = wide_head_parts()
    return output_neuron_lps(fmodel, qmodel, repair_set, 2), WIDE_HEAD_M


def conv3_lps():
    # the quantized conv3 fixture, repaired on conv3_val.csv
    fmodel = load_model(FIXTURES / "conv3.json")
    dataset = load_dataset(FIXTURES / "conv3_val.csv", num_classes=10)
    return (output_neuron_lps(fmodel, load_qmodel(FIXTURES / "conv3_quant.json"), dataset,
                              fmodel.last_dense_index()), CONV3_M)


@pytest.mark.parametrize("case", [wide_head_lps, conv3_lps], ids=["wide_head", "conv3"])
def test_output_neuron_optima_are_certified_and_pinned(case):
    lps, pinned = case()
    assert sorted(lps) == sorted(pinned)
    for n, lp in lps.items():
        sol = solve_lp(lp, 60.0)
        assert sol.status == "optimal" and check_solution(lp, sol), n
        assert abs(certificate_gap(lp, sol.M, sol.y)) <= 1e-9, n
        assert sol.M == pytest.approx(float.fromhex(pinned[n]), rel=1e-9), n


# --- build ----------------------------------------------------------------


def fq_pair():
    """Float/quantized dense pair where neuron 0 has w=[1,-2] after dequant."""
    fmodel = dense_model(np.array([[1.0, 0.0], [-0.5, 0.0]]))
    qmodel = manual_qmodel(fmodel, [np.array([[1, 0], [-2, 0]])])
    return fmodel, qmodel


def test_build_classic_case():
    fmodel, qmodel = fq_pair()
    ds = make_dataset([[1.0, 1.0]], labels=[0], num_classes=2)
    lp = build_neuron_lp(compare_at_layer(fmodel, qmodel, ds, 0), 0, epsilon=0.0)
    assert lp.m == 2
    np.testing.assert_allclose(lp.w, [1.0, -2.0])
    assert len(lp.constraints) == 1
    con = lp.constraints[0]
    assert con.target_status == 1 and con.current_status == 0
    assert float(lp.w @ con.x) + lp.bias == pytest.approx(-1.0)
    assert con.test_id == 0


def test_build_skips_agreeing_tests():
    # neuron 0 reads x0 + x1 in the float model and x0 - x1 quantized
    fmodel = dense_model(np.array([[1.0, 0.0], [1.0, 0.0]]))
    qmodel = manual_qmodel(fmodel, [np.array([[1, 0], [-1, 0]])])
    ds = make_dataset([[1.0, 2.0], [3.0, 0.5], [-1.0, 2.0], [0.5, 0.25], [-2.0, -1.5],
                       [0.25, 0.0]], labels=[0] * 6, num_classes=2)
    comparison = compare_at_layer(fmodel, qmodel, ds, 0)
    # rows 0 and 2 disagree; the agreeing rows 1, 3, 4, 5 lie 2.5, 0.25, 0.5
    # and 0.25 from the quantized boundary: nearest first, ties in dataset order
    lp = build_neuron_lp(comparison, 0, epsilon=0.0)
    assert [c.test_id for c in lp.constraints] == [0, 2, 3, 5, 4, 1]
    assert [(c.target_status, c.current_status) for c in lp.constraints] == \
        [(1, 0), (1, 0), (1, 1), (1, 1), (0, 0), (1, 1)]
    # max_constraints caps each kind of row
    capped = build_neuron_lp(comparison, 0, epsilon=0.0, max_constraints=1)
    assert [c.test_id for c in capped.constraints] == [0, 3]
    sol = solve_lp(lp, 10.0)
    assert sol.status == "optimal" and check_solution(lp, sol)


def test_build_failing_first_and_cap():
    fmodel = dense_model(np.array([[1.0, 0.0], [0.0, 1.0]]))
    qmodel = manual_qmodel(fmodel, [np.array([[1, 0], [0, -1]])])
    # row 0 is passing (argmax 0 both), row 1 failing (argmax flips)
    ds = make_dataset([[1.0, 1.0], [1.0, 2.0]], labels=[0, 0], num_classes=2)
    from qrepair.localize import classify_tests

    outcomes = classify_tests(fmodel, qmodel, ds)
    assert [o.is_failing for o in outcomes] == [False, True]
    lp = build_neuron_lp(compare_at_layer(fmodel, qmodel, ds, 0), 1, epsilon=0.0,
                         max_constraints=1)
    assert len(lp.constraints) == 1
    assert lp.constraints[0].test_id == 1  # failing test takes priority


def test_build_empty_lp_signaled():
    fmodel = dense_model(np.array([[1.0, 0.0], [0.0, 1.0]]))
    qmodel = manual_qmodel(fmodel, [np.array([[1, 0], [0, 1]])])
    ds = make_dataset([[1.0, 1.0]], labels=[0], num_classes=2)
    with pytest.raises(EmptyLPError):
        build_neuron_lp(compare_at_layer(fmodel, qmodel, ds, 0), 0)


def test_build_rejects_non_dense(conv3_model):
    from qrepair.quantize import quantize_model

    qm = quantize_model(conv3_model)
    ds = make_dataset(np.zeros((1, 64)), labels=[0], num_classes=10)
    with pytest.raises(ValueError):
        build_neuron_lp(compare_at_layer(conv3_model, qm, ds, 0), 0)


# --- solve ----------------------------------------------------------------


def test_solve_analytic_minimax():
    sol = solve_lp(classic_lp(epsilon=0.0), 10.0)
    assert sol.status == "optimal"
    assert sol.M == pytest.approx(0.5, abs=1e-6)
    np.testing.assert_allclose(sol.deltas, [0.5, 0.5], atol=1e-6)
    assert check_solution(classic_lp(0.0), sol)


def test_solve_already_satisfied_gives_zero():
    lp = NeuronLP(0, 0, np.array([1.0, 1.0]), 0.0, [[1.0, 1.0]], [1], [0], epsilon=1.0)
    # w.x = 2 already exceeds the epsilon=1 margin, so deltas stay zero
    sol = solve_lp(lp, 10.0)
    assert sol.status == "optimal"
    assert sol.M == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(sol.deltas, [0.0, 0.0], atol=1e-9)


@pytest.mark.parametrize("m,pivots,flips", [(24, 30, 61), (64, 34, 130)])
def test_solution_carries_the_simplex_counts(m, pivots, flips):
    # the first two rungs of scripts/lp_ladder.py
    sol = solve_lp(repair_lp(m, 64, 1000 + m), 60.0)
    assert (sol.status, sol.pivots, sol.flips) == ("optimal", pivots, flips)


def test_no_simplex_runs_when_every_row_already_holds():
    lp = NeuronLP(0, 0, np.array([1.0, 1.0]), 0.0, [[1.0, 1.0]], [1], [0], epsilon=1.0)
    sol = solve_lp(lp, 10.0)
    assert (sol.status, sol.M, sol.pivots, sol.flips) == ("optimal", 0.0, 0, 0)


def test_solve_logs_one_debug_line(caplog):
    # classic_lp plus a preserving row
    lp = NeuronLP(0, 0, np.array([1.0, -2.0]), 0.0, [[1.0, 1.0], [2.0, 0.0]], [1, 1], [0, 1],
                  epsilon=0.0)
    with caplog.at_level(logging.DEBUG, logger="qrepair"):
        sol = solve_lp(lp, 10.0)
    (line,) = [r.getMessage() for r in caplog.records]
    assert re.fullmatch(r"layer 0 neuron 0: 1 disagreeing \+ 1 preserving rows, 3 columns, "
                        r"\d+ pivots, \d+ bound flips, optimal, M 0\.[45]\d*", line), line
    assert f" {sol.pivots} pivots, {sol.flips} bound flips," in line
    assert sol.M == pytest.approx(0.5)


def test_solve_contradictory_infeasible():
    lp = NeuronLP(0, 0, np.array([1.0]), 0.0, [[1.0], [1.0]], [1, 0], [0, 1], epsilon=1e-3)
    sol = solve_lp(lp, 10.0)
    assert sol.status == "infeasible"


def test_solve_timeout():
    sol = solve_lp(classic_lp(), time_budget=0.0)
    assert sol.status == "timeout"


def test_solve_respects_box_bound():
    sol = solve_lp(classic_lp(epsilon=0.0, bound=0.1), 10.0)
    # needs M = 0.5 but the box caps it at 0.1
    assert sol.status == "infeasible"


def test_solve_empty_rejected():
    lp = NeuronLP(0, 0, np.array([1.0, -2.0]), 0.0, np.empty((0, 2)), [], [], 0.0)
    with pytest.raises(EmptyLPError):
        solve_lp(lp, 10.0)


def test_scaling_covariance_at_zero_epsilon():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = int(rng.integers(1, 3))
        w = rng.uniform(-1, 1, m)
        xs, ts = [], []
        for _ in range(int(rng.integers(1, 3))):
            xs.append(rng.uniform(0.5, 1.5, m) * rng.choice([-1.0, 1.0], m))
            ts.append(int(rng.integers(0, 2)))
        ts = np.array(ts)
        lp = NeuronLP(0, 0, w, 0.0, xs, ts, 1 - ts, 0.0)
        base = solve_lp(lp, 10.0)
        scaled = NeuronLP(0, 0, w, 0.0, 3.0 * lp.x, ts, 1 - ts, 0.0)
        other = solve_lp(scaled, 10.0)
        assert base.status == other.status
        if base.status == "optimal":
            assert other.M == pytest.approx(base.M, abs=1e-9)


def test_single_constraint_closed_form_at_scale():
    # minimize max|d| s.t. g.d >= h has the analytic optimum max(0, h/||g||_1)
    # (spread d_i = M sign(g_i)); checks the solver at production fan-ins
    rng = np.random.default_rng(71)
    for _ in range(40):
        m = int(rng.integers(1, 33))
        g = rng.uniform(0.2, 2.0, m) * rng.choice([-1.0, 1.0], m)
        w = np.zeros(m)
        target = int(rng.integers(0, 2))
        x = g if target == 1 else -g
        eps = float(rng.uniform(0.0, 0.5))
        lp = NeuronLP(0, 0, w, 0.0, [x], [target], [1 - target], eps)
        # with w = 0 and bias 0 the rhs is eps for either branch
        expected = eps / np.abs(g).sum()
        sol = solve_lp(lp, 30.0)
        assert sol.status == "optimal"
        assert sol.M == pytest.approx(expected, abs=1e-9)
        assert check_solution(lp, sol)


def test_multi_constraint_soundness_and_dual_bound_at_scale():
    # every optimal M must satisfy all constraints (soundness) and cannot
    # beat the per-constraint lower bound h_k/||g_k||_1
    rng = np.random.default_rng(72)
    solved = 0
    for _ in range(30):
        m = int(rng.integers(4, 33))
        k = int(rng.integers(2, 41))
        w = rng.normal(size=m)
        bias = float(rng.normal())
        xs, ts = [], []
        for _ in range(k):
            xs.append(rng.normal(size=m))
            ts.append(int(rng.integers(0, 2)))
        ts = np.array(ts)
        lp = NeuronLP(0, 0, w, bias, xs, ts, 1 - ts, epsilon=1e-3)
        sol = solve_lp(lp, 30.0)
        assert sol.status in ("optimal", "infeasible")
        if sol.status != "optimal":
            continue
        solved += 1
        assert check_solution(lp, sol)
        for con in lp.constraints:
            r = float(lp.w @ con.x) + lp.bias
            h = lp.epsilon - r if con.target_status == 1 else lp.epsilon + r
            lower = h / np.abs(con.x).sum()
            assert sol.M >= lower - 1e-9
    assert solved >= 10


def test_solver_against_grid_oracle():
    rng = np.random.default_rng(20240)
    compared = 0
    while compared < 40:
        m = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        w = rng.uniform(-1, 1, m)
        bias = float(rng.uniform(-0.3, 0.3))
        eps = float(rng.choice([0.0, 1e-3]))
        xs, ts = [], []
        for _ in range(k):
            xs.append(rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m))
            ts.append(int(rng.integers(0, 2)))
        ts = np.array(ts)
        lp = NeuronLP(0, 0, w, bias, xs, ts, 1 - ts, eps)
        oracle = grid_oracle(lp)
        sol = solve_lp(lp, 30.0)
        if oracle is None:
            assert sol.status == "infeasible" or (
                sol.status == "optimal" and sol.M > 0.25 - 1e-3
            )
            continue
        assert sol.status == "optimal"
        assert abs(sol.M - oracle) <= 1e-3
        assert check_solution(lp, sol)
        compared += 1


# --- export ---------------------------------------------------------------


def test_export_golden_a(tmp_path):
    lp = classic_lp(epsilon=1e-3)
    out = tmp_path / "a.lp"
    export_lp(lp, out)
    assert out.read_bytes() == (GOLDEN / "neuron_a.lp").read_bytes()


def test_export_golden_b(tmp_path):
    out = tmp_path / "b.lp"
    export_lp(golden_b_lp(), out)
    assert out.read_bytes() == (GOLDEN / "neuron_b.lp").read_bytes()


def test_export_creates_missing_directories(tmp_path):
    out = tmp_path / "missing" / "lps" / "a.lp"
    export_lp(classic_lp(epsilon=1e-3), out)
    assert out.read_bytes() == (GOLDEN / "neuron_a.lp").read_bytes()


def test_export_deterministic():
    lp = golden_b_lp()
    assert format_lp(lp) == format_lp(lp)


def test_export_m_bound_lines():
    bounds = format_lp(classic_lp(epsilon=1e-3)).split("Bounds\n")[1]
    assert " M >= 0\n" in bounds  # unbounded above: only the lower bound
    assert "<= 2" not in bounds
    bounded = format_lp(classic_lp(epsilon=1e-3, bound=2.0)).split("Bounds\n")[1]
    assert " 0 <= M <= 2\n" in bounded
    assert " M >= 0\n" not in bounded


def test_export_twelve_significant_digits():
    lp = NeuronLP(0, 0, np.array([1.0 / 3.0]), 0.0, [[2.0 / 3.0]], [1], [0], 0.0)
    text = format_lp(lp)
    assert "0.666666666667 d_0" in text
