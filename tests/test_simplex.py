import time

import numpy as np
import pytest

import qrepair.lp
import qrepair.simplex
from conftest import BEALE_LP, wide_head_parts
from qrepair.localize import compare_at_layer
from qrepair.lp import build_neuron_lp, check_solution, solve_lp
from qrepair.simplex import simplex_solve

INF = np.inf


def test_textbook_maximization_as_min():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), value 36;
    # homogenized by a column s in [0, 1] that scales every right-hand side
    res = simplex_solve(
        c=[-3.0, -5.0, 0.0],
        a=[[1.0, 0.0, -4.0], [0.0, 2.0, -12.0], [3.0, 2.0, -18.0]],
        upper=[INF, INF, 1.0],
    )
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [2.0, 6.0, 1.0], atol=1e-9)
    assert res.objective == pytest.approx(-36.0)


def test_min_with_ge_rows_needs_phase1():
    # min x + y s.t. x + y >= 2, x >= 0.5 -> value 2 with x >= 0.5. The >= rows
    # are negated and their right-hand sides scaled by s in [0, 1], priced at
    # -1e6 so s = 1: x = 0 is feasible, so no phase 1 is needed to start
    res = simplex_solve(
        c=[1.0, 1.0, -1e6],
        a=[[-1.0, -1.0, 2.0], [-1.0, 0.0, 0.5]],
        upper=[INF, INF, 1.0],
    )
    assert res.status == "optimal"
    assert res.x[2] == pytest.approx(1.0)
    assert res.x[0] + res.x[1] == pytest.approx(2.0)
    assert res.x[0] >= 0.5 - 1e-9


def test_infeasible_certified_by_phase1():
    # x <= 1 and x >= 2: homogenized, x - s <= 0 and 2s - x <= 0 hold only at
    # s = 0, so the optimum leaves the right-hand-side scale at 0 however much
    # s is rewarded; s < 1 there certifies that the LP is infeasible
    res = simplex_solve(c=[1.0, -1e6], a=[[1.0, -1.0], [-1.0, 2.0]], upper=[INF, 1.0])
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [0.0, 0.0], atol=1e-9)


def test_negative_rhs_normalization():
    # x - y <= -1 with min x + y -> x = 0, y = 1; the negative right-hand side
    # becomes +s in the homogeneous row x - y + s <= 0, with s driven to 1
    res = simplex_solve(c=[1.0, 1.0, -1e6], a=[[1.0, -1.0, 1.0]], upper=[INF, INF, 1.0])
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [0.0, 1.0, 1.0], atol=1e-9)
    assert res.objective == pytest.approx(1.0 - 1e6)


def test_bounds_alone_flip_without_pivots():
    # min -x - 2y with x <= 3, y <= 0.5 and a row that never binds
    res = simplex_solve(c=[-1.0, -2.0], a=[[-1.0, -1.0]], upper=[3.0, 0.5])
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [3.0, 0.5])
    assert (res.pivots, res.flips) == (0, 2)


def test_equality_constraints():
    # x - y = 0 as a pair of opposite rows, y - 2z = 0 likewise, z <= 1:
    # min -x - y - z -> (2, 2, 1), value -5
    res = simplex_solve(
        c=[-1.0, -1.0, -1.0],
        a=[[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 1.0, -2.0], [0.0, -1.0, 2.0]],
        upper=[INF, INF, 1.0],
    )
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [2.0, 2.0, 1.0], atol=1e-9)
    assert res.objective == pytest.approx(-5.0)


def test_unbounded():
    # min -x with only -x <= 0
    res = simplex_solve(c=[-1.0], a=[[-1.0]], upper=[INF])
    assert res.status == "unbounded"


def test_degenerate_redundant_rows():
    # duplicated and scaled rows, all tight at the optimum
    res = simplex_solve(
        c=[-1.0, -1.0],
        a=[[1.0, -1.0], [1.0, -1.0], [2.0, -2.0], [-1.0, 0.0]],
        upper=[INF, 1.0],
    )
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-9)
    assert res.objective == pytest.approx(-2.0)


def test_deadline_timeout():
    # the deadline is checked before any work
    res = simplex_solve(c=[-1.0], a=[[1.0]], upper=[1.0], deadline=time.monotonic())
    assert res.status == "timeout"


def test_rejects_inconsistent_shapes_and_negative_bounds():
    with pytest.raises(ValueError):
        simplex_solve(c=[1.0], a=[[1.0, 1.0]], upper=[1.0, 1.0])
    with pytest.raises(ValueError):
        simplex_solve(c=[1.0], a=[[1.0]], upper=[-1.0])


def random_instances(seed, count=60):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = rng.integers(-3, 4, size=(k, n)).astype(np.float64)
        a = np.vstack([a, a[: k // 2]])  # duplicate rows: degenerate vertices
        c = rng.integers(-3, 4, size=n).astype(np.float64)
        upper = np.where(rng.random(n) < 0.7, rng.integers(1, 4, size=n), INF)
        yield c, a, upper


def test_random_instances_against_scipy_free_check():
    # substitution checks only, no external solver: x is feasible, and no
    # single column step from x improves the objective without leaving the
    # feasible set
    solved = 0
    for c, a, upper in random_instances(99):
        res = simplex_solve(c, a, upper)
        assert res.status in ("optimal", "unbounded")
        if res.status == "unbounded":
            continue
        solved += 1
        x = res.x
        assert np.all(x >= 0) and np.all(x <= upper)
        assert np.all(a @ x <= 1e-9)
        assert res.objective == pytest.approx(float(c @ x))
        for j in range(len(c)):
            for step in (1e-3, -1e-3):
                y = x.copy()
                y[j] += step
                if np.all(y >= 0) and np.all(y <= upper) and np.all(a @ y <= 1e-12):
                    assert c @ y >= c @ x - 1e-12
    assert solved >= 30


def test_coarse_perturbation_is_removed(monkeypatch):
    # a perturbation this coarse leaves bases that miss a bound once it is
    # removed; the dual cleanup must still land on the same optimum
    fine = [simplex_solve(*case) for case in random_instances(7)]
    monkeypatch.setattr(qrepair.simplex, "PERTURBATION", 0.5)
    for case, want in zip(random_instances(7), fine):
        got = simplex_solve(*case)
        assert got.status == want.status
        if got.status == "optimal":
            assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-12)
            assert np.all(case[1] @ got.x <= 1e-9)


def test_beale_cycling_lp_terminates():
    res = simplex_solve(*BEALE_LP)
    assert res.status == "optimal"
    assert res.pivots + res.flips <= 2000
    assert res.objective == pytest.approx(-1.0 / 20.0, rel=1e-12)
    np.testing.assert_allclose(res.x, [0.04, 0.0, 1.0, 0.0], atol=1e-12)


def test_tall_repair_lp_terminates(monkeypatch):
    # a wide-head output neuron with a row for every repair test: each
    # disagreeing one and each agreeing one
    fmodel, qmodel, repair_set, _ = wide_head_parts()
    comparison = compare_at_layer(fmodel, qmodel, repair_set, 2)
    lp = build_neuron_lp(comparison, 1, max_constraints=len(repair_set))
    assert len(lp.constraints) == len(repair_set) == 300
    steps = []

    def counting(*args, **kwargs):
        steps.append(simplex_solve(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr(qrepair.lp, "simplex_solve", counting)
    sol = solve_lp(lp, 60.0)
    assert sol.status == "optimal"
    assert steps[0].pivots + steps[0].flips <= 2000
    assert check_solution(lp, sol)
