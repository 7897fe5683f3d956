import time

import numpy as np
import pytest

import qrepair.lp
import qrepair.simplex
from conftest import BEALE_LP, BOX, repair_lp, wide_head_parts
from oracles import outer_pivot
from qrepair.localize import compare_at_layer
from qrepair.lp import build_neuron_lp, check_solution, solve_lp
from qrepair.simplex import _pivot, _Tableau, simplex_solve

INF = np.inf


def test_textbook_maximization_as_min():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), value 36;
    # homogenized by a column s in [0, 1] that scales every right-hand side
    res = simplex_solve(
        c=[-3.0, -5.0, 0.0],
        a=[[1.0, 0.0, -4.0], [0.0, 2.0, -12.0], [3.0, 2.0, -18.0]],
        upper=[BOX, BOX, 1.0],
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
        upper=[BOX, BOX, 1.0],
    )
    assert res.status == "optimal"
    assert res.x[2] == pytest.approx(1.0)
    assert res.x[0] + res.x[1] == pytest.approx(2.0)
    assert res.x[0] >= 0.5 - 1e-9


def test_infeasible_certified_by_phase1():
    # x <= 1 and x >= 2: homogenized, x - s <= 0 and 2s - x <= 0 hold only at
    # s = 0, so the optimum leaves the right-hand-side scale at 0 however much
    # s is rewarded; s < 1 there certifies that the LP is infeasible
    res = simplex_solve(c=[1.0, -1e6], a=[[1.0, -1.0], [-1.0, 2.0]], upper=[BOX, 1.0])
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [0.0, 0.0], atol=1e-9)


def test_negative_rhs_normalization():
    # x - y <= -1 with min x + y -> x = 0, y = 1; the negative right-hand side
    # becomes +s in the homogeneous row x - y + s <= 0, with s driven to 1
    res = simplex_solve(c=[1.0, 1.0, -1e6], a=[[1.0, -1.0, 1.0]], upper=[BOX, BOX, 1.0])
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
        upper=[BOX, BOX, 1.0],
    )
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [2.0, 2.0, 1.0], atol=1e-9)
    assert res.objective == pytest.approx(-5.0)


def test_rejects_infinite_bounds():
    # every column must be boxed; the cases with the wrong sign fail twice over
    for lower, upper in (([-1.0], [INF]), ([-INF], [1.0]), ([-1.0], [-INF]), ([INF], [1.0])):
        with pytest.raises(ValueError):
            simplex_solve(c=[-1.0], a=[[-1.0]], upper=upper, lower=lower)


def test_unrepairable_row_is_infeasible():
    # x starts at 1e6, so the row reads 1e-6 > 0; a coefficient of 1e-12 is
    # below the pivot tolerance, so no step can close the miss
    res = simplex_solve(c=[-1.0], a=[[1e-12]], upper=[1e6])
    assert res.status == "infeasible"
    assert res.x is None and res.y is None


def test_solve_lp_never_reports_an_infeasible_simplex_as_optimal(monkeypatch):
    lp = repair_lp(8, 64, 1008)
    monkeypatch.setattr(qrepair.lp, "simplex_solve",
                        lambda *args, **kwargs: simplex_solve([-1.0], [[1e-12]], [1e6]))
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    assert sol.M is None and sol.deltas is None
    assert not check_solution(lp, sol)


def test_rowless_lp_rests_every_column_at_its_preferred_bound():
    res = simplex_solve(c=[1.0, -1.0], a=np.zeros((0, 2)), upper=[1.0, 2.0])
    assert (res.status, res.pivots, res.flips, res.objective) == ("optimal", 0, 1, -2.0)
    assert res.x.tolist() == [0.0, 2.0] and res.y.size == 0


@pytest.mark.parametrize("shape", [(67, 17), (129, 25), (129, 65), (2, 1), (33, 1), (301, 80)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_pivot_matches_the_outer_product_exchange(shape):
    # the benchmark workloads' tableau shapes and edge shapes; each chain of
    # pivots shares one set of scratch arrays, as a solve does. A matmul and a
    # broadcast product round each entry once, so only the sign of an exact
    # zero may differ: bytes match on tableaux with no zero, values everywhere
    rows, cols = shape
    zero_free = 0
    for seed in range(60):
        rng = np.random.default_rng([rows, cols, seed])
        want = rng.normal(size=shape)
        if seed % 3 == 2:  # some entries exact zeros of either sign
            zeros = rng.random(shape) < 0.2
            want[zeros] = rng.choice([0.0, -0.0], size=np.count_nonzero(zeros))
        got = want.copy()
        scratch = np.zeros((rows, 2)), np.zeros((2, cols)), np.empty(shape)
        for _ in range(4):
            row = int(rng.integers(rows - 1))  # never the cost row
            usable = np.flatnonzero(np.abs(want[row]) > 0.1)
            if not usable.size:
                break
            col = int(rng.choice(usable))
            has_zero = np.count_nonzero(want) < want.size
            _pivot(got, row, col, *scratch)
            outer_pivot(want, row, col)
            assert np.array_equal(got, want)
            if not has_zero:
                zero_free += 1
                assert got.tobytes() == want.tobytes()
    assert zero_free >= 100


def test_degenerate_redundant_rows():
    # duplicated and scaled rows, all tight at the optimum
    res = simplex_solve(
        c=[-1.0, -1.0],
        a=[[1.0, -1.0], [1.0, -1.0], [2.0, -2.0], [-1.0, 0.0]],
        upper=[BOX, 1.0],
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


@pytest.mark.parametrize("lower,upper", [
    ([0.5], [1.0]),  # lower bound above 0
    ([-1.0], [-2.0]),  # lower above upper
    ([np.nan], [1.0]),
    ([-1.0], [np.nan]),
    ([-1.0, -1.0], [1.0]),  # one bound too many
    ([[-1.0]], [1.0]),  # 2-D
], ids=["positive", "above_upper", "nan_lower", "nan_upper", "too_long", "2d"])
def test_rejects_bad_lower_bounds(lower, upper):
    with pytest.raises(ValueError):
        simplex_solve(c=[1.0], a=[[1.0]], upper=upper, lower=lower)


@pytest.mark.parametrize("c,a", [
    ([-1.0, 0.0], [[np.nan, 1.0]]),
    ([-1.0, 0.0], [[np.inf, 1.0]]),
    ([np.nan, 0.0], [[1.0, 1.0]]),
    ([-np.inf, 0.0], [[1.0, 1.0]]),
], ids=["nan_a", "inf_a", "nan_c", "inf_c"])
def test_rejects_non_finite_costs_and_coefficients(c, a):
    with pytest.raises(ValueError, match="must be finite"):
        simplex_solve(c, a, [1.0, 1.0])


def random_instances(seed, count=60):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = rng.integers(-3, 4, size=(k, n)).astype(np.float64)
        a = np.vstack([a, a[: k // 2]])  # duplicate rows: degenerate vertices
        c = rng.integers(-3, 4, size=n).astype(np.float64)
        upper = np.where(rng.random(n) < 0.7, rng.integers(1, 4, size=n), BOX)
        yield c, a, upper


def test_random_instances_against_scipy_free_check():
    # substitution checks only, no external solver: x is feasible, and no
    # single column step from x improves the objective without leaving the
    # feasible set
    for c, a, upper in random_instances(99):
        res = simplex_solve(c, a, upper)
        assert res.status == "optimal"
        x = res.x
        assert np.all(x >= 0) and np.all(x <= upper)
        assert np.all(a @ x <= 1e-9)
        assert res.objective == pytest.approx(float(c @ x))
        assert box_dual_bound(c, a, np.zeros(len(c)), upper, res.y) == \
            pytest.approx(res.objective, rel=1e-9, abs=1e-9)
        for j in range(len(c)):
            for step in (1e-3, -1e-3):
                y = x.copy()
                y[j] += step
                if np.all(y >= 0) and np.all(y <= upper) and np.all(a @ y <= 1e-12):
                    assert c @ y >= c @ x - 1e-12


def split_form(c, a, lower, upper):
    """The same LP with every lower bound 0: each x_j with lower_j < 0 becomes
    p_j - q_j, p_j in [0, upper_j] in its own column and q_j in [0, -lower_j]
    in a negated copy appended after the others."""
    c, a, lower, upper = (np.asarray(v, dtype=np.float64) for v in (c, a, lower, upper))
    neg = np.flatnonzero(lower < 0)
    return np.append(c, -c[neg]), np.hstack([a, -a[:, neg]]), np.append(upper, -lower[neg])


def boxed_instances(seed, count=80):
    """`random_instances` with lower bounds 0, -1, -2 or -BOX, and some upper
    bounds 0, so that variables rest at lower bounds below 0 and at upper
    bounds of 0."""
    rng = np.random.default_rng(seed)
    for c, a, upper in random_instances(seed, count):
        lower = rng.choice([0.0, -1.0, -2.0, -BOX], size=len(c))
        yield c, a, lower, np.where(rng.random(len(c)) < 0.15, 0.0, upper)


def box_dual_bound(c, a, lower, upper, y):
    """min over the box of (c + a^T y).x, a lower bound on c.x over the LP for
    any y >= 0."""
    r = np.asarray(c) + np.asarray(a).T @ y
    return float(np.minimum(r * lower, r * upper).sum())


def test_boxed_columns_match_the_split_form():
    solved = 0
    for c, a, lower, upper in boxed_instances(5):
        boxed = simplex_solve(c, a, upper, lower=lower)
        split = simplex_solve(*split_form(c, a, lower, upper))
        assert boxed.status == split.status
        if boxed.status != "optimal":
            continue
        solved += 1
        x = boxed.x
        assert np.all(lower <= x) and np.all(x <= upper)
        assert np.all(a @ x <= 1e-9)
        assert boxed.objective == pytest.approx(float(c @ x))
        assert boxed.objective == pytest.approx(split.objective, rel=1e-9, abs=1e-9)
        assert np.all(boxed.y >= 0)
        assert box_dual_bound(c, a, lower, upper, boxed.y) == \
            pytest.approx(boxed.objective, rel=1e-9, abs=1e-9)
    assert solved >= 30


@pytest.mark.parametrize("m", [8, 24, 64])
def test_boxed_repair_lp_matches_the_split_form(m):
    # the repair LP as `lp.solve_lp` poses it, and with u = u+ - u-
    lp = repair_lp(m, 64, 1000 + m)
    sign = 2.0 * lp.target_status - 1.0
    g, h = sign[:, None] * lp.x, lp.epsilon - sign * (lp.x @ lp.w + lp.bias)
    c, a = np.append(np.zeros(m), -1.0), np.hstack([-g, h[:, None]])
    t_max = np.min(np.abs(g).sum(axis=1)[h > 0] / h[h > 0])  # t's box, as solve_lp sets it
    lower, upper = np.append(np.full(m, -1.0), 0.0), np.append(np.ones(m), t_max)
    boxed = simplex_solve(c, a, upper, lower=lower)
    split = simplex_solve(*split_form(c, a, lower, upper))
    assert boxed.status == split.status == "optimal"
    assert 1.0 / boxed.x[m] == pytest.approx(1.0 / split.x[m], rel=1e-9)
    # with t boxed in both forms the split one can take fewer pivots (22
    # against 34 at m = 64), but it makes about twice the moves in all
    assert boxed.pivots + boxed.flips < split.pivots + split.flips


def test_coarse_perturbation_is_removed(monkeypatch):
    # a perturbation this coarse leaves bases that miss a bound once it is
    # removed, and true reduced costs that prefer their column's other bound,
    # a row slack's included; flipping each there and the dual cleanup must
    # still land on the same optimum, with a dual bound that meets it
    cases = [dict(c=c, a=a, upper=upper, lower=np.zeros(len(c)))
             for c, a, upper in random_instances(7)]
    cases += [dict(c=c, a=a, upper=upper, lower=lower)
              for c, a, lower, upper in boxed_instances(6)]
    fine = [simplex_solve(**case) for case in cases]
    remove, flips = _Tableau.remove_perturbations, []

    def counting(tab):
        before, at = tab.flips, tab.at.copy()
        remove(tab)
        slack = tab.cols >= tab.costs.size - tab.rows.size
        flips.append((tab.flips - before, np.count_nonzero((tab.at != at) & slack)))

    monkeypatch.setattr(_Tableau, "remove_perturbations", counting)
    monkeypatch.setattr(qrepair.simplex, "PERTURBATION", 0.5)
    for case, want in zip(cases, fine):
        got = simplex_solve(**case)
        assert got.status == want.status == "optimal"
        c, a, lower, upper, x = case["c"], case["a"], case["lower"], case["upper"], got.x
        assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-12)
        assert np.all(lower <= x) and np.all(x <= upper) and np.all(a @ x <= 1e-9)
        assert box_dual_bound(c, a, lower, upper, got.y) == \
            pytest.approx(got.objective, rel=1e-9, abs=1e-9)
    assert len(flips) == len(cases)  # the perturbations go once per solve
    assert any(flipped for flipped, _ in flips)
    assert any(slacks for _, slacks in flips)


def test_beale_cycling_lp_terminates():
    res = simplex_solve(*BEALE_LP)
    assert res.status == "optimal"
    assert res.pivots + res.flips <= 2000
    assert res.objective == pytest.approx(-1.0 / 20.0, rel=1e-12)
    np.testing.assert_allclose(res.x, [0.04, 0.0, 1.0, 0.0], atol=1e-12)


def test_tall_repair_lp_terminates():
    # a wide-head output neuron with a row for every repair test: each
    # disagreeing one and each agreeing one
    fmodel, qmodel, repair_set, _ = wide_head_parts()
    comparison = compare_at_layer(fmodel, qmodel, repair_set, 2)
    lp = build_neuron_lp(comparison, 1, max_constraints=len(repair_set))
    assert len(lp.constraints) == len(repair_set) == 300
    sol = solve_lp(lp, 60.0)
    assert sol.status == "optimal"
    assert 0 < sol.pivots + sol.flips <= 2000
    assert check_solution(lp, sol)
