"""LP optima, pinned against a golden file.

Each LP's status and optimum must match `tests/golden/simplex_optima.json`,
the optimum stored as float.hex and compared to 1e-9 relative. The pivot
path is not pinned: a degenerate vertex may be left by several pivots, and
which one a solver takes is its own business. (The test function keeps the
name it had when the file pinned a pivot path, so its ids stay stable.)

The cases:
- general-form LPs, min c.x s.t. A x (<=|>=|=) b, x >= 0, posed to
  `simplex_solve` in homogeneous form (`homogenize`) with x boxed by `BOX`,
  which no optimum reaches; the optimum is c.x;
- Beale's cycling LP, posed directly;
- seeded repair LPs solved by `lp.solve_lp`; the optimum is M.

Regenerate (only when an optimum is meant to change, and say why):
    PYTHONPATH=src python tests/test_simplex_pivots.py
"""

import json
import math

import numpy as np
import pytest

from conftest import BEALE_LP, BOX, GOLDEN, repair_lp
from oracles import certificate_gap
from qrepair.lp import solve_lp
from qrepair.simplex import simplex_solve

GOLDEN_FILE = GOLDEN / "simplex_optima.json"
PENALTY = 1e6


def _random_instances():
    rng = np.random.default_rng(99)
    for t in range(60):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.normal(size=(m, n))
        b = rng.uniform(0.1, 2.0, size=m)
        senses = [str(rng.choice(["<=", ">="])) for _ in range(m)]
        c = rng.uniform(0.0, 1.0, size=n)
        yield f"random_{t}", (c, a, senses, b)


def simplex_cases():
    """name -> (c, a, senses, b) of a general-form LP."""
    cases = {
        "textbook_max": ([-3.0, -5.0], [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
                         ["<=", "<=", "<="], [4.0, 12.0, 18.0]),
        "ge_phase1": ([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [">=", ">="], [2.0, 0.5]),
        "equality": ([2.0, 3.0], [[1.0, 1.0], [1.0, -1.0]], ["=", "="], [4.0, 0.0]),
        "infeasible": ([1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0]),
        "negative_rhs": ([1.0, 1.0], [[1.0, -1.0]], ["<="], [-1.0]),
        "redundant_rows": ([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
                           ["=", "=", "="], [2.0, 2.0, 4.0]),
        "degenerate_zero_rhs": ([1.0, -1.0, 0.5],
                                [[1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [2.0, -2.0, 0.0],
                                 [0.0, 1.0, -1.0], [0.0, 1.0, -1.0], [1.0, 1.0, 1.0]],
                                ["=", "=", "=", ">=", ">=", "<="],
                                [0.0, 0.0, 0.0, 0.0, 0.0, 3.0]),
        "duplicate_rows_signed_zero": ([0.0, -1.0], [[2.0, 2.0], [0.0, 2.0], [0.0, 2.0]],
                                       ["=", "=", "="], [0.0, 0.0, 0.0]),
        # right-hand sides 1 + 1.2e-9, 1 + 0.6e-9 and 1: ratios within 1e-9
        # of their neighbours but not of each other
        "near_tie_ratios": ([-1.0, -1.0, -0.5],
                            [[1.0, 1.0, 0.0], [1.0, 0.5, 1.0], [1.0, 0.25, 2.0],
                             [0.0, 1.0, 1.0]],
                            ["<=", "<=", "<=", "<="],
                            [1.0 + 1.2e-9, 1.0 + 0.6e-9, 1.0, 1.5]),
    }
    cases.update(_random_instances())
    return cases


REPAIR_CASES = {f"repair_m{m}_k64": (m, 64, 1000 + m) for m in (8, 24, 64)}


def homogenize(c, a, senses, b):
    """(c', a', upper) for `simplex_solve` from a general-form LP.

    A column s in [0, 1] scales every right-hand side: each row becomes
    a.x - b s <= 0 (a >= row is negated, an = row is both), and s costs
    -PENALTY, which drives it to 1 whenever the LP is feasible. s < 1 at the
    optimum means the LP is infeasible. Each x_j is boxed in [0, BOX].
    """
    rows = []
    for row, sense, rhs in zip(np.asarray(a, dtype=float), senses, b):
        row = np.append(row, -rhs)
        rows += [row] * (sense != ">=") + [-row] * (sense != "<=")
    n = len(c)
    return np.append(c, -PENALTY), np.array(rows), np.append(np.full(n, BOX), 1.0)


def run_case(name):
    """(status, optimum) of one case."""
    if name in REPAIR_CASES:
        sol = solve_lp(repair_lp(*REPAIR_CASES[name]), time_budget=600.0)
        return sol.status, sol.M
    if name == "beale_1955":
        res = simplex_solve(*BEALE_LP)
        return res.status, res.objective
    c, a, senses, b = simplex_cases()[name]
    res = simplex_solve(*homogenize(c, a, senses, b))
    if res.status != "optimal":
        return res.status, None
    assert np.all(res.x[:-1] < BOX), f"{name}: the box is active at the optimum"
    if res.x[-1] < 1.0 - 1e-9:
        return "infeasible", None
    return "optimal", float(np.dot(c, res.x[:-1]))


def all_case_names():
    return list(simplex_cases()) + ["beale_1955"] + list(REPAIR_CASES)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(all_case_names())


@pytest.mark.parametrize("name", all_case_names())
def test_pivot_path_matches_golden(golden, name):
    status, optimum = run_case(name)
    want = golden[name]
    assert status == want["status"]
    if want["objective"] is None:
        assert optimum is None
    else:
        assert math.isclose(optimum, float.fromhex(want["objective"]), rel_tol=1e-9,
                            abs_tol=1e-12)


@pytest.mark.parametrize("name", list(REPAIR_CASES))
def test_repair_optimum_is_certified(name):
    lp = repair_lp(*REPAIR_CASES[name])
    sol = solve_lp(lp, 600.0)
    assert sol.status == "optimal"
    assert abs(certificate_gap(lp, sol.M, sol.y)) <= 1e-9
    assert sol.bound == pytest.approx(sol.M, rel=1e-9)


if __name__ == "__main__":
    record = {}
    for name in all_case_names():
        status, optimum = run_case(name)
        record[name] = {"status": status,
                        "objective": None if optimum is None else float(optimum).hex()}
    GOLDEN_FILE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_FILE}")
