"""Bland's rule pivot path, pinned bit for bit against a golden file.

Each LP's status, pivot count, the sha256 of its (row, col) pivot sequence
and the solution x (as float.hex) must match `tests/golden/simplex_pivots.json`.
A solver change that alters the rounding of any pivot, or breaks a near-tie
in the ratio test differently, moves the path and with it the chosen vertex.
The sequence is recorded by rebinding `qrepair.simplex._pivot`, the module
global through which the solver makes every pivot; perfbench's tracer counts
pivots the same way.

Regenerate (only when the path is meant to change, and say why):
    PYTHONPATH=src python tests/test_simplex_pivots.py
"""

import hashlib
import json

import numpy as np
import pytest

import qrepair.lp
import qrepair.simplex
from conftest import GOLDEN, repair_lp

GOLDEN_FILE = GOLDEN / "simplex_pivots.json"


def _random_instances():
    # the draws of tests/test_simplex.py::test_random_instances_against_scipy_free_check
    rng = np.random.default_rng(99)
    for t in range(60):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.normal(size=(m, n))
        b = rng.uniform(0.1, 2.0, size=m)
        senses = [str(rng.choice(["<=", ">="])) for _ in range(m)]
        c = rng.uniform(0.0, 1.0, size=n)
        yield f"random_{t}", (c, a, senses, b)


def simplex_cases():
    """name -> (c, a, senses, b) for a direct simplex_solve call."""
    cases = {
        "textbook_max": ([-3.0, -5.0], [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
                         ["<=", "<=", "<="], [4.0, 12.0, 18.0]),
        "ge_phase1": ([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [">=", ">="], [2.0, 0.5]),
        "equality": ([2.0, 3.0], [[1.0, 1.0], [1.0, -1.0]], ["=", "="], [4.0, 0.0]),
        "infeasible": ([1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0]),
        "unbounded": ([-1.0], [[1.0]], [">="], [1.0]),
        "negative_rhs": ([1.0, 1.0], [[1.0, -1.0]], ["<="], [-1.0]),
        "redundant_rows": ([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
                           ["=", "=", "="], [2.0, 2.0, 4.0]),
        # duplicate rows with zero right-hand sides: phase-1 pivots are degenerate
        # and phase 1 must drop the rows its artificials cannot leave
        "degenerate_zero_rhs": ([1.0, -1.0, 0.5],
                                [[1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [2.0, -2.0, 0.0],
                                 [0.0, 1.0, -1.0], [0.0, 1.0, -1.0], [1.0, 1.0, 1.0]],
                                ["=", "=", "=", ">=", ">=", "<="],
                                [0.0, 0.0, 0.0, 0.0, 0.0, 3.0]),
        # duplicate rows, zero right-hand sides, and a solution whose first
        # component is -0.0: a pivot that touches rows with a zero factor
        # turns it into +0.0
        "duplicate_rows_signed_zero": ([0.0, -1.0], [[2.0, 2.0], [0.0, 2.0], [0.0, 2.0]],
                                       ["=", "=", "="], [0.0, 0.0, 0.0]),
        # ratios 1 + 1.2e-9, 1 + 0.6e-9 and 1 chain within PIVOT_TOL of their
        # neighbours but not of each other: the sequential Bland scan and a
        # min-then-tie-break choose different leaving rows
        "near_tie_ratios": ([-1.0, -1.0, -0.5],
                            [[1.0, 1.0, 0.0], [1.0, 0.5, 1.0], [1.0, 0.25, 2.0],
                             [0.0, 1.0, 1.0]],
                            ["<=", "<=", "<=", "<="],
                            [1.0 + 1.2e-9, 1.0 + 0.6e-9, 1.0, 1.5]),
    }
    cases.update(_random_instances())
    return cases


REPAIR_CASES = {f"repair_m{m}_k64": (m, 64, 1000 + m) for m in (8, 24, 64)}


def _record(solve):
    """Run `solve()`, which calls the solver as `qrepair.lp.simplex_solve`,
    with its pivots and its result recorded."""
    path, results = [], []
    pivot, solve_fn = qrepair.simplex._pivot, qrepair.lp.simplex_solve

    def recording_pivot(tableau, row, col):
        path.append(f"{int(row)},{int(col)}")
        pivot(tableau, row, col)

    def recording_solve(*args, **kwargs):
        results.append(solve_fn(*args, **kwargs))
        return results[-1]

    qrepair.simplex._pivot, qrepair.lp.simplex_solve = recording_pivot, recording_solve
    try:
        solve()
    finally:
        qrepair.simplex._pivot, qrepair.lp.simplex_solve = pivot, solve_fn
    (res,) = results
    return {
        "status": res.status,
        "pivots": len(path),
        "path_sha256": hashlib.sha256(";".join(path).encode()).hexdigest(),
        "x": None if res.x is None else [float(v).hex() for v in res.x],
    }


def run_case(name):
    if name in REPAIR_CASES:
        lp = repair_lp(*REPAIR_CASES[name])
        return _record(lambda: qrepair.lp.solve_lp(lp, time_budget=600.0))
    c, a, senses, b = simplex_cases()[name]
    return _record(lambda: qrepair.lp.simplex_solve(c, a, senses, b))


def all_case_names():
    return list(simplex_cases()) + list(REPAIR_CASES)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(all_case_names())


@pytest.mark.parametrize("name", all_case_names())
def test_pivot_path_matches_golden(golden, name):
    assert run_case(name) == golden[name]


if __name__ == "__main__":
    GOLDEN_FILE.write_text(json.dumps({n: run_case(n) for n in all_case_names()},
                                      indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_FILE}")
