"""Dense two-phase simplex for small linear programs.

Minimizes c.x subject to A x (<=|>=|=) b with x >= 0. Bland's rule is used
for both the entering and leaving choices, which rules out cycling; the
tableau is dense float64, adequate for the problem sizes produced by
per-neuron repair (hundreds of rows/columns). Each pivot is one rank-1
numpy update with the rounding of a row-by-row pivot, so the pivot path and
every solution bit stay fixed (tests/golden/simplex_pivots.json).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7


@dataclass
class SimplexResult:
    status: str  # optimal | infeasible | unbounded | timeout
    x: np.ndarray | None = None
    objective: float | None = None


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    update = factors[:, None] * tableau[row]
    # rows with a zero factor, the pivot row among them, must come out
    # unchanged: 0*y may be -0.0 and -0.0 - -0.0 is +0.0, but x - +0.0 is x
    # bit for bit, signed zeros included
    update[factors == 0.0] = 0.0
    tableau -= update


def _iterate(tableau, basis, costs, deadline, max_iter):
    """Run simplex pivots to optimality. Returns a status string."""
    n = tableau.shape[1] - 1
    for _ in range(max_iter):
        if deadline is not None and time.monotonic() > deadline:
            return "timeout"
        reduced = costs - costs[basis] @ tableau[:, :n]
        candidates = np.flatnonzero(reduced < -PIVOT_TOL)
        if candidates.size == 0:
            return "optimal"
        entering = int(candidates[0])
        # ratio test over the rows with a positive pivot element; ties go to
        # the smallest basis index (Bland). The scan stays sequential because
        # near-ties chain: a min-then-tie-break can pick another row.
        column = tableau[:, entering]
        rows = np.flatnonzero(column > PIVOT_TOL)
        best_ratio = None
        leaving = -1
        for i, ratio in zip(rows.tolist(), (tableau[rows, -1] / column[rows]).tolist()):
            if (best_ratio is None or ratio < best_ratio - PIVOT_TOL
                    or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[leaving])):
                best_ratio = ratio
                leaving = i
        if leaving < 0:
            return "unbounded"
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
    return "timeout"


def simplex_solve(c, a, senses, b, deadline=None, max_iter=50000) -> SimplexResult:
    """Minimize c.x s.t. a x (senses) b, x >= 0.

    `deadline` is a time.monotonic() timestamp; crossing it yields status
    "timeout". Infeasibility is certified by a positive phase-1 optimum.
    """
    c = np.asarray(c, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64).copy()
    b = np.asarray(b, dtype=np.float64).copy()
    senses = list(senses)
    m, n = a.shape
    if b.shape != (m,) or c.shape != (n,) or len(senses) != m:
        raise ValueError("inconsistent LP dimensions")

    for i in range(m):
        if b[i] < 0:
            a[i] *= -1.0
            b[i] *= -1.0
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    n_slack = sum(1 for s in senses if s in ("<=", ">="))
    n_art = sum(1 for s in senses if s in (">=", "="))
    total = n + n_slack + n_art

    tableau = np.zeros((m, total + 1))
    tableau[:, :n] = a
    tableau[:, -1] = b
    basis = [0] * m
    s_at = n
    a_at = n + n_slack
    for i, sense in enumerate(senses):
        if sense != "=":
            tableau[i, s_at] = 1.0 if sense == "<=" else -1.0
            s_at += 1
        if sense == "<=":
            basis[i] = s_at - 1
        else:
            tableau[i, a_at] = 1.0
            basis[i] = a_at
            a_at += 1

    if n_art:
        phase1_costs = np.zeros(total)
        phase1_costs[n + n_slack :] = 1.0
        status = _iterate(tableau, basis, phase1_costs, deadline, max_iter)
        if status != "optimal":
            return SimplexResult(status)
        art_value = sum(tableau[i, -1] for i in range(m) if basis[i] >= n + n_slack)
        if art_value > FEAS_TOL:
            return SimplexResult("infeasible")
        # drive leftover (degenerate) artificials out of the basis
        drop_rows = []
        for i in range(m):
            if basis[i] >= n + n_slack:
                cols = np.flatnonzero(np.abs(tableau[i, : n + n_slack]) > PIVOT_TOL)
                if cols.size:
                    _pivot(tableau, i, int(cols[0]))
                    basis[i] = int(cols[0])
                else:
                    drop_rows.append(i)
        if drop_rows:
            keep = [i for i in range(m) if i not in drop_rows]
            tableau = tableau[keep]
            basis = [basis[i] for i in keep]
        tableau = np.hstack([tableau[:, : n + n_slack], tableau[:, -1:]])

    phase2_costs = np.zeros(n + n_slack)
    phase2_costs[:n] = c
    status = _iterate(tableau, basis, phase2_costs, deadline, max_iter)
    if status != "optimal":
        return SimplexResult(status)

    x = np.zeros(n + n_slack)
    x[basis] = tableau[:, -1]
    x = x[:n]
    return SimplexResult("optimal", x, float(c @ x))
