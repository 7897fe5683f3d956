"""Bounded-variable primal simplex for homogeneous linear programs.

Minimizes c.x s.t. A x <= 0, 0 <= x <= upper (a bound may be inf), the form
of a repair LP after the Charnes-Cooper substitution (`lp.solve_lp`). x = 0 is
feasible, so the slack basis starts: no phase 1, no artificials. Dantzig's
rule picks the entering column, which flips to its other bound without a
pivot when it gets there first. The ratio test sees the zero right-hand side
perturbed by 1e-7 (1 + i/k) in row i against degenerate stalls; at that
optimum the perturbation is removed, dual simplex steps restore any bound
the recomputed basic values miss, and the basis is priced afresh (Wolfe
1963; Harris 1973). The dense tableau has a column per nonbasic variable;
each pivot is one rank-1 numpy exchange through `_pivot`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-9
PERTURBATION = 1e-7


@dataclass
class SimplexResult:
    status: str  # optimal | unbounded | timeout
    x: np.ndarray | None = None
    objective: float | None = None
    pivots: int = 0
    flips: int = 0  # steps that move a variable to its other bound, no pivot


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Exchange the basic variable of `row` and the nonbasic one of `col`."""
    pivot = tableau[row, col]
    tableau[row] /= pivot
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    tableau[:, col] = -factors / pivot
    tableau[row, col] = 1.0 / pivot


class _Tableau:
    """x_B = values - T x_N, one column per nonbasic variable, over the
    reduced costs; `rows` and `cols` name each row's and column's variable."""

    def __init__(self, c, a, upper):
        k, n = a.shape
        self.t = np.vstack([a, c])  # the slacks s = -a x start basic; costs last
        self.costs = np.append(c, np.zeros(k))
        self.upper = np.append(upper, np.full(k, np.inf))
        self.rows, self.cols = np.arange(n, n + k), np.arange(n)
        self.direction = np.ones(n)  # +1: a column's variable rests at 0; -1: at its bound
        self.values = PERTURBATION * (1.0 + np.arange(k) / k)
        self.perturbed, self.pivots, self.flips = True, 0, 0

    def move(self, col, step, alpha, row=None, to_upper=False):
        """Move `col`'s variable by `step`, the basic values by -step * alpha; then
        swap it with `row`'s (to rest at its bound if `to_upper`), or flip it."""
        self.values -= step * alpha
        if row is None:
            self.direction[col] = -self.direction[col]
            self.flips += 1
            return
        var = self.cols[col]
        self.values[row] = self.upper[var] - step if self.direction[col] < 0 else step
        self.direction[col] = -1.0 if to_upper else 1.0
        self.rows[row], self.cols[col] = var, self.rows[row]
        _pivot(self.t, row, col)
        self.pivots += 1

    def primal_step(self) -> str | None:
        """One Dantzig step; "optimal" or "unbounded" when there is none."""
        t, rows = self.t, self.rows
        rate = t[-1] * self.direction
        col = int(rate.argmin())
        if rate[col] >= -PIVOT_TOL:
            return "optimal"
        alpha = t[:-1, col] * self.direction[col]
        # a basic value falls toward 0 where alpha > 0, else toward its bound
        room = np.where(alpha > 0, self.values, self.upper[rows] - self.values)
        size = np.abs(alpha)
        ratios = np.where(size > PIVOT_TOL, room / np.maximum(size, PIVOT_TOL), np.inf)
        row = int(ratios.argmin())
        bound = self.upper[self.cols[col]]
        if bound > ratios[row]:
            self.move(col, max(ratios[row], 0.0), alpha, row, alpha[row] < 0)
        elif bound < np.inf:
            self.move(col, bound, alpha)
        else:
            return "unbounded"

    def dual_step(self) -> bool:
        """One dual simplex step on a basic value outside its bounds, if any."""
        t, rows = self.t, self.rows
        miss = np.maximum(-self.values, self.values - self.upper[rows])
        row = int(miss.argmax())
        to_upper = self.values[row] > self.upper[rows[row]]
        # the least reduced cost per unit of push keeps every one optimal
        push = t[row] * self.direction * (1.0 if to_upper else -1.0)
        if miss[row] <= FEAS_TOL or not np.any(push > PIVOT_TOL):
            return False
        ratios = np.abs(t[-1]) / np.maximum(push, PIVOT_TOL)
        col = int(np.where(push > PIVOT_TOL, ratios, np.inf).argmin())
        target = self.upper[rows[row]] if to_upper else 0.0
        alpha = t[:-1, col] * self.direction[col]
        self.move(col, (self.values[row] - target) / alpha[row], alpha, row, to_upper)
        return True

    def remove_perturbation(self) -> None:
        """Basic values for the true zero right-hand side, and fresh prices."""
        up = np.flatnonzero(self.direction < 0)
        self.values = -(self.t[:-1, up] @ self.upper[self.cols[up]])
        self.t[-1] = self.costs[self.cols] - self.costs[self.rows] @ self.t[:-1]
        self.perturbed = False

    def result(self, status: str, n: int) -> SimplexResult:
        res = SimplexResult(status, pivots=self.pivots, flips=self.flips)
        if status == "optimal":
            x = np.zeros(self.upper.size)
            x[self.cols] = np.where(self.direction < 0, self.upper[self.cols], 0.0)
            x[self.rows] = np.clip(self.values, 0.0, self.upper[self.rows])
            res.x, res.objective = x[:n], float(self.costs[:n] @ x[:n])
        return res


def simplex_solve(c, a, upper, deadline=None, max_iter=50000) -> SimplexResult:
    """Minimize c.x s.t. a x <= 0, 0 <= x <= upper.

    `deadline` is a time.monotonic() timestamp, checked before any work and
    before every step; reaching it yields status "timeout".
    """
    if deadline is not None and time.monotonic() >= deadline:
        return SimplexResult("timeout")
    c, a, upper = (np.asarray(v, dtype=np.float64) for v in (c, a, upper))
    n = a.shape[1]
    if c.shape != (n,) or upper.shape != (n,) or np.any(upper < 0):
        raise ValueError("inconsistent LP dimensions or bounds")
    tab = _Tableau(c, a, upper)
    for _ in range(max_iter):
        if deadline is not None and time.monotonic() >= deadline:
            break
        if tab.perturbed or not tab.dual_step():
            status = tab.primal_step()
            if status == "optimal" and tab.perturbed:
                tab.remove_perturbation()
            elif status:
                return tab.result(status, n)
    return tab.result("timeout", n)
