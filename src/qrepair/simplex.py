"""Bounded-variable primal simplex for homogeneous linear programs.

Minimizes c.x s.t. A x <= 0, lower <= x <= upper with lower <= 0 <= upper
(a bound may be infinite), the form of a repair LP after the Charnes-Cooper
substitution (`lp.solve_lp`). x = 0 is feasible, so the slack basis starts:
no phase 1, no artificials. A variable with lower < 0 starts at rest at 0,
inside its box, and may enter in either direction; it leaves the basis only
at a bound, so it rests inside its box only until it first moves.
Dantzig's rule picks the entering column, which flips to a bound without a
pivot when it gets there first. The ratio test sees the zero right-hand side
perturbed by 1e-7 (1 + i/k) in row i against degenerate stalls; at that
optimum the perturbation is removed, dual simplex steps restore any bound
the recomputed basic values miss, and the basis is priced afresh (Wolfe
1963; Harris 1973). The dense tableau has a column per nonbasic variable;
each pivot is one rank-1 numpy exchange through `_pivot`. At an optimum the
reduced costs of the nonbasic slacks are a dual solution y >= 0 of the rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-9
PERTURBATION = 1e-7
MAX_STEPS = 50000  # primal and dual steps per solve before it reports a timeout


@dataclass
class SimplexResult:
    status: str  # optimal | unbounded | timeout
    x: np.ndarray | None = None
    objective: float | None = None
    pivots: int = 0
    flips: int = 0  # steps that move a variable to a bound, no pivot
    y: np.ndarray | None = None  # optimal: one dual value >= 0 per row of a


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

    def __init__(self, c, a, lower, upper):
        k, n = a.shape
        self.t = np.vstack([a, c])  # the slacks s = -a x start basic; costs last
        self.costs = np.append(c, np.zeros(k))
        self.lower = np.append(lower, np.zeros(k))
        self.upper = np.append(upper, np.full(k, np.inf))
        self.rows, self.cols = np.arange(n, n + k), np.arange(n)
        self.at = np.zeros(n)  # the value each column's variable rests at
        self.direction = np.ones(n)  # +1: it moves up from there (off its lower bound); -1: down
        self.inside = lower < 0  # resting at 0, free to move either way
        self.moving = int(self.inside.sum())  # how many still rest inside
        self.values = PERTURBATION * (1.0 + np.arange(k) / k)
        self.perturbed, self.pivots, self.flips = True, 0, 0

    def span(self, col) -> float:
        """How far `col`'s variable can move in its direction."""
        var = self.cols[col]
        if not self.inside[col]:
            return self.upper[var] - self.lower[var]
        return self.upper[var] if self.direction[col] > 0 else -self.lower[var]

    def move(self, col, step, alpha, row=None, to_upper=False):
        """Move `col`'s variable by `step`, the basic values by -step * alpha; then
        swap it with `row`'s (to rest at its upper bound if `to_upper`, else at
        its lower one), or flip it to the bound it reaches."""
        self.values -= step * alpha
        var, up = self.cols[col], self.direction[col] > 0
        if self.inside[col]:
            self.inside[col], self.moving = False, self.moving - 1
        if row is None:
            self.at[col] = self.upper[var] if up else self.lower[var]
            self.direction[col] = -self.direction[col]
            self.flips += 1
            return
        self.values[row] = self.at[col] + step if up else self.at[col] - step
        self.at[col] = self.upper[self.rows[row]] if to_upper else self.lower[self.rows[row]]
        self.direction[col] = -1.0 if to_upper else 1.0
        self.rows[row], self.cols[col] = var, self.rows[row]
        _pivot(self.t, row, col)
        self.pivots += 1

    def primal_step(self) -> str | None:
        """One Dantzig step; "optimal" or "unbounded" when there is none."""
        t, rows = self.t, self.rows
        rate = t[-1] * self.direction
        if self.moving:  # a variable resting inside moves whichever way lowers the cost
            rate = np.where(self.inside, -np.abs(t[-1]), rate)
        col = int(rate.argmin())
        if rate[col] >= -PIVOT_TOL:
            return "optimal"
        if self.inside[col]:
            self.direction[col] = -1.0 if t[-1, col] > 0 else 1.0
        alpha = t[:-1, col] * self.direction[col]
        # a basic value falls toward its lower bound where alpha > 0, else rises
        room = np.where(alpha > 0, self.values - self.lower[rows],
                        self.upper[rows] - self.values)
        size = np.abs(alpha)
        ratios = np.where(size > PIVOT_TOL, room / np.maximum(size, PIVOT_TOL), np.inf)
        row = int(ratios.argmin())
        span = self.span(col)
        if span > ratios[row]:
            self.move(col, max(ratios[row], 0.0), alpha, row, alpha[row] < 0)
        elif span < np.inf:
            self.move(col, span, alpha)
        else:
            return "unbounded"

    def dual_step(self) -> bool:
        """One dual simplex step on a basic value outside its bounds, if any."""
        t, rows = self.t, self.rows
        lower, upper = self.lower[rows], self.upper[rows]
        miss = np.maximum(lower - self.values, self.values - upper)
        row = int(miss.argmax())
        to_upper = self.values[row] > upper[row]
        # the least reduced cost per unit of push keeps every one optimal
        push = t[row] * self.direction * (1.0 if to_upper else -1.0)
        if self.moving:  # one resting inside pushes either way: the step's sign picks it
            push = np.where(self.inside, np.abs(t[row]), push)
        if miss[row] <= FEAS_TOL or not np.any(push > PIVOT_TOL):
            return False
        ratios = np.abs(t[-1]) / np.maximum(push, PIVOT_TOL)
        col = int(np.where(push > PIVOT_TOL, ratios, np.inf).argmin())
        target = upper[row] if to_upper else lower[row]
        alpha = t[:-1, col] * self.direction[col]
        self.move(col, (self.values[row] - target) / alpha[row], alpha, row, to_upper)
        return True

    def remove_perturbation(self) -> None:
        """Basic values for the true zero right-hand side, and fresh prices."""
        moved = np.flatnonzero(self.at)
        self.values = -(self.t[:-1, moved] @ self.at[moved])
        self.t[-1] = self.costs[self.cols] - self.costs[self.rows] @ self.t[:-1]
        self.perturbed = False

    def result(self, status: str, n: int) -> SimplexResult:
        res = SimplexResult(status, pivots=self.pivots, flips=self.flips)
        if status == "optimal":
            x = np.zeros(self.upper.size)
            x[self.cols] = self.at
            x[self.rows] = np.clip(self.values, self.lower[self.rows], self.upper[self.rows])
            prices = np.zeros(self.upper.size)
            prices[self.cols] = self.t[-1]  # a basic variable's reduced cost is 0
            res.x, res.objective = x[:n], float(self.costs[:n] @ x[:n])
            res.y = np.maximum(prices[n:], 0.0)
        return res


def simplex_solve(c, a, upper, deadline=None, lower=None) -> SimplexResult:
    """Minimize c.x s.t. a x <= 0, lower <= x <= upper.

    `lower` defaults to 0 and must be <= 0, `upper` must be >= 0. `deadline`
    is a time.monotonic() timestamp, checked before any work and before every
    step; reaching it yields status "timeout".
    """
    if deadline is not None and time.monotonic() >= deadline:
        return SimplexResult("timeout")
    c, a, upper = (np.asarray(v, dtype=np.float64) for v in (c, a, upper))
    n = a.shape[1]
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=np.float64)
    if c.shape != (n,) or upper.shape != (n,) or lower.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if not (np.all(lower <= 0) and np.all(upper >= 0)):  # NaN fails both
        raise ValueError("bounds must satisfy lower <= 0 <= upper")
    tab = _Tableau(c, a, lower, upper)
    for _ in range(MAX_STEPS):
        if deadline is not None and time.monotonic() >= deadline:
            break
        if tab.perturbed or not tab.dual_step():
            status = tab.primal_step()
            if status == "optimal" and tab.perturbed:
                tab.remove_perturbation()
            elif status:
                return tab.result(status, n)
    return tab.result("timeout", n)
