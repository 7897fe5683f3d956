"""Bounded dual simplex for homogeneous linear programs.

Minimizes c.x s.t. A x <= 0, lower <= x <= upper with lower <= 0 <= upper
(a bound may be infinite), the form of a repair LP after the Charnes-Cooper
substitution (`lp.solve_lp`). The row slacks s = -A x >= 0 start basic and
every column starts at the finite bound its cost prefers (the upper one at
zero cost), so the start is dual feasible; a column whose preferred bound is
infinite starts at 0 and its working cost is shifted to 0. The working costs
are perturbed by 1e-7 (1 + j/n) in the dual-feasible direction against dual
degeneracy. Dual simplex steps then drive out every basic value that misses
its bounds (Koberstein 2005; Huangfu and Hall 2018): the leaving row has the
largest miss^2 / (||tableau row||^2 + 1), its dual steepest-edge score, and
the bound-flipping ratio test moves every boxed column whose breakpoint the
step passes to its other bound without a pivot. Then the true prices return
and Dantzig primal steps price in what the shift and the perturbation hid;
a column that enters there flips to a bound without a pivot when it gets
there first. The zero right-hand side is perturbed by 1e-7 (1 + i/k) in row
i against degenerate stalls; at the primal optimum that perturbation is
removed, dual steps restore any bound the recomputed basic values miss, and
the basis is priced afresh (Wolfe 1963; Harris 1973). A column with
lower < 0 that starts at 0 rests inside its box and may move either way
until it first reaches a bound; it leaves the basis only at a bound. The
dense tableau has a column per nonbasic variable; each pivot is one rank-1
numpy exchange through `_pivot`. At an optimum the reduced costs of the
nonbasic slacks are a dual solution y >= 0 of the rows.
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
    flips: int = 0  # moves of a variable to a bound without a pivot, starts away from 0 included
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
        prefer = np.where(c <= 0, upper, lower)
        shifted = ~np.isfinite(prefer)
        self.at = np.where(shifted, 0.0, prefer)  # the value each column's variable rests at
        self.direction = np.where(self.at == lower, 1.0, -1.0)  # +1: it moves up from there; -1: down
        self.inside = (lower < self.at) & (self.at < upper)  # resting at 0, free to move either way
        self.moving = int(self.inside.sum())  # how many still rest inside
        nudge = np.where(self.inside, 0.0, self.direction) * PERTURBATION * (1.0 + np.arange(n) / n)
        self.t = np.vstack([a, np.where(shifted, 0.0, c) + nudge])  # working costs last
        self.costs = np.append(c, np.zeros(k))
        self.lower = np.append(lower, np.zeros(k))
        self.upper = np.append(upper, np.full(k, np.inf))
        self.rows, self.cols = np.arange(n, n + k), np.arange(n)  # the slacks s = -a x start basic
        self.row_lower, self.row_upper = np.zeros(k), np.full(k, np.inf)  # each row's variable's
        self.width = upper - lower  # each column's variable's
        self.values = PERTURBATION * (1.0 + np.arange(k) / k) - a @ self.at
        self.priced, self.perturbed = False, True
        self.pivots, self.flips = 0, int(np.count_nonzero(self.at))

    def spans(self, cols) -> np.ndarray:
        """How far each of `cols`' variables can move in its direction."""
        span = self.width[cols]
        if self.moving:
            var = self.cols[cols]
            inner = np.where(self.direction[cols] > 0, self.upper[var], -self.lower[var])
            span = np.where(self.inside[cols], inner, span)
        return span

    def flip(self, cols) -> None:
        """Move each of `cols`' variables to the bound it heads for, without a pivot."""
        var = self.cols[cols]
        to = np.where(self.direction[cols] > 0, self.upper[var], self.lower[var])
        self.values -= self.t[:-1, cols] @ (to - self.at[cols])
        self.at[cols] = to
        self.direction[cols] = -self.direction[cols]
        if self.moving:
            self.moving -= int(self.inside[cols].sum())
            self.inside[cols] = False
        self.flips += len(cols)

    def exchange(self, col, step, alpha, row, to_upper) -> None:
        """Move `col`'s variable by `step`, the basic values by -step * alpha,
        and swap it with `row`'s, which rests at its upper bound if `to_upper`,
        else at its lower one."""
        self.values -= step * alpha
        var, leaving = self.cols[col], self.rows[row]
        self.values[row] = self.at[col] + step * self.direction[col]
        self.at[col] = self.row_upper[row] if to_upper else self.row_lower[row]
        self.width[col] = self.row_upper[row] - self.row_lower[row]
        self.direction[col] = -1.0 if to_upper else 1.0
        if self.inside[col]:
            self.inside[col], self.moving = False, self.moving - 1
        self.rows[row], self.cols[col] = var, leaving
        self.row_lower[row], self.row_upper[row] = self.lower[var], self.upper[var]
        _pivot(self.t, row, col)
        self.pivots += 1

    def primal_step(self) -> str | None:
        """One Dantzig step; "optimal" or "unbounded" when there is none."""
        t = self.t
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
        room = np.where(alpha > 0, self.values - self.row_lower, self.row_upper - self.values)
        size = np.abs(alpha)
        ratios = np.where(size > PIVOT_TOL, room / np.maximum(size, PIVOT_TOL), np.inf)
        row = int(ratios.argmin())
        span = self.spans([col])[0]
        if span > ratios[row]:
            self.exchange(col, max(ratios[row], 0.0), alpha, row, alpha[row] < 0)
        elif span < np.inf:
            self.flip([col])
        else:
            return "unbounded"

    def dual_step(self) -> bool:
        """One dual simplex step on a basic value outside its bounds, if any."""
        t, values = self.t, self.values
        miss = np.maximum(self.row_lower - values, values - self.row_upper)
        bad = (miss > FEAS_TOL).nonzero()[0]
        if not bad.size:
            return False
        rows = t[bad]
        row = bad[(miss[bad] ** 2 / (np.einsum("ij,ij->i", rows, rows) + 1.0)).argmax()]
        to_upper = values[row] > self.row_upper[row]
        side = 1.0 if to_upper else -1.0
        if self.moving:  # one resting inside moves whichever way closes the miss
            self.direction = np.where(self.inside, np.copysign(side, t[row]), self.direction)
        push = t[row] * self.direction * side  # how fast each column closes the miss
        cand = (push > PIVOT_TOL).nonzero()[0]
        if not cand.size:
            return False
        # each reduced cost reaches 0 at its breakpoint; every boxed column whose
        # breakpoint comes before the miss is closed flips to its other bound
        ratio = np.maximum(t[-1, cand] * self.direction[cand], 0.0) / push[cand]
        order = cand[ratio.argsort(kind="stable")]
        reach = (push[order] * self.spans(order)).cumsum()
        enter = min(int(reach.searchsorted(miss[row])), order.size - 1)
        if enter:
            self.flip(order[:enter])
        col = order[enter]
        alpha = t[:-1, col] * self.direction[col]
        target = self.row_upper[row] if to_upper else self.row_lower[row]
        self.exchange(col, (self.values[row] - target) / alpha[row], alpha, row, to_upper)
        return True

    def price(self) -> None:
        """Reduced costs from the true costs."""
        self.t[-1] = self.costs[self.cols] - self.costs[self.rows] @ self.t[:-1]
        self.priced = True

    def remove_perturbation(self) -> None:
        """Basic values for the true zero right-hand side, and fresh prices."""
        moved = np.flatnonzero(self.at)
        self.values = -(self.t[:-1, moved] @ self.at[moved])
        self.price()
        self.perturbed = False

    def result(self, status: str, n: int) -> SimplexResult:
        res = SimplexResult(status, pivots=self.pivots, flips=self.flips)
        if status == "optimal":
            x = np.zeros(self.upper.size)
            x[self.cols] = self.at
            x[self.rows] = np.clip(self.values, self.row_lower, self.row_upper)
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
        if not (tab.priced and tab.perturbed) and tab.dual_step():
            continue
        if not tab.priced:  # the dual phase is over: true prices, basic values in their bounds
            tab.price()
            np.clip(tab.values, tab.row_lower, tab.row_upper, out=tab.values)
            continue
        status = tab.primal_step()
        if status == "optimal" and tab.perturbed:
            tab.remove_perturbation()
        elif status:
            return tab.result(status, n)
    return tab.result("timeout", n)
