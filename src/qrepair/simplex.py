"""Bounded dual simplex for homogeneous linear programs.

Minimizes c.x s.t. A x <= 0, lower <= x <= upper with lower <= 0 <= upper and
every bound finite, the form of a repair LP after the Charnes-Cooper
substitution (`lp.solve_lp`). The row slacks s = -A x >= 0 start basic and
every column starts at the bound its cost prefers (the upper one at zero
cost), so the start is dual feasible. The costs are perturbed by
1e-7 (1 + j/n) in the dual-feasible direction against dual degeneracy, and
the zero right-hand side by 1e-7 (1 + i/k) in row i against degenerate
stalls. Dual simplex steps then drive out every basic value that misses its
bounds (Koberstein 2005; Huangfu and Hall 2018): the leaving row has the
largest miss^2 / (||tableau row||^2 + 1), its dual steepest-edge score
(Forrest and Goldfarb 1992), and the bound-flipping ratio test moves every
boxed column whose breakpoint the step passes to its other bound without a
pivot. The squared row norms come from one np.vecdot per step, so their last
bits follow the BLAS build; only the choice of the leaving row reads them,
and it scores the rows that miss a bound alone. A step reads its scalars as
Python floats, the same IEEE doubles, gathers with `take`, and turns the
pivot row's sign in place, so its work is the numpy calls on the arrays and
not the scalars between them.
When no basic value misses, both perturbations are removed once (Wolfe 1963;
Harris 1973): the basic values are recomputed, the basis is priced with the
true costs, each row slack gets an upper bound its row cannot reach, and every
column whose true reduced cost prefers its other bound flips there, which
makes the basis dual feasible again. Dual steps then restore any bound the
basic values miss. The dense tableau has a column per nonbasic variable;
`_pivot` subtracts each rank-1 exchange as one two-term BLAS product made in
scratch arrays, which keeps every nonzero bit of a broadcast product (only a
sign of zero, which no comparison sees, can differ). At an optimum the reduced
costs of the nonbasic slacks are a dual solution y >= 0 of the rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-9
PERTURBATION = 1e-7
MAX_STEPS = 50000  # dual steps per solve before it reports a timeout


@dataclass
class SimplexResult:
    status: str  # optimal | infeasible | timeout
    x: np.ndarray | None = None
    objective: float | None = None
    pivots: int = 0
    flips: int = 0  # moves of a variable to a bound without a pivot, starts away from 0 included
    y: np.ndarray | None = None  # optimal: one dual value >= 0 per row of a


def _pivot(tableau: np.ndarray, row: int, col: int, f: np.ndarray, r: np.ndarray,
           product: np.ndarray) -> None:
    """Exchange the basic variable of `row` and the nonbasic one of `col`.

    The rank-1 update is one BLAS gemm, [f 0] @ [r; 0] into `product`, with f
    rows x 2 and r 2 x cols zero but in f[:, 0] and r[0] (a one-term matmul or
    a broadcast product is slower); it rounds each f_i r_j once and adds the
    +0.0 of the second term, so only an exact zero's sign can differ."""
    pivot = tableau[row, col]
    tableau[row] /= pivot
    f[:, 0] = tableau[:, col]
    f[row, 0] = 0.0
    r[0] = tableau[row]
    tableau -= np.matmul(f, r, out=product)
    np.divide(f[:, 0], -pivot, out=tableau[:, col])
    tableau[row, col] = 1.0 / pivot


class _Tableau:
    """x_B = values - T x_N, one column per nonbasic variable, over the
    reduced costs; `rows` and `cols` name each row's and column's variable."""

    def __init__(self, c, a, lower, upper):
        k, n = a.shape
        self.at = np.where(c <= 0, upper, lower)  # the bound each column's variable rests at
        self.direction = np.where(self.at == lower, 1.0, -1.0)  # +1: it moves up from there; -1: down
        self.other = np.where(self.direction > 0, upper, lower)  # the bound a flip moves it to
        self.t = np.empty((k + 1, n))
        self.t[:-1] = a
        self.t[-1] = c + self.direction * PERTURBATION * (1.0 + np.arange(n) / n)
        # one entry per variable, the n columns' and then the k slacks'; the
        # slacks get upper bounds 1 above the most -a x can reach once unperturbed
        self.costs, self.lower = np.zeros(n + k), np.zeros(n + k)
        self.upper, self.boxed = np.full(n + k, np.inf), np.empty(n + k)
        self.costs[:n], self.lower[:n], self.upper[:n], self.boxed[:n] = c, lower, upper, upper
        reach = a * -lower
        np.add(np.maximum(reach, a * -upper, out=reach).sum(axis=1), 1.0, out=self.boxed[n:])
        self.rows, self.cols = np.arange(n, n + k), np.arange(n)  # the slacks s = -a x start basic
        self.row_lower, self.row_upper = np.zeros(k), np.full(k, np.inf)  # each row's variable's
        self.width = upper - lower  # each column's variable's
        self.values = PERTURBATION * (1.0 + np.arange(k) / k) - a @ self.at
        self.perturbed = True
        self.pivots, self.flips = 0, int(np.count_nonzero(self.at))
        self.scratch = np.zeros((k + 1, 2)), np.zeros((2, n)), np.empty((k + 1, n))  # _pivot's

    def flip(self, cols) -> None:
        """Move each of `cols`' variables to its other bound, without a pivot."""
        at, to = self.at[cols], self.other[cols]
        self.values -= self.t[:-1, cols] @ (to - at)
        self.other[cols], self.at[cols] = at, to
        self.direction[cols] = -self.direction[cols]
        self.flips += len(cols)

    def dual_step(self) -> str | None:
        """One dual simplex step on a basic value outside its bounds; "optimal"
        when there is none, "infeasible" when no column moves the chosen one
        toward its bounds faster than the pivot tolerance."""
        t, values, direction = self.t, self.values, self.direction
        row_lower, row_upper = self.row_lower, self.row_upper
        miss = row_lower - values
        np.maximum(miss, values - row_upper, out=miss)
        bad = (miss > FEAS_TOL).nonzero()[0]
        if not bad.size:
            return "optimal"
        body = t[:-1]
        score = miss.take(bad) ** 2
        score /= np.vecdot(body, body).take(bad) + 1.0
        row = bad.item(score.argmax())
        low, up = row_lower.item(row), row_upper.item(row)
        to_upper = values.item(row) > up
        push = t[row] * direction  # each column's closing rate
        if not to_upper:
            np.negative(push, out=push)
        cand = (push > PIVOT_TOL).nonzero()[0]
        if not cand.size:
            return "infeasible"
        # each reduced cost reaches 0 at its breakpoint; every column whose
        # breakpoint comes before the miss is closed flips to its other bound
        ratio = (t[-1] * direction).take(cand)
        np.maximum(ratio, 0.0, out=ratio)
        ratio /= push.take(cand)
        order = cand.take(ratio.argsort(kind="stable"))
        reach = push.take(order)
        reach *= self.width.take(order)
        enter = min(int(reach.cumsum().searchsorted(miss.item(row))), order.size - 1)
        if enter:
            self.flip(order[:enter])
        col = order.item(enter)
        sign, missed = direction.item(col), up if to_upper else low
        step = (values.item(row) - missed) / (t.item(row, col) * sign)
        # the entering variable moves by step, the basic values by -step * alpha
        # for alpha = t[:, col] * sign, and the leaving one rests at the bound it
        # missed; sign is +-1, so t * (step * sign) has the bits of alpha * step
        values -= t[:-1, col] * (step * sign)
        var, leaving = self.cols.item(col), self.rows.item(row)
        values[row] = self.at.item(col) + step * sign
        self.at[col], self.other[col] = missed, low if to_upper else up
        self.width[col], direction[col] = up - low, -1.0 if to_upper else 1.0
        self.rows[row], self.cols[col] = var, leaving
        row_lower[row], row_upper[row] = self.lower.item(var), self.upper.item(var)
        _pivot(t, row, col, *self.scratch)
        self.pivots += 1
        return None

    def remove_perturbations(self) -> None:
        """Basic values for the true zero right-hand side, prices from the true
        costs, each slack boxed by 1 above the most its row allows, and every
        column whose true reduced cost prefers its other bound flipped there."""
        t, at, direction = self.t, self.at, self.direction
        moved = at.nonzero()[0]
        self.values = t[:-1, moved] @ at[moved]
        np.negative(self.values, out=self.values)
        np.subtract(self.costs[self.cols], self.costs[self.rows] @ t[:-1], out=t[-1])
        self.upper = self.boxed  # a bound that never binds, so a slack can flip too
        self.row_upper = self.upper[self.rows]
        upper, lower = self.upper[self.cols], self.lower[self.cols]
        self.width = upper - lower
        self.other = np.where(direction > 0, upper, lower)
        wrong = (t[-1] * direction < -PIVOT_TOL).nonzero()[0]
        if wrong.size:
            self.flip(wrong)
        self.perturbed = False

    def result(self, status: str, n: int) -> SimplexResult:
        res = SimplexResult(status, pivots=self.pivots, flips=self.flips)
        if status == "optimal":
            x = np.zeros(self.upper.size)
            x[self.cols] = self.at
            x[self.rows] = self.values.clip(self.row_lower, self.row_upper)
            prices = np.zeros(self.upper.size)
            prices[self.cols] = self.t[-1]  # a basic variable's reduced cost is 0
            res.x, res.objective = x[:n], float(self.costs[:n] @ x[:n])
            res.y = np.maximum(prices[n:], 0.0)
        return res


def simplex_solve(c, a, upper, deadline=None, lower=None) -> SimplexResult:
    """Minimize c.x s.t. a x <= 0, lower <= x <= upper.

    `lower` defaults to 0 and must be <= 0, `upper` must be >= 0, and both
    must be finite. `deadline` is a time.monotonic() timestamp, checked before
    any work and before every step; reaching it yields status "timeout".
    x = 0 is always feasible, so "infeasible" means only that a dual step
    found no column that closes a row's miss by more than the pivot
    tolerance.
    """
    if deadline is not None and time.monotonic() >= deadline:
        return SimplexResult("timeout")
    c, a, upper = (np.asarray(v, dtype=np.float64) for v in (c, a, upper))
    n = a.shape[1]
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=np.float64)
    if c.shape != (n,) or upper.shape != (n,) or lower.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    bounds = np.concatenate((lower, -upper))  # each must lie in (-inf, 0]; NaN fails too
    if not (-np.inf < bounds.min(initial=0.0) and bounds.max(initial=0.0) <= 0):
        raise ValueError("bounds must be finite and satisfy lower <= 0 <= upper")
    if not (np.isfinite(c).all() and np.isfinite(a).all()):
        raise ValueError("costs and constraint coefficients must be finite")
    tab = _Tableau(c, a, lower, upper)
    step, clock = tab.dual_step, time.monotonic
    for _ in range(MAX_STEPS):
        if deadline is not None and clock() >= deadline:
            break
        status = step()
        if status == "optimal" and tab.perturbed:
            tab.remove_perturbations()
        elif status:
            return tab.result(status, n)
    return tab.result("timeout", n)
