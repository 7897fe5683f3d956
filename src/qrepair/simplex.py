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
largest miss^2 / (||tableau row||^2 + 1), its dual steepest-edge score, and
the bound-flipping ratio test moves every boxed column whose breakpoint the
step passes to its other bound without a pivot. When no basic value misses,
both perturbations are removed once (Wolfe 1963; Harris 1973): the basic
values are recomputed, the basis is priced with the true costs, each row
slack gets an upper bound its row cannot reach, and every column whose true
reduced cost prefers its other bound flips there, which makes the basis dual
feasible again. Dual steps then restore any bound the basic values miss. The
dense tableau has a column per nonbasic variable; `_pivot` subtracts each
rank-1 exchange as one two-term BLAS product made in scratch arrays, which
keeps every nonzero bit of a broadcast product (only a sign of zero, which no
comparison sees, can differ). At an optimum the reduced costs of the nonbasic
slacks are a dual solution y >= 0 of the rows.
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
    tableau[:, col] = -f[:, 0] / pivot
    tableau[row, col] = 1.0 / pivot


class _Tableau:
    """x_B = values - T x_N, one column per nonbasic variable, over the
    reduced costs; `rows` and `cols` name each row's and column's variable."""

    def __init__(self, c, a, lower, upper):
        k, n = a.shape
        self.at = np.where(c <= 0, upper, lower)  # the bound each column's variable rests at
        self.direction = np.where(self.at == lower, 1.0, -1.0)  # +1: it moves up from there; -1: down
        self.t = np.vstack([a, c + self.direction * PERTURBATION * (1.0 + np.arange(n) / n)])
        self.costs = np.append(c, np.zeros(k))
        self.lower = np.append(lower, np.zeros(k))
        self.upper = np.append(upper, np.full(k, np.inf))  # slacks: boxed once unperturbed
        self.boxed = np.append(upper, np.maximum(-a * lower, -a * upper).sum(axis=1) + 1.0)
        self.rows, self.cols = np.arange(n, n + k), np.arange(n)  # the slacks s = -a x start basic
        self.row_lower, self.row_upper = np.zeros(k), np.full(k, np.inf)  # each row's variable's
        self.width = upper - lower  # each column's variable's
        self.values = PERTURBATION * (1.0 + np.arange(k) / k) - a @ self.at
        self.perturbed = True
        self.pivots, self.flips = 0, int(np.count_nonzero(self.at))
        self.scratch = np.zeros((k + 1, 2)), np.zeros((2, n)), np.empty((k + 1, n))  # _pivot's

    def flip(self, cols) -> None:
        """Move each of `cols`' variables to its other bound, without a pivot."""
        var = self.cols[cols]
        to = np.where(self.direction[cols] > 0, self.upper[var], self.lower[var])
        self.values -= self.t[:-1, cols] @ (to - self.at[cols])
        self.at[cols] = to
        self.direction[cols] = -self.direction[cols]
        self.flips += len(cols)

    def dual_step(self) -> str | None:
        """One dual simplex step on a basic value outside its bounds; "optimal"
        when there is none, "infeasible" when no column moves the chosen one
        toward its bounds faster than the pivot tolerance."""
        t, values = self.t, self.values
        miss = np.maximum(self.row_lower - values, values - self.row_upper)
        bad, body = miss > FEAS_TOL, t[:-1]
        if not np.count_nonzero(bad):
            return "optimal"
        row = np.where(bad, miss ** 2 / (np.einsum("ij,ij->i", body, body) + 1.0), -1.0).argmax()
        to_upper = values[row] > self.row_upper[row]
        push = t[row] * self.direction * (1.0 if to_upper else -1.0)  # each column's closing rate
        cand = (push > PIVOT_TOL).nonzero()[0]
        if not cand.size:
            return "infeasible"
        # each reduced cost reaches 0 at its breakpoint; every column whose
        # breakpoint comes before the miss is closed flips to its other bound
        ratio = np.maximum((t[-1] * self.direction)[cand], 0.0) / push[cand]
        order = cand[ratio.argsort(kind="stable")]
        reach = (push[order] * self.width[order]).cumsum()
        enter = min(int(reach.searchsorted(miss[row])), order.size - 1)
        if enter:
            self.flip(order[:enter])
        col = order[enter]
        alpha = t[:-1, col] * self.direction[col]
        missed = self.row_upper if to_upper else self.row_lower
        step = (self.values[row] - missed[row]) / alpha[row]
        # the entering variable moves by step, the basic values by -step * alpha,
        # and the leaving one rests at the bound it missed
        self.values -= step * alpha
        var, leaving = self.cols[col], self.rows[row]
        self.values[row] = self.at[col] + step * self.direction[col]
        self.at[col] = missed[row]
        self.width[col] = self.row_upper[row] - self.row_lower[row]
        self.direction[col] = -1.0 if to_upper else 1.0
        self.rows[row], self.cols[col] = var, leaving
        self.row_lower[row], self.row_upper[row] = self.lower[var], self.upper[var]
        _pivot(t, row, col, *self.scratch)
        self.pivots += 1
        return None

    def remove_perturbations(self) -> None:
        """Basic values for the true zero right-hand side, prices from the true
        costs, each slack boxed by 1 above the most its row allows, and every
        column whose true reduced cost prefers its other bound flipped there."""
        moved = np.flatnonzero(self.at)
        self.values = -(self.t[:-1, moved] @ self.at[moved])
        self.t[-1] = self.costs[self.cols] - self.costs[self.rows] @ self.t[:-1]
        self.upper = self.boxed  # a bound that never binds, so a slack can flip too
        self.row_upper = self.upper[self.rows]
        self.width = self.upper[self.cols] - self.lower[self.cols]
        self.flip(np.flatnonzero(self.t[-1] * self.direction < -PIVOT_TOL))
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
    if not np.all(np.isfinite(lower) & np.isfinite(upper) & (lower <= 0) & (upper >= 0)):
        raise ValueError("bounds must be finite and satisfy lower <= 0 <= upper")
    tab = _Tableau(c, a, lower, upper)
    for _ in range(MAX_STEPS):
        if deadline is not None and time.monotonic() >= deadline:
            break
        status = tab.dual_step()
        if status == "optimal" and tab.perturbed:
            tab.remove_perturbations()
        elif status:
            return tab.result(status, n)
    return tab.result("timeout", n)
