"""Per-neuron minimal weight-correction linear programs.

For a dense-layer neuron with incoming weights w and bias b, each chosen
repair-set input gives one constraint on the correction deltas: the
corrected pre-activation (w + delta).x + b lands strictly on the float
model's side of zero, with margin epsilon. Rows come from the tests whose
status at the neuron disagrees between the models (to fix), then from the
agreeing tests nearest the boundary (not to flip). The objective minimizes
the box radius M bounding every |delta_i|; the solver sees the
Charnes-Cooper form u = delta/M, t = 1/M (`solve_lp`). Statuses, x, w and b
come from one `localize.LayerComparison`, so building an LP runs no model.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .localize import LayerComparison
from .model import capture_activations  # noqa: F401  perfbench/test_perfbench.py expects it bound here
from .simplex import FEAS_TOL, simplex_solve

log = logging.getLogger("qrepair")


class EmptyLPError(ValueError):
    """The neuron has no status-disagreeing tests, so there is nothing to solve."""


@dataclass
class LPConstraint:
    x: np.ndarray  # float64 layer-input vector
    target_status: int  # float model's status, the one to enforce
    current_status: int  # equal to the target on a status-preserving row
    test_id: int = -1  # originating dataset row, when built from a repair set

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)


@dataclass
class NeuronLP:
    layer_index: int
    neuron_index: int
    m: int
    w: np.ndarray  # dequantized incoming weights, float64
    bias: float
    constraints: list[LPConstraint]
    epsilon: float
    big_M_bound: float | None = None

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.shape != (self.m,):
            raise ValueError(f"w must have length {self.m}")
        for con in self.constraints:
            if con.x.shape != (self.m,):
                raise ValueError(f"constraint x must have length {self.m}")


@dataclass
class LPSolution:
    status: str  # optimal | infeasible | timeout
    M: float | None = None
    deltas: np.ndarray | None = None


def build_neuron_lp(comparison: LayerComparison, neuron: int, epsilon: float = 1e-3,
                    max_constraints: int = 64, big_M_bound: float | None = None) -> NeuronLP:
    """Collect the correction constraints for one neuron of the compared layer.

    First one row per test whose status on this neuron differs between the
    two models, failing tests first in dataset order, at most
    `max_constraints`. Then one status-preserving row (target = current =
    float status) per agreeing test, nearest the boundary first (smallest
    |w.x + b| on the quantized weights, ties in dataset order), again at most
    `max_constraints`: far rows never bind. Raises EmptyLPError when no test
    disagrees.
    """
    c = comparison
    status_f = c.status_float[:, neuron].astype(int)
    status_q = c.status_quant[:, neuron].astype(int)
    w = c.weights[:, neuron].astype(np.float64)
    bias = float(c.bias[neuron]) if c.bias is not None else 0.0
    cap = max(max_constraints, 0)
    agree = status_f == status_q
    order = np.concatenate([np.flatnonzero(c.failing), np.flatnonzero(~c.failing)])
    disagreeing = order[~agree[order]][:cap]
    if not disagreeing.size:
        raise EmptyLPError(
            f"neuron ({c.layer_index},{neuron}) has no status-disagreeing tests"
        )
    kept = np.flatnonzero(agree)
    distance = np.abs(c.inputs[kept].astype(np.float64) @ w + bias)
    preserving = kept[np.argsort(distance, kind="stable")][:cap]
    rows = np.concatenate([disagreeing, preserving])
    constraints = [LPConstraint(*con) for con in zip(
        c.inputs[rows].astype(np.float64), status_f[rows].tolist(),
        status_q[rows].tolist(), rows.tolist())]
    return NeuronLP(c.layer_index, neuron, w.size, w, bias, constraints,
                    epsilon, big_M_bound)


def solve_lp(lp: NeuronLP, time_budget: float = 60.0) -> LPSolution:
    """Minimize M with |delta_i| <= M and every constraint met at margin epsilon.

    Statuses: optimal (minimal M found; M = 0 with zero deltas when every row
    already holds), infeasible (t* = 0, or M* above `big_M_bound`), timeout
    (budget exceeded, checked before any work).
    """
    if not lp.constraints:
        raise EmptyLPError("cannot solve an LP with no constraints")
    deadline = time.monotonic() + time_budget
    m = lp.m
    # target 1: (w + d).x + b >= eps, target 0: (w + d).x + b <= -eps; as G d >= h
    sign = np.array([2.0 * con.target_status - 1.0 for con in lp.constraints])
    xs = np.array([con.x for con in lp.constraints])
    g, h = sign[:, None] * xs, lp.epsilon - sign * (xs @ lp.w + lp.bias)
    # u = d/M = u+ - u-, t = 1/M: min -t s.t. -G u+ + G u- + h t <= 0, u+- in [0, 1]
    costs = np.append(np.zeros(2 * m), -1.0)
    result = simplex_solve(costs, np.hstack([-g, g, h[:, None]]),
                           np.append(np.ones(2 * m), np.inf), deadline=deadline)
    if result.status == "unbounded":  # only when every h <= 0: d = 0 already holds
        sol = LPSolution("optimal", 0.0, np.zeros(m))
    elif result.status != "optimal":
        sol = LPSolution(result.status)
    elif (t := result.x[-1]) <= FEAS_TOL or (lp.big_M_bound is not None
                                             and 1.0 / t > lp.big_M_bound):
        sol = LPSolution("infeasible")
    else:
        sol = LPSolution("optimal", float(1.0 / t), (result.x[:m] - result.x[m : 2 * m]) / t)
    if log.isEnabledFor(logging.DEBUG):
        same = sum(con.target_status == con.current_status for con in lp.constraints)
        log.debug("layer %d neuron %d: %d disagreeing + %d preserving rows, %d columns, "
                  "%d pivots, %d bound flips, %s, M %s", lp.layer_index, lp.neuron_index,
                  len(xs) - same, same, 2 * m + 1, result.pivots, result.flips, sol.status, sol.M)
    return sol


def check_solution(lp: NeuronLP, sol: LPSolution, slack: float = 1e-9) -> bool:
    """Direct substitution check of an optimal solution."""
    if sol.status != "optimal":
        return False
    if np.any(np.abs(sol.deltas) > sol.M + slack):
        return False
    for con in lp.constraints:
        pre = float((lp.w + sol.deltas) @ con.x) + lp.bias
        if con.target_status == 1 and pre < lp.epsilon - slack:
            return False
        if con.target_status == 0 and pre > -lp.epsilon + slack:
            return False
    return True


# --- CPLEX LP text export -------------------------------------------------


def _coef(v: float) -> str:
    return f"{float(v):.12g}"


def _terms(coeffs, names) -> str:
    parts = []
    for coef, name in zip(coeffs, names):
        if not parts:
            parts.append(f"{_coef(coef)} {name}")
        elif coef < 0:
            parts.append(f"- {_coef(-coef)} {name}")
        else:
            parts.append(f"+ {_coef(coef)} {name}")
    return " ".join(parts)


def format_lp(lp: NeuronLP) -> str:
    """Render the problem in CPLEX LP text format (deterministic bytes).

    Constraint rows keep the layer-input values as coefficients: target-1
    rows are >= rows, target-0 rows <=. The |delta_i| <= M box appears as
    paired rows d_i - M <= 0 and d_i + M >= 0.
    """
    names = [f"d_{i}" for i in range(lp.m)]
    lines = ["Minimize", " obj: M", "Subject To"]
    for k, con in enumerate(lp.constraints):
        r = float(lp.w @ con.x) + lp.bias
        if con.target_status == 1:
            lines.append(f" c{k}: {_terms(con.x, names)} >= {_coef(lp.epsilon - r)}")
        else:
            lines.append(f" c{k}: {_terms(con.x, names)} <= {_coef(-lp.epsilon - r)}")
    for i in range(lp.m):
        lines.append(f" b{i}u: 1 d_{i} - 1 M <= 0")
        lines.append(f" b{i}l: 1 d_{i} + 1 M >= 0")
    lines.append("Bounds")
    for i in range(lp.m):
        lines.append(f" d_{i} free")
    if lp.big_M_bound is None:
        lines.append(" M >= 0")
    else:
        lines.append(f" 0 <= M <= {_coef(lp.big_M_bound)}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def export_lp(lp: NeuronLP, path) -> None:
    Path(path).write_text(format_lp(lp))
