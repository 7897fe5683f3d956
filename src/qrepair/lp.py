"""Per-neuron minimal weight-correction linear programs.

For a dense-layer neuron with incoming weights w and bias b, each repair-set
input whose activation status differs between the float and quantized models
contributes one constraint on the correction deltas: the corrected
pre-activation (w + delta).x + b must land strictly on the float model's side
of zero, realized with margin epsilon. The objective minimizes the box
radius M bounding every |delta_i|; deltas are split into positive/negative
parts for the standard-form simplex. The statuses, x, w and b all come from
one `localize.LayerComparison`, so building an LP runs no model.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .localize import LayerComparison
from .model import capture_activations  # noqa: F401  perfbench/test_perfbench.py expects it bound here
from .simplex import SimplexResult, simplex_solve

log = logging.getLogger("qrepair")


class EmptyLPError(ValueError):
    """The neuron has no status-disagreeing tests, so there is nothing to solve."""


@dataclass
class LPConstraint:
    x: np.ndarray  # float64 layer-input vector
    target_status: int  # float model's status, the one to enforce
    current_status: int
    test_id: int = -1  # originating dataset row, when built from a repair set

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.target_status == self.current_status:
            raise ValueError("constraints come only from disagreeing tests")


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

    One constraint per test whose status on this neuron differs between the
    two models, failing tests first in dataset order, capped at
    `max_constraints`. Raises EmptyLPError when no test disagrees.
    """
    c = comparison
    status_f = c.status_float[:, neuron].astype(int)
    status_q = c.status_quant[:, neuron].astype(int)
    order = np.concatenate([np.flatnonzero(c.failing), np.flatnonzero(~c.failing)])
    chosen = order[status_f[order] != status_q[order]][: max(max_constraints, 0)]

    w = c.weights[:, neuron].astype(np.float64)
    bias = float(c.bias[neuron]) if c.bias is not None else 0.0
    constraints = [LPConstraint(c.inputs[i].astype(np.float64), int(status_f[i]),
                                int(status_q[i]), int(i)) for i in chosen]

    if not constraints:
        raise EmptyLPError(
            f"neuron ({c.layer_index},{neuron}) has no status-disagreeing tests"
        )
    return NeuronLP(c.layer_index, neuron, w.size, w, bias, constraints,
                    epsilon, big_M_bound)


def _memo_key(lp: NeuronLP) -> tuple:
    """Everything the solver reads from `lp`; floats by their bits, so -0.0 is not 0.0."""
    bound = None if lp.big_M_bound is None else float(lp.big_M_bound).hex()
    return (lp.m, lp.w.tobytes(), float(lp.bias).hex(), float(lp.epsilon).hex(), bound,
            tuple((con.x.tobytes(), con.target_status) for con in lp.constraints))


def solve_lp(lp: NeuronLP, time_budget: float = 60.0, memo: dict | None = None
             ) -> LPSolution:
    """Minimize M with |delta_i| <= M and every constraint met at margin epsilon.

    Statuses: optimal (minimal M found), infeasible (phase-1 certified),
    timeout (budget exceeded).

    `memo`, a dict the caller owns, stores optimal and infeasible results
    keyed by the LP's content; an identical LP later returns a copy of the
    stored result without solving. The simplex is deterministic, so the copy
    holds the bits a solve would compute, whatever `time_budget` is.
    Timeouts are never stored.
    """
    if not lp.constraints:
        raise EmptyLPError("cannot solve an LP with no constraints")
    if memo is None:
        return _solve(lp, time_budget)
    key = _memo_key(lp)
    if key in memo:
        log.debug("layer %d neuron %d: LP solution reused", lp.layer_index, lp.neuron_index)
        return _copy(memo[key])
    sol = _solve(lp, time_budget)
    if sol.status != "timeout":
        memo[key] = _copy(sol)  # the caller may mutate the deltas it gets back
    return sol


def _copy(sol: LPSolution) -> LPSolution:
    return LPSolution(sol.status, sol.M, None if sol.deltas is None else sol.deltas.copy())


def _solve(lp: NeuronLP, time_budget: float) -> LPSolution:
    m = lp.m
    n_vars = 2 * m + 1  # [p_0..p_{m-1}, q_0..q_{m-1}, M]
    rows, senses, rhs = [], [], []
    for con in lp.constraints:
        # target 1: delta.x >= eps - r ; target 0: -delta.x >= eps + r
        r = float(lp.w @ con.x) + lp.bias
        g = con.x if con.target_status == 1 else -con.x
        h = lp.epsilon - r if con.target_status == 1 else lp.epsilon + r
        row = np.zeros(n_vars)
        row[:m] = g
        row[m : 2 * m] = -g
        rows.append(row)
        senses.append(">=")
        rhs.append(h)
    for i in range(m):
        # p_i + q_i <= M: tight at vertices, equivalent to |delta_i| <= M
        row = np.zeros(n_vars)
        row[i] = 1.0
        row[m + i] = 1.0
        row[2 * m] = -1.0
        rows.append(row)
        senses.append("<=")
        rhs.append(0.0)
    if lp.big_M_bound is not None:
        row = np.zeros(n_vars)
        row[2 * m] = 1.0
        rows.append(row)
        senses.append("<=")
        rhs.append(float(lp.big_M_bound))

    costs = np.zeros(n_vars)
    costs[2 * m] = 1.0
    deadline = time.monotonic() + time_budget
    result: SimplexResult = simplex_solve(costs, np.asarray(rows), senses,
                                          np.asarray(rhs), deadline=deadline)
    if result.status == "optimal":
        deltas = result.x[:m] - result.x[m : 2 * m]
        return LPSolution("optimal", float(result.x[2 * m]), deltas)
    if result.status in ("infeasible", "timeout"):
        return LPSolution(result.status)
    raise RuntimeError(f"unexpected solver status {result.status!r}")


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
