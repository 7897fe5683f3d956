"""Per-neuron minimal weight-correction linear programs.

For a dense-layer neuron with incoming weights w and bias b, each chosen
repair-set input gives one constraint on the correction deltas: the
corrected pre-activation (w + delta).x + b lands strictly on the float
model's side of zero, with margin epsilon. Rows come from the tests whose
status at the neuron disagrees between the models (to fix), then from the
agreeing tests nearest the boundary (not to flip). The objective minimizes
the box radius M bounding every |delta_i|; the solver sees the
Charnes-Cooper form u = delta/M, t = 1/M (`solve_lp`), one column per u_i
boxed in [-1, 1] plus the t column, boxed in [0, t_max] by the bound the
rows already imply. At the optimum the solver's row duals y >= 0 (or, when
t ends at t_max, the row that set it) give the weak-duality bound
h.y / ||G^T y||_1 <= M on the same LP, which `check_solution` holds
against M. Statuses, x, w and b
come from one `localize.LayerComparison`, so building an LP runs no model,
and a `NeuronLP` keeps its rows as one matrix `x` plus per-row arrays.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .localize import LayerComparison
from .model import capture_activations  # noqa: F401  perfbench/test_perfbench.py expects it bound here
from .model import check_number
from .simplex import FEAS_TOL, simplex_solve

log = logging.getLogger("qrepair")


class EmptyLPError(ValueError):
    """The neuron has no status-disagreeing tests, so there is nothing to solve."""


@dataclass
class LPConstraint:  # one row of NeuronLP.constraints
    x: np.ndarray  # float64 layer-input vector, a read-only view into NeuronLP.x
    target_status: int
    current_status: int
    test_id: int


@dataclass
class NeuronLP:
    layer_index: int
    neuron_index: int
    w: np.ndarray  # dequantized incoming weights, float64 [m]
    bias: float
    x: np.ndarray  # layer-input rows, float64 [rows, m]
    target_status: np.ndarray  # int [rows]: float model's status, the one to enforce
    current_status: np.ndarray  # int [rows]: equal to the target on a preserving row
    epsilon: float
    big_M_bound: float | None = None
    test_id: np.ndarray | None = None  # int [rows]: dataset row, -1 when not from one

    def __post_init__(self):
        self.w, self.x = np.asarray(self.w, np.float64), np.asarray(self.x, np.float64)
        if self.w.ndim != 1 or self.x.ndim != 2 or self.x.shape[1] != self.m:
            raise ValueError(f"need w [m] and x [rows, m], got {self.w.shape}, {self.x.shape}")
        for name in ("w", "x", "bias"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        self.epsilon = check_number("epsilon", self.epsilon, 0)
        self.big_M_bound = check_number("big_M_bound", self.big_M_bound, 0, above=True, none=True)
        for name in ("target_status", "current_status", "test_id"):
            value = getattr(self, name)
            # test ids may hold any integer, and a bool array holds only 0 and 1
            skip_bits = name == "test_id" or getattr(value, "dtype", None) == bool
            value = np.full(len(self.x), -1) if value is None else np.asarray(value, np.int64)
            if value.shape != self.x.shape[:1]:
                raise ValueError(f"{name} needs one entry per row of x, got {value.shape}")
            if not skip_bits and (value & ~1).any():  # a bit set above the lowest
                raise ValueError(f"{name} must hold only 0 and 1")
            setattr(self, name, value)

    @property
    def m(self) -> int:
        return self.w.size

    @property
    def constraints(self) -> tuple[LPConstraint, ...]:
        """The rows as objects, built per read; statuses and ids are Python ints."""
        xs = self.x.view()
        xs.flags.writeable = False
        return tuple(map(LPConstraint, xs, self.target_status.tolist(),
                         self.current_status.tolist(), self.test_id.tolist()))


@dataclass
class LPSolution:
    status: str  # optimal | infeasible | timeout
    M: float | None = None
    deltas: np.ndarray | None = None
    bound: float | None = None  # optimal: a dual lower bound on M, from solve_lp
    y: np.ndarray | None = None  # optimal: the row duals >= 0 that give `bound`
    pivots: int = 0  # the simplex's pivots and bound flips; 0 when no simplex ran
    flips: int = 0


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
    status_f, status_q = c.status_float[:, neuron], c.status_quant[:, neuron]
    w = c.weights[:, neuron].astype(np.float64)
    bias = float(c.bias[neuron]) if c.bias is not None else 0.0
    cap = max(max_constraints, 0)
    agree = status_f == status_q
    order = c.row_order
    disagreeing = order[~agree[order]][:cap]
    if not disagreeing.size:
        raise EmptyLPError(f"neuron ({c.layer_index},{neuron}) has no status-disagreeing tests")
    kept, x = agree.nonzero()[0], c.inputs64
    distance = np.abs(x.take(kept, axis=0) @ w + bias)
    preserving = kept.take(np.argsort(distance, kind="stable")[:cap])
    rows = np.concatenate([disagreeing, preserving])
    return NeuronLP(c.layer_index, neuron, w, bias, x.take(rows, axis=0), status_f.take(rows),
                    status_q.take(rows), epsilon, big_M_bound, rows)


def solve_lp(lp: NeuronLP, time_budget: float = 60.0) -> LPSolution:
    """Minimize M with |delta_i| <= M and every constraint met at margin epsilon.

    Statuses: optimal (minimal M found; M = 0 with zero deltas when every row
    already holds, found before the solver runs), infeasible (t* = 0, M*
    above `big_M_bound`, or a row the solver could not repair), timeout
    (budget exceeded, checked before the solver does any work).
    """
    if not len(lp.x):
        raise EmptyLPError("cannot solve an LP with no constraints")
    deadline = time.monotonic() + check_number("time_budget", time_budget, 0, inf=True)
    (k, m), result = lp.x.shape, None
    # target 1: (w + d).x + b >= eps, target 0: (w + d).x + b <= -eps; as G d >= h
    # with G = sign x, whose products with sign = +-1 are exact, so G is never
    # formed: |G| is |x|, -G is -sign x and G^T y is x^T (sign y), bit for bit
    x, sign = lp.x, 2.0 * lp.target_status - 1.0
    h = lp.epsilon - sign * (x @ lp.w + lp.bias)
    # a row with h_j > 0 needs h_j t <= G_j u <= ||G_j||_1, so t <= t_max, the least
    # such ratio: a bound that leaves the optimum where it is and that t can start at
    raised = (h > 0).nonzero()[0]
    if raised.size:
        reach = np.abs(x.take(raised, axis=0)).sum(axis=1) / h.take(raised)
        j = reach.argmin()
        first, t_max = raised.item(j), reach.item(j)
        # u = d/M, t = 1/M: min -t s.t. -G u + h t <= 0, u in [-1, 1], t in [0, t_max]
        a = np.empty((k, m + 1))
        np.multiply(x, -sign[:, None], out=a[:, :m])
        a[:, m] = h
        c, upper, lower = np.zeros(m + 1), np.ones(m + 1), np.full(m + 1, -1.0)
        c[m], upper[m], lower[m] = -1.0, t_max, 0.0
        result = simplex_solve(c, a, upper, deadline=deadline, lower=lower)
    if result is None:  # every h <= 0: d = 0 already holds
        sol = LPSolution("optimal", 0.0, np.zeros(m), bound=0.0)
    elif result.status != "optimal":
        sol = LPSolution(result.status)
    elif (t := result.x[-1]) <= FEAS_TOL or (lp.big_M_bound is not None
                                             and 1.0 / t > lp.big_M_bound):
        sol = LPSolution("infeasible")
    else:
        y = result.y
        if t >= t_max:  # t rests at t_max: every slack dual may be 0, row `first` proves M
            y = np.zeros(k)
            y[first] = 1.0
        # weak duality: M >= h.y / ||G^T y||_1 for every y >= 0
        spread = np.abs(x.T @ (sign * y)).sum()
        bound = float(h @ y) / spread if spread > 0 else 0.0
        sol = LPSolution("optimal", float(1.0 / t), result.x[:m] / t, bound, y)
    sol.pivots, sol.flips = (result.pivots, result.flips) if result else (0, 0)
    if log.isEnabledFor(logging.DEBUG):
        same = int(np.sum(lp.target_status == lp.current_status))
        log.debug("layer %d neuron %d: %d disagreeing + %d preserving rows, %d columns, "
                  "%d pivots, %d bound flips, %s, M %s", lp.layer_index, lp.neuron_index,
                  k - same, same, m + 1, sol.pivots, sol.flips, sol.status, sol.M)
    return sol


def check_solution(lp: NeuronLP, sol: LPSolution, slack: float = 1e-9) -> bool:
    """Direct substitution check of an optimal solution, and of its M against
    the dual bound when it carries one: a relative gap above 1e-9 fails."""
    if sol.status != "optimal":
        return False
    if sol.bound is not None and sol.M - sol.bound > 1e-9 * sol.M:
        return False
    if np.any(np.abs(sol.deltas) > sol.M + slack):
        return False
    # target 1 needs pre >= eps - slack, target 0 needs -pre >= eps - slack
    signed = (2.0 * lp.target_status - 1.0) * (lp.x @ (lp.w + sol.deltas) + lp.bias)
    return bool(np.all(signed >= lp.epsilon - slack))


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
    for k, (x, target, r) in enumerate(zip(lp.x, lp.target_status, lp.x @ lp.w + lp.bias)):
        sense, rhs = (">=", lp.epsilon - r) if target == 1 else ("<=", -lp.epsilon - r)
        lines.append(f" c{k}: {_terms(x, names)} {sense} {_coef(rhs)}")
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
    Path(path).parent.mkdir(parents=True, exist_ok=True)  # lp_dir need not exist yet
    Path(path).write_text(format_lp(lp))
