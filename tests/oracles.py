"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the package's own computation paths:
plain-loop forward passes, exhaustive grid search for the minimax LPs, and
interval propagation for quantization error bounds. The exception is
`stacked_solve_lp`, a bit-level reference for the LP set-up alone, which
shares the solver's dual steps.
"""

from pathlib import Path

import numpy as np

from qrepair.lp import LPSolution
from qrepair.simplex import FEAS_TOL, MAX_STEPS, PERTURBATION, PIVOT_TOL, _Tableau


def loop_forward(model, x):
    """Forward pass recomputed with explicit loops in float64."""
    x = np.asarray(x, dtype=np.float64).reshape(model.input_shape)
    for layer in model.layers:
        if layer.kind == "dense":
            w = layer.weights.array().astype(np.float64)
            b = layer.bias.array().astype(np.float64) if layer.bias is not None else 0.0
            out = np.zeros(w.shape[1])
            for j in range(w.shape[1]):
                acc = 0.0
                for i in range(w.shape[0]):
                    acc += x[i] * w[i, j]
                out[j] = acc
            x = out + b
        elif layer.kind == "relu":
            x = np.where(x > 0, x, 0.0)
        elif layer.kind == "flatten":
            x = x.reshape(-1)
        elif layer.kind == "conv2d":
            w = layer.weights.array().astype(np.float64)
            b = layer.bias.array().astype(np.float64) if layer.bias is not None else None
            kh, kw, _, oc = w.shape
            s = int(layer.hyperparams.get("stride", 1))
            h, wd, _ = x.shape
            ho, wo = (h - kh) // s + 1, (wd - kw) // s + 1
            out = np.zeros((ho, wo, oc))
            for oi in range(ho):
                for oj in range(wo):
                    for o in range(oc):
                        patch = x[oi * s : oi * s + kh, oj * s : oj * s + kw, :]
                        out[oi, oj, o] = np.sum(patch * w[:, :, :, o])
                        if b is not None:
                            out[oi, oj, o] += b[o]
            x = out
        elif layer.kind == "maxpool2d":
            k = int(layer.hyperparams.get("kernel", 2))
            s = int(layer.hyperparams.get("stride", k))
            h, wd, c = x.shape
            ho, wo = (h - k) // s + 1, (wd - k) // s + 1
            out = np.zeros((ho, wo, c))
            for oi in range(ho):
                for oj in range(wo):
                    for ch in range(c):
                        out[oi, oj, ch] = x[oi * s : oi * s + k, oj * s : oj * s + k, ch].max()
            x = out
        else:
            raise AssertionError(layer.kind)
    return x


def dense_status_oracle(w, b, x):
    """Statuses of a single dense layer: (W^T x + b) > 0, float64 loops."""
    out = []
    for j in range(w.shape[1]):
        acc = float(b[j]) if b is not None else 0.0
        for i in range(w.shape[0]):
            acc += float(w[i, j]) * float(x[i])
        out.append(1 if acc > 0 else 0)
    return np.array(out, dtype=np.uint8)


def grid_oracle(lp, bound=0.25, step=5e-4):
    """Exhaustive delta-grid optimum of the minimax correction problem.

    Returns min over feasible grid points of max|delta_i|, or None when no
    grid point inside [-bound, bound]^m is feasible. Supports m <= 2.
    """
    assert lp.m <= 2
    axis = np.arange(-bound, bound + step / 2, step)
    if lp.m == 1:
        pts = axis.reshape(-1, 1)
    else:
        a, b = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([a.ravel(), b.ravel()], axis=1)
    feasible = np.ones(len(pts), dtype=bool)
    for con in lp.constraints:
        r = float(lp.w @ con.x) + lp.bias
        if con.target_status == 1:
            feasible &= (pts @ con.x) >= lp.epsilon - r - 1e-12
        else:
            feasible &= (pts @ con.x) <= -lp.epsilon - r + 1e-12
    if not feasible.any():
        return None
    return float(np.abs(pts[feasible]).max(axis=1).min())


def quantization_error_bound(fmodel, qmodel, x):
    """Interval bound on |quantized_forward - forward| for dense/relu/flatten nets.

    Weight error per element is at most S/2 (plus float32 representation
    slop); the bound propagates |W|^T e + (S/2) * sum(|x| + e) through dense
    layers and passes through ReLU unchanged (1-Lipschitz).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    err = np.zeros_like(x)
    for flayer, qlayer in zip(fmodel.layers, qmodel.layers):
        if flayer.kind == "dense":
            w = flayer.weights.array().astype(np.float64)
            b = flayer.bias.array().astype(np.float64) if flayer.bias is not None else 0.0
            half_step = qlayer.qweights.scale / 2 * (1 + 1e-5) + 1e-7
            err = np.abs(w).T @ err + half_step * np.sum(np.abs(x) + err)
            x = w.T @ x + b
        elif flayer.kind == "relu":
            x = np.maximum(x, 0)
        elif flayer.kind == "flatten":
            x = x.reshape(-1)
        else:
            raise AssertionError(f"oracle only covers MLPs, got {flayer.kind}")
    return x, err


def certificate_gap(lp, M, y):
    """(M - bound) / M for the weak-duality bound a row dual y >= 0 gives.

    For every y >= 0 and every delta with G delta >= h (one row per LP row,
    G_k = s_k x_k and h_k = eps - s_k (w.x_k + b), s_k = +1 on target-1 rows
    and -1 on target-0 rows): h.y <= y.G delta <= ||G^T y||_1 ||delta||_inf,
    so the optimum M* >= h.y / ||G^T y||_1. Recomputed here with loops.
    """
    y = np.asarray(y, dtype=np.float64)
    assert y.shape == (len(lp.x),) and np.all(y >= 0)
    hy, gy = 0.0, np.zeros(lp.m)
    for k, (x, target) in enumerate(zip(lp.x, lp.target_status)):
        s = 1.0 if target == 1 else -1.0
        pre = lp.bias
        for i in range(lp.m):
            pre += float(lp.w[i]) * float(x[i])
            gy[i] += y[k] * s * float(x[i])
        hy += y[k] * (lp.epsilon - s * pre)
    return (M - hy / np.abs(gy).sum()) / M


def outer_pivot(tableau, row, col):
    """The simplex exchange of `row`'s basic and `col`'s nonbasic variable, in
    place, with the rank-1 update as a broadcast outer product."""
    pivot = tableau[row, col]
    tableau[row] /= pivot
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    tableau[:, col] = -factors / pivot
    tableau[row, col] = 1.0 / pivot


def stacked_solve_lp(lp):
    """`lp.solve_lp` with every piece of its set-up made as its own array.

    G, h and the ratio ||G_j||_1 / h_j come from every row (NaN where h_j <= 0),
    the solver's [-G | h], costs and bounds from hstack and append, and the
    tableau from `StackedTableau`; the dual steps, flips and read-out are the
    package's. The one-pass set-up of `solve_lp` and `simplex._Tableau` makes
    the same floating-point operations on the same operands, so the two give
    the same bits under any BLAS kernel.
    """
    m = lp.m
    sign = 2.0 * lp.target_status - 1.0
    g, h = sign[:, None] * lp.x, lp.epsilon - sign * (lp.x @ lp.w + lp.bias)
    if not np.any(h > 0):
        return LPSolution("optimal", 0.0, np.zeros(m), bound=0.0)
    reach = np.abs(g).sum(axis=1) / np.where(h > 0, h, np.nan)
    first = int(np.nanargmin(reach))
    tab = StackedTableau(np.append(np.zeros(m), -1.0), np.hstack([-g, h[:, None]]),
                         np.append(np.full(m, -1.0), 0.0), np.append(np.ones(m), reach[first]))
    status = "timeout"
    for _ in range(MAX_STEPS):
        step = tab.dual_step()
        if step == "optimal" and tab.perturbed:
            tab.remove_perturbations()
        elif step:
            status = step
            break
    result = tab.result(status, m + 1)
    if result.status != "optimal":
        sol = LPSolution(result.status)
    elif (t := result.x[-1]) <= FEAS_TOL or (lp.big_M_bound is not None
                                             and 1.0 / t > lp.big_M_bound):
        sol = LPSolution("infeasible")
    else:
        y = result.y
        if t >= reach[first]:
            y = np.zeros(len(h))
            y[first] = 1.0
        spread = np.abs(g.T @ y).sum()
        bound = float(h @ y) / spread if spread > 0 else 0.0
        sol = LPSolution("optimal", float(1.0 / t), result.x[:m] / t, bound, y)
    sol.pivots, sol.flips = result.pivots, result.flips
    return sol


class StackedTableau(_Tableau):
    """`simplex._Tableau` set up by vstack and append, each temporary its own
    array, and with every perturbation removed by the same steps."""

    def __init__(self, c, a, lower, upper):
        k, n = a.shape
        self.at = np.where(c <= 0, upper, lower)
        self.direction = np.where(self.at == lower, 1.0, -1.0)
        self.other = np.where(self.direction > 0, upper, lower)
        self.t = np.vstack([a, c + self.direction * PERTURBATION * (1.0 + np.arange(n) / n)])
        self.costs = np.append(c, np.zeros(k))
        self.lower = np.append(lower, np.zeros(k))
        self.upper = np.append(upper, np.full(k, np.inf))
        self.boxed = np.append(upper, np.maximum(-a * lower, -a * upper).sum(axis=1) + 1.0)
        self.rows, self.cols = np.arange(n, n + k), np.arange(n)
        self.row_lower, self.row_upper = np.zeros(k), np.full(k, np.inf)
        self.width = upper - lower
        self.values = PERTURBATION * (1.0 + np.arange(k) / k) - a @ self.at
        self.perturbed = True
        self.pivots, self.flips = 0, int(np.count_nonzero(self.at))
        self.scratch = np.zeros((k + 1, 2)), np.zeros((2, n)), np.empty((k + 1, n))

    def remove_perturbations(self):
        moved = np.flatnonzero(self.at)
        self.values = -(self.t[:-1, moved] @ self.at[moved])
        self.t[-1] = self.costs[self.cols] - self.costs[self.rows] @ self.t[:-1]
        self.upper = self.boxed
        self.row_upper = self.upper[self.rows]
        self.width = self.upper[self.cols] - self.lower[self.cols]
        self.other = np.where(self.direction > 0, self.upper[self.cols], self.lower[self.cols])
        self.flip(np.flatnonzero(self.t[-1] * self.direction < -PIVOT_TOL))
        self.perturbed = False


def loop_train_mlp(rng, train, spec):
    """Plain minibatch SGD on softmax CE, one fancy-indexed batch at a time.

    The reference for `experiment.train_mlp`: the same draws and the same
    float64 operations in the same order, on four separate parameter arrays.
    Returns the trained float64 (w1, b1, w2, b2).
    """
    d, h, c = spec.dim, spec.hidden, spec.num_classes
    w1 = rng.normal(0.0, np.sqrt(2.0 / d), size=(d, h))
    b1 = np.zeros(h)
    w2 = rng.normal(0.0, np.sqrt(2.0 / h), size=(h, c))
    b2 = np.zeros(c)
    x_all = train.features.astype(np.float64)
    y_all = train.labels
    n = len(train)
    for _ in range(spec.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, spec.batch):
            idx = perm[start : start + spec.batch]
            x, y = x_all[idx], y_all[idx]
            z1 = x @ w1 + b1
            a1 = np.maximum(z1, 0)
            z2 = a1 @ w2 + b2
            z2 -= z2.max(axis=1, keepdims=True)
            p = np.exp(z2)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(len(y)), y] -= 1.0
            p /= len(y)
            dw2 = a1.T @ p
            db2 = p.sum(axis=0)
            da1 = p @ w2.T
            da1[z1 <= 0] = 0.0
            dw1 = x.T @ da1
            db1 = da1.sum(axis=0)
            w1 -= spec.lr * dw1
            b1 -= spec.lr * db1
            w2 -= spec.lr * dw2
            b2 -= spec.lr * db2
    return w1, b1, w2, b2


def read_text_csv(path):
    """A CSV dataset read through `read_text`'s universal newlines, blank and
    whitespace-only lines dropped, then the loader's own `np.loadtxt` call.
    Returns (features, labels, num_classes)."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    row = np.dtype([("label", "<i8"), ("x", "<f4", (lines[0].count(","),))])
    rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, dtype=row)
    return rows["x"], rows["label"], int(rows["label"].max()) + 1
