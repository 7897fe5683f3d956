"""End-to-end repair: spectra, ranking, per-neuron LP solve, weight patching.

`prepare` compares the float and the pre-repair quantized model on the
repair set once, at the target dense layer (`localize.compare_at_layer`).
It runs each model once over the validation set, keeping the float model's
labels and the quantized target layer's input rows; the before-repair
accuracy and fidelity come from those two passes. The comparison classifies
the tests, gives the spectra the metric ranks neurons by, and supplies each
top-N neuron's correction LP, solved once for all repairs that share the
prepared record. The solved deltas are patched into a copy. A patch leaves
every layer before the target as it was, so the repaired model is measured
by running only the kept rows from the target layer on.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .evaluate import evaluate, predict
from .localize import METRICS, LayerComparison, compare_at_layer, importance_scores, rank_neurons
from .lp import EmptyLPError, LPSolution, build_neuron_lp, export_lp, solve_lp
from .model import Model, forward_batch, is_int, is_real
from .quantize import clone_quantized, quantize_tensor

log = logging.getLogger("qrepair")

PATCH_MODES = ("float_patch", "requantize")


@dataclass
class RepairConfig:
    target_layer: int | None = None  # default: last dense layer
    metric: str = "dstar"
    top_n: int = 10
    epsilon: float = 1e-3
    time_budget: float = 60.0
    patch_mode: str = "float_patch"
    max_constraints: int = 64
    delta_bound: float | None = None  # optional |delta| box fed to the LP
    lp_dir: str | None = None

    def __post_init__(self):
        for name in ("top_n", "max_constraints", "target_layer"):
            value = getattr(self, name)
            if not (is_int(value) or name == "target_layer" and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("epsilon", "time_budget", "delta_bound"):
            value = getattr(self, name)
            if not (is_real(value) or name == "delta_bound" and value is None):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")
        if not 0 <= self.epsilon < math.inf:  # written so that NaN fails each check
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not self.time_budget >= 0:  # inf means no deadline
            raise ValueError(f"time_budget must be >= 0, got {self.time_budget}")
        if self.max_constraints < 1:
            raise ValueError("max_constraints must be >= 1")
        if self.delta_bound is not None and not 0 < self.delta_bound < math.inf:
            raise ValueError(f"delta_bound must be finite and > 0, got {self.delta_bound}")
        if self.patch_mode not in PATCH_MODES:
            raise ValueError(f"patch_mode must be one of {PATCH_MODES}")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")


@dataclass
class NeuronRecord:
    neuron: int
    rank: int
    importance: float
    status: str  # optimal | infeasible | timeout | skipped
    M: float | None = None
    wall_time: float = 0.0  # informational; kept out of the canonical JSON


@dataclass
class RepairReport:
    target_layer: int
    metric: str
    records: list[NeuronRecord] = field(default_factory=list)
    n_failing: int = 0
    n_passing: int = 0
    accuracy_before: float | None = None
    accuracy_after: float | None = None
    fidelity_before: float | None = None
    fidelity_after: float | None = None
    warning: str | None = None

    @property
    def attempts(self) -> int:
        return len(self.records)

    def count(self, status: str) -> int:
        return sum(1 for r in self.records if r.status == status)

    def counts(self) -> dict:
        return {s: self.count(s) for s in ("optimal", "infeasible", "timeout", "skipped")}

    def to_dict(self) -> dict:
        return {
            "target_layer": self.target_layer,
            "metric": self.metric,
            "n_failing": self.n_failing,
            "n_passing": self.n_passing,
            "attempts": self.attempts,
            "counts": self.counts(),
            "accuracy_before": round6(self.accuracy_before),
            "accuracy_after": round6(self.accuracy_after),
            "fidelity_before": round6(self.fidelity_before),
            "fidelity_after": round6(self.fidelity_after),
            "warning": self.warning,
            "neurons": [
                {
                    "neuron": r.neuron,
                    "rank": r.rank,
                    "importance": round6(r.importance),
                    "status": r.status,
                    "M": round6(r.M),
                }
                for r in self.records
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def table(self) -> str:
        lines = [
            f"target layer {self.target_layer}  metric {self.metric}",
            f"failing {self.n_failing}  passing {self.n_passing}",
            f"{'neuron':>6} {'rank':>4} {'importance':>12} {'status':>10}"
            f" {'M':>12} {'time_s':>8}",
        ]
        for r in self.records:
            m_txt = f"{r.M:.6g}" if r.M is not None else "-"
            lines.append(
                f"{r.neuron:>6} {r.rank:>4} {r.importance:>12.6g} {r.status:>10}"
                f" {m_txt:>12} {r.wall_time:>8.3f}"
            )
        c = self.counts()
        lines.append(
            f"solved {c['optimal']}  infeasible {c['infeasible']}"
            f"  timeout {c['timeout']}  skipped {c['skipped']}"
        )
        if self.accuracy_before is not None:
            lines.append(
                f"accuracy {self.accuracy_before:.6g} -> {self.accuracy_after:.6g}"
                f"   fidelity {self.fidelity_before:.6g} -> {self.fidelity_after:.6g}"
            )
        if self.warning:
            lines.append(f"warning: {self.warning}")
        return "\n".join(lines) + "\n"


def round6(x):
    """Round to 6 significant digits for stable emitted JSON."""
    if x is None:
        return None
    return float(f"{float(x):.6g}")


def apply_deltas(qmodel: Model, neuron: tuple[int, int], deltas,
                 patch_mode: str = "float_patch") -> None:
    """Add solved deltas onto one neuron's incoming weights, in place.

    float_patch stores the corrected column at full precision (the layer
    becomes mixed precision); requantize folds the correction in and
    re-quantizes the whole tensor with a fresh per-tensor scale.
    """
    layer_index, neuron_index = neuron
    layer = qmodel.layers[layer_index]
    if layer.kind != "dense":
        raise ValueError(f"layer {layer_index} is not dense")
    deltas = np.asarray(deltas, dtype=np.float64)
    weights = layer.eff_weights  # a view: writing to it patches the layer
    if deltas.shape != (weights.shape[0],):
        raise ValueError(f"expected {weights.shape[0]} deltas, got {deltas.shape}")
    # the LP was solved for the weights inference uses, which differ from the
    # int8 codes once a patched layer is saved and reloaded
    corrected = weights[:, neuron_index].astype(np.float64) + deltas
    if patch_mode == "float_patch":
        weights[:, neuron_index] = corrected.astype(np.float32)
        layer.qweights = None  # the codes no longer describe the layer
    elif patch_mode == "requantize":
        full = weights.astype(np.float64)
        full[:, neuron_index] = corrected
        layer.set_codes(quantize_tensor(full))
    else:
        raise ValueError(f"unknown patch_mode {patch_mode!r}")


@dataclass
class Prepared:
    """What every repair of one model pair, repair set, validation set and
    config shares."""

    config: RepairConfig
    made_from: tuple  # (float model, quantized model, repair set, validation set)
    comparison: LayerComparison
    val_float_labels: np.ndarray | None = None  # the float model's validation labels
    val_rows: np.ndarray | None = None  # validation input rows of the target layer
    accuracy_before: float | None = None
    fidelity_before: float | None = None
    solutions: dict[int, LPSolution | None] = field(default_factory=dict)

    def solution(self, n: int) -> LPSolution | None:
        """Neuron n's LP solution, solved on first use; None if no test disagrees there."""
        if n in self.solutions:
            if self.solutions[n] is not None:
                log.debug("layer %d neuron %d: LP solution reused", self.comparison.layer_index, n)
            return self.solutions[n]
        c = self.config
        try:
            lp = build_neuron_lp(self.comparison, n, epsilon=c.epsilon,
                                 max_constraints=c.max_constraints, big_M_bound=c.delta_bound)
        except EmptyLPError:
            sol = None
        else:
            if c.lp_dir is not None:
                export_lp(lp, f"{c.lp_dir}/neuron_L{lp.layer_index}_N{n}.lp")
            sol = solve_lp(lp, c.time_budget)
        if sol is None or sol.status != "timeout":
            self.solutions[n] = sol
        return sol


def prepare(fmodel: Model, qmodel: Model, repair_set, validation_set,
            config: RepairConfig) -> Prepared:
    """Compare the models once and measure the unrepaired model on validation."""
    comparison = compare_at_layer(fmodel, qmodel, repair_set, config.target_layer)
    prepared = Prepared(config, (fmodel, qmodel, repair_set, validation_set), comparison)
    if validation_set is not None and len(validation_set):
        prepared.val_float_labels = predict(fmodel, validation_set)
        logits, _, prepared.val_rows = forward_batch(qmodel, validation_set.features,
                                                     input_of=comparison.layer_index)
        before = evaluate(logits.argmax(axis=1), validation_set, prepared.val_float_labels)
        prepared.accuracy_before, prepared.fidelity_before = before.accuracy, before.fidelity
    return prepared


def repair(fmodel: Model, qmodel: Model, repair_set, validation_set,
           config: RepairConfig, neuron_order: list[int] | None = None,
           shared: Prepared | None = None) -> tuple[Model, RepairReport]:
    """Run the repair pipeline; returns the patched model and its report.

    `neuron_order`, distinct neuron indices of the target layer, overrides the
    metric ranking (used by the random-selection baseline); importance values
    are then reported as 0. `shared`, from `prepare` on the same models and
    sets, serves repairs that differ in metric or order.
    """
    if shared is None:
        shared = prepare(fmodel, qmodel, repair_set, validation_set, config)
    elif replace(config, metric=shared.config.metric) != shared.config:
        raise ValueError("the shared record was prepared for another repair config")
    elif any(given is not made_from for given, made_from in
             zip((fmodel, qmodel, repair_set, validation_set), shared.made_from)):
        raise ValueError("the shared record was prepared from other models or data sets")
    comparison = shared.comparison
    target, width = comparison.layer_index, comparison.weights.shape[1]
    order = None if neuron_order is None else list(neuron_order)
    if order is not None and not (
            all(is_int(n) and 0 <= n < width for n in order) and len(set(order)) == len(order)):
        raise ValueError(f"neuron_order must hold distinct integers in 0..{width - 1}, "
                         f"got {order!r}")
    patched = clone_quantized(qmodel)
    report = RepairReport(target_layer=target, metric=config.metric,
                          accuracy_before=shared.accuracy_before,
                          fidelity_before=shared.fidelity_before)

    failing = comparison.failing
    report.n_failing = int(failing.sum())
    report.n_passing = failing.size - report.n_failing
    if report.n_failing == 0:
        report.warning = "no failing tests in the repair set; nothing to repair"
        log.warning(report.warning)
        report.accuracy_after = report.accuracy_before
        report.fidelity_after = report.fidelity_before
        return patched, report

    if order is not None:
        order, scores = [int(n) for n in order], np.zeros(width)
    else:
        scores = importance_scores(comparison.spectra(), config.metric)
        order = rank_neurons(scores)
    targets = order[: min(config.top_n, width)]

    for rank, n in enumerate(targets, start=1):
        t0 = time.monotonic()
        sol = shared.solution(n)
        status, M = ("skipped", None) if sol is None else (sol.status, sol.M)
        if status == "optimal":
            apply_deltas(patched, (target, n), sol.deltas, config.patch_mode)
        report.records.append(NeuronRecord(n, rank, float(scores[n]), status, M,
                                           time.monotonic() - t0))

    if shared.val_rows is not None:
        logits = forward_batch(patched, shared.val_rows, start=target)[0]
        after = evaluate(logits.argmax(axis=1), validation_set, shared.val_float_labels)
        report.accuracy_after, report.fidelity_after = after.accuracy, after.fidelity
    return patched, report
