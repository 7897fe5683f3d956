"""Neuron fault localization from float/quantized activation disagreement.

A repair-set input is a failing test when the two models disagree on the
predicted label. Per neuron we accumulate status differences between the two
models separately over failing and passing tests; this status-difference
accumulation is the operational "activated" notion used throughout (an
alternative reading counts plainly activated neurons per test, which would
produce different counters; the difference-based counters are what the
ranking below consumes).

Counter naming: c_af / c_as count status differences on failing / passing
tests, c_nf / c_ns the complements, so c_af + c_nf == #failing and
c_as + c_ns == #passing for every neuron. Labels and statuses both come from
`compare_at_layer`, one forward pass per model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Model, forward_batch
from .quantize import QuantizedModel, check_same_topology

METRICS = ("tarantula", "ochiai", "dstar", "jaccard", "ample", "euclid", "wong3")


@dataclass(frozen=True)
class TestOutcome:
    __test__ = False  # not a pytest class despite the name

    input_id: int
    float_label: int
    quant_label: int

    @property
    def is_failing(self) -> bool:
        return self.float_label != self.quant_label


@dataclass
class DiffMatrix:
    """0/1 entries: rows are tests, columns the neurons of one dense layer."""

    layer_index: int
    entries: np.ndarray  # uint8 [tests, neurons]

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.uint8)
        if self.entries.ndim != 2:
            raise ValueError("diff matrix must be 2-D")
        if np.any(self.entries > 1):
            raise ValueError("diff matrix entries must be 0 or 1")


@dataclass
class SpectraCounters:
    """Per-neuron counters over a repair set."""

    c_af: np.ndarray
    c_nf: np.ndarray
    c_as: np.ndarray
    c_ns: np.ndarray

    def __post_init__(self):
        for name in ("c_af", "c_nf", "c_as", "c_ns"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            if np.any(arr < 0):
                raise ValueError(f"{name} must be non-negative")
            setattr(self, name, arr)

    def __len__(self):
        return self.c_af.size

    def neuron(self, n: int) -> tuple[int, int, int, int]:
        return (int(self.c_af[n]), int(self.c_nf[n]), int(self.c_as[n]), int(self.c_ns[n]))


@dataclass(frozen=True)
class ImportanceScore:
    neuron_index: int
    metric: str
    value: float


@dataclass(frozen=True)
class LayerComparison:
    """Two models compared on one dataset at one dense layer; the quantized
    layer's weights and bias are copies, so later patches leave them be."""

    layer_index: int
    outcomes: list[TestOutcome]
    failing: np.ndarray  # bool [tests]
    status_float: np.ndarray  # bool [tests, neurons]: pre-activation > 0
    status_quant: np.ndarray  # bool [tests, neurons]
    inputs: np.ndarray  # float32 [tests, in_dim], the quantized layer's input rows
    weights: np.ndarray  # float32 [in_dim, neurons], the weights inference uses
    bias: np.ndarray | None  # [neurons]

    def diff_matrix(self) -> DiffMatrix:
        return DiffMatrix(self.layer_index, self.status_float != self.status_quant)


def compare_at_layer(fmodel: Model, qmodel: QuantizedModel, dataset,
                     layer_index: int) -> LayerComparison:
    """Run `dataset` once through each model and compare them at a dense layer.

    Raises ValueError for models of different topology, or a layer index
    out of range or not of a dense layer.
    """
    check_same_topology(fmodel, qmodel)
    if not 0 <= layer_index < len(fmodel.layers):
        raise ValueError(f"layer {layer_index} is out of range 0..{len(fmodel.layers) - 1}")
    if fmodel.layers[layer_index].kind != "dense":
        raise ValueError(f"layer {layer_index} is not dense")
    logits_f, pre_f, _ = forward_batch(fmodel, dataset.features, {layer_index})
    logits_q, pre_q, inputs = forward_batch(qmodel, dataset.features, {layer_index},
                                            input_of=layer_index)
    float_labels, quant_labels = logits_f.argmax(axis=1), logits_q.argmax(axis=1)
    outcomes = [TestOutcome(test_id, int(fl), int(ql))
                for test_id, fl, ql in zip(dataset.ids, float_labels, quant_labels)]
    qlayer = qmodel.layers[layer_index]
    bias = None if qlayer.bias is None else qlayer.bias.data.copy()
    return LayerComparison(layer_index, outcomes, float_labels != quant_labels,
                           pre_f[layer_index] > 0, pre_q[layer_index] > 0, inputs,
                           qlayer.eff_weights.copy(), bias)


def classify_tests(fmodel: Model, qmodel: QuantizedModel, dataset) -> list[TestOutcome]:
    """Label every repair-set input passing or failing by model agreement."""
    return compare_at_layer(fmodel, qmodel, dataset, fmodel.last_dense_index()).outcomes


def build_diff_matrix(fmodel: Model, qmodel: QuantizedModel, dataset,
                      layer_index: int) -> DiffMatrix:
    """entry[t][n] = |status_float(t,n) - status_quant(t,n)| on a dense layer."""
    return compare_at_layer(fmodel, qmodel, dataset, layer_index).diff_matrix()


def accumulate_spectra(diff: DiffMatrix, outcomes: list[TestOutcome]) -> SpectraCounters:
    if diff.entries.shape[0] != len(outcomes):
        raise ValueError(
            f"diff matrix has {diff.entries.shape[0]} rows, got {len(outcomes)} outcomes"
        )
    failing = np.array([o.is_failing for o in outcomes], dtype=bool)
    n_fail = int(failing.sum())
    n_pass = len(outcomes) - n_fail
    ent = diff.entries.astype(np.int64)
    c_af = ent[failing].sum(axis=0) if n_fail else np.zeros(ent.shape[1], np.int64)
    c_as = ent[~failing].sum(axis=0) if n_pass else np.zeros(ent.shape[1], np.int64)
    return SpectraCounters(c_af, n_fail - c_af, c_as, n_pass - c_as)


def _safe_div(num: float, den: float) -> float:
    return 0.0 if num == 0 else num / den


def importance(counters: tuple[int, int, int, int], metric: str) -> float:
    """Suspiciousness of one neuron from its four counters.

    Every 0/0 evaluates to 0. The only reachable nonzero/0 case is dstar with
    c_as + c_nf == 0, which returns +inf; `importance_scores` replaces that
    with a finite sentinel ranking above every finite score.
    """
    c_af, c_nf, c_as, c_ns = counters
    if min(counters) < 0:
        raise ValueError("counters must be non-negative")
    if metric == "tarantula":
        fail_rate = _safe_div(c_af, c_af + c_nf)
        pass_rate = _safe_div(c_as, c_as + c_ns)
        return _safe_div(fail_rate, fail_rate + pass_rate)
    if metric == "ochiai":
        if c_af == 0:
            return 0.0
        return c_af / math.sqrt((c_af + c_as) * (c_af + c_nf))
    if metric == "dstar":
        if c_af == 0:
            return 0.0
        if c_as + c_nf == 0:
            return math.inf
        return c_af**2 / (c_as + c_nf)
    if metric == "jaccard":
        return _safe_div(c_af, c_af + c_nf + c_as)
    if metric == "ample":
        return abs(_safe_div(c_af, c_af + c_nf) - _safe_div(c_as, c_as + c_ns))
    if metric == "euclid":
        return math.sqrt(c_af + c_ns)
    if metric == "wong3":
        if c_as <= 2:
            h = c_as
        elif c_as <= 10:
            h = 2 + 0.1 * (c_as - 2)
        else:
            h = 2.8 + 0.01 * (c_as - 10)
        return c_af - h
    raise ValueError(f"unknown metric {metric!r}")


def importance_scores(counters: SpectraCounters, metric: str) -> list[ImportanceScore]:
    """Score every neuron; infinities become (max finite score + 1)."""
    raw = [importance(counters.neuron(n), metric) for n in range(len(counters))]
    finite = [v for v in raw if math.isfinite(v)]
    sentinel = (max(finite) if finite else 0.0) + 1.0
    return [ImportanceScore(n, metric, v if math.isfinite(v) else sentinel)
            for n, v in enumerate(raw)]


def rank_neurons(scores: list[ImportanceScore]) -> list[int]:
    """Neuron indices by descending score; ties break to the lower index."""
    if not scores:
        return []
    metrics = {s.metric for s in scores}
    if len(metrics) > 1:
        raise ValueError(f"mixed metrics in one ranking: {sorted(metrics)}")
    return [s.neuron_index for s in sorted(scores, key=lambda s: (-s.value, s.neuron_index))]


def spectra_csv(counters: SpectraCounters, scores: list[ImportanceScore]) -> str:
    """CSV rows `neuron_index,C_af,C_nf,C_as,C_ns,<metric>=score,rank`."""
    order = rank_neurons(scores)
    rank_of = {n: r + 1 for r, n in enumerate(order)}
    by_neuron = {s.neuron_index: s for s in scores}
    lines = []
    for n in order:
        c_af, c_nf, c_as, c_ns = counters.neuron(n)
        s = by_neuron[n]
        lines.append(f"{n},{c_af},{c_nf},{c_as},{c_ns},{s.metric}={s.value:.6g},{rank_of[n]}")
    return "\n".join(lines) + "\n"
