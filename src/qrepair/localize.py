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
`compare_at_layer`, one forward pass per model. The stage runs on arrays:
the labels give the failing mask, the statuses the [tests, neurons] diff
matrix, `accumulate_spectra` the counters, `importance_scores` one float64
score per neuron and `rank_neurons` the order."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import Model, forward_batch
from .quantize import check_same_topology

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


class SpectraCounters(NamedTuple):
    """Per-neuron counters over a repair set, one array each."""

    c_af: np.ndarray
    c_nf: np.ndarray
    c_as: np.ndarray
    c_ns: np.ndarray


@dataclass(frozen=True)
class LayerComparison:
    """Two models compared on one dataset at one dense layer; the quantized
    layer's weights and bias are copies, so later patches leave them be."""

    layer_index: int
    float_labels: np.ndarray  # int [tests]: each model's predicted label
    quant_labels: np.ndarray  # int [tests]
    status_float: np.ndarray  # bool [tests, neurons]: pre-activation > 0
    status_quant: np.ndarray  # bool [tests, neurons]
    inputs: np.ndarray  # float32 [tests, in_dim], the quantized layer's input rows
    weights: np.ndarray  # float32 [in_dim, neurons], the weights inference uses
    bias: np.ndarray | None  # [neurons]

    @property
    def failing(self) -> np.ndarray:
        """bool [tests]: the models disagree on the label."""
        return self.float_labels != self.quant_labels

    def spectra(self) -> SpectraCounters:
        return accumulate_spectra(self.status_float != self.status_quant, self.failing)


def compare_at_layer(fmodel: Model, qmodel: Model, dataset,
                     layer_index: int | None = None) -> LayerComparison:
    """Run `dataset` once through each model and compare them at a dense layer,
    by default the last one.

    Raises ValueError for models of different topology, or a layer index
    out of range or not of a dense layer.
    """
    check_same_topology(fmodel, qmodel)
    if layer_index is None:
        layer_index = fmodel.last_dense_index()
    if not 0 <= layer_index < len(fmodel.layers):
        raise ValueError(f"layer {layer_index} is out of range 0..{len(fmodel.layers) - 1}")
    if fmodel.layers[layer_index].kind != "dense":
        raise ValueError(f"layer {layer_index} is not dense")
    logits_f, pre_f, _ = forward_batch(fmodel, dataset.features, {layer_index})
    logits_q, pre_q, inputs = forward_batch(qmodel, dataset.features, {layer_index},
                                            input_of=layer_index)
    qlayer = qmodel.layers[layer_index]
    bias = None if qlayer.bias is None else qlayer.bias.data.copy()
    return LayerComparison(layer_index, logits_f.argmax(axis=1), logits_q.argmax(axis=1),
                           pre_f[layer_index] > 0, pre_q[layer_index] > 0, inputs,
                           qlayer.eff_weights.copy(), bias)


def classify_tests(fmodel: Model, qmodel: Model, dataset) -> list[TestOutcome]:
    """Label every repair-set input passing or failing by model agreement."""
    c = compare_at_layer(fmodel, qmodel, dataset)
    return [TestOutcome(test_id, int(fl), int(ql))
            for test_id, fl, ql in zip(dataset.ids, c.float_labels, c.quant_labels)]


def build_diff_matrix(fmodel: Model, qmodel: Model, dataset,
                      layer_index: int) -> np.ndarray:
    """bool [tests, neurons]: status_float(t, n) != status_quant(t, n) on a dense layer."""
    c = compare_at_layer(fmodel, qmodel, dataset, layer_index)
    return c.status_float != c.status_quant


def accumulate_spectra(diff: np.ndarray, failing: np.ndarray) -> SpectraCounters:
    """Counters from a 0/1 [tests, neurons] diff matrix and a bool [tests] failing mask."""
    diff, failing = np.asarray(diff, dtype=np.int64), np.asarray(failing, dtype=bool)
    if diff.ndim != 2 or diff.shape[0] != failing.size:
        raise ValueError(f"diff matrix of shape {diff.shape} for {failing.size} tests")
    n_fail = int(failing.sum())
    c_af, c_as = diff[failing].sum(axis=0), diff[~failing].sum(axis=0)
    return SpectraCounters(c_af, n_fail - c_af, c_as, failing.size - n_fail - c_as)


def _ratio(num, den):
    """num / den elementwise, 0 wherever num == 0 (so 0/0 is 0 and x/0 is inf);
    called under `importance`'s errstate, which silences the discarded 0/0."""
    return np.where(num == 0, 0.0, num / den)[()]  # [()]: a 0-d result as a scalar


@np.errstate(divide="ignore", invalid="ignore")
def importance(counters, metric: str):
    """Suspiciousness from the four counters (c_af, c_nf, c_as, c_ns), each
    one neuron's integer or an array over neurons; evaluated elementwise.

    Every 0/0 evaluates to 0. The only reachable nonzero/0 case is dstar with
    c_as + c_nf == 0, which gives +inf; `importance_scores` replaces that
    with a finite sentinel ranking above every finite score.
    """
    counters = np.asarray(counters)
    if (counters < 0).any():
        raise ValueError("counters must be non-negative")
    c_af, c_nf, c_as, c_ns = counters
    if metric == "tarantula":
        fail_rate, pass_rate = _ratio(c_af, c_af + c_nf), _ratio(c_as, c_as + c_ns)
        return _ratio(fail_rate, fail_rate + pass_rate)
    if metric == "ochiai":
        return _ratio(c_af, np.sqrt((c_af + c_as) * (c_af + c_nf)))
    if metric == "dstar":
        return _ratio(c_af**2, c_as + c_nf)
    if metric == "jaccard":
        return _ratio(c_af, c_af + c_nf + c_as)
    if metric == "ample":
        return abs(_ratio(c_af, c_af + c_nf) - _ratio(c_as, c_as + c_ns))
    if metric == "euclid":
        return np.sqrt(c_af + c_ns)
    if metric == "wong3":
        h = np.where(c_as <= 10, 2 + 0.1 * (c_as - 2), 2.8 + 0.01 * (c_as - 10))
        return c_af - np.where(c_as <= 2, c_as, h)
    raise ValueError(f"unknown metric {metric!r}")


def importance_scores(counters: SpectraCounters, metric: str) -> np.ndarray:
    """float64 [neurons]; infinities become (max finite score + 1)."""
    raw = importance(counters, metric)
    finite = raw[np.isfinite(raw)]
    return np.where(np.isfinite(raw), raw, (finite.max() if finite.size else 0.0) + 1.0)


def rank_neurons(scores: np.ndarray) -> list[int]:
    """Neuron indices by descending score; ties break to the lower index."""
    return np.argsort(-np.asarray(scores), kind="stable").tolist()


def spectra_csv(counters: SpectraCounters, scores: np.ndarray, metric: str) -> str:
    """CSV rows `neuron_index,C_af,C_nf,C_as,C_ns,<metric>=score,rank`."""
    lines = [f"{n},{','.join(str(int(c[n])) for c in counters)},{metric}={scores[n]:.6g},{rank}"
             for rank, n in enumerate(rank_neurons(scores), start=1)]
    return "\n".join(lines) + "\n"
