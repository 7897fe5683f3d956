"""Repair toolkit for int8 weight-quantized classifiers.

Localizes the neurons responsible for float-vs-quantized prediction
disagreement via spectrum counters and suspiciousness metrics, then solves a
minimal weight-correction linear program per neuron and patches the solved
deltas into the quantized model.
"""

from .data import Dataset, load_dataset, save_dataset
from .evaluate import EvalResult, accuracy, fidelity
from .localize import (
    METRICS,
    LayerComparison,
    SpectraCounters,
    TestOutcome,
    accumulate_spectra,
    build_diff_matrix,
    classify_tests,
    compare_at_layer,
    importance,
    importance_scores,
    rank_neurons,
)
from .lp import EmptyLPError, LPSolution, NeuronLP, build_neuron_lp, export_lp, solve_lp
from .model import (
    ActivationRecord,
    Layer,
    Model,
    QuantizedTensor,
    Tensor,
    argmax_label,
    capture_activations,
    dequantize,
    forward,
    forward_batch,
    load_model,
    save_model,
)
from .quantize import (
    capture_activations_q,
    load_qmodel,
    quantize_model,
    quantize_tensor,
    quantized_forward,
    save_qmodel,
)
from .repair import Prepared, RepairConfig, RepairReport, apply_deltas, prepare, repair

__version__ = "0.1.0"
