"""Symmetric int8 per-tensor weight quantization and quantized inference.

Weights map through r = S*(q - Z) with Z fixed at 0 and q clamped to
[-127, 127]; biases and activations stay in floating point (dynamic-range
scheme). Quantized inference dequantizes the weights once and computes in
float32, which is numerically identical to on-the-fly dequantization for
this scheme.

A quantized network is a `model.Model` whose dense and conv layers carry
int8 codes (`Layer.qweights`) beside the float32 weights they dequantize to,
so the float model's validator, walker and JSON reader and writer serve it
unchanged. `quantize_model` copies a model the way `clone_quantized` does,
except that each dense and conv layer is built from its new codes alone.
`quantized_forward` and `capture_activations_q` are
`model.forward` and `model.capture_activations` under the quantized stage's
names. This module holds the quantization math and the entry points of the
quantized stage.
"""

from __future__ import annotations

import copy

import numpy as np

from .model import (
    INT8_MAX,
    WEIGHT_RANKS,
    Layer,
    Model,
    QuantizedTensor,
    _one_row,
    forward_batch,
    load_model,
    save_model,
    window,
)
from .model import apply_layer  # noqa: F401  perfbench/test_perfbench.py expects it bound here
from .model import capture_activations as capture_activations_q  # noqa: F401
from .model import forward as quantized_forward  # noqa: F401


def quantize_values(values: np.ndarray, scale: float) -> np.ndarray:
    """q = round(r/S), halves away from zero (fixed for reproducibility),
    clamped to the int8 range."""
    r = np.asarray(values, dtype=np.float64) / scale
    q = np.copysign(np.floor(np.abs(r) + 0.5), r)
    return np.clip(q, -INT8_MAX, INT8_MAX).astype(np.int8)


def quantize_tensor(values) -> QuantizedTensor:
    """Symmetric per-tensor quantization of an array: S = max|r|/127, Z = 0.

    An all-zero tensor gets S = 1 so the mapping stays defined.
    """
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("cannot quantize non-finite values")
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    scale = peak / INT8_MAX if peak > 0 else 1.0
    return QuantizedTensor(values.shape, quantize_values(values, scale), scale)


def quantize_model(model: Model) -> Model:
    """A copy of `model` with int8 codes on every dense/conv weight tensor;
    topology and biases untouched."""
    layers = [Layer(l.kind, bias=_copied(l.bias), hyperparams=dict(l.hyperparams),
                    qweights=quantize_tensor(l.eff_weights))
              if l.kind in WEIGHT_RANKS else _cloned(l) for l in model.layers]
    return Model(layers, model.input_shape, model.num_classes)


def layer_input_vector(qmodel: Model, inp, layer_index: int) -> np.ndarray:
    """The flat activation vector feeding layers[layer_index] for one input."""
    if layer_index < 0 or layer_index >= len(qmodel.layers):
        raise IndexError(f"layer index {layer_index} out of range")
    return forward_batch(qmodel, _one_row(inp), input_of=layer_index)[2][0]


def _copied(t):
    """A Tensor or a QuantizedTensor (or None) with its own copy of the data."""
    if t is not None:
        t = copy.copy(t)
        t.data = t.data.copy()
    return t


def _cloned(l: Layer) -> Layer:
    return Layer(l.kind, _copied(l.weights), _copied(l.bias), dict(l.hyperparams),
                 _copied(l.qweights))


def clone_quantized(qmodel: Model) -> Model:
    """Copy of codes, weights and biases, so repairs never mutate the caller's
    model."""
    return Model([_cloned(l) for l in qmodel.layers], qmodel.input_shape, qmodel.num_classes)


def check_same_topology(model: Model, qmodel: Model) -> None:
    """Raise ValueError unless input shapes and each layer's kind, weight shape and window match."""
    def structure(m):
        return [(l.kind, None if l.weights is None else l.eff_weights.shape,
                 window(l.kind, l.hyperparams)) for l in m.layers]

    sizes = [(m.input_shape, len(m.layers)) for m in (model, qmodel)]
    if sizes[0] != sizes[1]:
        raise ValueError(f"input shape and layer count {sizes[0]} vs {sizes[1]}")
    for i, (f, q) in enumerate(zip(structure(model), structure(qmodel))):
        if f != q:
            raise ValueError(f"layer {i}: kind, weight shape and window {f} vs {q}")


def save_qmodel(qmodel: Model, path) -> None:
    save_model(qmodel, path)


def load_qmodel(path) -> Model:
    """Load a model file of either encoding (`model.load_model`)."""
    return load_model(path)
