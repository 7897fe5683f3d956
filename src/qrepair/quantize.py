"""Symmetric int8 per-tensor weight quantization and quantized inference.

Weights map through r = S*(q - Z) with Z fixed at 0 and q clamped to
[-127, 127]; biases and activations stay in floating point (dynamic-range
scheme). Quantized inference dequantizes the weights once and computes in
float32, which is numerically identical to on-the-fly dequantization for
this scheme.

A `QuantizedModel` is a `model.Model` whose layers hold int8 codes and the
float32 weights inference uses (`eff_weights`); a layer a `float_patch`
repair patched holds those weights alone (`qweights` None). It overrides only
`layer_arrays()`, so the float model's validator, walker and JSON envelope
serve it unchanged. Its file format differs only in the weight encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import (
    Model,
    ModelFormatError,
    ActivationRecord,
    Tensor,
    _array_to_json,
    _capture_one,
    _forward_one,
    _one_row,
    _tensor_from_json,
    forward_batch,
    layers_from_json,
    read_model_json,
    write_model_json,
)
from .model import apply_layer  # noqa: F401  perfbench/test_perfbench.py expects it bound here

INT8_MAX = 127


@dataclass
class QuantizedTensor:
    shape: tuple[int, ...]
    data: np.ndarray  # int8, flat
    scale: float  # the zero point is fixed at 0

    def __post_init__(self):
        self.shape = tuple(int(d) for d in self.shape)
        self.data = np.asarray(self.data, dtype=np.int8).reshape(-1)
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if min(self.shape, default=0) < 0 or math.prod(self.shape) != self.data.size:
            raise ValueError(f"shape {self.shape} does not match {self.data.size} values")
        if np.any(np.abs(self.data.astype(np.int32)) > INT8_MAX):
            raise ValueError("quantized values must lie in [-127, 127]")

    def array(self) -> np.ndarray:
        return self.data.reshape(self.shape)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with halves away from zero (fixed for reproducibility)."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def quantize_values(values: np.ndarray, scale: float) -> np.ndarray:
    """q = round(r/S), clamped to the int8 range."""
    q = round_half_away(np.asarray(values, dtype=np.float64) / scale)
    return np.clip(q, -INT8_MAX, INT8_MAX).astype(np.int8)


def quantize_tensor(t: Tensor) -> QuantizedTensor:
    """Symmetric per-tensor quantization: S = max|r|/127, Z = 0.

    An all-zero tensor gets S = 1 so the mapping stays defined.
    """
    values = np.asarray(t.data, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("cannot quantize non-finite values")
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    scale = peak / INT8_MAX if peak > 0 else 1.0
    return QuantizedTensor(t.shape, quantize_values(values, scale), scale)


def dequantize(qt: QuantizedTensor) -> Tensor:
    """r = S*q, computed in float64."""
    values = qt.scale * qt.data.astype(np.float64)
    return Tensor(qt.shape, values)


@dataclass
class QuantizedLayer:
    kind: str
    qweights: QuantizedTensor | None = None
    bias: Tensor | None = None
    hyperparams: dict = field(default_factory=dict)
    # float32 weights actually used in inference: what the int8 codes
    # dequantize to, or, once a repair patched columns at full precision
    # (qweights then None), the mixed-precision weights themselves
    eff_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.eff_weights is None and self.qweights is not None:
            self.eff_weights = dequantize(self.qweights).array().astype(np.float32)

    def set_codes(self, qweights: QuantizedTensor) -> None:
        """Install new int8 weights; inference then uses what they dequantize to."""
        self.qweights = qweights
        self.eff_weights = dequantize(qweights).array().astype(np.float32)


class QuantizedModel(Model):
    """A Model of QuantizedLayers: inference and validation read `eff_weights`."""

    def layer_arrays(self) -> list[tuple]:
        """(kind, eff_weights, bias, hyperparams) per layer: the view validation
        and inference read."""
        return [(l.kind, l.eff_weights, None if l.bias is None else l.bias.array(),
                 l.hyperparams) for l in self.layers]


def quantize_model(model: Model) -> QuantizedModel:
    """Quantize every dense/conv weight tensor; topology and biases untouched."""
    qlayers = []
    for layer in model.layers:
        if layer.kind in ("dense", "conv2d"):
            qw = quantize_tensor(layer.weights)
            bias = Tensor(layer.bias.shape, layer.bias.data.copy()) if layer.bias else None
            qlayers.append(QuantizedLayer(layer.kind, qw, bias, dict(layer.hyperparams)))
        else:
            qlayers.append(QuantizedLayer(layer.kind, None, None, dict(layer.hyperparams)))
    return QuantizedModel(qlayers, model.input_shape, model.num_classes)


def quantized_forward(qmodel: QuantizedModel, inp) -> Tensor:
    """Forward pass of one input through the quantized model (dequantized weights, float32)."""
    return _forward_one(qmodel, inp)


def capture_activations_q(qmodel: QuantizedModel, inp, layer_filter) -> list[ActivationRecord]:
    """Quantized-model counterpart of model.capture_activations."""
    return _capture_one(qmodel, inp, layer_filter)


def layer_input_vector(qmodel: QuantizedModel, inp, layer_index: int) -> np.ndarray:
    """The flat activation vector feeding layers[layer_index] for one input."""
    if layer_index < 0 or layer_index >= len(qmodel.layers):
        raise IndexError(f"layer index {layer_index} out of range")
    return forward_batch(qmodel, _one_row(inp), input_of=layer_index)[2][0]


def clone_quantized(qmodel: QuantizedModel) -> QuantizedModel:
    """Deep copy, so repairs never mutate the caller's model."""
    layers = []
    for l in qmodel.layers:
        qw = None
        if l.qweights is not None:
            qw = QuantizedTensor(l.qweights.shape, l.qweights.data.copy(), l.qweights.scale)
        bias = Tensor(l.bias.shape, l.bias.data.copy()) if l.bias is not None else None
        eff = l.eff_weights.copy() if l.eff_weights is not None else None
        layers.append(QuantizedLayer(l.kind, qw, bias, dict(l.hyperparams), eff))
    return QuantizedModel(layers, qmodel.input_shape, qmodel.num_classes)


def check_same_topology(model: Model, qmodel: QuantizedModel) -> None:
    """Raise ValueError unless the models have the same layer kinds and weight shapes."""
    def structure(m):
        return [(kind, None if w is None else w.shape) for kind, w, _, _ in m.layer_arrays()]

    fs, qs = structure(model), structure(qmodel)
    if len(fs) != len(qs):
        raise ValueError("models differ in layer count")
    for i, (f, q) in enumerate(zip(fs, qs)):
        if f != q:
            raise ValueError(f"layer {i}: {f[0]} weights {f[1]} vs {q[0]} weights {q[1]}")


# --- JSON (de)serialization ---------------------------------------------
#
# The float format's envelope (model.py); weight tensors are
# {"shape": [...], "scale": s, "zero_point": 0, "data_i8": [...]}. A layer
# that received full-precision repair patches is stored with a float "data"
# tensor instead (mixed-precision extension), inline or in a sidecar.


def _qweights_to_json(layer: QuantizedLayer) -> dict | None:
    if layer.eff_weights is None:
        return None
    if layer.qweights is None:  # float-patched
        return _array_to_json(layer.eff_weights)
    qw = layer.qweights
    return {"shape": list(qw.shape), "scale": qw.scale, "zero_point": 0,
            "data_i8": [int(v) for v in qw.data]}


def _quantized_layer(kind, wobj, bias, hyperparams, base_dir) -> QuantizedLayer:
    if wobj is None:
        return QuantizedLayer(kind, None, bias, hyperparams)
    if isinstance(wobj, dict) and "data_i8" in wobj:
        for key in ("shape", "scale"):
            if key not in wobj:
                raise ModelFormatError(f"int8 weights need a {key!r}")
        codes = np.asarray(wobj["data_i8"], dtype=np.int8)  # OverflowError past int8
        if not np.array_equal(codes, wobj["data_i8"]):
            raise ModelFormatError("int8 codes must be integers")
        if wobj.get("zero_point", 0) != 0:
            raise ModelFormatError(f"zero_point must be 0, got {wobj['zero_point']!r}")
        qw = QuantizedTensor(wobj["shape"], codes, float(wobj["scale"]))
        return QuantizedLayer(kind, qw, bias, hyperparams)
    # mixed-precision layer written after float patching
    eff = _tensor_from_json(wobj, base_dir)
    return QuantizedLayer(kind, None, bias, hyperparams, eff.array())


def save_qmodel(qmodel: QuantizedModel, path) -> None:
    write_model_json(qmodel, path, _qweights_to_json)


def load_qmodel(path) -> QuantizedModel:
    return qmodel_from_json(read_model_json(path), Path(path).parent)


def qmodel_from_json(obj: dict, base_dir: Path) -> QuantizedModel:
    """Build a quantized model; `base_dir` resolves sidecar (`data_file`) tensors."""
    return QuantizedModel(layers_from_json(obj, base_dir, _quantized_layer),
                          obj["input_shape"], obj["num_classes"])
