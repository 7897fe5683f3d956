"""Symmetric int8 per-tensor weight quantization and quantized inference.

Weights map through r = S*(q - Z) with Z fixed at 0 and q clamped to
[-127, 127]; biases and activations stay in floating point (dynamic-range
scheme). Quantized inference dequantizes the weights once and computes in
float32, which is numerically identical to on-the-fly dequantization for
this scheme.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import (
    Layer,
    Model,
    ModelFormatError,
    ActivationRecord,
    Tensor,
    _capture_one,
    _forward_one,
    _one_row,
    _tensor_from_json,
    forward_batch,
    read_model_json,
    validate_topology,
)
from .model import apply_layer  # noqa: F401  perfbench/test_perfbench.py expects it bound here

INT8_MAX = 127


@dataclass
class QuantizedTensor:
    shape: tuple[int, ...]
    data: np.ndarray  # int8, flat
    scale: float
    zero_point: int = 0

    def __post_init__(self):
        self.shape = tuple(int(d) for d in self.shape)
        self.data = np.asarray(self.data, dtype=np.int8).reshape(-1)
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if int(np.prod(self.shape)) != self.data.size:
            raise ValueError(f"shape {self.shape} does not match {self.data.size} values")
        if np.any(np.abs(self.data.astype(np.int32)) > INT8_MAX):
            raise ValueError("quantized values must lie in [-127, 127]")

    def array(self) -> np.ndarray:
        return self.data.reshape(self.shape)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with halves away from zero (fixed for reproducibility)."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def quantize_values(values: np.ndarray, scale: float, zero_point: int = 0) -> np.ndarray:
    """q = round(r/S + Z), clamped to the int8 range."""
    q = round_half_away(np.asarray(values, dtype=np.float64) / scale + zero_point)
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
    """r = S*(q - Z), computed in float64."""
    values = qt.scale * (qt.data.astype(np.float64) - qt.zero_point)
    return Tensor(qt.shape, values)


@dataclass
class QuantizedLayer:
    kind: str
    qweights: QuantizedTensor | None = None
    bias: Tensor | None = None
    hyperparams: dict = field(default_factory=dict)
    # float32 weights actually used in inference: dequantized int8 codes,
    # with repair patches overwriting individual columns at full precision
    eff_weights: np.ndarray | None = None
    patched_columns: set = field(default_factory=set)

    def __post_init__(self):
        if self.eff_weights is None and self.qweights is not None:
            self.eff_weights = dequantize(self.qweights).array().astype(np.float32)

    def weight_shape(self):
        return None if self.eff_weights is None else self.eff_weights.shape

    def set_codes(self, qweights: QuantizedTensor) -> None:
        """Install new int8 weights; inference then uses what they dequantize to."""
        self.qweights = qweights
        self.eff_weights = dequantize(qweights).array().astype(np.float32)
        self.patched_columns.clear()


@dataclass
class QuantizedModel:
    layers: list[QuantizedLayer]
    input_shape: tuple[int, ...]
    num_classes: int

    def __post_init__(self):
        self.input_shape = tuple(int(d) for d in self.input_shape)

    def dense_layer_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.kind == "dense"]

    def last_dense_index(self) -> int:
        idxs = self.dense_layer_indices()
        if not idxs:
            raise ValueError("model has no dense layer")
        return idxs[-1]

    def layer_arrays(self) -> list[tuple]:
        """(kind, eff_weights, bias, hyperparams) per layer: the view inference runs on."""
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
            qw = QuantizedTensor(l.qweights.shape, l.qweights.data.copy(),
                                 l.qweights.scale, l.qweights.zero_point)
        bias = Tensor(l.bias.shape, l.bias.data.copy()) if l.bias is not None else None
        eff = l.eff_weights.copy() if l.eff_weights is not None else None
        layers.append(QuantizedLayer(l.kind, qw, bias, dict(l.hyperparams), eff,
                                     set(l.patched_columns)))
    return QuantizedModel(layers, qmodel.input_shape, qmodel.num_classes)


def check_same_topology(model: Model, qmodel: QuantizedModel) -> None:
    if len(model.layers) != len(qmodel.layers):
        raise ValueError("models differ in layer count")
    for i, (fl, ql) in enumerate(zip(model.layers, qmodel.layers)):
        if fl.kind != ql.kind:
            raise ValueError(f"layer {i}: kind {fl.kind} vs {ql.kind}")
        fshape = fl.weights.shape if fl.weights is not None else None
        if fshape != ql.weight_shape():
            raise ValueError(f"layer {i}: weight shape {fshape} vs {ql.weight_shape()}")


# --- JSON (de)serialization ---------------------------------------------
#
# Same envelope as the float format; weight tensors are
# {"shape": [...], "scale": s, "zero_point": 0, "data_i8": [...]}. A layer
# that received full-precision repair patches is stored with a float "data"
# tensor instead (mixed-precision extension).


def save_qmodel(qmodel: QuantizedModel, path) -> None:
    obj = {
        "input_shape": list(qmodel.input_shape),
        "num_classes": qmodel.num_classes,
        "layers": [],
    }
    for layer in qmodel.layers:
        lobj = {"kind": layer.kind}
        if layer.qweights is not None:
            if layer.patched_columns:
                lobj["weights"] = {
                    "shape": list(layer.eff_weights.shape),
                    "data": [float(v) for v in layer.eff_weights.reshape(-1)],
                }
            else:
                lobj["weights"] = {
                    "shape": list(layer.qweights.shape),
                    "scale": layer.qweights.scale,
                    "zero_point": layer.qweights.zero_point,
                    "data_i8": [int(v) for v in layer.qweights.data],
                }
        if layer.bias is not None:
            lobj["bias"] = {"shape": list(layer.bias.shape),
                            "data": [float(v) for v in layer.bias.data]}
        if layer.hyperparams:
            lobj["hyperparams"] = layer.hyperparams
        obj["layers"].append(lobj)
    Path(path).write_text(json.dumps(obj))


def load_qmodel(path) -> QuantizedModel:
    return qmodel_from_json(read_model_json(path), Path(path).parent)


def qmodel_from_json(obj: dict, base_dir: Path) -> QuantizedModel:
    """Build a quantized model; `base_dir` resolves sidecar (`data_file`) tensors."""
    layers = []
    for lobj in obj["layers"]:
        kind = lobj.get("kind")
        hyper = dict(lobj.get("hyperparams", {}))
        bias = _tensor_from_json(lobj["bias"], base_dir) if "bias" in lobj else None
        if "weights" not in lobj:
            layers.append(QuantizedLayer(kind, None, bias, hyper))
            continue
        wobj = lobj["weights"]
        if not isinstance(wobj, dict) or "shape" not in wobj:
            raise ModelFormatError(f"{kind} layer weights need a 'shape'")
        shape = tuple(int(d) for d in wobj["shape"])
        if "data_i8" in wobj:
            if "scale" not in wobj:
                raise ModelFormatError(f"{kind} layer int8 weights need a 'scale'")
            try:
                qw = QuantizedTensor(shape, np.asarray(wobj["data_i8"], dtype=np.int8),
                                     float(wobj["scale"]), int(wobj.get("zero_point", 0)))
            except (ValueError, OverflowError) as e:  # numpy raises the latter past int8
                raise ModelFormatError(str(e)) from None
            layers.append(QuantizedLayer(kind, qw, bias, hyper))
        elif "data" in wobj or "data_file" in wobj:
            # mixed-precision layer written after float patching
            eff = _tensor_from_json(wobj, base_dir)
            layers.append(QuantizedLayer(kind, quantize_tensor(eff), bias, hyper,
                                         eff.array(), set(range(shape[-1]))))
        else:
            raise ModelFormatError("weight tensor needs 'data_i8', 'data' or 'data_file'")
    qm = QuantizedModel(layers, tuple(obj["input_shape"]), int(obj["num_classes"]))
    _validate_qmodel(qm)
    return qm


def _validate_qmodel(qm: QuantizedModel) -> None:
    pseudo = []
    for l in qm.layers:
        w = None
        if l.eff_weights is not None:
            w = Tensor(l.eff_weights.shape, l.eff_weights.reshape(-1))
        pseudo.append(Layer(l.kind, w, l.bias, l.hyperparams))
    validate_topology(pseudo, qm.input_shape, qm.num_classes)
