"""Feed-forward classifier representation and float32 inference.

Models are immutable once loaded: layers hold their weight tensors and the
forward pass never mutates them, so a single Model can be shared across
worker threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAYER_KINDS = ("dense", "relu", "conv2d", "maxpool2d", "flatten")


class ModelFormatError(ValueError):
    """Raised when a model file cannot be parsed."""


class ShapeMismatchError(ValueError):
    """Raised when consecutive layer shapes do not compose."""


@dataclass
class Tensor:
    """Row-major numeric tensor: flat data plus an explicit shape."""

    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        self.shape = tuple(int(d) for d in self.shape)
        self.data = np.asarray(self.data).reshape(-1)
        if int(np.prod(self.shape)) != self.data.size:
            raise ShapeMismatchError(
                f"shape {self.shape} needs {int(np.prod(self.shape))} values, got {self.data.size}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("tensor values must be finite")

    @classmethod
    def from_array(cls, arr) -> "Tensor":
        arr = np.asarray(arr, dtype=np.float32)
        return cls(arr.shape, arr.reshape(-1))

    def array(self) -> np.ndarray:
        return self.data.reshape(self.shape)


@dataclass
class Layer:
    kind: str
    weights: Tensor | None = None
    bias: Tensor | None = None
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ModelFormatError(f"unknown layer kind {self.kind!r}")


@dataclass
class Model:
    layers: list[Layer]
    input_shape: tuple[int, ...]
    num_classes: int

    def __post_init__(self):
        self.input_shape = tuple(int(d) for d in self.input_shape)
        validate_topology(self.layers, self.input_shape, self.num_classes)

    def dense_layer_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.kind == "dense"]

    def last_dense_index(self) -> int:
        idxs = self.dense_layer_indices()
        if not idxs:
            raise ShapeMismatchError("model has no dense layer")
        return idxs[-1]

    def layer_arrays(self) -> list[tuple]:
        """(kind, weights, bias, hyperparams) per layer: the view inference runs on."""
        return [(l.kind, None if l.weights is None else l.weights.array(),
                 None if l.bias is None else l.bias.array(), l.hyperparams)
                for l in self.layers]


@dataclass
class ActivationRecord:
    """Pre-activation capture of one dense/conv layer for one input.

    ``status[j]`` is 1 iff the pre-ReLU value is strictly positive; an exact
    zero counts as not activated.
    """

    layer_index: int
    pre_activation: Tensor
    status: np.ndarray  # uint8 bit vector, flat

    def __post_init__(self):
        if self.status.size != self.pre_activation.data.size:
            raise ShapeMismatchError("status length must match pre-activation size")


def _conv2d_output_shape(shape, layer: Layer):
    if len(shape) != 3:
        raise ShapeMismatchError(f"conv2d expects [h, w, c] input, got {shape}")
    h, w, c = shape
    kh, kw, in_ch, out_ch = layer.weights.shape
    sh = int(layer.hyperparams.get("stride", 1))
    if in_ch != c:
        raise ShapeMismatchError(f"conv2d expects {in_ch} input channels, got {c}")
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sh + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatchError(f"conv2d kernel {kh}x{kw} too large for input {shape}")
    return (ho, wo, out_ch)


def _maxpool_output_shape(shape, layer: Layer):
    if len(shape) != 3:
        raise ShapeMismatchError(f"maxpool2d expects [h, w, c] input, got {shape}")
    h, w, c = shape
    k = int(layer.hyperparams.get("kernel", 2))
    s = int(layer.hyperparams.get("stride", k))
    ho = (h - k) // s + 1
    wo = (w - k) // s + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatchError(f"maxpool2d window {k} too large for input {shape}")
    return (ho, wo, c)


def layer_output_shape(shape: tuple[int, ...], layer: Layer) -> tuple[int, ...]:
    """Shape produced by `layer` on an input of `shape` (valid padding)."""
    if layer.kind == "dense":
        if len(shape) != 1:
            raise ShapeMismatchError(f"dense expects flat input, got {shape}")
        in_dim, out_dim = layer.weights.shape
        if shape[0] != in_dim:
            raise ShapeMismatchError(f"dense expects input dim {in_dim}, got {shape[0]}")
        return (out_dim,)
    if layer.kind == "relu":
        return shape
    if layer.kind == "conv2d":
        return _conv2d_output_shape(shape, layer)
    if layer.kind == "maxpool2d":
        return _maxpool_output_shape(shape, layer)
    if layer.kind == "flatten":
        return (int(np.prod(shape)),)
    raise ModelFormatError(f"unknown layer kind {layer.kind!r}")


def validate_topology(layers, input_shape, num_classes):
    if not layers:
        raise ShapeMismatchError("model needs at least one layer")
    shape = tuple(input_shape)
    for i, layer in enumerate(layers):
        if layer.kind == "dense":
            in_dim, out_dim = layer.weights.shape
            if layer.bias is not None and layer.bias.shape != (out_dim,):
                raise ShapeMismatchError(
                    f"layer {i}: dense bias shape {layer.bias.shape} != ({out_dim},)"
                )
        if layer.kind == "conv2d" and layer.bias is not None:
            out_ch = layer.weights.shape[3]
            if layer.bias.shape != (out_ch,):
                raise ShapeMismatchError(
                    f"layer {i}: conv bias shape {layer.bias.shape} != ({out_ch},)"
                )
        try:
            shape = layer_output_shape(shape, layer)
        except ShapeMismatchError as e:
            raise ShapeMismatchError(f"layer {i}: {e}") from None
    last = layers[-1]
    if last.kind != "dense":
        raise ShapeMismatchError("final layer must be dense")
    if shape != (num_classes,):
        raise ShapeMismatchError(
            f"final dense output {shape} does not match num_classes {num_classes}"
        )


def _dense(x, w, b):
    y = x @ w
    if b is not None:
        y = y + b
    return y


def _conv2d(x, w, b, stride):
    kh, kw, _, out_ch = w.shape
    n, h, wd, _ = x.shape
    ho = (h - kh) // stride + 1
    wo = (wd - kw) // stride + 1
    out = np.zeros((n, ho, wo, out_ch), dtype=x.dtype)
    for a in range(kh):
        for bb in range(kw):
            patch = x[:, a : a + stride * ho : stride, bb : bb + stride * wo : stride, :]
            out += patch @ w[a, bb]
    if b is not None:
        out = out + b
    return out


def _maxpool2d(x, kernel, stride):
    n, h, w, c = x.shape
    ho = (h - kernel) // stride + 1
    wo = (w - kernel) // stride + 1
    out = np.full((n, ho, wo, c), -np.inf, dtype=x.dtype)
    for a in range(kernel):
        for b in range(kernel):
            np.maximum(out, x[:, a : a + stride * ho : stride, b : b + stride * wo : stride, :],
                       out=out)
    return out


def apply_layer(layer_kind: str, x: np.ndarray, weights: np.ndarray | None,
                bias: np.ndarray | None, hyperparams: dict) -> np.ndarray:
    """One layer's forward computation on a float32 activation batch [N, ...]."""
    if layer_kind == "dense":
        return _dense(x, weights, bias)
    if layer_kind == "relu":
        return np.maximum(x, 0)
    if layer_kind == "conv2d":
        return _conv2d(x, weights, bias, int(hyperparams.get("stride", 1)))
    if layer_kind == "maxpool2d":
        k = int(hyperparams.get("kernel", 2))
        return _maxpool2d(x, k, int(hyperparams.get("stride", k)))
    if layer_kind == "flatten":
        return x.reshape(len(x), math.prod(x.shape[1:]))
    raise ModelFormatError(f"unknown layer kind {layer_kind!r}")


def forward_batch(model, inputs, capture=(), input_of: int | None = None):
    """Run a batch of inputs [N, ...] through a Model or a QuantizedModel.

    Returns the logits [N, num_classes], a dict from every layer index in
    `capture` to that layer's output [N, ...] (the pre-activation, for a
    dense or conv2d layer), and, when `input_of` is a layer index, the flat
    input [N, d] of that layer (else None). Raises ValueError when an input
    row or a logit is not finite.
    """
    x = np.asarray(inputs, dtype=np.float32)
    n = len(x)
    if x.size != n * math.prod(model.input_shape):
        raise ShapeMismatchError(
            f"input rows of shape {x.shape[1:]} do not fit model input {model.input_shape}"
        )
    x = x.reshape((n,) + model.input_shape)
    if not np.isfinite(x).all():
        raise ValueError("input values must be finite")
    captured, layer_input = {}, None
    for i, (kind, w, b, hyperparams) in enumerate(model.layer_arrays()):
        if i == input_of:
            layer_input = x.reshape(n, math.prod(x.shape[1:]))
        x = apply_layer(kind, x, w, b, hyperparams)
        if i in capture:
            captured[i] = x
    if not np.isfinite(x).all():
        raise ValueError("logits must be finite")
    return x, captured, layer_input


def _one_row(inp) -> np.ndarray:
    """One input (array or Tensor) as a batch of one flat row."""
    data = inp.data if isinstance(inp, Tensor) else inp
    return np.asarray(data, dtype=np.float32).reshape(1, -1)


def _forward_one(model, inp) -> Tensor:
    """Logits of one input through a Model or a QuantizedModel."""
    logits = forward_batch(model, _one_row(inp))[0][0]
    return Tensor(logits.shape, logits)


def _capture_one(model, inp, layer_filter) -> list[ActivationRecord]:
    """Pre-activation records of one input, in layer order, for a Model or a
    QuantizedModel; `layer_filter` must hold indices of dense or conv2d layers."""
    capture = set(int(i) for i in layer_filter)
    for i in capture:
        if i < 0 or i >= len(model.layers):
            raise IndexError(f"layer index {i} out of range")
        if model.layers[i].kind not in ("dense", "conv2d"):
            raise ValueError(f"layer {i} is {model.layers[i].kind}, not dense/conv2d")
    _, pre, _ = forward_batch(model, _one_row(inp), capture)
    records = []
    for i in sorted(capture):
        flat = pre[i][0].reshape(-1)
        records.append(ActivationRecord(i, Tensor(pre[i].shape[1:], flat.copy()),
                                        (flat > 0).astype(np.uint8)))
    return records


def forward(model: Model, inp) -> Tensor:
    """Run the float32 forward pass of one input; returns the logits (no softmax)."""
    return _forward_one(model, inp)


def capture_activations(model: Model, inp, layer_filter) -> list[ActivationRecord]:
    """Record pre-ReLU outputs and activation status of one input for the given layers.

    `layer_filter` must contain indices of dense or conv2d layers.
    """
    return _capture_one(model, inp, layer_filter)


def argmax_label(logits) -> int:
    """Predicted class: smallest index achieving the maximum logit."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits).reshape(-1)
    if data.size == 0:
        raise ValueError("empty logits")
    return int(np.argmax(data))


# --- JSON (de)serialization ---------------------------------------------
#
# Format: {"input_shape": [...], "num_classes": k, "layers": [...]}. Weight
# tensors are {"shape": [...], "data": [...]} with decimal float literals, or
# {"shape": [...], "data_file": "blob.bin", "offset": 0} pointing at a
# little-endian float32 sidecar blob for large tensors.


def _tensor_from_json(obj, base_dir: Path) -> Tensor:
    if not isinstance(obj, dict) or "shape" not in obj:
        raise ModelFormatError(f"bad tensor object: {obj!r}")
    shape = tuple(int(d) for d in obj["shape"])
    count = int(np.prod(shape))
    if "data" in obj:
        data = np.asarray(obj["data"], dtype=np.float32)
    elif "data_file" in obj:
        path = base_dir / obj["data_file"]
        offset = int(obj.get("offset", 0))
        raw = np.fromfile(path, dtype="<f4", count=count, offset=offset)
        if raw.size != count:
            raise ModelFormatError(f"sidecar {path} has {raw.size} values, need {count}")
        data = raw
    else:
        raise ModelFormatError("tensor needs 'data' or 'data_file'")
    try:
        return Tensor(shape, data)
    except ValueError as e:
        raise ModelFormatError(str(e)) from None


def _tensor_to_json(t: Tensor) -> dict:
    return {"shape": list(t.shape), "data": [float(v) for v in t.data]}


def _layer_from_json(obj, base_dir: Path) -> Layer:
    if "kind" not in obj:
        raise ModelFormatError("layer missing 'kind'")
    kind = obj["kind"]
    weights = _tensor_from_json(obj["weights"], base_dir) if "weights" in obj else None
    bias = _tensor_from_json(obj["bias"], base_dir) if "bias" in obj else None
    hyper = dict(obj.get("hyperparams", {}))
    if kind in ("dense", "conv2d") and weights is None:
        raise ModelFormatError(f"{kind} layer needs weights")
    try:
        return Layer(kind, weights, bias, hyper)
    except ValueError as e:
        raise ModelFormatError(str(e)) from None


def read_model_json(path) -> dict:
    """Parse a model file's envelope, shared by the float and quantized formats."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"{path}: {e}") from None
    for key in ("input_shape", "num_classes", "layers"):
        if not isinstance(obj, dict) or key not in obj:
            raise ModelFormatError(f"{path}: missing {key!r}")
    return obj


def model_from_json(obj: dict, base_dir: Path) -> Model:
    layers = [_layer_from_json(l, base_dir) for l in obj["layers"]]
    return Model(layers, tuple(obj["input_shape"]), int(obj["num_classes"]))


def load_model(path) -> Model:
    """Load a float model from its JSON file."""
    return model_from_json(read_model_json(path), Path(path).parent)


def save_model(model: Model, path) -> None:
    obj = {
        "input_shape": list(model.input_shape),
        "num_classes": model.num_classes,
        "layers": [],
    }
    for layer in model.layers:
        lobj = {"kind": layer.kind}
        if layer.weights is not None:
            lobj["weights"] = _tensor_to_json(layer.weights)
        if layer.bias is not None:
            lobj["bias"] = _tensor_to_json(layer.bias)
        if layer.hyperparams:
            lobj["hyperparams"] = layer.hyperparams
        obj["layers"].append(lobj)
    Path(path).write_text(json.dumps(obj))
