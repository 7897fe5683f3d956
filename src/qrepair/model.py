"""Feed-forward classifier structure, validation, float32 inference and JSON I/O.

`quantize.QuantizedModel` is a `Model` with int8 weights. Both expose
`layer_arrays()`, the (kind, weights, bias, hyperparams) view that one
validator (`validate_topology`, run whenever a model is built or loaded)
and one batched walker (`forward_batch`) read. Inference never mutates a
model, so one model can be shared across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAYER_KINDS = ("dense", "relu", "conv2d", "maxpool2d", "flatten")
WEIGHT_RANKS = {"dense": 2, "conv2d": 4}  # the kinds that carry weights


class ModelFormatError(ValueError):
    """Raised when a model file or a model's layer is malformed."""


class ShapeMismatchError(ValueError):
    """Raised when tensor or layer shapes do not fit together."""


@dataclass
class Tensor:
    """Row-major numeric tensor: flat data plus an explicit shape."""

    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        self.shape = tuple(int(d) for d in self.shape)
        self.data = np.asarray(self.data).reshape(-1)
        if min(self.shape, default=0) < 0 or math.prod(self.shape) != self.data.size:
            raise ShapeMismatchError(f"shape {self.shape} does not fit {self.data.size} values")

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


@dataclass
class Model:
    layers: list[Layer]
    input_shape: tuple[int, ...]
    num_classes: int

    def __post_init__(self):
        self.input_shape = tuple(int(d) for d in self.input_shape)
        self.num_classes = int(self.num_classes)
        validate_topology(self)

    def dense_layer_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.kind == "dense"]

    def last_dense_index(self) -> int:
        return self.dense_layer_indices()[-1]  # validation makes the final layer dense

    def layer_arrays(self) -> list[tuple]:
        """(kind, weights, bias, hyperparams) per layer: the view validation and
        inference read."""
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


def _output_shape(shape, kind, w, b, hyperparams) -> tuple[int, ...]:
    """Check one layer of the `layer_arrays()` view against its input `shape`
    and return the shape it outputs (valid padding)."""
    if kind not in LAYER_KINDS:
        raise ModelFormatError(f"unknown layer kind {kind!r}")
    rank = WEIGHT_RANKS.get(kind)
    if rank is None and (w is not None or b is not None):
        raise ModelFormatError(f"a {kind} layer takes no weights or bias")
    if rank is not None:
        if w is None:
            raise ModelFormatError(f"{kind} layer needs weights")
        if w.ndim != rank:
            raise ModelFormatError(f"{kind} weights need rank {rank}, got shape {w.shape}")
        if b is not None and b.shape != w.shape[-1:]:
            raise ShapeMismatchError(f"{kind} bias shape {b.shape} != ({w.shape[-1]},)")
        if not np.isfinite(w).all() or (b is not None and not np.isfinite(b).all()):
            raise ModelFormatError(f"{kind} weights and bias must be finite")
    if kind == "relu":
        return shape
    if kind == "flatten":
        return (math.prod(shape),)
    if kind == "dense":
        if len(shape) != 1 or shape[0] != w.shape[0]:
            raise ShapeMismatchError(f"dense expects flat input ({w.shape[0]},), got {shape}")
        return (w.shape[1],)
    if len(shape) != 3:
        raise ShapeMismatchError(f"{kind} expects [h, w, c] input, got {shape}")
    h, wd, c = shape
    if kind == "conv2d":
        kh, kw, in_ch, out_ch = w.shape
        stride = int(hyperparams.get("stride", 1))
        if in_ch != c:
            raise ShapeMismatchError(f"conv2d expects {in_ch} input channels, got {c}")
    else:  # maxpool2d
        kh = kw = int(hyperparams.get("kernel", 2))
        stride = int(hyperparams.get("stride", kh))
        out_ch = c
    if min(kh, kw, stride) < 1:
        raise ModelFormatError(f"{kind} window {kh}x{kw} and stride {stride} must be positive")
    ho, wo = (h - kh) // stride + 1, (wd - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatchError(f"{kind} window {kh}x{kw} too large for input {shape}")
    return (ho, wo, out_ch)


def validate_topology(model) -> None:
    """Check a Model or a QuantizedModel through its `layer_arrays()` view.

    Raises ModelFormatError (unknown kind, missing, misranked or non-finite
    weights) or ShapeMismatchError (a bias or a layer input that does not
    fit, a final layer that is not dense with `num_classes` outputs); each
    message starts with the index of the layer at fault.
    """
    views = model.layer_arrays()
    if not views:
        raise ShapeMismatchError("model needs at least one layer")
    shape = model.input_shape
    for i, (kind, w, b, hyperparams) in enumerate(views):
        try:
            shape = _output_shape(shape, kind, w, b, hyperparams)
        except ShapeMismatchError as e:
            raise ShapeMismatchError(f"layer {i}: {e}") from None
        except (ValueError, TypeError, OverflowError) as e:  # e.g. a stride of "x" or 1e400
            raise ModelFormatError(f"layer {i}: {e}") from None
    if views[-1][0] != "dense" or shape != (model.num_classes,):
        raise ShapeMismatchError(
            f"layer {len(views) - 1}: the final layer must be dense with "
            f"{model.num_classes} outputs, got {views[-1][0]} with output {shape}"
        )


def _dense(x, w, b):
    y = x @ w
    if b is not None:
        y = y + b
    return y


def _conv2d(x, w, b, stride):
    kh, kw, in_ch, out_ch = w.shape
    n, h, wd, _ = x.shape
    ho = (h - kh) // stride + 1
    wo = (wd - kw) // stride + 1
    if in_ch == 1:
        # a tap's `patch @ w[a, bb]` is then a plain product; accumulating it
        # channel-major gives the same bits without a matmul per tap
        out = np.zeros((out_ch, n, ho, wo), dtype=x.dtype)
        for a in range(kh):
            for bb in range(kw):
                patch = x[:, a : a + stride * ho : stride, bb : bb + stride * wo : stride, 0]
                out += w[a, bb, 0][:, None, None, None] * patch
        # contiguous, so the next layer's matmul computes the same bits as on
        # a batch-major output
        out = np.ascontiguousarray(out.transpose(1, 2, 3, 0))
    else:
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


def forward_batch(model, inputs, capture=(), input_of: int | None = None, start: int = 0):
    """Run a batch of inputs [N, ...] through a Model or a QuantizedModel.

    Returns the logits [N, num_classes], a dict from every layer index in
    `capture` to that layer's output [N, ...] (the pre-activation, for a
    dense or conv2d layer), and, when `input_of` is a layer index, the flat
    input [N, d] of that layer (else None). With `start`, the rows are the
    input of layer `start` (flat, as `input_of` returns them) and only the
    layers from `start` on run. Raises ValueError when an input row or a
    logit is not finite.
    """
    views = model.layer_arrays()
    if not 0 <= start < len(views):
        raise IndexError(f"start layer {start} out of range 0..{len(views) - 1}")
    shape = model.input_shape
    for kind, w, b, hyperparams in views[:start]:
        shape = _output_shape(shape, kind, w, b, hyperparams)
    x = np.asarray(inputs, dtype=np.float32)
    n = len(x)
    if x.size != n * math.prod(shape):
        what = "model input" if start == 0 else f"layer {start} input"
        raise ShapeMismatchError(f"input rows of shape {x.shape[1:]} do not fit {what} {shape}")
    x = x.reshape((n,) + shape)
    if not np.isfinite(x).all():
        raise ValueError("input values must be finite")
    captured, layer_input = {}, None
    for i, (kind, w, b, hyperparams) in enumerate(views[start:], start):
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
# Format: {"input_shape": [...], "num_classes": k, "layers": [...]}. A layer
# is {"kind": ..., "weights": ..., "bias": ..., "hyperparams": {...}}, with
# weights and bias optional. Float tensors are {"shape": [...], "data": [...]}
# with decimal float literals, or {"shape": [...], "data_file": "blob.bin",
# "offset": 0} pointing at a little-endian float32 sidecar blob for large
# tensors. The quantized format (quantize.py) shares this envelope and differs
# only in how it encodes weights.


def _tensor_from_json(obj, base_dir: Path) -> Tensor:
    if not isinstance(obj, dict) or "shape" not in obj:
        raise ModelFormatError("a tensor must be an object with a 'shape'")
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
        raise ModelFormatError("a tensor needs 'data' or 'data_file'")
    return Tensor(shape, data)


def _array_to_json(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": [float(v) for v in arr.reshape(-1)]}


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
    shape = obj["input_shape"]
    if not (isinstance(shape, list) and all(isinstance(d, int) for d in shape)
            and isinstance(obj["num_classes"], int) and isinstance(obj["layers"], list)):
        raise ModelFormatError(f"{path}: 'input_shape' must be a list of integers, "
                               "'num_classes' an integer and 'layers' a list")
    return obj


def layers_from_json(obj: dict, base_dir: Path, make_layer) -> list:
    """Read the envelope's layers, each an object with a 'kind', an optional
    bias and hyperparams; `make_layer(kind, weights_obj or None, bias,
    hyperparams, base_dir)` decodes the format's own weight encoding. A
    malformed layer raises ModelFormatError naming its index."""
    layers = []
    for i, lobj in enumerate(obj["layers"]):
        try:
            if not isinstance(lobj, dict) or "kind" not in lobj:
                raise ModelFormatError("a layer must be an object with a 'kind'")
            bias = _tensor_from_json(lobj["bias"], base_dir) if "bias" in lobj else None
            hyperparams = dict(lobj.get("hyperparams", {}))
            layers.append(make_layer(lobj["kind"], lobj.get("weights"), bias, hyperparams,
                                     base_dir))
        except (ValueError, TypeError, OverflowError, OSError) as e:  # OSError: a sidecar file
            raise ModelFormatError(f"layer {i}: {e}") from None
    return layers


def write_model_json(model: Model, path, weights_to_json) -> None:
    """Write `model` in the shared envelope; `weights_to_json(layer)` encodes a
    layer's weights in the format's own way, or returns None for none."""
    layers = []
    for layer in model.layers:
        lobj = {"kind": layer.kind}
        weights = weights_to_json(layer)
        if weights is not None:
            lobj["weights"] = weights
        if layer.bias is not None:
            lobj["bias"] = _array_to_json(layer.bias.array())
        if layer.hyperparams:
            lobj["hyperparams"] = layer.hyperparams
        layers.append(lobj)
    obj = {"input_shape": list(model.input_shape), "num_classes": model.num_classes,
           "layers": layers}
    Path(path).write_text(json.dumps(obj))


def _float_layer(kind, wobj, bias, hyperparams, base_dir) -> Layer:
    weights = None if wobj is None else _tensor_from_json(wobj, base_dir)
    return Layer(kind, weights, bias, hyperparams)


def load_model(path) -> Model:
    """Load a float model from its JSON file; sidecar (`data_file`) tensors
    resolve next to it."""
    obj = read_model_json(path)
    return Model(layers_from_json(obj, Path(path).parent, _float_layer), obj["input_shape"],
                 obj["num_classes"])


def save_model(model: Model, path) -> None:
    write_model_json(model, path, lambda layer: None if layer.weights is None
                     else _array_to_json(layer.weights.array()))
