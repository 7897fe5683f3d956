"""Feed-forward classifier structure, validation, float32 inference and JSON I/O.

One `Model` type serves the full-precision and the weight-quantized network:
a layer's `weights` are the float32 values inference uses, and a quantized
layer also carries the int8 codes they dequantize to (`qweights`).
One validator (`validate_topology`, run whenever a model is built or
loaded) and one batched walker (`forward_batch`) read the layers' fields.
Inference never mutates a model, so one model can be shared across threads.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAYER_KINDS = ("dense", "relu", "conv2d", "maxpool2d", "flatten")
WEIGHT_RANKS = {"dense": 2, "conv2d": 4}  # the kinds that carry weights
HYPERPARAMS = {"conv2d": ("stride",), "maxpool2d": ("kernel", "stride")}  # others take none
INT8_MAX = 127
_CONV_BLOCK_ROWS = 32  # rows per conv2d product; bounds the window stack a call holds


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
class QuantizedTensor:
    """Symmetric int8 codes of a tensor: r = scale * q, the zero point fixed at 0."""

    shape: tuple[int, ...]
    data: np.ndarray  # int8, flat
    scale: float

    def __post_init__(self):
        self.shape = tuple(int(d) for d in self.shape)
        codes = self.data
        if isinstance(codes, np.ndarray) and codes.dtype == np.int8:  # only -128 is out of range
            bad = codes[codes < -INT8_MAX]
        else:  # checked before the int8 cast, which would wrap a wider integer (129 -> -127)
            codes = np.asarray(codes, dtype=np.float64)
            bad = codes[(codes != np.round(codes)) | (np.abs(codes) > INT8_MAX)]
        if bad.size:
            raise ValueError(f"int8 codes must be integers in [-127, 127], got {bad[0]:g}")
        self.data = codes.reshape(-1).astype(np.int8)
        self.scale = check_number("scale", self.scale, 0, above=True)
        if min(self.shape, default=0) < 0 or math.prod(self.shape) != self.data.size:
            raise ValueError(f"shape {self.shape} does not match {self.data.size} values")


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """r = S*q, computed in float64, in the codes' shape."""
    return qt.scale * qt.data.astype(np.float64).reshape(qt.shape)


@dataclass
class Layer:
    """One layer. `weights` are the float32 values inference uses; `qweights`,
    when set, are the int8 codes they dequantize to (given alone, they fill
    in `weights`). A layer a `float_patch` repair wrote has no codes. Arrays
    or lists given as `weights` or `bias` are stored as float32 `Tensor`s."""

    kind: str
    weights: Tensor | None = None
    bias: Tensor | None = None
    hyperparams: dict = field(default_factory=dict)
    qweights: QuantizedTensor | None = None

    def __post_init__(self):
        if self.weights is None and self.qweights is not None:
            self.set_codes(self.qweights)
        self.weights, self.bias = (t if t is None or isinstance(t, Tensor) else Tensor.from_array(t)
                                   for t in (self.weights, self.bias))

    @property
    def eff_weights(self) -> np.ndarray | None:
        """`weights` as an array (a view: writing to it writes the weights)."""
        return None if self.weights is None else self.weights.array()

    def set_codes(self, qweights: QuantizedTensor) -> None:
        """Install int8 codes; inference then uses what they dequantize to."""
        self.qweights = qweights
        self.weights = Tensor.from_array(dequantize(qweights))


@dataclass
class Model:
    layers: list[Layer]
    input_shape: tuple[int, ...]
    num_classes: int

    def __post_init__(self):
        self.input_shape = tuple(check_number(f"input_shape[{i}]", d, 1, integer=True)
                                 for i, d in enumerate(self.input_shape))
        self.num_classes = check_number("num_classes", self.num_classes, 1, integer=True)
        validate_topology(self)

    def last_dense_index(self) -> int:
        return len(self.layers) - 1  # validation makes the final layer dense


@dataclass
class ActivationRecord:
    """Pre-activation capture of one dense/conv layer for one input.

    ``status[j]`` is 1 iff the pre-ReLU value is strictly positive; an exact
    zero counts as not activated.
    """

    layer_index: int
    pre_activation: Tensor
    status: np.ndarray  # uint8 bit vector, flat


def is_int(value) -> bool:
    """A Python or numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_number(name: str, value, low, *, integer=False, above=False, inf=False, none=False):
    """`value` as a Python int (with `integer`) or float, once it is a Python
    or numpy number (a bool, np.bool_ or string is not), >= `low` (> `low`
    with `above`; NaN fails) and finite unless `inf`; with `none`, None is
    returned as it is. Raises ValueError naming `name` otherwise."""
    if none and value is None:
        return None
    if not (is_int(value) if integer else
            isinstance(value, numbers.Real) and not isinstance(value, bool)):
        kind = "an integer" if integer else "a real number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    try:
        number = int(value) if integer else float(value)
    except OverflowError:  # an int beyond float range
        raise ValueError(f"{name} must be within float range, got {value!r}") from None
    if not ((number > low if above else number >= low)
            and (integer or inf or math.isfinite(number))):
        finite = "" if integer or inf else "finite and "
        raise ValueError(f"{name} must be {finite}{'>' if above else '>='} {low}, got {value!r}")
    return number


def window(kind: str, hyperparams: dict) -> dict:
    """`hyperparams` with their defaults filled in; {} for a kind that takes none."""
    if kind not in HYPERPARAMS:
        return {}
    win = {"kernel": hyperparams.get("kernel", 2)} if kind == "maxpool2d" else {}
    win["stride"] = hyperparams.get("stride", win.get("kernel", 1))
    try:  # the range is checked with the input shape, in _output_shape
        return {key: check_number(key, v, -math.inf, integer=True) for key, v in win.items()}
    except ValueError as e:
        raise ModelFormatError(str(e)) from None


def _output_shape(shape, layer: Layer) -> tuple[int, ...]:
    """Check one layer against its input `shape` and return the shape it
    outputs (valid padding)."""
    kind, w, hyperparams = layer.kind, layer.eff_weights, layer.hyperparams
    b = None if layer.bias is None else layer.bias.array()
    if kind not in LAYER_KINDS:
        raise ModelFormatError(f"unknown layer kind {kind!r}")
    if not isinstance(hyperparams, dict):
        raise ModelFormatError(f"hyperparams must be an object, got {hyperparams!r}")
    for key in hyperparams:
        if key not in HYPERPARAMS.get(kind, ()):
            raise ModelFormatError(f"{kind} takes no hyperparameter {key!r}")
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
    win = window(kind, hyperparams)
    kh, kw, in_ch, out_ch = w.shape if kind == "conv2d" else (win["kernel"],) * 2 + (c, c)
    if in_ch != c:
        raise ShapeMismatchError(f"conv2d expects {in_ch} input channels, got {c}")
    stride = win["stride"]
    if min(kh, kw, stride) < 1:
        raise ModelFormatError(f"{kind} window {kh}x{kw} and stride {stride} must be positive")
    ho, wo = (h - kh) // stride + 1, (wd - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatchError(f"{kind} window {kh}x{kw} too large for input {shape}")
    return (ho, wo, out_ch)


def validate_topology(model) -> None:
    """Check a Model's layers in order.

    Raises ModelFormatError (unknown kind, a hyperparameter the kind does not
    take, missing, misranked or non-finite weights) or ShapeMismatchError (a
    bias or a layer input that does not fit, a final layer that is not dense
    with `num_classes` outputs); each message starts with the index of the
    layer at fault.
    """
    layers = model.layers
    if not layers:
        raise ShapeMismatchError("model needs at least one layer")
    shape = model.input_shape
    for i, layer in enumerate(layers):
        try:
            shape = _output_shape(shape, layer)
        except ShapeMismatchError as e:
            raise ShapeMismatchError(f"layer {i}: {e}") from None
        except ModelFormatError as e:
            raise ModelFormatError(f"layer {i}: {e}") from None
    if layers[-1].kind != "dense" or shape != (model.num_classes,):
        raise ShapeMismatchError(
            f"layer {len(layers) - 1}: the final layer must be dense with "
            f"{model.num_classes} outputs, got {layers[-1].kind} with output {shape}"
        )


def _dense(x, w, b):
    # float32 products are exact in float64, so every BLAS kernel's sum rounds
    # to the same float32 unless it sits on a rounding tie
    y = (x.astype(np.float64) @ w.astype(np.float64)).astype(x.dtype)
    if b is not None:
        y = y + b
    return y


def _conv2d(x, w, b, stride):
    kh, kw, in_ch, out_ch = w.shape
    n, h, wd, _ = x.shape
    ho, wo = (h - kh) // stride + 1, (wd - kw) // stride + 1
    # a block of rows as [in_ch, h, wd, rows]; windows[a, bb] is its tap (a, bb)
    xt = np.zeros((in_ch, h, wd, max(min(n, _CONV_BLOCK_ROWS), 2)), dtype=x.dtype)
    sc, sh, sw, sr = xt.strides
    windows = np.ndarray((kh, kw, in_ch, ho, wo, xt.shape[3]), xt.dtype, xt, 0,
                         (sh, sw, sc, sh * stride, sw * stride, sr))
    w_rows = w.reshape(kh * kw * in_ch, out_ch)
    out = np.empty((n, ho, wo, out_ch), dtype=x.dtype)
    # One rule, no BLAS call: each output is its float32 products w[a, bb, c] *
    # patch[c] added one by one in (a, bb, c) order from +0.0, then the bias.
    # einsum sums its one reduced axis in order over two rows or more (numpy
    # would sum a lone column pairwise) and multiplies and adds separately in
    # numpy 2.4.6 on x86-64. The README's "Semantics worth knowing" names the tests.
    for r0 in range(0, n, _CONV_BLOCK_ROWS):
        rows = min(_CONV_BLOCK_ROWS, n - r0)
        xt[..., :rows] = x[r0 : r0 + rows].transpose(3, 1, 2, 0)
        win = windows[..., : max(rows, 2)].reshape(kh * kw * in_ch, -1)
        total = np.einsum("ko,kn->on", w_rows, win)
        if b is not None:
            total += b[:, None]  # on the block, not on the narrow NHWC output
        out[r0 : r0 + rows] = total.reshape(out_ch, ho, wo, -1)[..., :rows].transpose(3, 1, 2, 0)
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
        return _conv2d(x, weights, bias, **window(layer_kind, hyperparams))
    if layer_kind == "maxpool2d":
        return _maxpool2d(x, **window(layer_kind, hyperparams))
    if layer_kind == "flatten":
        return x.reshape(len(x), math.prod(x.shape[1:]))
    raise ModelFormatError(f"unknown layer kind {layer_kind!r}")


def forward_batch(model, inputs, capture=(), input_of: int | None = None, start: int = 0):
    """Run a batch of inputs [N, ...] through a Model.

    Returns the logits [N, num_classes], a dict from every layer index in
    `capture` to that layer's output [N, ...] (the pre-activation, for a
    dense or conv2d layer), and, when `input_of` is a layer index, the flat
    input [N, d] of that layer (else None). With `start`, the rows are the
    input of layer `start` (flat, as `input_of` returns them) and only the
    layers from `start` on run. Raises IndexError when `start`, a `capture`
    index or `input_of` names no layer that runs, and ValueError when an
    input row or a logit is not finite.
    """
    layers = model.layers
    if not 0 <= start < len(layers):
        raise IndexError(f"start layer {start} out of range 0..{len(layers) - 1}")
    for i in (*capture, input_of):
        if i is not None and not start <= i < len(layers):
            raise IndexError(f"layer {i} is not run: the layers run are {start}..{len(layers) - 1}")
    shape = model.input_shape
    for layer in layers[:start]:
        shape = _output_shape(shape, layer)
    x = np.asarray(inputs, dtype=np.float32)
    n = len(x)
    if x.size != n * math.prod(shape):
        what = "model input" if start == 0 else f"layer {start} input"
        raise ShapeMismatchError(f"input rows of shape {x.shape[1:]} do not fit {what} {shape}")
    x = x.reshape((n,) + shape)
    if not np.isfinite(x).all():
        raise ValueError("input values must be finite")
    captured, layer_input = {}, None
    for i, layer in enumerate(layers[start:], start):
        if i == input_of:
            layer_input = x.reshape(n, math.prod(x.shape[1:]))
        b = None if layer.bias is None else layer.bias.array()
        x = apply_layer(layer.kind, x, layer.eff_weights, b, layer.hyperparams)
        if i in capture:
            captured[i] = x
    if not np.isfinite(x).all():
        raise ValueError("logits must be finite")
    return x, captured, layer_input


def _one_row(inp) -> np.ndarray:
    """One input (array or Tensor) as a batch of one flat row."""
    data = inp.data if isinstance(inp, Tensor) else inp
    return np.asarray(data, dtype=np.float32).reshape(1, -1)


def forward(model: Model, inp) -> Tensor:
    """Run the float32 forward pass of one input; returns the logits (no softmax)."""
    logits = forward_batch(model, _one_row(inp))[0][0]
    return Tensor(logits.shape, logits)


def capture_activations(model: Model, inp, layer_filter) -> list[ActivationRecord]:
    """Record pre-ReLU outputs and activation status of one input for the given layers.

    `layer_filter` must contain indices of dense or conv2d layers.
    """
    capture = set(int(i) for i in layer_filter)
    _, pre, _ = forward_batch(model, _one_row(inp), capture)  # IndexError for a layer not run
    records = []
    for i in sorted(capture):
        if model.layers[i].kind not in ("dense", "conv2d"):
            raise ValueError(f"layer {i} is {model.layers[i].kind}, not dense/conv2d")
        flat = pre[i][0].reshape(-1)
        records.append(ActivationRecord(i, Tensor(pre[i].shape[1:], flat.copy()),
                                        (flat > 0).astype(np.uint8)))
    return records


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
# tensors. Weights with int8 codes are {"shape": [...], "scale": s,
# "zero_point": 0, "data_i8": [...]}; a layer without codes (a float model's,
# or one a float_patch repair wrote) stores float weights.


def _numbers_from_json(obj: dict, key: str):
    """obj[key], a JSON number or list of numbers: numpy would also read a
    numeric string or a bool (an int subclass) as one."""
    values = obj[key]
    listed = values if isinstance(values, list) else [values]
    if not set(map(type, listed)) <= {int, float}:
        raise ModelFormatError(f"a tensor's {key!r} must hold JSON numbers only")
    return values


def _shape_from_json(obj: dict) -> tuple[int, ...]:
    shape = obj["shape"]
    if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
        raise ModelFormatError("a tensor 'shape' must be a list of non-negative integers, "
                               f"got {shape!r}")
    return tuple(shape)


def _tensor_from_json(obj, base_dir: Path) -> Tensor:
    if not isinstance(obj, dict) or "shape" not in obj:
        raise ModelFormatError("a tensor must be an object with a 'shape'")
    shape = _shape_from_json(obj)
    count = math.prod(shape)
    if "data" in obj:
        data = np.asarray(_numbers_from_json(obj, "data"), dtype=np.float32)
    elif "data_file" in obj:
        path = base_dir / obj["data_file"]
        offset = check_number("offset", obj.get("offset", 0), 0, integer=True)
        data = np.fromfile(path, dtype="<f4", count=count, offset=offset)
        if data.size != count:
            raise ModelFormatError(f"sidecar {path} has {data.size} values, need {count}")
    else:
        raise ModelFormatError("a tensor needs 'data' or 'data_file'")
    return Tensor(shape, data)


def _codes_from_json(obj: dict) -> QuantizedTensor:
    for key in ("shape", "scale"):
        if key not in obj:
            raise ModelFormatError(f"int8 weights need a {key!r}")
    if obj.get("zero_point", 0) != 0:
        raise ModelFormatError(f"zero_point must be 0, got {obj['zero_point']!r}")
    return QuantizedTensor(_shape_from_json(obj), _numbers_from_json(obj, "data_i8"),
                           float(_numbers_from_json(obj, "scale")))


def _layer_from_json(lobj, base_dir: Path) -> Layer:
    if not isinstance(lobj, dict) or "kind" not in lobj:
        raise ModelFormatError("a layer must be an object with a 'kind'")
    bias = _tensor_from_json(lobj["bias"], base_dir) if "bias" in lobj else None
    wobj, weights, codes = lobj.get("weights"), None, None
    if isinstance(wobj, dict) and "data_i8" in wobj:
        for key in ("data", "data_file"):
            if key in wobj:
                raise ModelFormatError(f"weights hold int8 'data_i8' and float {key!r}; "
                                       "a layer stores one or the other")
        codes = _codes_from_json(wobj)
    elif wobj is not None:
        weights = _tensor_from_json(wobj, base_dir)
    return Layer(lobj["kind"], weights, bias, lobj.get("hyperparams", {}), codes)


def _array_to_json(arr: np.ndarray) -> dict:
    # the float64 cast makes tolist() give float(v) for every dtype, in one call
    flat = arr.reshape(-1).astype(np.float64, copy=False)
    return {"shape": list(arr.shape), "data": flat.tolist()}


def not_utf8(path, error: UnicodeDecodeError) -> str:
    """The message for a file that does not decode: its path and the first bad byte."""
    return f"{path}: not UTF-8 text ({error.reason} at byte {error.start})"


def load_model(path) -> Model:
    """The model in a JSON file, which stores each layer's weights as float
    values or as int8 codes, never both; sidecar (`data_file`) tensors resolve
    next to it. A malformed layer raises ModelFormatError naming its index."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise ModelFormatError(not_utf8(path, e)) from None
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"{path}: {e}") from None
    for key in ("input_shape", "num_classes", "layers"):
        if not isinstance(obj, dict) or key not in obj:
            raise ModelFormatError(f"{path}: missing {key!r}")
    shape = obj["input_shape"]
    if not (isinstance(shape, list) and all(type(d) is int for d in shape)
            and type(obj["num_classes"]) is int and isinstance(obj["layers"], list)):
        raise ModelFormatError(f"{path}: 'input_shape' must be a list of integers, "
                               "'num_classes' an integer and 'layers' a list")
    layers = []
    for i, lobj in enumerate(obj["layers"]):
        try:
            layers.append(_layer_from_json(lobj, path.parent))
        except (ValueError, TypeError, OverflowError, OSError) as e:  # OSError: a sidecar file
            raise ModelFormatError(f"layer {i}: {e}") from None
    return Model(layers, shape, obj["num_classes"])


def save_model(model: Model, path) -> None:
    """Write `model` as JSON: a layer's int8 codes where it has them, else its
    float weights."""
    layers = []
    for layer in model.layers:
        lobj = {"kind": layer.kind}
        if layer.qweights is not None:
            q = layer.qweights
            lobj["weights"] = {"shape": list(q.shape), "scale": q.scale, "zero_point": 0,
                               "data_i8": q.data.tolist()}
        elif layer.weights is not None:
            lobj["weights"] = _array_to_json(layer.eff_weights)
        if layer.bias is not None:
            lobj["bias"] = _array_to_json(layer.bias.array())
        if layer.hyperparams:
            lobj["hyperparams"] = layer.hyperparams
        layers.append(lobj)
    obj = {"input_shape": list(model.input_shape), "num_classes": model.num_classes,
           "layers": layers}
    Path(path).write_text(json.dumps(obj))
