from pathlib import Path

import numpy as np
import pytest

from qrepair.data import Dataset
from qrepair.model import Layer, Model, QuantizedTensor

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

# `simplex_solve` takes finite bounds only; test LPs bound by BOX a column
# that would be unbounded (the hand-written LPs' optima stay well inside it)
BOX = 1e3

# Beale (1955), as (c, a, upper) for `simplex_solve`: Dantzig's rule with a
# smallest-index ratio tie-break cycles on it from the slack basis. Optimum
# -1/20 at x = (1/25, 0, 1, 0).
BEALE_LP = ([-0.75, 150.0, -0.02, 6.0],
            [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0]],
            [BOX, BOX, 1.0, BOX])


def dense_model(w, b=None, extra_relu=False, num_classes=None):
    """Single dense layer model (optionally dense+relu+identity-dense)."""
    layers = [Layer("dense", w, b)]
    d_in, out = layers[0].weights.shape
    if extra_relu:
        layers += [Layer("relu"), Layer("dense", np.eye(out))]
    return Model(layers, (d_in,), num_classes or out)


def pool_model(pool: dict, input_shape=(6, 6, 1)) -> Model:
    """maxpool2d with hyperparameters `pool`, flatten, dense 9 -> 2; a 6x6 or
    7x7 input pools to 3x3 under kernel 2, and 6x6 also under kernel 4 stride 1."""
    w = np.linspace(-1.0, 1.0, 18, dtype=np.float32).reshape(9, 2)
    return Model([Layer("maxpool2d", hyperparams=pool), Layer("flatten"),
                  Layer("dense", w, np.zeros(2))], input_shape, 2)


def manual_qmodel(fmodel: Model, int_weights_per_layer, scales=None) -> Model:
    """Quantized twin of `fmodel` with hand-picked int8 codes and scales."""
    qlayers = []
    di = 0
    for layer in fmodel.layers:
        if layer.kind in ("dense", "conv2d"):
            codes = np.asarray(int_weights_per_layer[di], dtype=np.int8)
            scale = 1.0 if scales is None else scales[di]
            qw = QuantizedTensor(layer.weights.shape, codes.reshape(-1), scale)
            bias = None if layer.bias is None else layer.bias.array().copy()
            qlayers.append(Layer(layer.kind, None, bias, dict(layer.hyperparams), qw))
            di += 1
        else:
            qlayers.append(Layer(layer.kind, hyperparams=dict(layer.hyperparams)))
    return Model(qlayers, fmodel.input_shape, fmodel.num_classes)


def make_dataset(features, labels=None, num_classes=None) -> Dataset:
    features = np.asarray(features, dtype=np.float32)
    if labels is None:
        labels = np.zeros(len(features), dtype=np.int64)
    num_classes = num_classes or int(np.max(labels)) + 1
    return Dataset(features, np.asarray(labels), num_classes)


def grid_mlp(rng: np.random.Generator, dims=(6, 5, 4)) -> Model:
    """MLP whose weights are multiples of 2^-6 with max exactly 127*2^-6.

    Such weights sit exactly on the quantization grid: int8 round-trip
    reproduces them bit for bit.
    """
    step = 2.0**-6
    layers = []
    for d_in, d_out in zip(dims, dims[1:]):
        codes = rng.integers(-127, 128, size=(d_in, d_out)).astype(np.float64)
        codes.reshape(-1)[0] = 127  # pin the per-tensor max so S = step exactly
        w = (codes * step).astype(np.float32)
        b = (rng.integers(-64, 65, size=d_out) * step).astype(np.float32)
        layers.append(Layer("dense", w, b))
        if d_out != dims[-1]:
            layers.append(Layer("relu"))
    return Model(layers, (dims[0],), dims[-1])


def make_desk_parts(spec, seed=4242):
    """Trained MLP + sign-flip-damaged quantized twin + repair/val splits."""
    from qrepair.experiment import damaged_quantized_model, make_blobs, train_mlp

    root = np.random.SeedSequence(seed)
    ss_data, ss_train, ss_damage = root.spawn(3)
    n = spec.n_train + spec.n_repair + spec.n_val
    total = make_blobs(np.random.default_rng(ss_data), spec, n)
    train = total.subset(range(spec.n_train))
    repair_set = total.subset(range(spec.n_train, spec.n_train + spec.n_repair))
    val = total.subset(range(spec.n_train + spec.n_repair, n))
    fmodel = train_mlp(np.random.default_rng(ss_train), train, spec)
    qmodel, _, _ = damaged_quantized_model(fmodel, val, repair_set, ss_damage)
    return fmodel, qmodel, repair_set, val


@pytest.fixture
def conv3_model():
    from qrepair.model import load_model

    return load_model(FIXTURES / "conv3.json")


@pytest.fixture
def conv3_val():
    from qrepair.data import load_dataset

    return load_dataset(FIXTURES / "conv3_val.csv", num_classes=10)


def repair_lp(m: int, k: int, seed: int, epsilon: float = 1e-3):
    """Seeded dense-neuron repair LP with k status-disagreeing tests of width m.

    The float weights are perturbed the way quantization damage would be,
    and the layer inputs are ReLU outputs, so the LP rows carry exact zeros
    (and negated zeros on target-0 rows) as real repair LPs do.
    """
    from qrepair.lp import NeuronLP

    rng = np.random.default_rng(seed)
    w_float = rng.normal(0.0, 1.0 / np.sqrt(m), m)
    w = w_float + rng.normal(0.0, 0.3 / np.sqrt(m), m)
    bias = float(rng.normal(0.0, 0.1))
    xs = np.maximum(rng.normal(size=(50 * k, m)), 0.0)
    target = (xs @ w_float + bias > 0).astype(int)
    current = (xs @ w + bias > 0).astype(int)
    rows = np.flatnonzero(target != current)[:k]
    if rows.size < k:
        raise ValueError(f"seed {seed} gives only {rows.size} disagreeing tests")
    return NeuronLP(0, 0, w, bias, xs[rows], target[rows], current[rows], epsilon,
                    test_id=rows)


def wide_head_parts(instance: int = 0):
    """perfbench's wide-head instance: a fixed 20-64-10 ReLU MLP (seed 2306),
    its sign-flip-damaged quantized twin, a 300-row repair set and a 500-row
    validation set labelled by the float model."""
    from qrepair.experiment import damaged_quantized_model
    from qrepair.model import forward_batch

    rng = np.random.default_rng(2306)

    def dense(fan_in, fan_out):
        w = rng.normal(0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)).astype(np.float32)
        return Layer("dense", w, np.zeros(fan_out, np.float32))

    fmodel = Model([dense(20, 64), Layer("relu"), dense(64, 10)], (20,), 10)
    xs = np.random.default_rng([2306, instance]).normal(0, 1, size=(800, 20)).astype(np.float32)
    labels = np.argmax(forward_batch(fmodel, xs)[0], axis=1)
    both = Dataset(xs, labels, 10)
    repair_set, val = both.subset(range(300)), both.subset(range(300, 800))
    qmodel, _, _ = damaged_quantized_model(fmodel, val, repair_set,
                                           np.random.SeedSequence(2306))
    return fmodel, qmodel, repair_set, val
