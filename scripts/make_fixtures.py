#!/usr/bin/env python3
"""Regenerate the shipped test fixtures (deterministic).

Produces:
  tests/fixtures/conv3.json     six-layer conv classifier with seeded weights
  tests/fixtures/conv3_quant.json  its int8 quantization
  tests/fixtures/conv3_val.csv  60 inputs labeled with the float model's own
                                predictions; quantization flips a handful of
                                them (one sits at row 7)
  tests/golden/neuron_a.lp      reviewed golden LP exports
  tests/golden/neuron_b.lp

The golden files are frozen: regeneration must be byte-identical unless the
export format intentionally changes.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qrepair.data import Dataset, save_dataset
from qrepair.lp import NeuronLP, export_lp
from qrepair.model import Layer, Model, forward_batch, save_model
from qrepair.quantize import quantize_model

ROOT = Path(__file__).resolve().parents[1]
MODEL_SEED = 13
DATA_SEED = 1013
N_ROWS = 60


def build_conv3() -> Model:
    rng = np.random.default_rng(MODEL_SEED)

    def t(shape, fan_in):
        vals = rng.normal(0, np.sqrt(2.0 / fan_in), size=shape)
        return vals.astype(np.float32)

    layers = [
        Layer("conv2d", t((3, 3, 1, 4), 9), t((4,), 1)),
        Layer("conv2d", t((3, 3, 4, 6), 36), t((6,), 1)),
        Layer("conv2d", t((3, 3, 6, 8), 54), t((8,), 1)),
        Layer("flatten"),
        Layer("dense", t((32, 16), 32), t((16,), 1)),
        Layer("dense", t((16, 10), 16), t((10,), 1)),
    ]
    return Model(layers, (8, 8, 1), 10)


def make_dataset(model: Model):
    rng = np.random.default_rng(DATA_SEED)
    xs = rng.normal(0, 1, size=(N_ROWS, 64)).astype(np.float32)
    labels = forward_batch(model, xs)[0].argmax(axis=1)
    flips = np.flatnonzero(labels != forward_batch(quantize_model(model), xs)[0].argmax(axis=1))
    assert flips.size, "fixture seed must produce at least one argmax flip"
    if 7 not in flips:
        xs[[7, flips[0]]] = xs[[flips[0], 7]]
    return xs, forward_batch(model, xs)[0].argmax(axis=1).tolist()


def write_goldens():
    golden = ROOT / "tests" / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    lp_a = NeuronLP(0, 0, np.array([1.0, -2.0]), 0.0, [[1.0, 1.0]], [1], [0], 1e-3)
    export_lp(lp_a, golden / "neuron_a.lp")
    lp_b = NeuronLP(5, 3, np.array([0.25, -0.75, 1.5]), 0.125,
                    [[1.5, -2.25, 0.5], [-0.5, 0.125, 2.0]], [0, 1], [1, 0],
                    0.01, big_M_bound=2.0)
    export_lp(lp_b, golden / "neuron_b.lp")


def main():
    fixtures = ROOT / "tests" / "fixtures"
    fixtures.mkdir(parents=True, exist_ok=True)
    model = build_conv3()
    save_model(model, fixtures / "conv3.json")
    save_model(quantize_model(model), fixtures / "conv3_quant.json")
    xs, labels = make_dataset(model)
    save_dataset(Dataset(xs, labels, model.num_classes), fixtures / "conv3_val.csv")
    write_goldens()
    print(f"wrote fixtures under {fixtures} and goldens under {ROOT/'tests'/'golden'}")


if __name__ == "__main__":
    main()
