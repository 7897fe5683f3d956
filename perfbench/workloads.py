"""The benchmark's three workloads: input generation and the timed call.

Each workload holds a fixed list of instances derived from the benchmark
seed. `setup` generates and writes every instance's inputs; `call` is the
timed region and goes through qrepair's public entry points, looked up on
their modules at call time so that the tracer's wrappers are seen; `collect`
reads the canonical report afterwards, outside the timed region.

Why these three, and why each is shaped the way it is, is recorded in
perfbench/README.md.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONV3_FIXTURE = Path("tests") / "fixtures" / "conv3.json"


@dataclass
class Outcome:
    """What one timed call produced, read after the timed region."""

    report: bytes  # the canonical report, byte for byte
    accuracy: float  # validation accuracy of the repaired model
    fidelity: float  # float-vs-repaired agreement on the validation set
    neurons: list  # [neuron, status, M] from the canonical report(s)
    error: str | None = None  # why the call's output is not acceptable


def _mod(name):
    return importlib.import_module(f"qrepair.{name}")


def _neurons(report: dict) -> list:
    return [[n["neuron"], n["status"], n["M"]] for n in report["neurons"]]


def _run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return _mod("cli").cli_main(argv)


class Workload:
    name = ""
    sizes: dict = {}
    smoke_sizes: dict = {}  # tiny inputs for the benchmark's own tests

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool):
        self.root, self.work, self.seed = root, work, seed
        self.size = self.smoke_sizes if smoke else self.sizes
        self.instances: list[str] = []

    def setup(self) -> None:
        """Generate and write every instance's inputs."""

    def prepare(self, instance: str) -> None:
        """Untimed clean-up before a call."""

    def call(self, instance: str):
        raise NotImplementedError

    def collect(self, instance: str, raw) -> Outcome:
        raise NotImplementedError


class BlobsExperiment(Workload):
    """`qrepair experiment --preset mlp-blobs` with the default repair config.

    The experiment seed is the whole input of the experiment, and its cost
    swings 2.2-8.3 s across seeds 100-124 (the random damage decides the LP
    sizes), so every run executes the two documented experiment seeds: 42
    (the README's) and 7 (a different damage rung). The benchmark seed only
    orders them.
    """

    name = "blobs-experiment"
    sizes = {"seeds": (42, 7), "trials": 10}
    smoke_sizes = {"seeds": (42,), "trials": 1}

    def setup(self):
        seeds = self.size["seeds"]
        order = np.random.default_rng(self.seed).permutation(len(seeds))
        self.instances = [str(seeds[i]) for i in order]

    def _out(self, instance):
        return self.work / f"blobs-{instance}"

    def prepare(self, instance):
        shutil.rmtree(self._out(instance), ignore_errors=True)

    def call(self, instance):
        return _run_cli(["experiment", "--preset", "mlp-blobs", "--seed", instance,
                         "--trials", str(self.size["trials"]),
                         "--out", str(self._out(instance))])

    def collect(self, instance, exit_code):
        out = self._out(instance)
        raw = (out / "experiment_report.json").read_bytes()
        report = json.loads(raw)
        neurons = []
        for metric in report["strategies"]:
            if metric != "random":
                neurons += _neurons(json.loads((out / f"repair_{metric}.json").read_text()))
        best = report["strategies"][report["best_metric"]]
        error = None if exit_code == 0 else f"experiment exited with {exit_code}"
        return Outcome(raw, report["best_accuracy"], best["fidelity_after"], neurons, error)


class Conv3Cli(Workload):
    """`qrepair repair --patch-mode requantize` on the committed conv3 model.

    Quantization flips about 1.7% of random inputs, so a plain draw of 300
    rows holds anything from 0 to about 10 failing tests, and with none the
    CLI has nothing to repair and exits 2. Every repair set therefore holds
    exactly `failing` of them.
    """

    name = "conv3-cli"
    sizes = {"rows": 300, "failing": 6, "instances": 3}
    smoke_sizes = {"rows": 150, "failing": 3, "instances": 1}

    def setup(self):
        model, data, quantize = _mod("model"), _mod("data"), _mod("quantize")
        rows, n_failing = self.size["rows"], self.size["failing"]
        self.fixture = self.root / CONV3_FIXTURE
        fmodel = model.load_model(self.fixture)
        qmodel = quantize.quantize_model(fmodel)
        self.quant = self.work / "conv3_quant.json"
        quantize.save_qmodel(qmodel, self.quant)

        def label(x, net=fmodel, run=model.forward):
            return model.argmax_label(run(net, x.reshape(8, 8, 1)))

        for j in range(self.size["instances"]):
            # labelled with the float model's own predictions, as the committed
            # fixture rows are (scripts/make_fixtures.py); the repair set takes
            # the first n_failing inputs the quantized model gets wrong and the
            # first rows - n_failing it gets right
            rng = np.random.default_rng([self.seed, j])
            picked, failing = [], 0
            while len(picked) < rows:
                x = rng.normal(0, 1, size=64).astype(np.float32)
                y = label(x)
                fails = y != label(x, qmodel, quantize.quantized_forward)
                if failing < n_failing if fails else len(picked) - failing < rows - n_failing:
                    picked.append((x, y))
                    failing += fails
            val_x = rng.normal(0, 1, size=(rows, 64)).astype(np.float32)
            sets = {"repair": ([x for x, _ in picked], [y for _, y in picked]),
                    "val": (val_x, [label(x) for x in val_x])}
            for name, (xs, ys) in sets.items():
                dataset = data.Dataset(np.asarray(xs), np.asarray(ys), fmodel.num_classes)
                data.save_dataset(dataset, self.work / f"{name}-{j}.csv")
            self.instances.append(str(j))

    def _out(self, instance):
        return self.work / f"out-{instance}"

    def prepare(self, instance):
        shutil.rmtree(self._out(instance), ignore_errors=True)

    def call(self, instance):
        return _run_cli([
            "repair", "--float", str(self.fixture), "--quant", str(self.quant),
            "--repair-set", str(self.work / f"repair-{instance}.csv"),
            "--val", str(self.work / f"val-{instance}.csv"),
            "--patch-mode", "requantize", "--out", str(self._out(instance)),
        ])

    def collect(self, instance, exit_code):
        raw = (self._out(instance) / "repair_report.json").read_bytes()
        report = json.loads(raw)
        error = None if exit_code == 0 else f"repair exited with {exit_code}"
        return Outcome(raw, report["accuracy_after"], report["fidelity_after"],
                       _neurons(report), error)


class WideHead(Workload):
    """`repair.repair(top_n=3)` on a 20-64-10 ReLU MLP: the solver's workload.

    One fixed network and a fixed set of instances; the benchmark seed only
    orders them. A seeded network would swing validation accuracy over
    0.35-0.96, because how hard the sign-flip damage hits depends on the
    network, and even with the network fixed one instance's repaired
    accuracy varies by about 5% with its repair set, so seeded data made the
    accuracy of a 4-instance run spread 3% across seeds.
    """

    name = "wide-head"
    model_seed = 2306
    d_in, d_out = 20, 10
    sizes = {"hidden": 64, "repair_rows": 300, "val_rows": 500, "instances": 4}
    smoke_sizes = {"hidden": 12, "repair_rows": 60, "val_rows": 60, "instances": 1}
    top_n = 3

    def setup(self):
        model, data, experiment = _mod("model"), _mod("data"), _mod("experiment")
        d_in, d_out, hidden = self.d_in, self.d_out, self.size["hidden"]
        n_repair, n_val = self.size["repair_rows"], self.size["val_rows"]
        rng = np.random.default_rng(self.model_seed)

        def he(fan_in, fan_out):
            w = rng.normal(0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            return model.Tensor.from_array(w.astype(np.float32))

        def zeros(n):
            return model.Tensor.from_array(np.zeros(n, np.float32))

        self.fmodel = model.Model([
            model.Layer("dense", he(d_in, hidden), zeros(hidden)),
            model.Layer("relu"),
            model.Layer("dense", he(hidden, d_out), zeros(d_out)),
        ], (d_in,), d_out)
        self.inputs = {}
        for j in range(self.size["instances"]):
            rng_j = np.random.default_rng([self.model_seed, j])
            xs = rng_j.normal(0, 1, size=(n_repair + n_val, d_in)).astype(np.float32)
            labels = [model.argmax_label(model.forward(self.fmodel, x)) for x in xs]
            both = data.Dataset(xs, np.asarray(labels), d_out)
            repair_set = both.subset(range(n_repair))
            val = both.subset(range(n_repair, n_repair + n_val))
            qmodel, _, _ = experiment.damaged_quantized_model(
                self.fmodel, val, repair_set, np.random.SeedSequence(self.model_seed))
            self.inputs[str(j)] = (qmodel, repair_set, val)
        order = np.random.default_rng(self.seed).permutation(self.size["instances"])
        self.instances = [str(j) for j in order]

    def call(self, instance):
        qmodel, repair_set, val = self.inputs[instance]
        repair = _mod("repair")
        return repair.repair(self.fmodel, qmodel, repair_set, val,
                             repair.RepairConfig(top_n=self.top_n))

    def collect(self, instance, result):
        report = result[1].to_dict()
        return Outcome(result[1].to_json().encode(), report["accuracy_after"],
                       report["fidelity_after"], _neurons(report))


WORKLOADS = {w.name: w for w in (BlobsExperiment, Conv3Cli, WideHead)}
