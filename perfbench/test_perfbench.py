"""Tests of the benchmark itself, on its tiny smoke inputs.

Run with `python -m pytest perfbench` from the root of a checkout.
"""

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from metrics import END_TO_END, per_layer_specs  # noqa: E402
from probe import PERIOD_S, SpeedProbe  # noqa: E402
from run import tail  # noqa: E402
from tracer import HOT_TARGETS, SPAN_TARGETS, Tracer  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def summary(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_specs()
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == ["blobs-experiment", "conv3-cli",
                                                      "wide-head"]


@pytest.mark.parametrize("workload", ["blobs-experiment", "conv3-cli", "wide-head"])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    out = summary(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                            "--trace", "0", "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [name for name, _, _ in END_TO_END]
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    out = summary(run_bench("--workload", "conv3-cli", "--seed", "3", "--seconds", "1",
                            "--trace", "1", "--smoke"))
    assert out["correct"] is True
    values = {k: v["value"] for k, v in out["metrics"].items()}
    assert list(values) == [name for name, _, _ in per_layer_specs()]
    assert values["cli.cli_main.calls"] == 1
    assert values["model.apply_layer.conv2d.calls"] > 0
    assert values["simplex.pivots"] > 0
    # requantize loses constraints today; the count is reported, not required
    assert 0 <= values["repair.constraints_held"] <= values["repair.constraints_total"]
    assert values["repair.constraints_total"] > 0
    assert values["lp.build_neuron_lp.calls"] == 10  # every neuron of a 10-wide head


def test_tracer_wraps_names_imported_elsewhere_and_restores_them():
    modules = {m for m, _, _ in SPAN_TARGETS + HOT_TARGETS}
    for name in modules:
        importlib.import_module(name)
    before = {(name, attr): value for name in modules
              for attr, value in vars(sys.modules[name]).items()}
    tracer = Tracer().install()
    try:
        lp = sys.modules["qrepair.lp"]
        quantize = sys.modules["qrepair.quantize"]
        assert hasattr(lp.capture_activations, "__wrapped__")  # imported from model
        assert hasattr(quantize.apply_layer, "__wrapped__")  # imported from model
        assert hasattr(sys.modules["qrepair.cli"].repair, "__wrapped__")
    finally:
        tracer.restore()
    after = {(name, attr): value for name in modules
             for attr, value in vars(sys.modules[name]).items()}
    assert all(after[key] is value for key, value in before.items())
    assert not hasattr(sys.modules["qrepair.model"].Tensor.__post_init__, "__wrapped__")


def test_speed_probe_samples_the_block_and_takes_its_passes_out():
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 20 * PERIOD_S:
            pass
        wall = time.perf_counter() - t0
    assert probe.inside >= 5 and len(probe.passes) == probe.inside
    assert 0 < probe.busy() < wall / 4
    assert probe.adjust(wall) == pytest.approx((wall - probe.busy()) * probe.speed())
    with SpeedProbe() as short:  # shorter than one period: one pass just after
        pass
    assert short.inside == 0 and len(short.passes) == 1 and short.busy() == 0


def test_tail_percentile_needs_ten_samples_above_it():
    assert tail(list(range(10))) is None
    assert tail(list(range(20))) == (50, 9)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "wide-head", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
