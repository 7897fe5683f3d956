import importlib.util
import json
from argparse import Namespace
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(bench_pairs, side, pair, trace, value):
    keys = bench_pairs.TRACE_KEYS if trace else ("adj_wall_s", "val_accuracy_after")
    metrics = {k: {"value": value, "unit": "s"} for k in keys}
    return {"workload": "conv3-cli", "seed": 42, "pair": pair, "side": side, "trace": trace,
            "rc": 0, "result": {"correct": True, "failed": 0, "attempted": 3,
                                "metrics": metrics}}


def _summarize(bench_pairs, tmp_path, *logs):
    paths = []
    for i, recs in enumerate(logs):
        paths.append(tmp_path / f"pairs{i}.jsonl")
        paths[-1].write_text("".join(json.dumps(r) + "\n" for r in recs))
    out = tmp_path / "bench.json"
    bench_pairs.summarize(Namespace(logs=paths, out=out, note=""))
    return json.loads(out.read_text())


def test_summarize_keeps_every_traced_pair(bench_pairs, tmp_path):
    assert "model.apply_layer.conv2d.s" in bench_pairs.TRACE_KEYS
    # two traced pairs in one log, a third from a second `run` whose pair
    # numbers start again at 0
    first = [_record(bench_pairs, "parent", 0, 1, 5.0), _record(bench_pairs, "change", 0, 1, 4.0),
             _record(bench_pairs, "change", 1, 1, 2.0), _record(bench_pairs, "parent", 1, 1, 3.0)]
    second = [_record(bench_pairs, "parent", 0, 1, 1.0), _record(bench_pairs, "change", 0, 1, 9.0)]
    (entry,) = _summarize(bench_pairs, tmp_path, first, second)["traced"]
    key = "model.apply_layer.conv2d.s"
    assert entry["runs"] == {"parent": 3, "change": 3}
    assert [(p["pair"], p["parent"][key], p["change"][key]) for p in entry["per_pair"]] == [
        (0, 5.0, 4.0), (1, 3.0, 2.0), (0, 1.0, 9.0)]
    assert entry["per_call"]["parent"][key] == 3.0 and entry["per_call"]["change"][key] == 4.0


def test_summarize_counts_every_timed_pair(bench_pairs, tmp_path):
    log = [_record(bench_pairs, side, pair, 0, value)
           for pair, (parent, change) in enumerate([(2.0, 1.0), (2.0, 3.0), (2.0, 1.5)])
           for side, value in (("parent", parent), ("change", change))]
    repeat = [_record(bench_pairs, "change", 0, 0, 1.0), _record(bench_pairs, "parent", 0, 0, 2.0)]
    (entry,) = _summarize(bench_pairs, tmp_path, log, repeat)["timed"]
    wall = entry["metrics"]["adj_wall_s"]
    assert wall["pairs"] == 4 and wall["change_better_pairs"] == 3
    assert wall["parent"]["median"] == 2.0 and wall["change"]["median"] == 1.25
    # a higher accuracy is the better one
    assert entry["metrics"]["val_accuracy_after"]["change_better_pairs"] == 1


def test_summarize_takes_a_single_timed_pair(bench_pairs, tmp_path):
    log = [_record(bench_pairs, "parent", 0, 0, 2.0), _record(bench_pairs, "change", 0, 0, 1.0)]
    (entry,) = _summarize(bench_pairs, tmp_path, log)["timed"]
    wall = entry["metrics"]["adj_wall_s"]
    assert wall["change"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 1}
    assert wall["pairs"] == 1 and wall["change_better_pairs"] == 1
