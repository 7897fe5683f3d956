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


def _write(tmp_path, name, recs):
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    return path


def _summarize(bench_pairs, tmp_path, *logs, controls=()):
    paths = [_write(tmp_path, f"pairs{i}.jsonl", recs) for i, recs in enumerate(logs)]
    aa = [_write(tmp_path, f"aa{i}.jsonl", recs) for i, recs in enumerate(controls)]
    out = tmp_path / "bench.json"
    bench_pairs.summarize(Namespace(logs=paths, controls=aa, out=out, note=""))
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


@pytest.mark.parametrize("present", ["parent", "change"])
def test_summarize_names_the_side_a_timed_log_lacks(bench_pairs, tmp_path, present):
    # an interrupted run, or one whose other side never ran
    log = [_record(bench_pairs, present, pair, 0, 1.0) for pair in range(2)]
    missing = "change" if present == "parent" else "parent"
    with pytest.raises(SystemExit, match=f"^workload conv3-cli seed 42: the timed runs hold "
                                         f"no {missing} side to compare with$"):
        _summarize(bench_pairs, tmp_path, log)


def test_summarize_gives_each_timed_metric_its_median_change(bench_pairs, tmp_path):
    log = [_record(bench_pairs, side, pair, 0, value)
           for pair, (parent, change) in enumerate([(2.0, 1.0), (2.0, 1.5), (4.0, 3.0)])
           for side, value in (("parent", parent), ("change", change))]
    (entry,) = _summarize(bench_pairs, tmp_path, log)["timed"]
    # change median 1.5 over parent median 2.0
    assert entry["metrics"]["adj_wall_s"]["median_change"] == pytest.approx(-0.25)


def test_summarize_folds_control_logs_into_controls(bench_pairs, tmp_path):
    log = [_record(bench_pairs, "parent", 0, 0, 2.0), _record(bench_pairs, "change", 0, 0, 1.0)]
    aa = [_record(bench_pairs, side, pair, 0, value)
          for pair, (parent, copy) in enumerate([(2.0, 2.2), (2.0, 1.8), (2.0, 2.1)])
          for side, value in (("parent", parent), ("change", copy))]
    bench = _summarize(bench_pairs, tmp_path, log, controls=[aa[:2], aa[2:]])
    assert len(bench["timed"]) == 1 and bench["traced"] == []
    (control,) = bench["controls"]
    assert control["change_is"].startswith("a second copy of the parent (A/A)")
    wall = control["metrics"]["adj_wall_s"]
    assert wall["pairs"] == 3 and wall["change_better_pairs"] == 1
    assert wall["change"]["median"] == 2.1 and wall["median_change"] == pytest.approx(0.05)
    # no control logs, an empty list
    assert _summarize(bench_pairs, tmp_path, log)["controls"] == []


def _pairs(bench_pairs, values, seed=42):
    return [{**_record(bench_pairs, side, pair, 0, value), "seed": seed}
            for pair, (parent, change) in enumerate(values)
            for side, value in (("parent", parent), ("change", change))]


def test_summarize_resolves_a_change_only_beyond_the_noise(bench_pairs, tmp_path):
    faster = _pairs(bench_pairs, [(2.0, 1.8), (2.1, 1.9), (2.0, 1.85), (1.9, 1.7), (2.0, 1.8)])
    (entry,) = _summarize(bench_pairs, tmp_path, faster)["timed"]
    wall = entry["metrics"]["adj_wall_s"]
    # 5 of 5 pairs, and a median difference of 0.2 where the parent's quartiles are equal
    assert wall["resolved"] is True and "control_median_change" not in wall
    # a higher accuracy is the better one, so every pair reads worse
    assert entry["metrics"]["val_accuracy_after"]["resolved"] is False
    # 4 of 5 pairs better is under 9 in 10
    slower_once = _pairs(bench_pairs, [(2.0, 1.8), (2.1, 1.9), (2.0, 1.85), (1.9, 1.7), (2.0, 2.5)])
    (entry,) = _summarize(bench_pairs, tmp_path, slower_once)["timed"]
    assert entry["metrics"]["adj_wall_s"]["change_better_pairs"] == 4
    assert entry["metrics"]["adj_wall_s"]["resolved"] is False
    # better in every pair, but by less than the parent's quartile spread
    spread = _pairs(bench_pairs, [(1.0, 0.99), (2.0, 1.99), (3.0, 2.99)])
    (entry,) = _summarize(bench_pairs, tmp_path, spread)["timed"]
    assert entry["metrics"]["adj_wall_s"]["resolved"] is False


def test_summarize_does_not_resolve_a_change_inside_the_aa_difference(bench_pairs, tmp_path):
    change = _pairs(bench_pairs, [(2.0, 1.96), (2.01, 1.97), (2.0, 1.97)])  # -1.5%
    aa = _pairs(bench_pairs, [(2.0, 1.95), (2.0, 1.96), (2.01, 1.96)])  # -2.0%
    other_seed = _pairs(bench_pairs, [(2.0, 1.95), (2.0, 1.96), (2.01, 1.96)], seed=7)
    alone = _summarize(bench_pairs, tmp_path, change)["timed"][0]["metrics"]["adj_wall_s"]
    assert alone["resolved"] is True
    bench = _summarize(bench_pairs, tmp_path, change, controls=[aa + other_seed])
    wall = bench["timed"][0]["metrics"]["adj_wall_s"]
    assert wall["median_change"] == pytest.approx(-0.015)
    assert wall["control_median_change"] == pytest.approx(-0.02)
    assert wall["resolved"] is False
    # a control of another seed is not this change's noise
    bench = _summarize(bench_pairs, tmp_path, change, controls=[other_seed])
    assert bench["timed"][0]["metrics"]["adj_wall_s"]["resolved"] is True


FAKE_RUN = """\
import json, os, sys
from pathlib import Path
here = Path.cwd()
report = here / "src" / "report.txt"
if report.is_file():  # a checkout without one writes no record
    (here / ".perfbench_out").mkdir(exist_ok=True)
    (here / ".perfbench_out" / "wide-head-seed42-trace0.json").write_text(json.dumps(
        {"outcomes": {"0": {"sha256": report.read_text()}, "1": {"sha256": "b"}}}))
print("a human-readable line first")
print(json.dumps({"cwd": str(here), "script": str(Path(sys.argv[0]).resolve().parent.parent),
                  "side": (here / "src" / "side.txt").read_text(),
                  "fixture": (here / "tests" / "fixtures" / "data.txt").read_text(),
                  "files": sorted(p.name for p in (here / "src").iterdir()),
                  "pad": os.environ.get("BENCH_PAIRS_PAD"), "args": sys.argv[1:]}))
"""


def _checkout(root, side, report="a"):
    for part in ("src", "perfbench", "tests/fixtures"):
        (root / part).mkdir(parents=True)
    (root / "src" / "side.txt").write_text(side)
    if report is not None:
        (root / "src" / "report.txt").write_text(report)
    (root / "src" / f"only_{side}.py").write_text("")
    (root / "tests" / "fixtures" / "data.txt").write_text(f"{side} fixture")
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    return root


def _run(bench_pairs, tmp_path, name, pairs=4, seed=42, change_report="a"):
    log = tmp_path / f"{name}.jsonl"
    bench_pairs.run(Namespace(
        parent=_checkout(tmp_path / name / "parent", "parent"),
        change=_checkout(tmp_path / name / "other-and-longer-change", "change", change_report),
        workload="wide-head", seed=seed, pairs=pairs, seconds=1.0, trace=0, log=log,
        run_dir=tmp_path / "run"))
    return [json.loads(line) for line in log.read_text().splitlines()]


def test_run_times_both_sides_from_one_directory(bench_pairs, tmp_path):
    recs = _run(bench_pairs, tmp_path, "a")
    assert [(r["pair"], r["side"]) for r in recs] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
        (2, "parent"), (2, "change"), (3, "change"), (3, "parent")]
    run_dir = str((tmp_path / "run").resolve())
    for r in recs:
        got = r["result"]
        assert r["rc"] == 0 and got["cwd"] == got["script"] == run_dir
        # each run reads its own side's code and fixtures, none of the other side's
        assert got["side"] == r["side"] and got["fixture"] == f"{r['side']} fixture"
        assert got["files"] == sorted(["report.txt", "side.txt", f"only_{r['side']}.py"])
        assert got["args"] == ["--workload", "wide-head", "--seed", "42", "--seconds", "1.0",
                               "--trace", "0"]


def test_run_gives_both_runs_of_a_pair_one_seeded_pad(bench_pairs, tmp_path):
    recs = _run(bench_pairs, tmp_path, "a", pairs=6)
    pads = [r["pad"] for r in recs]
    assert all(0 <= pad <= bench_pairs.MAX_PAD for pad in pads)
    assert all(r["result"]["pad"] == "x" * r["pad"] for r in recs)
    assert pads[::2] == pads[1::2] and len(set(pads)) > 1
    # the workload seed draws the pads
    assert [r["pad"] for r in _run(bench_pairs, tmp_path, "b", pairs=6)] == pads
    assert [r["pad"] for r in _run(bench_pairs, tmp_path, "c", pairs=6, seed=7)] != pads


@pytest.mark.parametrize("change_report,same", [("a", True), ("c", False), (None, False)],
                         ids=["same", "different", "no_record"])
def test_run_logs_each_report_hash_and_summarize_compares_them(bench_pairs, tmp_path,
                                                               change_report, same):
    recs = _run(bench_pairs, tmp_path, "a", change_report=change_report)
    written = None if change_report is None else {"0": change_report, "1": "b"}
    for r in recs:
        # the parent's record from the run before does not stand in for a missing one
        assert r["reports"] == ({"0": "a", "1": "b"} if r["side"] == "parent" else written)
    timed = [{**r, "result": _record(bench_pairs, r["side"], r["pair"], 0, 1.0)["result"]}
             for r in recs]
    (entry,) = _summarize(bench_pairs, tmp_path, timed)["timed"]
    assert entry["same_reports"] is same


@pytest.mark.parametrize("trace", [0, 1])
def test_summarize_needs_the_same_reports_from_both_sides(bench_pairs, tmp_path, trace):
    group = "traced" if trace else "timed"
    log = [{**_record(bench_pairs, side, 0, trace, 1.0), "reports": {"0": "a"}}
           for side in ("parent", "change")]
    assert _summarize(bench_pairs, tmp_path, log)[group][0]["same_reports"] is True
    # a log written before runs kept their reports
    bare = [_record(bench_pairs, side, 0, trace, 1.0) for side in ("parent", "change")]
    assert _summarize(bench_pairs, tmp_path, bare)[group][0]["same_reports"] is False
    if trace:  # one side alone (a timed entry needs both)
        assert _summarize(bench_pairs, tmp_path, log[:1])[group][0]["same_reports"] is False
