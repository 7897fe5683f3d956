import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "lp_ladder.py"


def test_ladder_records_the_counts_of_each_rung(tmp_path):
    out = tmp_path / "ladder.json"
    run = subprocess.run([sys.executable, str(SCRIPT), "--label", "test", "--rungs", "24,64",
                          "--out", str(out)], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    rungs = json.loads(out.read_text())["lp_ladder"]["test"]["rungs"]
    assert [(r["rung"], r["status"], r["pivots"], r["flips"]) for r in rungs] == [
        ("24", "optimal", 30, 61), ("64", "optimal", 34, 130)]
    assert all(abs(r["gap"]) <= 1e-9 for r in rungs)


def test_a_head_neuron_that_times_out_fails_the_run(tmp_path):
    # a zero budget times every head LP out; the shared record keeps no
    # timeout, so the statuses must come from the report
    out = tmp_path / "ladder.json"
    code = "\n".join([
        "import importlib.util, sys",
        f"spec = importlib.util.spec_from_file_location('lp_ladder', {str(SCRIPT)!r})",
        "ladder = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(ladder)",
        "ladder.BUDGET_S = 0.0",
        f"sys.exit(ladder.main(['--label', 'test', '--rungs', 'head', '--out', {str(out)!r}]))"])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    (head,) = json.loads(out.read_text())["lp_ladder"]["test"]["rungs"]
    assert head["status"] == "timeout,timeout,timeout"
    assert (head["pivots"], head["flips"], head["M"], head["gap"]) == (0, 0, [None] * 3, None)
