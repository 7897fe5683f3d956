import hashlib
import importlib.util
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
    assert [(r["rung"], r["status"], r["pivots"], r["flips"], r["steps"]) for r in rungs] == [
        ("24", "optimal", 30, 61, 32), ("64", "optimal", 34, 130, 36)]
    assert all(r["steps"] >= r["pivots"] for r in rungs)
    assert all(abs(r["gap"]) <= 1e-9 for r in rungs)
    assert [r["path_digest"] for r in rungs] == [
        "502e89961339bf1c8ccbdd59e8f793fb8700ed7821b0ff06c204fc24fd2d6ef7",
        "1ebcfca199f56010d6a0fdc983a05227010b748f13ce45b5539fca832b33e059"]


def test_path_digest_hashes_every_pivot_in_order(monkeypatch):
    import qrepair.simplex as simplex
    from conftest import repair_lp
    from qrepair.lp import solve_lp

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # what the script sets on import, undone after
    spec = importlib.util.spec_from_file_location("lp_ladder", SCRIPT)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    pivots, steps, real, real_step = [], [], simplex._pivot, simplex._Tableau.dual_step

    def recorded(tableau, row, col, *scratch):
        pivots.append((row, col))
        real(tableau, row, col, *scratch)

    def stepped(tab):
        steps.append(real_step(tab))
        return steps[-1]

    monkeypatch.setattr(simplex, "_pivot", recorded)
    monkeypatch.setattr(simplex._Tableau, "dual_step", stepped)
    lp, solved = repair_lp(24, 64, 1024), []
    digest, count = ladder.pivot_trace(lambda: solved.append(solve_lp(lp, time_budget=60.0)))
    assert simplex._pivot is recorded and simplex._Tableau.dual_step is stepped  # put back
    assert len(pivots) == solved[0].pivots > 0
    want = hashlib.sha256("".join(f"{row},{col};" for row, col in pivots).encode())
    assert digest == want.hexdigest()
    # a step pivots, or ends a phase as optimal
    assert count == len(steps) == len(pivots) + steps.count("optimal") == len(pivots) + 2
    assert ladder.pivot_trace(lambda: None) == (hashlib.sha256().hexdigest(), 0)


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
