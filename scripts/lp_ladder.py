#!/usr/bin/env python3
"""Time the simplex on a ladder of seeded repair LPs and record it.

Each numbered rung is one dense-neuron repair LP with m inputs and k=64
status-disagreeing tests (`repair_lp` in tests/conftest.py, seed 1000 + m),
solved by `lp.solve_lp` with a 120 s budget. The `head` rung is a whole
`repair.repair(top_n=3)` of a dense 1,280 -> 10 head (the width of
MobileNetV2's last layer) over ReLU'd normal features: 1,000 repair and
1,000 validation rows labelled by the float model, quantized and damaged by
`experiment.damaged_quantized_model` (`head_parts`). For each rung the
record holds the status, the median seconds over the repeats, the pivot and
bound-flip counts (`LPSolution.pivots` and `.flips`, summed over one run's
solutions), M as float.hex and the certificate gap (M - bound) / M against
the LP's dual bound (`LPSolution.bound`; null when not optimal). The head
rung runs `repair.prepare`, then `repair.repair` on the record it returns
(the work `repair` does alone), and holds each neuron's status and M from
the report, in report order, the largest gap over the solutions in the
record and the validation accuracy after repair. A rung that runs past the
budget is recorded as a timeout. Runs of different checkouts go under their
own --label in one file, so the same LPs can be compared across solver
versions:

    python3 scripts/lp_ladder.py --label change --out BENCH_7.json
    python3 scripts/lp_ladder.py --label parent --src ../parent/src --out BENCH_7.json
    python3 scripts/lp_ladder.py --label ci --rungs 24,64,256 --out ladder.json

--src selects the qrepair sources to time (default: this checkout's src/);
it must name a checkout whose `LPSolution` carries `pivots` and `flips`, as
older ones lack the fields. The LPs always come from this checkout's
tests/conftest.py, which needs pytest importable. --rungs picks the rungs
(default: all). The exit status is 1 when a rung (or a head neuron) is not
optimal or its gap is above 1e-9, after the record is written. BLAS runs on
one thread.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parents[1]
RUNGS = ("24", "64", "128", "256", "512", "1024", "1280", "2048", "head")
MAX_GAP = 1e-9
K = 64
BUDGET_S = 120.0
REPEAT_S = 2.0  # repeat a rung until this much time has passed, up to 5 runs
HEAD_SEED = HEAD_WIDTH = 1280


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def timed(name, call) -> tuple:
    """Repeat `call`, which returns a result and the LP solutions it made,
    until REPEAT_S has passed, at most 5 times; the last result and
    solutions, the median seconds, the repeats, and the pivots and flips
    summed over one run's solutions."""
    times, counts = [], set()
    while len(times) < 5 and (not times or sum(times) < REPEAT_S):
        t0 = time.perf_counter()
        out, solved = call()
        times.append(time.perf_counter() - t0)
        counts.add((sum(s.pivots for s in solved if s), sum(s.flips for s in solved if s)))
    if len(counts) != 1:
        raise RuntimeError(f"{name}: pivot and flip counts vary between repeats: {counts}")
    return out, solved, statistics.median(times), len(times), *counts.pop()


def gap(sol):
    if sol is None or sol.bound is None:
        return None
    return (sol.M - sol.bound) / sol.M if sol.M else 0.0


def run_rung(m: int) -> dict:
    from conftest import repair_lp
    from qrepair.lp import solve_lp

    lp = repair_lp(m, K, 1000 + m)
    _, (sol,), seconds, repeats, pivots, flips = timed(
        m, lambda: (None, [solve_lp(lp, time_budget=BUDGET_S)]))
    return {"rung": str(m), "m": m, "k": K, "status": sol.status, "seconds": seconds,
            "repeats": repeats, "pivots": pivots, "flips": flips,
            "M": None if sol.M is None else float(sol.M).hex(), "gap": gap(sol)}


def head_parts():
    """A dense HEAD_WIDTH -> 10 head (He weights, seed HEAD_SEED), its damaged
    quantized twin, and 1,000 repair and 1,000 validation rows of ReLU'd
    normal features labelled by the float model."""
    import numpy as np
    from qrepair.data import Dataset
    from qrepair.experiment import damaged_quantized_model
    from qrepair.model import Layer, Model, Tensor, forward_batch

    rng = np.random.default_rng(HEAD_SEED)
    w = rng.normal(0, np.sqrt(2.0 / HEAD_WIDTH), size=(HEAD_WIDTH, 10)).astype(np.float32)
    fmodel = Model([Layer("dense", Tensor.from_array(w),
                          Tensor.from_array(np.zeros(10, np.float32)))], (HEAD_WIDTH,), 10)
    xs = np.maximum(rng.normal(size=(2000, HEAD_WIDTH)), 0.0).astype(np.float32)
    both = Dataset(xs, np.argmax(forward_batch(fmodel, xs)[0], axis=1), 10)
    repair_set, val = both.subset(range(1000)), both.subset(range(1000, 2000))
    qmodel, _, _ = damaged_quantized_model(fmodel, val, repair_set,
                                           np.random.SeedSequence(HEAD_SEED))
    return fmodel, qmodel, repair_set, val


def run_head() -> dict:
    from qrepair.repair import RepairConfig, prepare, repair

    parts, config = head_parts(), RepairConfig(top_n=3, time_budget=BUDGET_S)

    def call():  # what repair(*parts, config) does, keeping its shared record
        shared = prepare(*parts, config)
        report = repair(*parts, config, shared=shared)[1]
        return report, [shared.solutions.get(r.neuron) for r in report.records]

    report, solved, seconds, repeats, pivots, flips = timed("head", call)
    statuses, gaps = [r.status for r in report.records], [gap(sol) for sol in solved]
    return {"rung": "head", "m": HEAD_WIDTH, "k": None,
            "status": "optimal" if all(s == "optimal" for s in statuses) else ",".join(statuses),
            "seconds": seconds, "repeats": repeats, "pivots": pivots, "flips": flips,
            "M": [None if r.M is None else float(r.M).hex() for r in report.records],
            "gap": None if None in gaps else max(gaps),
            "accuracy_after": report.accuracy_after}


def same_M(rows) -> bool:
    """Whether every run gave each rung's M (each neuron's, on the head) within 1e-9."""
    ms = [r["M"] if isinstance(r["M"], list) else [r["M"]] for r in rows]
    if len({len(m) for m in ms}) != 1:
        return False
    for values in zip(*ms):
        if None in values:
            if any(v is not None for v in values):
                return False
            continue
        values = [float.fromhex(v) for v in values]
        if max(values) - min(values) > 1e-9 * max(values):
            return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this run in the record")
    parser.add_argument("--src", default=str(ROOT / "src"), help="qrepair sources to time")
    parser.add_argument("--out", required=True, help="JSON record to create or update")
    parser.add_argument("--rungs", default=",".join(RUNGS),
                        help="comma-separated rungs to run: widths m, or head (default: all)")
    args = parser.parse_args(argv)
    names = args.rungs.split(",")

    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "tests")]
    import numpy as np

    started = time.perf_counter()
    rungs = []
    for name in names:
        rungs.append(run_head() if name == "head" else run_rung(int(name)))
        r = rungs[-1]
        print(f"{name:>5}  {r['status']:8s} {r['seconds']:8.3f} s  pivots {r['pivots']:6d}"
              f"  flips {r['flips']:6d}  M {r['M']}  gap {r['gap']}", flush=True)

    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    record.setdefault("lp_ladder", {})[args.label] = {
        "machine": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "blas_threads": 1},
        "total_s": round(time.perf_counter() - started, 3),
        "rungs": rungs,
    }
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    runs = record["lp_ladder"]
    if len(runs) > 1:
        labels = sorted(runs)
        print("rung  " + "  ".join(f"{label:>10}" for label in labels) + "  M within 1e-9")
        for name in names:
            row = [next((r for r in runs[label]["rungs"]
                         if r.get("rung", str(r["m"])) == name), None) for label in labels]
            same = None not in row and same_M(row)
            print(f"{name:<5} " + "  ".join(f"{r['seconds']:10.3f}" if r else f"{'-':>10}"
                                         for r in row) + f"  {same}")
    certified = all(r["gap"] is None or r["gap"] <= MAX_GAP for r in rungs)
    return 0 if certified and all(r["status"] == "optimal" for r in rungs) else 1


if __name__ == "__main__":
    sys.exit(main())
