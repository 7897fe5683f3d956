#!/usr/bin/env python3
"""Time the simplex on a ladder of seeded repair LPs and record it.

Each rung is one dense-neuron repair LP with m inputs and k=64
status-disagreeing tests (`repair_lp` in tests/conftest.py, seed 1000 + m),
solved by `lp.solve_lp` with a 120 s budget. For each rung the record holds
the status, the median seconds over the repeats, the pivot count, M as
float.hex and the certificate gap (M - bound) / M against the LP's dual
bound (`LPSolution.bound`; null for sources that give none); a rung that
runs past the budget is recorded as a timeout. Runs
of different checkouts go under their own --label in one file, so the same
LPs can be compared across solver versions:

    python3 scripts/lp_ladder.py --label change --out BENCH_7.json
    python3 scripts/lp_ladder.py --label parent --src ../parent/src --out BENCH_7.json
    python3 scripts/lp_ladder.py --label ci --rungs 24,64,256 --out ladder.json

--src selects the qrepair sources to time (default: this checkout's src/);
the LPs always come from this checkout's tests/conftest.py, which needs
pytest importable. --rungs picks the widths (default: all). The exit status
is 1 when a rung is not optimal or its gap is above 1e-9, after the record
is written. BLAS runs on
one thread. Pivots are counted by wrapping `qrepair.simplex._pivot`, the
module global the solver pivots through.
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
RUNGS = (24, 64, 128, 256, 512, 1024, 1280, 2048)
MAX_GAP = 1e-9
K = 64
BUDGET_S = 120.0
REPEAT_S = 2.0  # repeat a rung until this much time has passed, up to 5 runs


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_rung(m: int) -> dict:
    import qrepair.lp
    import qrepair.simplex
    from conftest import repair_lp

    lp = repair_lp(m, K, 1000 + m)
    pivot = qrepair.simplex._pivot
    count = [0]

    def counting_pivot(tableau, row, col):
        count[0] += 1
        pivot(tableau, row, col)

    times, pivots = [], set()
    qrepair.simplex._pivot = counting_pivot
    try:
        while len(times) < 5 and (not times or sum(times) < REPEAT_S):
            count[0] = 0
            t0 = time.perf_counter()
            sol = qrepair.lp.solve_lp(lp, time_budget=BUDGET_S)
            times.append(time.perf_counter() - t0)
            pivots.add(count[0])
    finally:
        qrepair.simplex._pivot = pivot
    if len(pivots) != 1:
        raise RuntimeError(f"m={m}: pivot count varies between repeats: {pivots}")
    gap = None
    if getattr(sol, "bound", None) is not None:
        gap = (sol.M - sol.bound) / sol.M if sol.M else 0.0
    return {"m": m, "k": K, "status": sol.status, "seconds": statistics.median(times),
            "repeats": len(times), "pivots": pivots.pop(),
            "M": None if sol.M is None else float(sol.M).hex(), "gap": gap}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this run in the record")
    parser.add_argument("--src", default=str(ROOT / "src"), help="qrepair sources to time")
    parser.add_argument("--out", required=True, help="JSON record to create or update")
    parser.add_argument("--rungs", default=",".join(map(str, RUNGS)),
                        help="comma-separated widths m to run (default: all)")
    args = parser.parse_args(argv)
    widths = [int(m) for m in args.rungs.split(",")]

    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "tests")]
    import numpy as np

    started = time.perf_counter()
    rungs = []
    for m in widths:
        rungs.append(run_rung(m))
        print(f"m={m:4d}  {rungs[-1]['status']:8s} {rungs[-1]['seconds']:8.3f} s"
              f"  pivots {rungs[-1]['pivots']:6d}  M {rungs[-1]['M']}  gap {rungs[-1]['gap']}",
              flush=True)

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
        print("m     " + "  ".join(f"{label:>10}" for label in labels) + "  M within 1e-9")
        for m in widths:
            row = [next((r for r in runs[label]["rungs"] if r["m"] == m), None)
                   for label in labels]
            ms = [float.fromhex(r["M"]) for r in row if r and r["M"]]
            same = len(ms) == len(row) and max(ms) - min(ms) <= 1e-9 * max(ms)
            print(f"{m:<5} " + "  ".join(f"{r['seconds']:10.3f}" if r else f"{'-':>10}"
                                         for r in row) + f"  {same}")
    certified = all(r["gap"] is None or r["gap"] <= MAX_GAP for r in rungs)
    return 0 if certified and all(r["status"] == "optimal" for r in rungs) else 1


if __name__ == "__main__":
    sys.exit(main())
