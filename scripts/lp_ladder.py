#!/usr/bin/env python3
"""Time the simplex on a ladder of seeded repair LPs and record it.

Each rung is one dense-neuron repair LP with m inputs and k=64
status-disagreeing tests (`repair_lp` in tests/conftest.py, seed 1000 + m),
solved by `lp.solve_lp`. For each rung the record holds the median seconds
over the repeats, the pivot count and M as float.hex. Runs of different
checkouts go under their own --label in one file, so the same LPs can be
compared across solver versions:

    python3 scripts/lp_ladder.py --label change --out BENCH_3.json
    python3 scripts/lp_ladder.py --label parent --src ../parent/src --out BENCH_3.json

--src selects the qrepair sources to time (default: this checkout's src/);
the LPs always come from this checkout's tests/conftest.py, which needs
pytest importable. On a 2-vCPU Xeon VM the whole ladder took 35 s with a
per-row pivot loop and 23 s with whole-array pivots. BLAS runs on one thread. Pivots are counted by wrapping `qrepair.simplex._pivot`, the
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
RUNGS = (24, 64, 128, 256)
K = 64
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
            sol = qrepair.lp.solve_lp(lp, time_budget=600.0)
            times.append(time.perf_counter() - t0)
            pivots.add(count[0])
    finally:
        qrepair.simplex._pivot = pivot
    if len(pivots) != 1:
        raise RuntimeError(f"m={m}: pivot count varies between repeats: {pivots}")
    return {"m": m, "k": K, "status": sol.status, "seconds": statistics.median(times),
            "repeats": len(times), "pivots": pivots.pop(),
            "M": None if sol.M is None else float(sol.M).hex()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this run in the record")
    parser.add_argument("--src", default=str(ROOT / "src"), help="qrepair sources to time")
    parser.add_argument("--out", required=True, help="JSON record to create or update")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "tests")]
    import numpy as np

    started = time.perf_counter()
    rungs = []
    for m in RUNGS:
        rungs.append(run_rung(m))
        print(f"m={m:4d}  {rungs[-1]['seconds']:8.3f} s  pivots {rungs[-1]['pivots']:6d}"
              f"  M {rungs[-1]['M']}", flush=True)

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
        print("m     " + "  ".join(f"{label:>10}" for label in labels) + "  same pivots and M")
        for i, m in enumerate(RUNGS):
            row = [runs[label]["rungs"][i] for label in labels]
            same = len({(r["pivots"], r["M"]) for r in row}) == 1
            print(f"{m:<5} " + "  ".join(f"{r['seconds']:10.3f}" for r in row) + f"  {same}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
