#!/usr/bin/env python3
"""Compare two checkouts with alternating perfbench runs, and summarise them.

`run` times one workload in pairs of `perfbench/run.py` runs, one in each
checkout, swapping which side goes first every pair so that a slow stretch
of the machine hits both sides alike. Each run appends one JSON line (side,
pair, the run's final JSON object) to --log:

    python3 scripts/bench_pairs.py run --parent ../parent --change . \\
        --workload blobs-experiment --seed 42 --pairs 10 --log pairs.jsonl

`summarize` folds one or more logs into a BENCH file: per workload and seed
and per end-to-end metric, each side's median and quartiles, the pairs in
which the change reads better, and the traced per-layer counts of any
`--trace 1` runs, pair by pair (`per_pair`) and as each side's median
(`per_call`):

    python3 scripts/bench_pairs.py summarize pairs.jsonl --out BENCH_4.json

Both checkouts run their own `perfbench/`, so it must be the same code on
both sides.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

TRACE_KEYS = ("lp.solve_lp.calls", "simplex.simplex_solve.calls", "simplex.pivots",
              "lp.optimal", "lp.infeasible", "lp.timeout",
              "repair.constraints_held", "repair.constraints_total",
              "model.apply_layer.conv2d.calls", "model.apply_layer.dense.calls",
              "model.apply_layer.conv2d.s", "evaluate.accuracy.calls",
              "lp.build_neuron_lp.s", "lp.solve_lp.s",
              "lp.cols_max", "simplex.pivots_per_lp_max", "simplex.simplex_solve.s",
              "data.load_dataset.s", "cli.cli_main.s", "experiment.train_mlp.s")
SIDES = ("parent", "change")


def run(args) -> None:
    dirs = {"parent": args.parent, "change": args.change}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=dirs[side], capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            last = lines[-1] if lines else ""
            rec = {"workload": args.workload, "seed": args.seed, "pair": i, "side": side,
                   "trace": args.trace, "rc": proc.returncode,
                   "elapsed": round(time.time() - t0, 1),
                   "result": json.loads(last) if last.startswith("{") else None}
            if args.trace or proc.returncode:
                rec["stdout"], rec["stderr"] = proc.stdout[-20000:], proc.stderr[-3000:]
            with open(args.log, "a") as fh:
                fh.write(json.dumps(rec) + "\n")


def quartiles(values: list) -> dict:
    # statistics.quantiles needs two values before Python 3.13
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive") if values[1:]
                   else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def pair_up(recs: list) -> list:
    """The records as run pairs, {side: record}, in log order. A pair's two
    runs are adjacent in a log, so logs of several `run` calls, whose pair
    numbers repeat, still give every pair."""
    pairs = []
    for r in recs:
        if not pairs or r["side"] in pairs[-1] or r["pair"] != pairs[-1]["pair"]:
            pairs.append({"pair": r["pair"]})
        pairs[-1][r["side"]] = r
    return pairs


def summarize(args) -> None:
    records = [json.loads(line) for path in args.logs for line in open(path)]
    groups = {}
    for rec in records:
        groups.setdefault((rec["workload"], rec["seed"], rec["trace"]), []).append(rec)
    out = {"note": args.note, "timed": [], "traced": []}
    for (workload, seed, trace), recs in sorted(groups.items()):
        entry = {"workload": workload, "seed": seed,
                 "runs": {s: sum(r["side"] == s for r in recs) for s in SIDES},
                 "exit_codes": sorted({r["rc"] for r in recs}),
                 "correct": all(r["result"] and r["result"]["correct"] for r in recs),
                 "failed": {s: sum(r["result"]["failed"] for r in recs if r["side"] == s)
                            for s in SIDES},
                 "attempted": {s: sum(r["result"]["attempted"] for r in recs if r["side"] == s)
                               for s in SIDES}}
        pairs = pair_up(recs)
        if trace:
            counts = [{s: {k: p[s]["result"]["metrics"][k]["value"] for k in TRACE_KEYS}
                       for s in SIDES if s in p} for p in pairs]
            entry["per_pair"] = [{"pair": p["pair"], **c} for p, c in zip(pairs, counts)]
            entry["per_call"] = {s: {k: statistics.median(c[s][k] for c in counts if s in c)
                                     for k in TRACE_KEYS}
                                 for s in SIDES if entry["runs"][s]}
            out["traced"].append(entry)
            continue
        metrics = {}
        for name, spec in recs[0]["result"]["metrics"].items():
            side_values = {s: [r["result"]["metrics"][name]["value"] for r in recs
                               if r["side"] == s] for s in SIDES}
            lower = name not in ("val_accuracy_after", "val_fidelity_after")
            both = [[p[s]["result"]["metrics"][name]["value"] for s in SIDES]
                    for p in pairs if all(s in p for s in SIDES)]
            better = sum(1 for parent, change in both
                         if parent != change and (change < parent) == lower)
            metrics[name] = {"unit": spec["unit"],
                             **{s: quartiles(v) for s, v in side_values.items()},
                             "change_better_pairs": better, "pairs": len(pairs)}
        entry["metrics"] = metrics
        out["timed"].append(entry)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="alternating parent/change runs of one workload")
    p_run.add_argument("--parent", required=True, help="checkout of the parent commit")
    p_run.add_argument("--change", required=True, help="checkout of the change")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--seed", type=int, default=42)
    p_run.add_argument("--pairs", type=int, default=10)
    p_run.add_argument("--seconds", type=float, default=30.0)
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_run.add_argument("--log", required=True, help="JSON-lines file to append to")
    p_sum = sub.add_parser("summarize", help="fold run logs into a BENCH file")
    p_sum.add_argument("logs", nargs="+")
    p_sum.add_argument("--out", required=True)
    p_sum.add_argument("--note", default="", help="machine and settings, kept in the file")
    args = parser.parse_args()
    if args.command == "run":
        run(args)
    else:
        summarize(args)


if __name__ == "__main__":
    main()
