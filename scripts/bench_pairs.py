#!/usr/bin/env python3
"""Compare two checkouts with alternating perfbench runs, and summarise them.

`run` times one workload in pairs of `perfbench/run.py` runs, one of each
checkout, swapping which side goes first every pair so that a slow stretch
of the machine hits both sides alike. Both sides run from one path: before
each run, the side's `src/`, `perfbench/` and `tests/fixtures/` are copied
into --run-dir and `perfbench/run.py` runs there, because the length of the
paths and of the environment moves the process's memory layout, and with it
the time (Mytkowicz et al., ASPLOS 2009). The layout is also varied on
purpose, as Stabilizer does (Curtsinger and Berger, ASPLOS 2013): each pair
draws one environment pad of 0-4,096 bytes, seeded by the workload seed, and
both of its runs get it in PAD_VAR, so the layout's effect is noise that the
pairs average out instead of a bias. Each run appends one JSON line (side,
pair, pad, the run's final JSON object and `reports`, the report sha256 of
each instance from the record the run wrote under .perfbench_out/, or null
when it wrote none) to --log:

    python3 scripts/bench_pairs.py run --parent ../parent --change . \\
        --workload blobs-experiment --seed 42 --pairs 10 --log pairs.jsonl \\
        --run-dir /tmp/bench-run

`summarize` folds one or more logs into a BENCH file: per workload and seed
and per end-to-end metric, each side's median and quartiles, the change's
median over the parent's minus 1 (`median_change`), the pairs in which the
change reads better, and the traced per-layer counts of any `--trace 1`
runs, pair by pair (`per_pair`) and as each side's median (`per_call`).
Each entry's `same_reports` is true when every run of both sides wrote the
same report sha256 for each instance.
`--controls` folds A/A logs, runs of the parent against a second copy of
it, the same way into the `controls` list, as the noise to read the
change against. Each metric is `resolved` when the change reads better in at
least 9 of 10 pairs, its median differs from the parent's by more than the
parent's interquartile range and, where a control of the same workload and
seed exists, its `median_change` is larger in size than the control's
(`control_median_change`, recorded beside it):

    python3 scripts/bench_pairs.py summarize pairs.jsonl --controls aa.jsonl \\
        --out BENCH_4.json

Each side runs its own `perfbench/`, so it must be the same code on both
sides.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TRACE_KEYS = ("lp.solve_lp.calls", "simplex.simplex_solve.calls", "simplex.pivots",
              "lp.optimal", "lp.infeasible", "lp.timeout",
              "repair.constraints_held", "repair.constraints_total",
              "model.apply_layer.conv2d.calls", "model.apply_layer.dense.calls",
              "model.apply_layer.conv2d.s", "evaluate.accuracy.calls",
              "lp.build_neuron_lp.s", "lp.solve_lp.s",
              "lp.cols_max", "simplex.pivots_per_lp_max", "simplex.simplex_solve.s",
              "data.load_dataset.calls", "data.load_dataset.s", "data.load_dataset.self_s",
              "cli.cli_main.s", "experiment.train_mlp.s")
SIDES = ("parent", "change")
CONTROL = "a second copy of the parent (A/A): the same code on both sides"
STAGED = ("src", "perfbench", "tests/fixtures")  # what a perfbench run reads of a checkout
PAD_VAR, MAX_PAD = "BENCH_PAIRS_PAD", 4096


def stage(checkout, run_dir: Path) -> None:
    """Put `checkout`'s copy of each STAGED directory at its place in
    `run_dir`, in place of the last run's."""
    for part in STAGED:
        shutil.rmtree(run_dir / part, ignore_errors=True)
        shutil.copytree(Path(checkout) / part, run_dir / part,
                        ignore=shutil.ignore_patterns("__pycache__"))


def report_hashes(record: Path) -> dict | None:
    """Each instance's report sha256 in a perfbench record; None without one."""
    if not record.is_file():
        return None
    return {inst: o["sha256"] for inst, o in json.loads(record.read_text())["outcomes"].items()}


def run(args) -> None:
    dirs = {"parent": args.parent, "change": args.change}
    run_dir = Path(args.run_dir).resolve()
    record = (run_dir / ".perfbench_out"
              / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    pads = random.Random(args.seed)
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pad = pads.randint(0, MAX_PAD)
        for side in order:
            stage(dirs[side], run_dir)
            record.unlink(missing_ok=True)  # so a run that writes none shows no reports
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=run_dir, env={**os.environ, PAD_VAR: "x" * pad},
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            last = lines[-1] if lines else ""
            rec = {"workload": args.workload, "seed": args.seed, "pair": i, "side": side,
                   "pad": pad, "trace": args.trace, "rc": proc.returncode,
                   "elapsed": round(time.time() - t0, 1),
                   "result": json.loads(last) if last.startswith("{") else None,
                   "reports": report_hashes(record)}
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


def entries(logs: list) -> tuple[list, list]:
    """The timed and the traced entries of the runs in `logs`, one entry per
    workload and seed."""
    records = [json.loads(line) for path in logs
               for line in Path(path).read_text().splitlines()]
    groups = {}
    for rec in records:
        groups.setdefault((rec["workload"], rec["seed"], rec["trace"]), []).append(rec)
    timed, traced = [], []
    for (workload, seed, trace), recs in sorted(groups.items()):
        entry = {"workload": workload, "seed": seed,
                 "runs": {s: sum(r["side"] == s for r in recs) for s in SIDES},
                 "exit_codes": sorted({r["rc"] for r in recs}),
                 "correct": all(r["result"] and r["result"]["correct"] for r in recs),
                 "failed": {s: sum(r["result"]["failed"] for r in recs if r["side"] == s)
                            for s in SIDES},
                 "attempted": {s: sum(r["result"]["attempted"] for r in recs if r["side"] == s)
                               for s in SIDES}}
        reports = [r.get("reports") for r in recs]
        entry["same_reports"] = bool(all(entry["runs"].values()) and reports[0]
                                     and all(r == reports[0] for r in reports))
        pairs = pair_up(recs)
        if trace:
            counts = [{s: {k: p[s]["result"]["metrics"][k]["value"] for k in TRACE_KEYS}
                       for s in SIDES if s in p} for p in pairs]
            entry["per_pair"] = [{"pair": p["pair"], **c} for p, c in zip(pairs, counts)]
            entry["per_call"] = {s: {k: statistics.median(c[s][k] for c in counts if s in c)
                                     for k in TRACE_KEYS}
                                 for s in SIDES if entry["runs"][s]}
            traced.append(entry)
            continue
        for side in SIDES:
            if not entry["runs"][side]:
                sys.exit(f"workload {workload} seed {seed}: the timed runs hold no {side} side "
                         "to compare with")
        metrics = {}
        for name, spec in recs[0]["result"]["metrics"].items():
            side_values = {s: [r["result"]["metrics"][name]["value"] for r in recs
                               if r["side"] == s] for s in SIDES}
            lower = name not in ("val_accuracy_after", "val_fidelity_after")
            both = [[p[s]["result"]["metrics"][name]["value"] for s in SIDES]
                    for p in pairs if all(s in p for s in SIDES)]
            better = sum(1 for parent, change in both
                         if parent != change and (change < parent) == lower)
            sides = {s: quartiles(v) for s, v in side_values.items()}
            parent, change = (sides[s]["median"] for s in SIDES)
            metrics[name] = {"unit": spec["unit"], **sides,
                             "median_change": change / parent - 1 if parent else None,
                             "change_better_pairs": better, "pairs": len(pairs)}
            metrics[name]["resolved"] = resolved(metrics[name])
        entry["metrics"] = metrics
        timed.append(entry)
    return timed, traced


def resolved(metric: dict, control: dict | None = None) -> bool:
    """Whether the change's difference on `metric` stands out of the noise:
    better in 9 of 10 pairs or more, a median difference beyond the parent's
    interquartile range and, given the A/A `control` of the same metric, a
    larger median change than the control's."""
    parent, change = metric["parent"], metric["change"]
    if not (metric["pairs"] and 10 * metric["change_better_pairs"] >= 9 * metric["pairs"]
            and abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]):
        return False
    return control is None or abs(metric["median_change"] or 0) > abs(
        control["median_change"] or 0)


def summarize(args) -> None:
    timed, traced = entries(args.logs)
    controls = [{**entry, "change_is": CONTROL} for group in entries(args.controls)
                for entry in group]
    noise = {(c["workload"], c["seed"]): c["metrics"] for c in controls if "metrics" in c}
    for entry in timed:
        aa = noise.get((entry["workload"], entry["seed"]), {})
        for name, metric in entry["metrics"].items():
            if name in aa:
                metric["control_median_change"] = aa[name]["median_change"]
                metric["resolved"] = resolved(metric, aa[name])
    out = {"note": args.note, "timed": timed, "traced": traced, "controls": controls}
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
    p_run.add_argument("--run-dir", default=str(Path(tempfile.gettempdir()) / "bench-pairs-run"),
                       help="the one directory both sides run from (default: %(default)s)")
    p_sum = sub.add_parser("summarize", help="fold run logs into a BENCH file")
    p_sum.add_argument("logs", nargs="+")
    p_sum.add_argument("--controls", nargs="*", default=[], metavar="LOG",
                       help="logs of A/A runs, parent against a second copy of it")
    p_sum.add_argument("--out", required=True)
    p_sum.add_argument("--note", default="", help="machine and settings, kept in the file")
    args = parser.parse_args()
    if args.command == "run":
        run(args)
    else:
        summarize(args)


if __name__ == "__main__":
    main()
