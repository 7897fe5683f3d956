#!/usr/bin/env python3
"""qrepair benchmark: times one workload and prints its metrics.

    python3 perfbench/run.py --workload conv3-cli --seed 42 --seconds 30 --trace 0

Run from the root of a checkout. The workload runs in single-threaded child
processes (perfbench/worker.py): a few that only set up, for the set-up time,
and one that sets up and then times whole passes over the workload's
instances for about --seconds seconds, at least two passes. --trace 1 instead
runs each instance once untraced and once under the tracer and reports the
per-layer metrics. Human-readable lines come first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. A record with samples, fingerprints, machine details and, when
traced, the spans is written under .perfbench_out/.

See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the benchmark's directory
from metrics import END_TO_END, per_layer_specs, roll_up  # noqa: E402
from worker import THREAD_VARS  # noqa: E402
from workloads import CONV3_FIXTURE, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # set-ups per run, the measuring child's included
DEADLINE_S = 170.0  # whole run, so it ends well inside 180 s


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=42,
                   help="workload seed (default 42; confirm claims on 7 as well)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measurement time; whole passes, at least two")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every set-up compiles alike
    return env


def spawn(args, role: str, work: Path, result: Path, deadline: float) -> dict:
    """Run one worker to completion; returns its result with its set-up time
    added, raw (`setup_raw_s`) and at nominal CPU speed (`setup_s`)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--work", str(work), "--result", str(result)]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"{role} child overran the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} child exited with {proc.returncode}")
    out = json.loads(result.read_text())
    out["setup_raw_s"] = out["ready"] - t0
    busy, speed = out["setup_probe"]
    # the interpreter's start, before the probe could run, is scaled alike
    out["setup_s"] = (out["setup_raw_s"] - busy) * speed
    return out


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(values)[n - 11]


def untraced_walls(measured: dict) -> list:
    return [sample[1] for sample in measured["samples"] if not sample[2]]


def probed(measured: dict, column: int) -> list:
    """Adjusted seconds (column 3) or slowdowns (column 4) of the probed calls."""
    return [sample[column] for sample in measured["samples"] if len(sample) > 3]


def end_to_end(measured: dict, setups: list) -> dict:
    outcomes = measured["outcomes"].values()
    return {
        "adj_wall_s": statistics.median(probed(measured, 3)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": measured["peak_rss_mb"],
        "val_accuracy_after": statistics.fmean(o["accuracy"] for o in outcomes),
        "val_fidelity_after": statistics.fmean(o["fidelity"] for o in outcomes),
    }


def per_layer(measured: dict) -> dict:
    plain = sum(untraced_walls(measured))
    traced = sum(sample[1] for sample in measured["samples"] if sample[2])
    return roll_up(measured["totals"], measured["traced_calls"], traced / plain - 1.0)


def describe(args, measured: dict, setups: list, raw_setups: list) -> list[str]:
    env = measured["environment"]
    blas = env["blas"] or {}
    lines = [
        f"perfbench {args.workload} seed {args.seed} seconds {args.seconds:g}"
        f" trace {args.trace}{' smoke' if args.smoke else ''}",
        f"machine: {env['cpu_model']}; nproc {env['nproc']}"
        f" (affinity {env['affinity_cpus']}); python {env['python']};"
        f" numpy {env['numpy']}; blas {blas.get('name')} {blas.get('version')}",
        "child threads: " + " ".join(f"{k}={v}" for k, v in env["thread_env"].items()),
        "setup_s samples: " + " ".join(f"{s:.4f}" for s in setups)
        + "; raw: " + " ".join(f"{s:.4f}" for s in raw_setups),
    ]
    walls = untraced_walls(measured)
    t = tail(walls)
    lines.append(
        f"wall: median {statistics.median(walls):.4f} s over n={len(walls)} timed calls; "
        + (f"p{t[0]} {t[1]:.4f} s" if t else "no percentile has 10 samples above it"))
    if not args.trace:
        adjusted, slowdowns = probed(measured, 3), probed(measured, 4)
        t = tail(adjusted)
        lines.append(
            f"adj_wall_s: median {statistics.median(adjusted):.4f} s at nominal CPU speed; "
            + (f"p{t[0]} {t[1]:.4f} s" if t else "no percentile has 10 samples above it")
            + f"; probe slowdown per call: median {statistics.median(slowdowns):.3f},"
            f" range {min(slowdowns):.3f}-{max(slowdowns):.3f}")
    for inst, o in measured["outcomes"].items():
        ms = [m for _, status, m in o["neurons"] if status == "optimal"]
        lines.append(f"instance {inst}: report sha256 {o['sha256']} accuracy"
                     f" {o['accuracy']} fidelity {o['fidelity']} M {ms}")
    for err in measured["errors"]:
        lines.append(f"error: {err}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    missing = [p for p in (ROOT / "src" / "qrepair" / "__init__.py", ROOT / CONV3_FIXTURE)
               if not p.is_file()]
    if missing:
        print(f"error: not a qrepair checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        children = [spawn(args, "setup", work, work / f"setup-{i}.json", deadline)
                    for i in range(SETUP_SAMPLES - 1)]
        measured = spawn(args, "measure", work, work / "measure.json", deadline)
        children.append(measured)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it
    setups = [c["setup_s"] for c in children]
    raw_setups = [c["setup_raw_s"] for c in children]

    errors = measured["errors"]
    if not measured["outcomes"] or (args.trace and not measured["traced_calls"]):
        print("error: no timed call produced a report:", *errors, sep="\n  ", file=sys.stderr)
        return 1
    attempted, failed = measured["attempted"], measured["failed"]
    if attempted == 0:
        errors.append("no neuron was attempted")
    if args.trace:
        values = per_layer(measured)
        specs = per_layer_specs()
    else:
        values = end_to_end(measured, setups)
        specs = END_TO_END
    summary = {
        "correct": not errors,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }

    record_dir = ROOT / ".perfbench_out"
    record_dir.mkdir(exist_ok=True)
    record = {"args": vars(args), "setup_samples": setups, "setup_raw_samples": raw_setups,
              "summary": summary,
              **{k: v for k, v in measured.items()
                 if k not in ("ready", "setup_s", "setup_raw_s", "setup_probe")}}
    (record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    print("\n".join(describe(args, measured, setups, raw_setups)))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
