"""Child process of the benchmark: sets one workload up, then times it.

Run by perfbench/run.py, one process per set-up sample and one for the
measurement, each with BLAS and OpenMP pinned to one thread. The result is
written as JSON to --result. `ready` is the CLOCK_MONOTONIC time at which
set-up finished, so the parent can take set-up time from process start;
set-up runs under the speed probe (probe.py), and `setup_probe` holds the
seconds its passes took and the mean fraction of nominal speed it saw.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from probe import SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 2  # so every instance's report bytes are compared across calls


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--role", choices=("setup", "measure"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--root", required=True, help="checkout holding src/qrepair")
    p.add_argument("--work", required=True, help="directory for generated inputs")
    p.add_argument("--result", required=True, help="where to write the result JSON")
    return p.parse_args(argv)


class Run:
    """Everything the measurement records, across all timed calls."""

    def __init__(self, workload):
        self.wl = workload
        self.samples = []  # [instance, seconds, traced(, adjusted seconds, slowdown)]
        self.outcomes = {}  # instance -> first Outcome
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.totals = {}  # per-layer sums over traced calls
        self.traced_calls = 0
        self.spans = []

    def call(self, instance, full_trace: bool, probed: bool = False):
        """One timed call, then its checks and accounting outside the clock.

        `probed` runs the call under the speed probe and records its wall time
        at nominal CPU speed too (perfbench/probe.py).
        """
        self.wl.prepare(instance)
        tracer = Tracer(full=full_trace)
        probe = SpeedProbe() if probed else contextlib.nullcontext()
        raw = None
        with tracer, probe:
            t0 = time.perf_counter()
            try:
                raw = self.wl.call(instance)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.errors.append(f"{instance}: {type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - t0
        sample = [instance, seconds, full_trace]
        if probed:
            sample += [probe.adjust(seconds), probe.slowdown()]
        self.samples.append(sample)
        for _, _, report in tracer.repairs:
            self.attempted += report.attempts
            self.failed += report.count("timeout")
        if raw is None:
            self.attempted += 1
            self.failed += 1
            return
        try:
            outcome = self.wl.collect(instance, raw)
        except (OSError, ValueError, KeyError) as exc:
            self.errors.append(f"{instance}: no readable report ({exc}); call returned {raw!r}")
            return
        if outcome.error:
            self.errors.append(f"{instance}: {outcome.error}")
        first = self.outcomes.setdefault(instance, outcome)
        if first.report != outcome.report:
            self.errors.append(f"{instance}: canonical report bytes differ between calls")
        if full_trace:
            self._check_trace(tracer)

    def _check_trace(self, tracer):
        from qrepair.lp import check_solution

        for lp, sol in tracer.solved:
            if sol.status == "optimal" and not check_solution(lp, sol):
                self.failed += 1
                self.errors.append(f"neuron {lp.neuron_index}: optimal LP fails check_solution")
        for patched, solved, _ in tracer.repairs:
            held, total = constraints_held(patched, solved)
            tracer.counters["repair.constraints_held"] += held
            tracer.counters["repair.constraints_total"] += total
        for key, (calls, s, self_s) in tracer.agg.items():
            acc = self.totals.setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += s
            acc[2] += self_s
        for key, value in tracer.counters.items():
            self.totals[key] = self.totals.get(key, 0) + value
        for key, value in tracer.maxima.items():
            self.totals[key] = max(self.totals.get(key, 0), value)
        self.traced_calls += 1
        self.spans.append(tracer.spans)


def constraints_held(patched, solved):
    """How many LP constraints the patched model's stored weights satisfy.

    A constraint holds when the repaired neuron's activation status on that
    test, computed in float32 from the weights inference uses, is the float
    model's status the LP was built to restore.
    """
    held = total = 0
    for lp, sol in solved:
        if sol.status != "optimal":
            continue
        layer = patched.layers[lp.layer_index]
        w = layer.eff_weights[:, lp.neuron_index]
        b = np.float32(layer.bias.data[lp.neuron_index]) if layer.bias is not None else 0
        for con in lp.constraints:
            status = int(con.x.astype(np.float32) @ w + b > 0)
            held += status == con.target_status
            total += 1
    return held, total


def measure(run: Run, seconds: float, trace: bool) -> None:
    instances = run.wl.instances
    if trace:
        # each instance once untraced, then once traced, for trace_overhead
        for instance in instances:
            run.call(instance, False)
            run.call(instance, True)
        return
    start = time.monotonic()
    passes = 0
    while True:
        t_pass = time.monotonic()
        for instance in instances:
            run.call(instance, False, probed=True)
        passes += 1
        # whole passes only, so every instance weighs the same in the median
        now = time.monotonic()
        if passes >= MIN_PASSES and (now - start) + (now - t_pass) > seconds:
            return


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    import qrepair

    if not Path(qrepair.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"imported qrepair from {qrepair.__file__}, not from {root / 'src'}")
    with SpeedProbe() as probe:
        workload = WORKLOADS[args.workload](root, Path(args.work), args.seed, args.smoke)
        workload.setup()
    # the probe's passes, to be taken out of the set-up time, and its speed
    result = {"ready": time.monotonic(), "setup_probe": [probe.busy(), probe.speed()]}
    if args.role == "measure":
        run = Run(workload)
        measure(run, args.seconds, bool(args.trace))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        result.update({
            "samples": run.samples,
            "outcomes": {
                inst: {"sha256": hashlib.sha256(o.report).hexdigest(),
                       "accuracy": o.accuracy, "fidelity": o.fidelity, "neurons": o.neurons}
                for inst, o in run.outcomes.items()
            },
            "errors": run.errors,
            "attempted": run.attempted,
            "failed": run.failed,
            "peak_rss_mb": rss / 1024.0,
            "environment": environment(),
        })
        if args.trace:
            result.update({"totals": run.totals, "traced_calls": run.traced_calls,
                           "spans": run.spans})
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
