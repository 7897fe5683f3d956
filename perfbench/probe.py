"""Speed probe: divides the shared CPU's momentary slowdown out of a timed call.

On a VM that shares its cores with other tenants, the same deterministic work
runs up to twice as long from one second to the next, and neither CPU time
nor steal time shows it (the vCPU is running, only slower). A timed call
therefore runs under `SpeedProbe`: a SIGALRM timer interrupts it every
`PERIOD_S` seconds of wall time, and the handler times one pass of a fixed
reference kernel (small numpy mat-vecs and dict work, the mix of the
program's per-sample inference and its Python bookkeeping). The handler runs
in the main thread between bytecodes, so the kernel runs on the same core and
in the same moment as the call it interrupts.

`SpeedProbe.adjust` turns the call's wall time into the time it would have
taken at the probe's nominal speed: the probe passes are subtracted, and the
rest is scaled by the mean of NOMINAL_S / (one pass's time), the fraction of
nominal speed the call ran at, sampled evenly over its wall time. The kernel
is benchmark code, so a change to qrepair moves the adjusted time as fully as
the raw one; only the machine's speed is divided out.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02  # wall time between probe passes; a pass costs about 1% of it
NOMINAL_S = 0.00018  # one pass's time at nominal speed (a fast stretch of a Xeon VM)
PASS_REPS = 30

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((24, 24))
_V = _rng.standard_normal(24)


def kernel_pass() -> float:
    """Run the reference kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PASS_REPS):
        x = np.maximum(_A @ _V, 0.0) + 0.01
        d = {}
        for j in range(20):
            d[j] = j * 1.5 + i
        acc += sum(d.values()) + float(x[0])
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager that times kernel passes while the block runs."""

    def __init__(self):
        self.passes = []  # seconds per kernel pass, in the order they ran
        self.inside = 0  # how many of them ran inside the block
        self._old = None

    def _on_alarm(self, signum, frame):
        self.passes.append(kernel_pass())

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.inside = len(self.passes)
        if not self.passes:  # a call shorter than one period: probe just after it
            self.passes.append(kernel_pass())

    def busy(self) -> float:
        """Seconds the block spent in probe passes."""
        return sum(self.passes[:self.inside])

    def speed(self) -> float:
        """Mean fraction of nominal speed over the block's wall time."""
        return statistics.fmean(NOMINAL_S / p for p in self.passes)

    def adjust(self, wall: float) -> float:
        """`wall` (the block's time, probe passes included) at nominal speed."""
        return (wall - self.busy()) * self.speed()

    def slowdown(self) -> float:
        """Median pass time over nominal: 1.0 at nominal speed, 2.0 at half."""
        return statistics.median(self.passes) / NOMINAL_S


# pay numpy's first-call costs now, not in the first probed pass
for _ in range(5):
    kernel_pass()
