"""Host speed, timed between tasks, to take drift out of task times.

On a shared host the speed of a vCPU drifts by 10-25% over tens of
seconds as neighbours come and go.  A run of half a minute averages only
part of that away, so ten runs of the same code over a few minutes spread
by more than the regression bounds, and two such sets can differ by more
still.  Wall time and CPU time drift alike, so CPU time is no way out.

``kernel`` is fixed work in plain Python and numpy (integer arithmetic;
small tuples, strings and a dict, as in building Expr trees; ufuncs on
short arrays in a Python loop, as in Sturm counting) that does not call
the library, so a change to the program leaves its work unchanged.  The
``Pacer`` times it right after each task, about once per ``PERIOD_S`` of
task time, and reports each task's time scaled by ``NOMINAL_S`` over the
median kernel time within ``WINDOW_S`` of the task: the time the task
would take on a host where the kernel takes ``NOMINAL_S``.  In ten runs
of each workload on the 2-vCPU host the bounds were set on, this cut the
quartile spread of the median task time, over its median, from 0.19-0.25
to 0.02-0.05 (``baseline.json`` keeps both).
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

# about the kernel's median on the 2-vCPU Xeon host the bounds were set on
NOMINAL_S = 0.004
PERIOD_S = 0.1
WINDOW_S = 1.0


def kernel():
    s = 0
    for i in range(12000):
        s += i * i % 7
    d = {}
    for i in range(2500):
        d[(str(i % 97), i % 13)] = (i, (i, i + 1))
    q = np.ones(8)
    for _ in range(250):
        q = np.where(q == 0.0, -1e-300, 2.0 - 1.0 / q)
    return s + len(sorted(d)) + float(q[0])


class Pacer:
    """Kernel timings and task times of one closed loop."""

    def __init__(self):
        self.kernel_at = []     # end of each kernel run
        self.kernel_s = []
        self.tasks = []         # (middle of the task, seconds)

    def after_task(self, seconds):
        """Record a task that just took ``seconds`` and time the kernel
        once per ``PERIOD_S`` of it, at least once, with the cyclic
        collector off so garbage the task left is not charged to it."""
        self.tasks.append((time.perf_counter() - seconds / 2, seconds))
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(max(1, round(seconds / PERIOD_S))):
                t0 = time.perf_counter()
                kernel()
                t1 = time.perf_counter()
                self.kernel_at.append(t1)
                self.kernel_s.append(t1 - t0)
        finally:
            if enabled:
                gc.enable()

    def scale(self, at):
        lo = bisect.bisect_left(self.kernel_at, at - WINDOW_S)
        hi = bisect.bisect_right(self.kernel_at, at + WINDOW_S)
        near = self.kernel_s[lo:hi] or \
            [self.kernel_s[min(lo, len(self.kernel_s) - 1)]]
        return NOMINAL_S / statistics.median(near)

    def scaled(self):
        """Each task's seconds at the nominal host speed."""
        return [s * self.scale(at) for at, s in self.tasks]

    def summary(self):
        return dict(kernel_runs=len(self.kernel_s),
                    kernel_p50_ms=1e3 * statistics.median(self.kernel_s),
                    kernel_s=sum(self.kernel_s),
                    nominal_ms=1e3 * NOMINAL_S)
