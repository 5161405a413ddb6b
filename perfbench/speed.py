"""Machine-speed probe: times a fixed kernel throughout a pass.

On a shared virtual machine the same cold pass can take twice as long in a
slow stretch as in a fast one, and the stretches last from seconds to
minutes, longer than a run.  The probe times a small fixed kernel, made of
pure-Python arithmetic and 8x8 eigensolves (the two kinds of work tribell's
layers do), every `PERIOD_S` on the pass's main thread and once before each
operation.  Its median time over the pass, divided by `REF_S`, is the pass's
slowdown; dividing a measured time by it gives the time at reference speed.

Samples from the timer are taken only while the process runs a single
thread: while the CLI's pool threads run, the kernel would time the
workload's own contention for the interpreter lock, not the machine.

The median leaves out the samples that the hypervisor interrupted, so the
slowdown is the machine's speed while the pass runs, not the share of time
it runs at all.  That share is the CPU's steal time (`steal_s`), which a
pass leaves out of its times before scaling them.
"""

from __future__ import annotations

import os
import signal
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.1
REF_S = 1.5e-3  # the kernel's time in a fast stretch of a 2-vCPU Xeon VM


def steal_s(cpu: int) -> float:
    """Time the hypervisor has taken from `cpu` since boot, from
    /proc/stat (10 ms ticks); 0 where the kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                fields = line.split()
                if fields[0] == f"cpu{cpu}":
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self._matrix = np.eye(8) + 0.1

    def sample(self) -> None:
        t = time.perf_counter()
        x = 0
        for i in range(15_000):
            x += i * i % 7
        for _ in range(20):
            np.linalg.eigh(self._matrix)
        self.times.append(time.perf_counter() - t)

    def _on_alarm(self, signum, frame) -> None:
        if threading.active_count() == 1:
            self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def spent_s(self) -> float:
        """Wall time the probe itself took, to leave out of the pass's."""
        return sum(self.times)

    def slowdown(self) -> float:
        return statistics.median(self.times) / REF_S
