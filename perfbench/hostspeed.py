"""Host-speed probe: scales measured host times to a reference host speed.

Each CPU of the benchmark's host (a 2-vCPU VM) runs at one of a few speeds,
up to about 1.6x apart, and changes speed every few seconds, independently
per CPU.  Raw times of the same sweep vary by +-15% between sweeps, and run
medians moved by up to 75% within minutes.  :class:`HostProbe` is a thread
of ``run.py`` that, every ``INTERVAL_S``, times a fixed pure-Python loop on
the one CPU that ``run.py`` and its children are pinned to.  Its mean loop
time over a child's interval says how slowly that CPU ran meanwhile:
:meth:`HostProbe.slowdown` turns it into the factor by which a time
measured then exceeds the time at the reference speed.  The loop is the
benchmark's, not the program's, so the factor does not depend on the
program: a change that makes a sweep 10% faster makes its scaled time 10%
lower, whatever the host did.  The correction is not exact (see
``SENSITIVITY``).  The probe takes about 2% of the CPU from the child.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Tuple

#: The loop's time on the host the baselines were taken on (2.1 GHz Xeon
#: vCPU, Python 3.11), in its faster state.  Any constant would do: it only
#: sets the scale of the reported seconds.
REFERENCE_UNIT_S = 170e-6
INTERVAL_S = 0.01
#: Pure integer arithmetic, with no working set to speak of: a loop that
#: reads memory would be slowed by the child's own cache use, which changes
#: with the program, and would no longer measure the host alone.
UNIT_ITERATIONS = 3000
#: A sweep mostly slows down more than the loop does: over the sets of runs
#: in README.md, ln(raw sweep time) rose 0.92 to 1.56 times as fast as
#: ln(loop time), by workload and set.  Scaling by the loop time to this
#: power at least halved the run-to-run spread of the scaled fig13-cold
#: medians against a power of 1.
SENSITIVITY = 1.2
#: The slowest share of an interval's samples is dropped: those include the
#: probe being preempted, which the measured child does not see as slowness.
TRIM = 0.1
MIN_SAMPLES = 8


def pin_to_one_cpu() -> int:
    """Pin this thread, and the threads and processes it starts, to one CPU.

    The CPU speed the probe sees is that of its own CPU, so the probe and the
    child it measures must share one.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _unit() -> int:
    total = 0
    for step in range(UNIT_ITERATIONS):
        total += step * step
    return total


class HostProbe(threading.Thread):
    """Samples the loop time every ``INTERVAL_S`` until :meth:`close`."""

    def __init__(self) -> None:
        super().__init__(name="host-probe", daemon=True)
        self._stop_event = threading.Event()
        #: (time.monotonic() at the loop's start, loop seconds), in time order.
        self.samples: List[Tuple[float, float]] = []

    def run(self) -> None:
        clock = time.monotonic
        while not self._stop_event.wait(INTERVAL_S):
            started = clock()
            _unit()
            self.samples.append((started, clock() - started))

    def close(self) -> None:
        self._stop_event.set()
        self.join()

    def slowdown(self, start: float, end: float) -> float:
        """How many times longer than at the reference speed a child took
        over ``[start, end]``: (mean loop time ÷ ``REFERENCE_UNIT_S``) to the
        power ``SENSITIVITY``.

        The interval is widened around its middle until it holds
        ``MIN_SAMPLES`` samples, for children shorter than that many ticks.
        """
        middle = (start + end) / 2
        half = max((end - start) / 2, INTERVAL_S)
        while True:
            durations = sorted(
                duration
                for started, duration in self.samples
                if middle - half <= started <= middle + half
            )
            if len(durations) >= MIN_SAMPLES or half > 60.0:
                break
            half *= 2
        if not durations:
            raise RuntimeError("the host probe took no samples")
        kept = durations[: max(1, int(len(durations) * (1 - TRIM)))]
        return (sum(kept) / len(kept) / REFERENCE_UNIT_S) ** SENSITIVITY
