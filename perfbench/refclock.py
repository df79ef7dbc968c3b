"""Reference-speed clock: host seconds scaled to a fixed machine speed.

A shared host's speed drifts by tens of percent over seconds (neighbours
competing for cores and caches), and the drift moves every timing with it.
To keep timings comparable between runs, each timed interval is measured
next to a fixed *reference slice* of pure-Python work that no code of the
repository executes, and scaled by ``(REF_NOMINAL_S / slice time) **
ELASTICITY``.  The result is in *reference seconds*: the time the interval
would take on a host that runs the slice in exactly :data:`REF_NOMINAL_S`
seconds.  A change to the simulator moves the interval but not the slice,
so it still shows.

In-process work is timed between slices taken just before and after it.
Work spread over a worker pool is timed against a :class:`Probe`, a side
thread that takes a slice every quarter second while the pool runs, since
slices taken before and after it, on one idle core, miss how fast both
busy cores were.

:data:`ELASTICITY` is how strongly the interval follows
the slice when the host's speed drifts.  It was fitted on a 2-vCPU Xeon VM
by minimising the run-to-run spread of pass times over four-minute
stretches of back-to-back passes; 0.75 served every workload about as well
as its own best fit, while scaling by the full ratio (1.0) over-corrected
and roughly tripled the spread.

The raw, unscaled figures are printed beside the scaled ones.
"""

from __future__ import annotations

import threading
import time

#: Iterations of the reference slice (about 10 ms on a 2.1 GHz Xeon).
REF_ITERS = 40_000

#: Nominal duration of one reference slice, in seconds.
REF_NOMINAL_S = 0.010

#: How strongly timed intervals follow the slice (see the module notes).
ELASTICITY = 0.75


class _Probe:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def ref_slice() -> float:
    """Run the reference slice once; returns its duration in seconds.

    The mix (method calls, attribute stores, dict and list traffic, 32-bit
    integer arithmetic) resembles an interpreter's, so it slows down with
    the host the way the simulator does.
    """
    probe = _Probe()
    table: dict[int, int] = {}
    window: list[int] = []

    def step(i: int) -> int:
        probe.value = (probe.value * 1103515245 + i) & 0xFFFF_FFFF
        return probe.value & 255

    start = time.perf_counter()
    for i in range(REF_ITERS):
        key = step(i)
        table[key] = table.get(key, 0) + 1
        window.append(key)
        if len(window) > 8:
            window.pop()
    return time.perf_counter() - start


def scale(raw_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` in reference seconds, given the slices around it."""
    return raw_s * (REF_NOMINAL_S / ((before_s + after_s) / 2)) ** ELASTICITY


class Probe:
    """Takes reference slices on a side thread until the ``with`` ends."""

    def __init__(self, period_s: float = 0.25) -> None:
        self.period_s = period_s
        self.slices: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.slices.append(ref_slice())
            if self._stop.wait(self.period_s):
                return

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, raw_s: float) -> float:
        """``raw_s`` in reference seconds, against the probe's slices."""
        mean = sum(self.slices) / len(self.slices)
        return scale(raw_s, mean, mean)
