"""Seconds at a reference speed, from probes timed next to the work.

The benchmark's machine is a few cores of a shared host, and its speed
drifts: a fixed loop takes anywhere from 1x to 1.6x its fastest time,
in spells of a few seconds. That drift, not the program, sets the
run-to-run spread of raw pass times. So each timed step is cut into
segments by a probe, a fixed loop written here and not in the package,
which is timed before the step, after it, and every ``TICK_S`` seconds
inside it from a timer signal. A segment's time at the reference speed
is its seconds times ``PROBE_REF_S`` over the mean of the two probe
times around it: the time the segment would take on a machine where
the probe takes ``PROBE_REF_S``.
"""

from __future__ import annotations

import contextlib
import signal
from time import perf_counter

import numpy as np

PROBE_REF_S = 0.025  # a probe's length at the reference speed
TICK_S = 0.5  # probe period inside a step; a probe costs about 5% of it

_A = np.arange(9.0).reshape(3, 3)
_B = np.ones(3)


def interpreter_probe() -> int:
    """Integer arithmetic in a bytecode loop; tracks the kernel sweeps."""
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return total


def small_array_probe() -> float:
    """3x3 NumPy calls from a Python loop, like the exact oracle's."""
    total = 0.0
    for i in range(6_000):
        total += float(np.maximum(_A @ _B - i, 0.0).sum())
    return total


def timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def at_reference(segments: list[float], probes: list[float], ref_s: float = PROBE_REF_S) -> float:
    """Seconds of ``segments`` at the reference speed; ``probes`` has one
    more entry, the probe times before, between and after them."""
    if len(probes) != len(segments) + 1:
        raise ValueError("need one probe time around each segment")
    return sum(d * ref_s / ((a + b) / 2) for d, a, b in zip(segments, probes, probes[1:]))


class Ticker:
    """While entered, runs ``probe`` from a SIGALRM handler every ``every``
    seconds and records when each run started and ended.

    The handler runs in the main thread between bytecodes, so a probe
    waits for a running NumPy call to return. The previous handler and
    timer are put back on exit.
    """

    def __init__(self, probe, every: float = TICK_S):
        self.probe = probe
        self.every = every
        self.ticks: list[tuple[float, float]] = []
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = perf_counter()
            self.probe()
            self.ticks.append((t0, perf_counter()))
        finally:
            self._busy = False

    def __enter__(self):
        self.ticks = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def timed_steps(steps, probe, tick: bool = True):
    """Run the steps with ``probe`` timed before the first, after each,
    and (with ``tick``) every ``TICK_S`` seconds inside each.

    Returns the results, the steps' own seconds (probe time taken out)
    and those seconds at the reference speed.
    """
    results = []
    raw = ref = 0.0
    before = timed(probe)
    for step in steps:
        ticker = Ticker(probe)
        with ticker if tick else contextlib.nullcontext():
            t0 = perf_counter()
            results.append(step())
            t1 = perf_counter()
        after = timed(probe)
        ticks = [(s, e) for s, e in ticker.ticks if t0 <= s and e <= t1]
        starts = [t0] + [e for _, e in ticks]
        ends = [s for s, _ in ticks] + [t1]
        segments = [e - s for s, e in zip(starts, ends)]
        probes = [before] + [e - s for s, e in ticks] + [after]
        raw += sum(segments)
        ref += at_reference(segments, probes)
        before = after
    return results, raw, ref

