"""Timing at a nominal machine speed.

On a small shared VM the same call can take 1.5-2x longer from one minute
to the next, and a set of runs an hour later can read a quarter slower,
far more than the changes the benchmark should resolve. The drift comes
from other tenants of the host. So every timed call is reported in
*nominal seconds*: the CPU time the process spent in it, divided by how
much slower than nominal the machine ran while the call ran.

CPU time, not wall time, because the process is single-threaded and does
almost no I/O while timed, so wall time differs from it only by the time
the process sat descheduled: another process or tenant on its CPU, or a
CPU quota. A 1.5 ms slice fits inside one scheduler quantum and cannot
see that, while a long call is hit by it. With a second process pinned
to the same CPU, a FAR estimate read twice its usual wall time while the
slices moved by 5%.

The speed is sampled inside the call. A real-time interval timer raises
SIGALRM every ``PERIOD_S`` seconds, and its handler runs one fixed
reference slice: a Python loop of small numpy operations on 20-element
vectors (a binary search into a sorted table of 3000, an elementwise
update and a top-4 selection). That is the kind of work the detector,
the monitor and much of training do, and it slows with them when the
host is busy. The slices' CPU time is subtracted from the call's, so the
program's seconds are exact, and the speed factor is the mean slice CPU
time over ``REFERENCE_SLICE_S``.

The kernel was picked by measurement on the 2-vCPU box. Three candidate
slices ran side by side, inside repeated identical calls, for seven to
eight minutes each: this one, a pure-Python arithmetic loop, and a
memory-bound one (random gathers from an 8 MB table). Dividing each
call's time by this slice's mean time cut the IQR/median of the calls
from 0.13 to 0.05 for the FAR estimate (one replication per call, in
windows of 20 calls), from 0.074 to 0.032 for ``offline_train`` and
from 0.074 to 0.042 for the monitor (eight runs per call). The
memory-bound slice gave 0.11, 0.062 and 0.099, and the Python loop
0.046, 0.057 and 0.11.

The slice touches nothing that faultmon uses (it has its own arrays and no
shared random state), so outputs stay bit-identical with the probe on. It
runs in the benchmark's own process and CPU, so it sees the same host
contention as the program. A program change that slowed the whole process,
such as a busy background thread, would slow the slices too and partly
hide itself, and a change that made it use several threads would show
their CPU time added up, not the wall time saved. faultmon starts no
threads today, and the benchmark pins BLAS to one.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

PERIOD_S = 0.05
# Loop steps in one reference slice.
SLICE_STEPS = 125
# Mean time of one reference slice on the 2-vCPU Xeon (2.1 GHz, 2 MB L2
# per core) the benchmark was tuned on. It only sets the scale of the
# nominal second.
REFERENCE_SLICE_S = 0.0015


class Measurement:
    """One timed call: program seconds, the slices sampled, nominal seconds."""

    def __init__(self):
        self.seconds = 0.0  # CPU time minus the slices run inside it
        self.slice_s = 0.0  # total CPU time of those slices
        self.slices = 0

    @property
    def speed(self) -> float:
        """Mean slice time over the reference's: above 1 means a slow machine."""
        return self.slice_s / self.slices / REFERENCE_SLICE_S

    @property
    def nominal_s(self) -> float:
        return self.seconds / self.speed


class Clock:
    """Measures calls; with ``probe`` off, nominal seconds equal measured ones."""

    def __init__(self, probe: bool = True):
        self.probe = probe
        self._paused_ns = 0  # CPU time spent in slices so far
        self._current: Measurement | None = None
        rng = np.random.default_rng(0)
        self._sorted = np.sort(rng.random(3000))
        self._queries = rng.random(20)
        self._step = rng.random(20)

    def reference_slice(self) -> float:
        """The fixed piece of work whose time measures the machine's speed."""
        acc = np.zeros(self._step.size)
        for _ in range(SLICE_STEPS):
            ranks = np.searchsorted(self._sorted, self._queries)
            acc = np.maximum(acc + self._step - 0.5, 0.0)
            acc[np.argpartition(acc, -4)[-4:]] += ranks[:4]
        return float(acc.sum())

    def paused_ns(self) -> int:
        """Total slice CPU time so far; latencies subtract its change."""
        return self._paused_ns

    def _run_slice(self) -> float:
        start = time.process_time_ns()
        self.reference_slice()
        elapsed = time.process_time_ns() - start
        self._paused_ns += elapsed
        return elapsed / 1e9

    def _on_alarm(self, signum, frame):
        current = self._current
        if current is not None:
            current.slice_s += self._run_slice()
            current.slices += 1

    @contextlib.contextmanager
    def measure(self, m: Measurement | None = None):
        """Time the block into ``m`` (a new Measurement by default), adding to it."""
        m = Measurement() if m is None else m
        if not self.probe:
            start = time.process_time()
            try:
                yield m
            finally:
                m.seconds += time.process_time() - start
                m.slice_s, m.slices = REFERENCE_SLICE_S, 1
            return
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._current = m
        paused = self._paused_ns
        start = time.process_time_ns()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield m
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            cpu_ns = time.process_time_ns() - start
            self._current = None
            signal.signal(signal.SIGALRM, previous)
            m.seconds += (cpu_ns - (self._paused_ns - paused)) / 1e9
        if m.slices == 0:
            # Shorter than one period: sample the speed right after it.
            m.slice_s, m.slices = self._run_slice(), 1
