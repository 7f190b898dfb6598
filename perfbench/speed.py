"""Core-speed probes: rescale measured time to a reference core speed.

The machine this benchmark runs on shares its cores with other tenants, and
the speed of fixed work drifts by up to a factor 1.7 within seconds (measured
on a 2-vCPU KVM guest, Xeon at 2.0 GHz).  Wall time alone then varies by
20-30% between identical runs.  While a timed block runs, a timer signal
fires every few milliseconds and runs a fixed kernel in the main thread.  The
kernel time at the end of each stretch of the block gives that stretch's
slowdown; each stretch's time minus the probe's own time, scaled by
``reference_s / kernel time``, sums to the time the block would take on a
core where the kernel takes ``reference_s``, its uncontended time on the
machine described above.

Workload passes are probed with small sparse matvecs and a Python loop;
set-up is probed with a pure Python loop, sampled from before numpy is
imported.
"""

from __future__ import annotations

import signal
from time import perf_counter


class SpeedProbe:
    """Samples ``kernel``'s time on a timer signal between start() and stop()."""

    def __init__(self, kernel, interval_s: float, reference_s: float):
        self._kernel, self._interval, self.reference_s = kernel, interval_s, reference_s
        self.fired = []  # (end time, duration) of each sample taken on the timer
        self.on_sample = None  # called with the duration of each timer sample

    def _sample(self) -> tuple[float, float]:
        t0 = perf_counter()
        self._kernel()
        t1 = perf_counter()
        return t1, t1 - t0

    def _fire(self, signum, frame) -> None:
        end, duration = self._sample()
        self.fired.append((end, duration))
        if self.on_sample is not None:
            self.on_sample(duration)

    def start(self) -> None:
        self.fired = []
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        self.t_start = perf_counter()

    def stop(self) -> None:
        """Stop sampling, then take one last sample for the final stretch."""
        self.t_stop = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.last_s = self._sample()[1]

    def work_s(self) -> float:
        """Time from start() to stop() minus the samples taken in between."""
        return self.t_stop - self.t_start - sum(d for _, d in self.fired)

    def mean_s(self) -> float:
        return (sum(d for _, d in self.fired) + self.last_s) / (len(self.fired) + 1)

    def reference_time(self) -> float:
        """work_s() at reference speed: each stretch of work is scaled by the
        kernel time of the sample that ends it."""
        total, t = 0.0, self.t_start
        for end, duration in self.fired:
            total += (end - duration - t) * self.reference_s / duration
            t = end
        return total + (self.t_stop - t) * self.reference_s / self.last_s


def _python_loop() -> None:
    x = 0
    for i in range(2000):
        x += i * i


def setup_probe() -> SpeedProbe:
    """Probe for process set-up; needs nothing but the interpreter."""
    return SpeedProbe(_python_loop, 0.01, 125e-6)


def pass_probe() -> SpeedProbe:
    """Probe for workload passes: small sparse matvecs and a Python loop, the
    kind of work jcsense does per ODE right-hand side or state construction."""
    import numpy as np  # after set-up: the set-up probe runs before numpy loads
    import scipy.sparse as sp

    n = 244
    m = sp.random(n, n, density=0.02, format="csr", random_state=np.random.default_rng(0)) + 0j
    y0 = np.ones(n, dtype=complex)

    def kernel() -> None:
        y = y0
        for _ in range(20):
            y = m @ y
            y = y / np.linalg.norm(y)
        x = 0
        for i in range(400):
            x += i * i

    return SpeedProbe(kernel, 0.025, 0.25e-3)
