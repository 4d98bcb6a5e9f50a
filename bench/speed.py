"""Core-speed probe: scales wall times to a fixed reference speed.

On a shared machine the core a run gets changes speed by up to 2x over
seconds to minutes, with the load of other tenants.  Reported times would
then measure the neighbours more than the code.  ``run.py`` pins the
process (and the set-up processes it starts) to one CPU, and the probe
runs a fixed calibration kernel - small stacked matrix products and a
batched symmetric eigensolve, the operation mix of the solver, but none of
its code - from a thread on that CPU every ``PERIOD_S``.  Each sample's
duration, smoothed by a running median over ``SMOOTH`` samples, gives the
speed factor ``NOMINAL_KERNEL_S / duration`` for the stretch of time
nearest to it, and an interval [s, e] is reported as the integral of that
factor over [s, e]: the seconds the interval would have taken at the speed
where one kernel call takes ``NOMINAL_KERNEL_S``.  Changes to the library
do not change the kernel, so faster code still reads faster; a slower
core no longer does.  The raw wall times are reported next to the scaled
ones.
"""

from __future__ import annotations

import threading
from time import perf_counter, thread_time

import numpy as np

PERIOD_S = 0.02
NOMINAL_KERNEL_S = 1.0e-4      # typical warm kernel time on the 2-vCPU Xeon it was tuned on
SMOOTH = 5

_A = np.random.default_rng(12345).standard_normal((3, 2, 2))


def kernel():
    x = _A
    for _ in range(16):
        x = 0.5 * (x @ _A + np.swapaxes(x, -1, -2)) * 0.9
    return np.linalg.eigvalsh(x + np.swapaxes(x, -1, -2))


class SpeedProbe:
    """Background sampler of the calibration kernel's duration."""

    def __init__(self):
        self.samples = []        # (mid time, duration), time increasing
        self._stop = threading.Event()
        self._paused = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self):
        # the first call refills the caches the main thread evicted, so the
        # timed one sees the core's speed rather than its cache contents;
        # CPU time of this thread, because while numpy runs without the GIL
        # the main thread shares the CPU and its time slices must not count
        kernel()
        t0, c0 = perf_counter(), thread_time()
        kernel()
        d = thread_time() - c0
        self.samples.append((0.5 * (t0 + perf_counter()), d))

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            if not self._paused.is_set():
                self._sample()

    def start(self):
        """Take SMOOTH samples at once, then one every PERIOD_S."""
        for _ in range(SMOOTH):
            self._sample()
        self._thread.start()
        return self

    def pause(self):
        """Stop sampling while another process has this CPU."""
        self._paused.set()

    def resume(self):
        self._paused.clear()

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=5.0)

    def scale(self, start: float, end: float) -> float:
        """Duration of [start, end] in reference seconds."""
        samples = np.array(self.samples)
        t, d = samples[:, 0], samples[:, 1]
        pad = SMOOTH // 2
        windows = np.lib.stride_tricks.sliding_window_view(np.pad(d, pad, mode="edge"), SMOOTH)
        factor = NOMINAL_KERNEL_S / np.median(windows, axis=1)
        mid = 0.5 * (t[1:] + t[:-1])
        lo = np.concatenate(([-np.inf], mid))
        hi = np.concatenate((mid, [np.inf]))
        overlap = np.clip(np.minimum(hi, end) - np.maximum(lo, start), 0.0, None)
        return float(overlap @ factor)

    def factor(self, start: float, end: float) -> float:
        """Mean speed factor over [start, end]."""
        return self.scale(start, end) / (end - start) if end > start else 1.0

    def kernel_median(self) -> float:
        return float(np.median([d for _, d in self.samples]))
