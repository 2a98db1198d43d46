"""Host-speed calibration of the end-to-end timings.

The benchmark's host shares its cores, and the speed it gives one
process moves by up to 2x: the same hover solve takes 9.5 ms in one
stretch and 15 ms in the next, and such stretches last from a few ticks
to whole minutes.  Raw wall times therefore spread between runs of the
same code by more than any bound a regression check could use.

``TickClock`` times a fixed calibration kernel at the start of every
control tick, from a wrapper around ``quadvpc.simulator.observe`` (the
name ``run_closed_loop`` looks up once per tick).  The kernel does the
same kind of work as a tick, small numpy linear algebra and scalar
Python, and the package's code never runs inside it, so a change to the
package cannot change the kernel's time; only the host can.  Each tick's
times are then scaled by ``REF_KERNEL_MS / kernel_ms``, where
``kernel_ms`` is the mean of the two kernel times that bracket the tick.
A scaled time reads what the tick would take on a host on which the
kernel takes ``REF_KERNEL_MS``.  The kernel's own time is left out of
every tick.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the reference host: 2 vCPUs of an Intel Xeon
# under KVM, Python 3.11, numpy 2.4 (OpenBLAS).
REF_KERNEL_MS = 1.0
KERNEL_REPS = 40

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((12, 12))
_B = _rng.standard_normal((12, 4))
_V = _rng.standard_normal(13)
_EYE = np.eye(12)


def kernel() -> float:
    """Fixed work of the kind a control tick does."""
    x = 0.0
    for _ in range(KERNEL_REPS):
        y = np.linalg.solve(_A @ _A.T + _EYE, _B)
        q = np.concatenate([_V, [y[0, 0]]])
        x += float(np.dot(q, q)) * 1e-9
        for j in range(20):
            x += j * 0.5
    return x


def kernel_times(calls: int) -> list:
    """Wall times of ``calls`` back-to-back kernel calls, in ms."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        kernel()
        times.append(1e3 * (time.perf_counter() - t0))
    return times


def bracket_scales(kernel_ms) -> np.ndarray:
    """``REF_KERNEL_MS`` over the mean kernel time before and after each tick.

    The last tick has no kernel call after it and takes the one before.
    """
    k = np.asarray(kernel_ms, dtype=float)
    return 2.0 * REF_KERNEL_MS / (k + np.append(k[1:], k[-1]))


class TickClock:
    """Times the kernel once per tick while installed; see the module docstring."""

    def __init__(self):
        self.starts = []  # perf_counter at each kernel start
        self.ms = []  # kernel time of each tick
        self._original = None

    def __enter__(self):
        import quadvpc.simulator as sim

        self._module = sim
        self._original = fn = sim.observe
        starts, ms = self.starts, self.ms

        def observe(*args, **kwargs):
            t0 = time.perf_counter()
            kernel()
            starts.append(t0)
            ms.append(1e3 * (time.perf_counter() - t0))
            return fn(*args, **kwargs)

        sim.observe = observe
        return self

    def __exit__(self, *exc):
        self._module.observe = self._original
        return False

    def scaled(self, begin: float, end: float, solve_ms):
        """Scaled wall time of [begin, end] and scaled solve times, for the ticks timed in it.

        ``solve_ms`` are the solve times of those ticks in order; tick j
        takes the scale of the j-th kernel call (``bracket_scales``).
        The wall time is split at the kernel calls: the stretch before
        the first call takes the first tick's scale, and each stretch
        after a call takes that call's scale.
        """
        n = len(self.ms)
        if n == 0:
            return end - begin, np.asarray(solve_ms, float)
        scale = bracket_scales(self.ms)
        stops = np.asarray(self.starts)
        resumes = stops + 1e-3 * np.asarray(self.ms)
        stretches = np.append(stops - np.concatenate([[begin], resumes[:-1]]), end - resumes[-1])
        wall = stretches[0] * scale[0] + float(np.dot(stretches[1:], scale))
        idx = np.minimum(np.arange(len(solve_ms)), n - 1)
        return wall, np.asarray(solve_ms, float) * scale[idx]
