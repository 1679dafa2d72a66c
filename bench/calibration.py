"""A fixed calibration kernel timed around and during the benchmark's calls.

On a shared machine the speed of the processor drifts by up to 2x over tens
of seconds, and the calls of a workload slow down with it. The kernel runs
no swarmlift code; scaling each stretch of a call by the kernel's time
around it cancels most of the drift. This assumes the program runs on one
thread: a program that runs work in parallel would compete with the kernel
samples taken during its calls, and the slowdown would be divided out as
drift. ``check_serial`` therefore fails a call whose processor time exceeds
its wall time.
The kernel mixes the work the workloads do: small numpy operations driven
by the interpreter (the simulations), SVDs of 30x30 complex matrices (the
SSV bound) and plain interpreter arithmetic.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

# Nominal kernel time: a stretch of a call that took d seconds between
# kernel samples k0 and k1 counts as d * NOMINAL_S / mean(k0, k1)
# calibrated seconds. About the kernel's median on a 2-core x86_64 machine
# at 2.1 GHz.
NOMINAL_S = 0.1
# A call longer than this is sampled during the call as well (SIGALRM).
INTERVAL_S = 1.0
# A serial call uses at most its wall time of processor time; this allows
# for the clock-tick granularity of os.times.
SERIAL_SLACK_S = 0.05

_rng = np.random.default_rng(0)
_MATS = _rng.normal(size=(40, 30, 30)) + 1j * _rng.normal(size=(40, 30, 30))
_U, _V = _rng.normal(size=3), _rng.normal(size=3)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(3000):
        np.cross(_U, _V)
    for M in _MATS:
        np.linalg.svd(M, compute_uv=False)
    acc = 0
    for i in range(100_000):
        acc += i * i
    return time.perf_counter() - t0


def cpu_seconds() -> float:
    """Processor seconds of this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def check_serial(wall: float, cpu: float) -> None:
    if cpu > wall + SERIAL_SLACK_S:
        raise RuntimeError(
            f"a call used {cpu:.3f} s of processor time in {wall:.3f} s of "
            "wall time, so it ran in parallel; the calibration assumes a "
            "single-threaded program and does not apply")


class Calibrator:
    """Runs calls with the kernel timed before the first call, after each
    call and every INTERVAL_S during a call. The kernel's own time is not
    counted in the call's time. ``kernels`` holds every sample in order,
    ``during`` those taken during a call and ``between`` the others."""

    def __init__(self):
        self.kernels = [kernel_seconds()]
        self.during, self.between = [], list(self.kernels)

    def call(self, fn):
        """Returns (fn(), wall seconds, calibrated seconds). Raises when
        the call used more processor time than wall time."""
        # (wall seconds of the call, its processor seconds, kernel seconds
        # after it)
        stretches = []
        start = [0.0, 0.0]

        def stretch():
            return (time.perf_counter() - start[0], cpu_seconds() - start[1])

        def on_alarm(signum, frame):
            stretches.append((*stretch(), kernel_seconds()))
            self.during.append(stretches[-1][2])
            start[:] = time.perf_counter(), cpu_seconds()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        start[:] = time.perf_counter(), cpu_seconds()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            stretches.append((*stretch(), None))
        wall = sum(d for d, _, _ in stretches)
        check_serial(wall, sum(c for _, c, _ in stretches))
        stretches[-1] = (*stretches[-1][:2], kernel_seconds())
        self.between.append(stretches[-1][2])
        calibrated = 0.0
        before = self.kernels[-1]
        for d, _, after in stretches:
            calibrated += NOMINAL_S * d / (0.5 * (before + after))
            self.kernels.append(after)
            before = after
        return out, wall, calibrated
