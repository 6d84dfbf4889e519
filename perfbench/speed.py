"""Host-speed reference for the benchmark's timings.

On a shared host the speed of the machine switches between states within
a second and drifts by tens of percent over minutes, and a run of the same
code reads slower or faster with it. A fixed kernel of numpy and Python
work, independent of ``armplan``, is timed every ``TIMER_S`` seconds
throughout the timed phases of a run, from a timer signal. A timed interval
(one set-up, one case) loses the time of the samples taken inside it, and
is scaled by ``REF_S`` over the median kernel time of the samples in or
nearest to it. Every time the benchmark reports so reads as on a host where
the kernel takes ``REF_S``.

A change to ``armplan`` cannot move the kernel: it imports nothing from the
package, and it is kept apart from the program's state (see ``_kernel`` and
``Speedometer._sample``). The raw, unscaled times are printed beside the
scaled ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# about the kernel's median within a run on the reference host (2-core
# x86-64 at about 3 GHz, numpy 2.4); only the ratio of a sample to this
# constant matters
REF_S = 0.005
TIMER_S = 0.1  # sampling period
NEAREST = 15   # least number of samples a local speed is the median of

_rng = np.random.default_rng(12345)
# batches of 40 and 150 configurations keep every temporary below glibc's
# 128 KiB mmap threshold, and the buffers are made once: the kernel's
# allocations must not depend on how the program left the heap
_ANGLES = (_rng.uniform(-3.0, 3.0, (40, 7)), _rng.uniform(-3.0, 3.0, (150, 7)))
_LENGTHS = _rng.uniform(0.1, 0.5, 7)
_NORMALS = _rng.standard_normal((12, 2))
_TABLE = {i: float(i) for i in range(4096)}
_SRC = _rng.standard_normal(1 << 18)  # 2 MiB
_DST = np.empty_like(_SRC)


def _chain_overlaps(angles: np.ndarray) -> float:
    """The shape of a collision batch: planar link frames from joint angles,
    projections onto obstacle normals, interval overlap tests."""
    h = np.cumsum(angles, axis=1)
    u = np.stack([np.cos(h), np.sin(h)], axis=-1)
    p = np.cumsum(u * _LENGTHS[None, :, None], axis=1)
    proj = p @ _NORMALS.T
    half = np.abs(u @ _NORMALS.T) * 0.05
    lo, hi = (proj - half).min(axis=1), (proj + half).max(axis=1)
    return float(((lo < 0.3) & (hi > -0.3)).any(axis=1).sum())


def _kernel() -> float:
    """About 5 ms of the kinds of work the planner does: collision-shaped
    numpy on batches of 40 and 150 configurations, interpreted Python, and
    passes over 2 MiB of memory. A BLAS matrix product is left out on
    purpose: its speed swings several times more than the planner's does."""
    small, mid = _ANGLES
    s = sum(_chain_overlaps(small) for _ in range(8))
    s += sum(_chain_overlaps(mid) for _ in range(5))
    for i in range(4000):
        s += _TABLE[(i * 7) & 4095] * 0.5
    for _ in range(5):
        np.multiply(_SRC, 1.0001, out=_DST)
        s += float(_DST[::4096].sum())
    return s


class Speedometer:
    """Kernel samples of one run, as (midpoint, seconds) pairs."""

    def __init__(self, warmup: int = 3):
        self.samples: list[tuple[float, float]] = []
        self._busy = False
        for _ in range(warmup):
            _kernel()
        for _ in range(NEAREST):  # so that no interval lacks samples
            self._sample()

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that arrived during a sample
            return
        self._busy = True
        # a collection here would scan the program's objects
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((0.5 * (t0 + t1), t1 - t0))
        self._busy = False

    @contextmanager
    def sampling(self):
        """Take a sample every ``TIMER_S`` while the body runs, from a
        SIGALRM handler, which runs in the main thread between bytecodes."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, TIMER_S, TIMER_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, scaled) seconds of the interval [t0, t1]. Raw leaves out
        the samples taken inside the interval; scaled is raw times
        ``REF_S`` over the median of those samples, or of the ``NEAREST``
        closest ones when fewer fell inside."""
        inside = [dt for mid, dt in self.samples if t0 <= mid <= t1]
        raw = (t1 - t0) - sum(inside)
        if len(inside) < NEAREST:
            def gap(s):
                return max(t0 - s[0], s[0] - t1, 0.0)
            inside = [dt for _, dt in sorted(self.samples, key=gap)[:NEAREST]]
        return raw, raw * REF_S / statistics.median(inside)

    def median_s(self) -> float:
        return statistics.median(dt for _, dt in self.samples)
