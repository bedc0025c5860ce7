"""Machine-speed samples taken while ops run, to express op times relative to them.

Other tenants of a shared machine slow the same code by 1.5-3x, in bursts
of seconds that come and go over minutes, so raw op times of one seed-run
to the next spread by 12-42 %.  A SIGALRM timer runs a fixed reference
kernel at a fixed interval inside the benchmark process: its samples see
the slowdown of the op they interrupt.  An op's relative time is its wall
time divided by the median reference sample taken within three intervals
of it.  The kernels use numpy and scipy only, never homcont, so no change
to homcont moves them.

Contention slows interpreter-bound code and large LAPACK calls by different
factors, so each workload names the kernel that matches the work that
dominates it:

- "small": twelve rounds of 4x4 SVD, eigvals, sorted real Schur, QR and
  solve, plus one 96x96 SVD, every 0.1 s; for ops made of many small
  numpy/scipy calls and Python loops.
- "dense": one full SVD of a 192x192 matrix every 0.5 s; for ops dominated
  by dense factorizations of window-size matrices.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
import scipy.linalg as sla


class SpeedProbe:
    """Context manager that samples a reference kernel on a timer."""

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        if kind == "small":
            self._small = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
            self._mid = rng.standard_normal((96, 96))
            self.kernel, self.interval_s = self._small_calls, 0.1
        elif kind == "dense":
            self._mid = rng.standard_normal((192, 192))
            self.kernel, self.interval_s = self._dense_svd, 0.5
        else:
            raise ValueError(f"unknown reference kernel {kind!r}")
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def _small_calls(self):
        for _ in range(12):
            m = self._small @ self._small.T
            np.linalg.svd(m, compute_uv=False)
            np.linalg.eigvals(m)
            sla.schur(m, output="real", sort="iuc")
            q, _ = np.linalg.qr(m)
            np.linalg.solve(m, q)
        np.linalg.svd(self._mid)

    def _dense_svd(self):
        np.linalg.svd(self._mid)

    def sample(self, *_):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.sample()
        return False

    def relative(self, start: float, end: float) -> float:
        """Wall time of [start, end] in units of the reference kernel nearby."""
        pad = 3.0 * self.interval_s
        starts = [t for t, _ in self.samples]
        lo = bisect.bisect_left(starts, start - pad)
        hi = bisect.bisect_right(starts, end + pad)
        window = [s for _, s in self.samples[lo:hi]]
        if not window:
            window = [self.samples[min(lo, len(self.samples) - 1)][1]]
        return (end - start) / statistics.median(window)

    def median_s(self) -> float:
        return statistics.median(s for _, s in self.samples)
