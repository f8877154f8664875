"""Host-speed calibration: a fixed numpy kernel timed around every sample.

This benchmark runs on a shared 2-core VM. Other tenants slow a process
by up to 1.8x, for seconds to minutes at a time, and the slowdown shows
in CPU time as much as in wall time, so repeating a sample does not
remove it. A fixed kernel that never changes (it does not use ``iapd``)
is timed just before and just after each sample. A sample is reported
at the reference speed of the kernel:

    reported = measured * REFERENCE_S / load

where ``load`` is the median kernel time over the kernel runs within one
sample length (at least MIN_WINDOW_S) before or after the sample. A
sample of several seconds has no kernel run inside it, so its load comes
from the runs around it; the load swings last from a fraction of a second
to minutes.

The kernel is a primal-dual step written out in plain numpy (two
products with a 200 x 400 matrix, a soft threshold and a dozen small
vector operations), so Python overhead and products weigh as in a desk
solver step. REFERENCE_S is its fastest time seen on the 2-core Xeon VM
this benchmark was written on, so on a quiet host reported and measured
seconds agree.

The large workload is not calibrated: its work is BLAS products on a
matrix in the shared L3, which this kernel does not load, and a kernel of
its own size tracked it worse than no correction at all (see README.md).
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0048
MIN_WINDOW_S = 0.25
SHAPE, REPEATS = (200, 400), 100


class Calibrator:
    """Owns the kernel's arrays and the log of every kernel run."""

    def __init__(self):
        rng = np.random.default_rng(20231117)
        self.A = rng.standard_normal(SHAPE) / np.sqrt(SHAPE[0])
        self.x0 = rng.standard_normal(SHAPE[1])
        self.reference_s = REFERENCE_S
        self.log: list[tuple[float, float]] = []  # (start, end) of each kernel run

    def kernel(self) -> None:
        """Run the fixed kernel once and log when it ran."""
        A = self.A
        x = xp = self.x0
        y = v = vp = np.zeros(A.shape[0])
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            xbar = x + 0.5 * (x - xp)
            w = A.T @ (v + 0.5 * (v - vp))
            z = xbar - 1e-3 * w
            xn = np.sign(z) * np.maximum(np.abs(z) - 1e-4, 0.0)
            u = xn + 0.5 * (xn - x)
            vn = (v + 1e-3 * (A @ u)) / (1.0 + 1e-3)
            yn = (0.5 * y + vn) / 1.5
            if not (np.all(np.isfinite(xn)) and np.all(np.isfinite(yn))):
                raise FloatingPointError("calibration kernel diverged")
            xp, x, y, vp, v = x, xn, yn, v, vn
            float(np.linalg.norm(x - xp))
        self.log.append((t0, time.perf_counter()))

    def measure(self, fn):
        """Run ``fn`` once between two kernel runs; returns (result, start, end)."""
        self.kernel()
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        self.kernel()
        return result, start, end

    def load(self, start: float, end: float) -> float:
        """Median kernel seconds over the runs near the sample [start, end]."""
        window = max(MIN_WINDOW_S, end - start)
        near = [e - s for s, e in self.log if s <= end + window and e >= start - window]
        return float(np.median(near))

    def scale(self, start: float, end: float) -> float:
        """The seconds from ``start`` to ``end`` at the kernel's reference speed."""
        return (end - start) * self.reference_s / self.load(start, end)
