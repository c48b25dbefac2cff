"""How fast the host runs right now, from a fixed reference kernel.

The benchmark was written on a shared 2-core host whose speed drifted by up
to 1.7x over minutes, so raw wall times of one run said more about the
neighbours than about edgebench. Every run therefore interleaves short
runs of a reference kernel with its ops (about a tenth of the time) and
reports each time scaled by NOMINAL_MS over the median kernel time measured
within WINDOW_S of it: a time at the host's nominal speed. Raw times stay
in the results file.

The kernel does the two kinds of work edgebench does, an interpreted flood
fill with numpy scalar indexing and whole-array smoothing passes, and uses
no edgebench code, so a faster edgebench shows as a shorter scaled time. It
must never change: a change rescales every reported time.
"""

import bisect
import statistics
import time
from collections import deque

import numpy as np

NOMINAL_MS = 15.0
DUTY = 0.1
WINDOW_S = 2.0

_rng = np.random.default_rng(20131119)
_GRID = _rng.random((48, 48)) > 0.45
_PLANE = _rng.random((384, 384))


def reference_ms() -> float:
    """Run the reference kernel once; return its wall time in ms."""
    start = time.perf_counter()
    h, w = _GRID.shape
    seen = np.zeros_like(_GRID)
    for sy, sx in zip(*np.nonzero(_GRID)):
        if seen[sy, sx]:
            continue
        seen[sy, sx] = True
        queue = deque([(sy, sx)])
        while queue:
            y, x = queue.popleft()
            for ny in (y - 1, y, y + 1):
                if 0 <= ny < h:
                    for nx in (x - 1, x, x + 1):
                        if 0 <= nx < w and _GRID[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            queue.append((ny, nx))
    padded = np.pad(_PLANE, 4, mode="edge")
    out = np.zeros_like(_PLANE)
    for i in range(9):
        out += 0.1 * padded[4:-4, i:i + 384]
    for i in range(9):
        out += 0.1 * padded[i:i + 384, 4:-4]
    return (time.perf_counter() - start) * 1e3


class SpeedMeter:
    """Reference samples (end time, ms) taken between ops."""

    def __init__(self, kernel=reference_ms):
        self.samples = []
        self._kernel = kernel
        self._busy_s = 0.0
        self._sampled_s = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            ms = self._kernel()
            self.samples.append((time.perf_counter(), ms))
            self._sampled_s += ms / 1e3

    def keep_up(self, busy_s: float) -> None:
        """Sample until the kernel has had DUTY of the time ops had."""
        self._busy_s += busy_s
        while self._sampled_s < DUTY * self._busy_s:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_MS over the median sample taken within WINDOW_S of
        [start, end], or of all samples when none is that close."""
        ends = [t for t, _ in self.samples]
        near = self.samples[bisect.bisect_left(ends, start - WINDOW_S):bisect.bisect_right(ends, end + WINDOW_S)]
        return NOMINAL_MS / statistics.median(ms for _, ms in (near or self.samples))
