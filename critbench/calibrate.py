"""Machine-speed calibration for the end-to-end times.

On a shared host the same fixed work runs 20% slower or faster for tens of
seconds at a time, as long as a run, so even the best of an item's repeats
carries the speed of the machine during that run.  A run therefore also
times a fixed reference kernel (plain Python, no critlocus code) between
items, and scales its item times by

    REFERENCE_S / (10th percentile of the kernel's times in this run)

so that they read as seconds on a machine where the kernel takes
``REFERENCE_S``.  The kernel is Fraction elimination, which is what
critlocus spends most of its time on.  Before each item the kernel runs
once for every ``SAMPLE_EVERY_S`` seconds since it last ran, so that the
samples follow wall time rather than item count and a long item is
followed by several.  See the Noise section of README.md for how much
this steadies the figures.

The kernel runs in the benchmark's own process, so a change to the program
that left threads running would slow it as well as the items; ``run.py``
fails an item after which more than one thread is alive.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the kernel's 10th-percentile time on the 2-core Intel Xeon the benchmark
# was tuned on; only the scale of the reported times depends on it
REFERENCE_S = 0.015
SAMPLE_EVERY_S = 0.5
MAX_BATCH = 10
# a run with fewer samples than this tops them up at its end
MIN_SAMPLES = 40


def reference_kernel() -> int:
    """Gauss-Jordan elimination of a fixed 16x16 Fraction matrix; its rank."""
    n = 16
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i * j) % 5) for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
        p = next((r for r in range(rank, n) if m[r][c] != 0), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for r in range(n):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def tenth_percentile(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 10]


class Calibration:
    """Times of the reference kernel over one run."""

    def __init__(self):
        self.samples = []
        self.last = time.perf_counter()

    def sample(self):
        """Time the kernel once per ``SAMPLE_EVERY_S`` since the last call,
        at least once and at most ``MAX_BATCH`` times."""
        since = time.perf_counter() - self.last
        for _ in range(max(1, min(MAX_BATCH, round(since / SAMPLE_EVERY_S)))):
            start = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - start)
        self.last = time.perf_counter()

    def factor(self) -> float:
        """What a time measured in this run is multiplied by."""
        while len(self.samples) < MIN_SAMPLES:
            self.sample()
        return REFERENCE_S / tenth_percentile(self.samples)
