"""Host speed gauge: a fixed reference computation timed alongside the workload.

The shared 2-vCPU host the benchmark was written on runs in speed modes
about 1.6x apart, which change over seconds to minutes.  The program's own
user CPU time moves with them (it is not time spent descheduled), so a
round's wall time says as much about the host's mode as about the program.
Ten 35-s runs of the same code spread their median round time by
(q3 - q1) / median = 0.32 in one 6-minute stretch.

The gauge runs a small fixed computation of the same make-up as the
program's work (batched and single-row MLP forwards and backwards in numpy,
elementwise exp/log, a scalar Python loop) between pieces of the workload,
and times it.  Its arrays come from a fixed seed and it shares no code with
the program, so a change to the program cannot change it.  A round's time
scaled by ``REFERENCE_S / median(gauge samples of that round)`` is the
round's time at the reference speed.  In the same 6-minute stretch, a gauge
of the same make-up brought the spread of the ten runs from 0.32 to 0.05.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# about the median time of one gauge chunk on the host the benchmark was
# written on (2 vCPUs of an Intel Xeon at 2.1 GHz, numpy 2.4.6, one BLAS
# thread); it only sets the scale of the adjusted figures
REFERENCE_S = 0.004
# least time between two samples taken from inside a training run
MIN_GAP_S = 0.25


class HostGauge:
    """Times a fixed chunk of work on demand and keeps every sample."""

    def __init__(self):
        rng = np.random.default_rng(20240317)
        self.x = rng.uniform(-1.0, 1.0, (256, 22))
        self.w1 = rng.standard_normal((22, 64)) * 0.2
        self.w2 = rng.standard_normal((64, 64)) * 0.1
        self.w3 = rng.standard_normal((64, 4)) * 0.1
        self.samples: list[float] = []
        self.last = -math.inf

    def _chunk(self) -> float:
        x, w1, w2, w3 = self.x, self.w1, self.w2, self.w3
        acc = 0.0
        for _ in range(6):
            h1 = np.tanh(x @ w1)
            h2 = np.tanh(h1 @ w2)
            out = h2 @ w3
            p = np.exp(out - out.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            acc += float((p * np.log(p)).sum())
            d2 = ((p - 0.25) @ w3.T) * (1.0 - h2 * h2)
            d1 = (d2 @ w2.T) * (1.0 - h1 * h1)
            acc += float((x.T @ d1).sum() + (h1.T @ d2).sum())
        for i in range(24):
            h = np.tanh(np.tanh(x[i:i + 1] @ w1) @ w2)
            acc += float((h @ w3)[0, 0])
        px, py, vx, vy = 0.0, 0.0, 1.0, 0.5
        for _ in range(400):
            vx, vy = vx * 0.99 + 0.01 * math.cos(py), vy * 0.99 - 0.01 * math.sin(px)
            px, py = px + 0.05 * vx, py + 0.05 * vy
        return acc + px + py

    def sample(self) -> float:
        """Run one chunk; return its time and keep it."""
        started = perf_counter()
        self._chunk()
        self.last = perf_counter()
        took = self.last - started
        self.samples.append(took)
        return took

    def sample_if_due(self) -> float:
        """Run one chunk if ``MIN_GAP_S`` has passed since the last; return its time."""
        return self.sample() if perf_counter() - self.last >= MIN_GAP_S else 0.0


def adjusted(seconds: float, samples) -> float:
    """``seconds`` scaled to the reference speed by the median of ``samples``."""
    return seconds * REFERENCE_S / statistics.median(samples)
