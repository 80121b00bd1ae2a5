"""The tail-percentile rule and the machine-speed probe of the benchmark."""

from __future__ import annotations

import math
import time

import numpy as np

# Seconds one probe takes on the reference machine (2-core x86-64 VM,
# numpy 2.4 with single-threaded OpenBLAS 0.3.31) in a typical period.
REF_PROBE_S = 0.030


class SpeedProbe:
    """A fixed kernel in the mix qbl runs: batched eigh and Kraus einsum on
    4x4 and 8x8 complex matrices, plus interpreter-bound Python.

    On a shared host the speed of one core drifts by up to +-30% from one
    minute to the next. The probe runs between the tasks of a round and
    measures the speed the round ran at; seconds times REF_PROBE_S over
    the mean probe seconds are reference seconds, in which that drift
    cancels. The kernel is part of the benchmark, so no change to qbl can
    move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = []
        for batch, d in ((32, 4), (64, 8)):
            a = rng.normal(size=(batch, d, d)) + 1j * rng.normal(size=(batch, d, d))
            self.mats.append((a + a.conj().swapaxes(-1, -2), rng.normal(size=(3, d, d)) + 0j))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for reps, (herm, kraus) in zip((25, 5), self.mats):
            for _ in range(reps):
                vals, _ = np.linalg.eigh(herm)
                np.einsum("aij,bjk,alk->bil", kraus, herm, kraus.conj())
                sum(float(vals[i % 32, 0]) for i in range(100))
        return time.perf_counter() - t0


def tail_percentile(values: list[float], beyond: int = 10) -> tuple[int, float] | None:
    """The highest whole percentile p that has at least ``beyond`` samples
    strictly above its value, as (p, value); None when there are too few
    samples for any percentile to qualify.

    The p-th percentile is the nearest-rank order statistic: the
    ceil(p/100 * n)-th smallest sample (p = 0 is the minimum).
    """
    xs = sorted(values)
    n = len(xs)
    for p in range(100, -1, -1):
        rank = max(1, math.ceil(p * n / 100))
        value = xs[rank - 1]
        if sum(1 for x in xs if x > value) >= beyond:
            return p, value
    return None
