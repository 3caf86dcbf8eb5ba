"""Host-speed calibration: a fixed kernel of the benchmark's own, timed between ops.

The benchmark runs on a few cores of a shared host whose speed changes by up
to a factor of two from one second to the next, as other tenants come and
go; process CPU time follows wall time, so the cores themselves run slower.
Raw wall times of the same code on the same inputs then differ from run to
run by more than any bound a regression gate could use.  So every run also
times this kernel, which never changes and never calls procgeom, between its
ops, and the end-to-end times are reported in *reference seconds*: each raw
time multiplied by ``REFERENCE_S`` over the median kernel time of the
``WINDOW`` samples nearest it, half taken before it and half after.  On a
host as fast as the reference host the two agree; a change to procgeom moves
the reported time exactly as it moves the raw one, because the kernel does
not depend on it.  The raw times are kept in the run's record.

The kernel mixes the three kinds of work procgeom does, in rough proportion:
an interpreted per-symbol loop (``generate_sequence``, the sync searches),
small-array numpy calls (belief walks, pair-state construction) and one dense
``lstsq`` (the pair-chain solve).  ``run.py`` limits BLAS to one thread: with
two, the dense part would wait on other tenants' threads and slow by far more
than the code around it.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_right

import numpy as np

# Median kernel time on the reference host: 2 vCPUs of an Intel Xeon,
# Python 3.11.7, numpy 2.4.6 with OpenBLAS at 1 thread.
REFERENCE_S = 0.0116
EVERY_S = 0.25  # one kernel sample per this much op time
WINDOW = 4  # kernel samples that scale one timed interval

_RNG = np.random.default_rng(20180125)
_CUM_ROWS = [row.tolist() for row in np.cumsum(_RNG.dirichlet([2.0, 2.0], 16), axis=1)]
_DELTA_ROWS = _RNG.integers(0, 16, (16, 2)).tolist()
_U = _RNG.random(20_000).tolist()
_EVENTS = _RNG.random((2, 12, 12))
_WORDS = _RNG.integers(0, 2, (240, 20))
_DENSE = _RNG.random((140, 140))
_RHS = _RNG.random(140)


def kernel() -> float:
    """One fixed unit of work; returns a value so nothing is optimised away."""
    q, acc = 0, 0
    for u in _U:  # per-symbol interpreted loop
        s = bisect_right(_CUM_ROWS[q], u)
        if s > 1:
            s = 1
        acc += s
        q = _DELTA_ROWS[q][s]
    belief = np.full((20, 12), 1.0 / 12)
    for t in range(_WORDS.shape[0]):  # small-array gathers and products
        m = _EVENTS[_WORDS[t]]
        belief = np.einsum("kq,kqr->kr", belief, m)
        belief /= belief.sum(axis=1, keepdims=True)
    x = np.linalg.lstsq(_DENSE, _RHS, rcond=None)[0]  # one dense solve
    return acc + float(belief[0, 0]) + float(x[0])


class HostSpeed:
    """Kernel samples of one run, and the factor that turns raw into reference seconds."""

    def __init__(self):
        self.samples: list[float] = []
        kernel()  # warm caches and lazy imports before the first sample

    def sample(self) -> float:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def mark(self) -> int:
        """Position of the interval about to be timed in the sample sequence."""
        return len(self.samples)

    def factor(self, mark: int) -> float:
        """Reference seconds per raw second for the interval timed at ``mark``."""
        window = self.samples[max(0, mark - WINDOW // 2):mark + WINDOW // 2]
        return REFERENCE_S / statistics.median(window)

    def record(self) -> dict:
        return {
            "kernel_samples": len(self.samples),
            "kernel_median_s": statistics.median(self.samples),
            "reference_s": REFERENCE_S,
            "kernel_s": self.samples,
        }
