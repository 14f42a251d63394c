"""A fixed reference computation that measures how fast the host runs right now.

On a shared host the speed of the same Python and numpy code drifts: on a
2-vCPU virtual machine one solve took from 1.2 s to 2.5 s within two
minutes.  An untraced run times this kernel just before and just after every
solve and reports solve times in multiples of it, so a phase in which every
computation runs slower cancels out.  The kernel mixes what a solve does:
interpreted arithmetic, small numpy linear algebra and qhull calls.  It uses
numpy and scipy only, never capsec, so no change to capsec changes it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy.spatial import ConvexHull

REPS = 5  # kernel timings per measurement; their median is taken
_rng = np.random.Generator(np.random.Philox(key=np.uint64(20251123)))
_MATRICES = _rng.normal(size=(8, 4, 4))
_POINTS = _rng.normal(size=(18, 3))


def _kernel():
    # about equal thirds of interpreted arithmetic, small numpy calls and qhull
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    for _ in range(3):
        for m in _MATRICES:
            acc += np.linalg.det(m) + np.linalg.norm(m @ m[0]) + np.linalg.solve(m, m[1]).sum()
    for _ in range(15):
        acc += ConvexHull(_POINTS).volume
    return acc


def seconds():
    """Median wall seconds of one kernel call, over ``REPS`` calls."""
    samples = []
    for _ in range(REPS):
        t0 = perf_counter()
        _kernel()
        samples.append(perf_counter() - t0)
    return statistics.median(samples)
