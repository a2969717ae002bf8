"""Host speed reference: a fixed kernel timed beside every operation.

The benchmark's host is a shared VM whose speed changes in stretches of a few
seconds to minutes: the same fixed code takes up to twice as long in a slow
stretch as in a fast one, and CPU time tracks wall time.  The ratio of two
kinds of fixed work measured side by side barely moves (within about 5%)
while each alone moves by 40%.  So the benchmark times this kernel before
every operation and after the last one of each round, and reports every time
metric in *reference seconds*: the measured seconds times NOMINAL_S over the
kernel's local time.  That is the time the operation would take on a host
where the kernel takes NOMINAL_S.  The program never runs the kernel, so a
change to the program moves reference seconds as it moves real ones.

The kernel mixes the three kinds of work lethargy's tasks spend their time
in, in about equal shares: a HiGHS linear program through scipy's
``linprog`` (a small minimax fit, like the sup-norm chain solves), LAPACK
SVDs of a 64 x 64 matrix (like the rank and projection solves), and a
pure-Python loop with small numpy reductions (like the quantizer bisection
and the task glue).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog

NOMINAL_S = 0.015   # the kernel's time on the reference host in a fast stretch
SVDS = 8            # sizes that give the three parts about equal shares there
STEPS = 2000

_rng = np.random.default_rng(20100317)
_FIT = _rng.standard_normal((200, 12))
_TARGET = _rng.standard_normal(200)
_MATRIX = _rng.standard_normal((64, 64))
_VALUES = _rng.standard_normal(64)

# min t subject to |FIT c - TARGET| <= t, in linprog's inequality form
_ROWS, _COLS = _FIT.shape
_C = np.zeros(_COLS + 1)
_C[-1] = 1.0
_A_UB = np.vstack([np.hstack([_FIT, -np.ones((_ROWS, 1))]),
                   np.hstack([-_FIT, -np.ones((_ROWS, 1))])])
_B_UB = np.concatenate([_TARGET, -_TARGET])
_BOUNDS = [(None, None)] * _COLS + [(0, None)]


def kernel() -> float:
    res = linprog(_C, A_ub=_A_UB, b_ub=_B_UB, bounds=_BOUNDS, method="highs")
    total = float(res.fun)
    for _ in range(SVDS):
        total += float(np.linalg.svd(_MATRIX)[1][0])
    lo, hi = 0.0, 1.0
    for _ in range(STEPS):   # a bisection in Python over small numpy reductions
        mid = 0.5 * (lo + hi)
        if float(np.abs(_VALUES - mid).max()) > 2.0:
            lo = mid
        else:
            hi = mid
    return total + lo


def sample() -> float:
    """Seconds one kernel call takes now."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def warm_up(calls: int = 3) -> None:
    for _ in range(calls):
        kernel()


def local_scale(samples: list, i: int) -> float:
    """Factor from seconds to reference seconds for work done between
    samples[i] and samples[i + 1]: NOMINAL_S over the median of the samples
    from i - 1 to i + 2, so that one stray sample does not count."""
    return NOMINAL_S / statistics.median(samples[max(i - 1, 0):i + 3])


def median_scale(samples: list) -> float:
    """Factor from seconds to reference seconds at the median speed of
    `samples`, for work that cannot be bracketed by samples of its own."""
    return NOMINAL_S / statistics.median(samples)
