"""A fixed reference kernel that measures how fast the host runs right now.

The kernel mixes the kinds of work a placement does: interpreted Python
over dicts and heaps, small numpy array operations, a sparse solve and a
small HiGHS linear program.  Its inputs are fixed, so its duration
changes only with the host's speed.  It uses no placer code, so a change
to the placer cannot move it.

On a shared host the same placement can take 30% longer in one minute
than in the next, and this kernel slows down with it.
:func:`pace_factor` turns pass times into the factor by which the host
ran slower than the reference host; the benchmark divides its times by
it.  In a five-minute log of ibm01 placements alternating with passes of
this kernel on a 2-vCPU VM, dividing each placement by the passes either
side of it cut the spread between 30-op windows from 0.19 to 0.04.  An
exponent of 0.8 on the factor fitted that log a little better (0.03),
but it left a 10% shift between two sets of runs when the host later
ran 35% faster, where the plain ratio left 3%.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import linprog

#: the kernel's median pass time on the reference host (seconds):
#: normalized times are seconds on a host where a pass takes this long
REFERENCE_PASS_S = 0.025
#: passes per call of :func:`passes`, at the least
MIN_PASSES = 2

_rng = np.random.default_rng(20240601)
_N = 1500
_EDGES = [(int(a), int(b), float(w)) for a, b, w in
          zip(_rng.integers(0, _N, 4 * _N), _rng.integers(0, _N, 4 * _N),
              _rng.random(4 * _N))]
_G = 40
_LAPLACIAN = sp.csc_matrix(
    sp.diags([4.01] * (_G * _G)) - sp.eye(_G * _G, k=1) - sp.eye(_G * _G, k=-1)
    - sp.eye(_G * _G, k=_G) - sp.eye(_G * _G, k=-_G))
_RHS = _rng.random(_G * _G)
_M = _rng.random((64, 64))
_IMAGE = _rng.random((4, 16, 20, 20))
_NV = 80
_LP_C = _rng.random(_NV)
_LP_A = -_rng.random((2 * _NV, _NV))
_LP_B = -np.ones(2 * _NV)


def _python() -> None:
    adj: dict = {}
    for a, b, w in _EDGES:
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj.get(u, ()):
            if d + w < dist.get(v, float("inf")):
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))


def _numpy() -> None:
    a = _M
    for _ in range(20):
        a = a @ _M
        a /= a.max()
    for _ in range(5):
        np.lib.stride_tricks.sliding_window_view(_IMAGE, (3, 3), axis=(2, 3)).copy()


def _sparse() -> None:
    spla.spsolve(_LAPLACIAN, _RHS)


def _lp() -> None:
    linprog(_LP_C, A_ub=_LP_A, b_ub=_LP_B, bounds=(0, 1), method="highs")


def _pass() -> float:
    started = time.perf_counter()
    _python()
    _numpy()
    _sparse()
    _lp()
    return time.perf_counter() - started


def passes(budget_s: float) -> list[float]:
    """Wall-clock seconds of each pass of the kernel: at least
    ``MIN_PASSES`` passes, and more until *budget_s* seconds have gone.

    The garbage collector is off meanwhile, so the size of the heap the
    placer left behind does not change the kernel's cost."""
    times: list[float] = []
    gc.disable()
    try:
        while len(times) < MIN_PASSES or sum(times) < budget_s:
            times.append(_pass())
    finally:
        gc.enable()
    return times


def pace_factor(pass_times) -> float:
    """How many times slower than the reference host the host ran, by the
    median of a run's pass times."""
    return statistics.median(pass_times) / REFERENCE_PASS_S
