"""LP-based overlap removal minimizing weighted wirelength (Eq. 3) [34].

Given sequence-pair constraint edges for one axis, solve

    min Σ_n λ_n · (u_n − l_n)
    s.t. p_a + size_a ≤ p_b            for every constraint edge (a, b)
         l_n ≤ p_i + c_{i,n} ≤ u_n     for every movable pin of net n
         l_n ≤ q ≤ u_n                 for every fixed-pin constant q of n
         lo ≤ p_i ≤ hi − size_i

where p_i are lower-left coordinates along the axis and u_n/l_n capture the
net's span (so u_n − l_n is hW(n) or vW(n)).  The x and y problems are
independent, exactly as the paper notes.

If the LP is infeasible (the rectangles simply cannot fit in [lo, hi] under
the sequence-pair order) or the solver fails, :func:`pack_longest_path`
compacts the rectangles toward ``lo`` instead and the result is clamped.
The common infeasible case is decided without the solver: every lower
bound is ``lo``, so the least positions the constraint edges allow are the
longest paths from ``lo``, and the LP is feasible only if those positions
meet every upper bound ``max(hi - size_i, lo)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize as sopt
import scipy.sparse as sp

from repro.runtime import faults
from repro.runtime.errors import SolverInfeasibleError


@dataclass
class AxisNet:
    """One net's footprint along a single axis.

    ``pins`` holds (rect_index, offset) pairs: the pin sits at
    ``p[rect_index] + offset``.  ``fixed_positions`` are absolute pin
    coordinates of nodes outside the legalization set.
    """

    weight: float = 1.0
    pins: list[tuple[int, float]] = field(default_factory=list)
    fixed_positions: list[float] = field(default_factory=list)


#: overrun of an upper bound, per unit of span, beyond which the
#: longest-path pre-check declares an LP infeasible without calling the
#: solver.  Ten times HiGHS's default primal feasibility tolerance (1e-7),
#: so an LP the solver could still accept within its tolerance is sent to
#: the solver.
INFEASIBLE_OVERRUN_TOL = 1e-6


def _worst_overrun(
    sizes: np.ndarray, edges: list[tuple[int, int]], lo: float, hi: float
) -> tuple[int, float]:
    """(rectangle, overrun) of the largest upper-bound violation of the
    least positions the constraint edges allow from ``lo``.

    The edges form a DAG, so relaxing all of them at once reaches the
    longest-path fixpoint in at most n rounds.
    """
    n = len(sizes)
    pos = np.full(n, lo, dtype=float)
    if len(edges):
        src, dst = np.asarray(edges, dtype=np.int64).T
        for _ in range(n):
            need = pos.copy()
            np.maximum.at(need, dst, pos[src] + sizes[src])
            if np.array_equal(need, pos):
                break
            pos = need
    overrun = pos - np.maximum(hi - sizes, lo)
    worst = int(np.argmax(overrun))
    return worst, float(overrun[worst])


def pack_longest_path(
    sizes: np.ndarray, edges: list[tuple[int, int]], lo: float
) -> np.ndarray:
    """Compact rectangles toward *lo* honoring the constraint edges.

    The constraint graph from a sequence pair is acyclic, so iterative
    relaxation converges in at most n rounds; rectangle *b* ends at
    ``max(lo, max_{(a,b)} p_a + size_a)``.
    """
    n = len(sizes)
    pos = np.full(n, lo, dtype=float)
    for _ in range(max(n, 1)):
        changed = False
        for a, b in edges:
            need = pos[a] + sizes[a]
            if pos[b] < need - 1e-12:
                pos[b] = need
                changed = True
        if not changed:
            break
    return pos


def lp_solve_axis(
    sizes: np.ndarray,
    edges: list[tuple[int, int]],
    lo: float,
    hi: float,
    nets: list[AxisNet],
) -> np.ndarray:
    """Solve the Eq. 3 LP for one axis; returns lower-left coordinates.

    Raises :class:`SolverInfeasibleError` when the LP is infeasible or the
    solver errors — use :func:`lp_legalize_axis` for the degrading wrapper
    that falls back to greedy packing instead.  An LP whose sequence-pair
    order overruns the span by more than :data:`INFEASIBLE_OVERRUN_TOL`
    is rejected before the solver is called, with linprog's infeasible
    status (2).  The fault-injection site ``lp.solve`` simulates solver
    failure here.
    """
    sizes = np.asarray(sizes, dtype=float)
    n = len(sizes)
    if n == 0:
        return np.zeros(0)

    if faults.should_fire("lp.solve"):
        raise SolverInfeasibleError(
            "injected LP solver failure", solver="linprog", status="injected"
        )

    worst, overrun = _worst_overrun(sizes, edges, lo, hi)
    if overrun > INFEASIBLE_OVERRUN_TOL * max(hi - lo, 1.0):
        raise SolverInfeasibleError(
            f"LP infeasible: the sequence-pair order puts rectangle {worst} "
            f"{overrun:.6g} past its upper bound",
            solver="longest_path",
            status=2,
        )

    n_nets = len(nets)
    n_vars = n + 2 * n_nets  # p_0..p_{n-1}, then (u, l) per net

    c = np.zeros(n_vars)
    for k, net in enumerate(nets):
        c[n + 2 * k] = net.weight  # +u
        c[n + 2 * k + 1] = -net.weight  # -l

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    rhs: list[float] = []

    def add_row(terms: list[tuple[int, float]], ub: float) -> None:
        r = len(rhs)
        for col, v in terms:
            rows.append(r)
            cols.append(col)
            vals.append(v)
        rhs.append(ub)

    for a, b in edges:
        # p_a - p_b <= -size_a
        add_row([(a, 1.0), (b, -1.0)], -float(sizes[a]))

    for k, net in enumerate(nets):
        u, l = n + 2 * k, n + 2 * k + 1
        for i, off in net.pins:
            add_row([(i, 1.0), (u, -1.0)], -off)  # p_i + off <= u
            add_row([(l, 1.0), (i, -1.0)], off)  # l <= p_i + off
        for q in net.fixed_positions:
            add_row([(u, -1.0)], -q)  # u >= q
            add_row([(l, 1.0)], q)  # l <= q

    span = max(hi - lo, 1.0)
    bounds: list[tuple[float, float]] = []
    for i in range(n):
        upper = hi - float(sizes[i])
        if upper < lo:
            upper = lo  # degenerate: rectangle wider than region
        bounds.append((lo, upper))
    for _ in range(n_nets):
        bounds.append((lo - 10 * span, hi + 10 * span))  # u
        bounds.append((lo - 10 * span, hi + 10 * span))  # l

    A = sp.coo_matrix(
        (np.asarray(vals), (np.asarray(rows), np.asarray(cols))),
        shape=(len(rhs), n_vars),
    ).tocsr()

    try:
        res = sopt.linprog(
            c,
            A_ub=A,
            b_ub=np.asarray(rhs),
            bounds=bounds,
            method="highs",
        )
    except ValueError as exc:
        raise SolverInfeasibleError(
            f"LP solver raised: {exc}", solver="linprog", status="error"
        ) from exc

    if not res.success:
        raise SolverInfeasibleError(
            f"LP did not converge: {res.message}",
            solver="linprog",
            status=int(res.status),
        )
    return np.asarray(res.x[:n], dtype=float)


def lp_legalize_axis(
    sizes: np.ndarray,
    edges: list[tuple[int, int]],
    lo: float,
    hi: float,
    nets: list[AxisNet],
    fallback_clamp: bool = True,
    max_attempts: int = 2,
    on_degrade=None,
) -> np.ndarray:
    """Retry-with-fallback wrapper around :func:`lp_solve_axis`.

    The LP is attempted up to *max_attempts* times (solver failures are
    occasionally transient); when all attempts fail the axis degrades to
    :func:`pack_longest_path` — compaction toward ``lo`` honoring the
    sequence-pair order — and *on_degrade* (if given) is called with the
    terminal :class:`SolverInfeasibleError` so callers can record a
    degradation event instead of crashing.  With *fallback_clamp* the
    packed positions are clamped into ``[lo, hi]`` (overlap may then
    remain — the caller decides how to handle residual overflow).
    """
    sizes = np.asarray(sizes, dtype=float)
    if len(sizes) == 0:
        return np.zeros(0)
    error: SolverInfeasibleError | None = None
    for _attempt in range(max(1, max_attempts)):
        try:
            return lp_solve_axis(sizes, edges, lo, hi, nets)
        except SolverInfeasibleError as exc:
            error = exc
            if exc.details.get("status") != "error":
                break  # deterministic infeasibility: retrying cannot help
    if on_degrade is not None:
        on_degrade(error)
    packed = pack_longest_path(sizes, edges, lo)
    if fallback_clamp:
        packed = np.minimum(packed, np.maximum(hi - sizes, lo))
    return packed
