"""The three-step macro legalization pipeline (Sec. II-B).

Input: a :class:`~repro.coarsen.coarse.CoarseNetlist` and an *assignment*
mapping each macro group to its anchor grid (the lower-left grid of the
group's span).  Output: exact, overlap-free macro coordinates written into
the underlying design.

Step 1 — cell groups by QP, macro groups fixed at their span centers.
Step 2 — groups decomposed; member macros refined by QP with cell groups
         fixed, then each macro clamped into its group's span rectangle.
Step 3 — per-group overlap removal: sequence pair extraction + the Eq. 3
         LP along x then y, inside the span rectangle.

Groups that were allocated to overlapping spans (the availability mask
discourages but cannot always prevent this) may still collide *across*
groups; a final greedy displacement-minimal repair pass
(:func:`repro.gp.mixed_size.legalize_macros_greedy`) clears residual
overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coarsen.coarse import CoarseNetlist
from repro.gp.mixed_size import legalize_macros_greedy
from repro.gp.quadratic import FactorizationCache, solve_quadratic_placement
from repro.legalize.lp_spread import AxisNet, lp_legalize_axis
from repro.legalize.sequence_pair import extract_sequence_pair
from repro.netlist.hpwl import FlatNetlist
from repro.netlist.model import NodeKind
from repro.runtime import faults
from repro.runtime.errors import PlacementError, SolverInfeasibleError
from repro.utils.events import EventLog


@dataclass(frozen=True)
class SpanRect:
    """A macro group's assigned rectangle in die coordinates."""

    x: float
    y: float
    width: float
    height: float

    @property
    def cx(self) -> float:
        return self.x + self.width / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.height / 2.0


def anchor_for_span(
    plan, flat_grid: int, rows: int, cols: int
) -> tuple[int, int]:
    """Clamp an anchor grid so a rows×cols span stays inside the plan."""
    r, c = plan.row_col(flat_grid)
    r = min(r, plan.zeta - rows)
    c = min(c, plan.zeta - cols)
    return max(r, 0), max(c, 0)


def span_rect(coarse: CoarseNetlist, group_index: int, flat_grid: int) -> SpanRect:
    """Die-coordinate rectangle covered by *group_index* anchored at *flat_grid*."""
    plan = coarse.plan
    rows, cols = coarse.group_span(group_index)
    r, c = anchor_for_span(plan, flat_grid, rows, cols)
    ox, oy = plan.origin(r, c)
    return SpanRect(
        x=ox, y=oy, width=cols * plan.cell_width, height=rows * plan.cell_height
    )


#: heaviest projected nets kept per axis in one region's Eq. 3 LP
LP_NET_LIMIT = 200
#: net degree above which the QP steps switch from clique to star model
QP_CLIQUE_THRESHOLD = 6
#: region-memo entries kept before the oldest is evicted
REGION_MEMO_LIMIT = 4096


class MacroLegalizer:
    """Runs the Sec. II-B pipeline against a coarse netlist.

    Consecutive terminal evaluations re-solve near-identical problems, so
    one instance keeps four reuses, each bitwise-identical to rebuilding
    from scratch (tests compare a long-lived instance against a fresh one
    per call, byte for byte):

    - **QP factorization cache** — the step-1 and step-2 Laplacians depend
      only on connectivity and the movable mask, not on the assignment, so
      one LU factorization (keyed on the exact matrix bytes) serves every
      call; only the right-hand-side triangular solves run per call.
    - **Step-1 netlist reuse** — ``coarse.as_netlist()`` would rebuild the
      same object graph every call; one instance is kept and its node
      positions rewound to the first build's state before each solve.
    - **Axis-net topology** — which original nets touch a group's members,
      their pin offsets, and which survive the weight sort and truncations
      is static, so the scan over all design nets runs once per group;
      each call only reads the current fixed-pin positions.
    - **Per-group region memo** — the sequence-pair + LP result for a
      group is memoized against *all* its inputs (member positions, span
      rectangle, fixed pin positions).  The QP steps couple every group,
      so a one-anchor change perturbs all member positions in their last
      bits; hits come from genuinely repeated sub-problems.  Like the
      terminal cache, the memo stores what a call computed, including an
      LP that an injected fault degraded.

    The caches belong to one coarse netlist; legalizing a different one
    drops them.
    """

    def __init__(self, events: EventLog | None = None) -> None:
        #: degradation events (solver fallbacks) are recorded here
        self.events = events if events is not None else EventLog()
        self._src: CoarseNetlist | None = None
        self._drop_caches()
        self.n_region_memo_hits = 0
        self.n_region_memo_misses = 0

    def _drop_caches(self) -> None:
        self.factor_cache = FactorizationCache()
        self._step1_nl = None
        #: (node, x, y) of the step-1 netlist's first build
        self._step1_positions: list[tuple[object, float, float]] = []
        #: group index → [(weight, x_pins, y_pins, fixed_refs)]
        self._axis_topology: dict[int, list] = {}
        #: full-input key → (new_x, new_y) of one group's LP legalization
        self._region_memo: dict = {}

    def cache_stats(self) -> dict:
        return {
            "factor_hits": self.factor_cache.hits,
            "factor_misses": self.factor_cache.misses,
            "region_memo_hits": self.n_region_memo_hits,
            "region_memo_misses": self.n_region_memo_misses,
            "axis_topologies": len(self._axis_topology),
        }

    # -- solver guards ---------------------------------------------------------
    def _guarded_qp(self, step: str, flat: FlatNetlist, movable, center) -> None:
        """QP solve that degrades to a no-op on solver failure.

        The placement positions feeding the QP are always valid (prototype /
        scatter coordinates), so skipping the refinement is a sound — if
        lower-quality — fallback; the LP/greedy overlap removal that follows
        still produces a legal placement.  Fault site: ``qp.solve``.
        """
        try:
            if faults.should_fire("qp.solve"):
                raise SolverInfeasibleError(
                    "injected QP solver failure", solver="qp", status="injected"
                )
            solve_quadratic_placement(
                flat, movable, center,
                clique_threshold=QP_CLIQUE_THRESHOLD,
                factor_cache=self.factor_cache,
            )
        except PlacementError as exc:
            self.events.emit(
                "degradation", stage=None, solver="qp", step=step, error=str(exc)
            )
            return
        except (np.linalg.LinAlgError, ValueError) as exc:
            self.events.emit(
                "degradation", stage=None, solver="qp", step=step, error=str(exc)
            )
            return
        flat.writeback()

    # -- step 1 ---------------------------------------------------------------
    def _place_cell_groups(
        self, coarse: CoarseNetlist, rects: list[SpanRect]
    ) -> None:
        """QP the coarse netlist with macro groups pinned to their spans."""
        if self._step1_nl is None:
            self._step1_nl = coarse.as_netlist()
            self._step1_positions = [
                (node, node.x, node.y) for node in self._step1_nl
            ]
        else:
            # rewind to the first build's positions so the reused netlist is
            # indistinguishable from a fresh as_netlist() — including on the
            # QP-degradation path, where pre-solve positions leak through
            for node, x, y in self._step1_positions:
                node.x = x
                node.y = y
        coarse_nl = self._step1_nl
        for i, rect in enumerate(rects):
            node = coarse_nl[coarse.group_node_name(i)]
            node.move_center_to(rect.cx, rect.cy)
            node.fixed = True
        flat = FlatNetlist(coarse_nl)
        movable = ~flat.fixed
        region = coarse.design.region
        center = (region.x + region.width / 2.0, region.y + region.height / 2.0)
        self._guarded_qp("cell_groups", flat, movable, center)
        # Record solved centroids back onto the cell groups.
        n_mg = coarse.n_macro_groups
        for j, g in enumerate(coarse.cell_groups):
            node = coarse_nl[coarse.group_node_name(n_mg + j)]
            g.cx, g.cy = node.cx, node.cy

    # -- step 2 ---------------------------------------------------------------
    def _refine_macros(self, coarse: CoarseNetlist, rects: list[SpanRect]) -> None:
        """Scatter groups, pin cells to their group centroids, QP the macros."""
        design = coarse.design
        for i, rect in enumerate(rects):
            coarse.scatter_macro_group(i, rect.cx, rect.cy)
        for g in coarse.cell_groups:
            for name in g.members:
                design.netlist[name].move_center_to(g.cx, g.cy)

        flat = FlatNetlist(design.netlist)
        movable = np.zeros(flat.n_nodes, dtype=bool)
        for i, node in enumerate(design.netlist):
            movable[i] = node.kind is NodeKind.MACRO and not node.fixed
        region = design.region
        center = (region.x + region.width / 2.0, region.y + region.height / 2.0)
        self._guarded_qp("macro_refine", flat, movable, center)

        # Confine each macro to its group's span rectangle.
        rect_of_macro: dict[str, SpanRect] = {}
        for i, g in enumerate(coarse.macro_groups):
            for name in g.members:
                rect_of_macro[name] = rects[i]
        for name, rect in rect_of_macro.items():
            node = design.netlist[name]
            node.x = min(max(node.x, rect.x), max(rect.x, rect.x + rect.width - node.width))
            node.y = min(
                max(node.y, rect.y), max(rect.y, rect.y + rect.height - node.height)
            )

    # -- step 3 ---------------------------------------------------------------
    def _axis_nets(
        self, coarse: CoarseNetlist, group_index: int, members: list
    ) -> tuple[list[AxisNet], list[AxisNet]]:
        """Project original nets touching the region's macros onto x and y.

        Each net keeps its first four non-member pins as fixed positions,
        and only the :data:`LP_NET_LIMIT` heaviest nets are kept.  Both
        selections are static, so the scan over all design nets compiles
        once per group; a call only reads the fixed pins' current centers.
        """
        compiled = self._axis_topology.get(group_index)
        if compiled is None:
            netlist = coarse.design.netlist
            member_index = {m.name: k for k, m in enumerate(members)}
            compiled = []
            for net in netlist.nets:
                x_pins: list[tuple[int, float]] = []
                y_pins: list[tuple[int, float]] = []
                fixed_refs: list[tuple[object, float, float]] = []
                for pin in net.pins:
                    node = netlist[pin.node]
                    k = member_index.get(pin.node)
                    if k is not None:
                        x_pins.append((k, node.width / 2.0 + pin.dx))
                        y_pins.append((k, node.height / 2.0 + pin.dy))
                    else:
                        fixed_refs.append((node, pin.dx, pin.dy))
                if x_pins:
                    compiled.append((net.weight, x_pins, y_pins, fixed_refs[:4]))
            compiled.sort(key=lambda e: -e[0])
            compiled = compiled[:LP_NET_LIMIT]
            self._axis_topology[group_index] = compiled
        x_nets = [
            AxisNet(
                weight=w,
                pins=list(x_pins),
                fixed_positions=[n.cx + dx for n, dx, _ in refs],
            )
            for w, x_pins, _, refs in compiled
        ]
        y_nets = [
            AxisNet(
                weight=w,
                pins=list(y_pins),
                fixed_positions=[n.cy + dy for n, _, dy in refs],
            )
            for w, _, y_pins, refs in compiled
        ]
        return x_nets, y_nets

    def _legalize_region(
        self, coarse: CoarseNetlist, group_index: int, rect: SpanRect
    ) -> None:
        design = coarse.design
        members = [
            design.netlist[name]
            for name in coarse.macro_groups[group_index].members
        ]
        if len(members) == 0:
            return
        if len(members) == 1:
            m = members[0]
            m.x = min(max(m.x, rect.x), max(rect.x, rect.x + rect.width - m.width))
            m.y = min(max(m.y, rect.y), max(rect.y, rect.y + rect.height - m.height))
            return

        xs = np.array([m.x for m in members])
        ys = np.array([m.y for m in members])
        x_nets, y_nets = self._axis_nets(coarse, group_index, members)
        key = (
            group_index,
            xs.tobytes(),
            ys.tobytes(),
            (rect.x, rect.y, rect.width, rect.height),
            tuple(tuple(n.fixed_positions) for n in x_nets),
            tuple(tuple(n.fixed_positions) for n in y_nets),
        )
        memo = self._region_memo.get(key)
        if memo is not None:
            self.n_region_memo_hits += 1
        else:
            self.n_region_memo_misses += 1
            ws = np.array([m.width for m in members])
            hs = np.array([m.height for m in members])
            h_edges, v_edges = extract_sequence_pair(xs, ys, ws, hs).relations()

            def degrade(axis):
                return lambda exc: self.events.emit(
                    "degradation",
                    solver="lp",
                    fallback="pack_longest_path",
                    axis=axis,
                    group=group_index,
                    error=str(exc),
                )

            memo = (
                lp_legalize_axis(
                    ws, h_edges, rect.x, rect.x + rect.width, x_nets,
                    on_degrade=degrade("x"),
                ),
                lp_legalize_axis(
                    hs, v_edges, rect.y, rect.y + rect.height, y_nets,
                    on_degrade=degrade("y"),
                ),
            )
            if len(self._region_memo) >= REGION_MEMO_LIMIT:
                self._region_memo.pop(next(iter(self._region_memo)))
            self._region_memo[key] = memo
        new_x, new_y = memo
        for k, m in enumerate(members):
            m.x = float(new_x[k])
            m.y = float(new_y[k])

    # -- entry point ------------------------------------------------------------
    def legalize(self, coarse: CoarseNetlist, assignment: list[int]) -> None:
        """Run all three steps for *assignment* (anchor grid per macro group).

        Mutates macro positions in ``coarse.design``.  Cell positions are
        also touched (pinned at their group centroids) — the flow's final
        cell-placement step re-places them properly afterwards.

        Every call first rewinds the coarse netlist to its canonical start
        (:meth:`CoarseNetlist.restore_canonical`), so the result is a pure
        function of *assignment*: bitwise-identical no matter what was
        legalized before.  A greedy displacement-minimal pass then clears
        any overlap left across groups.
        """
        if len(assignment) != coarse.n_macro_groups:
            raise ValueError(
                f"assignment covers {len(assignment)} groups, "
                f"expected {coarse.n_macro_groups}"
            )
        if self._src is not coarse:
            self._drop_caches()
            self._src = coarse
        coarse.restore_canonical()
        rects = [
            span_rect(coarse, i, int(flat_grid))
            for i, flat_grid in enumerate(assignment)
        ]
        self._place_cell_groups(coarse, rects)
        self._refine_macros(coarse, rects)
        for i, rect in enumerate(rects):
            self._legalize_region(coarse, i, rect)
        design = coarse.design
        blockers = design.netlist.movable_macros + design.netlist.preplaced_macros
        if any_pairwise_overlap(blockers):
            legalize_macros_greedy(design)


def any_pairwise_overlap(nodes) -> bool:
    """True when any two of *nodes* share positive interior area.

    Vectorized replacement for the quadratic pure-Python
    ``Node.overlaps`` double loop: one broadcast comparison per axis with
    the same strict-inequality semantics (edge-touching rectangles do not
    overlap).
    """
    n = len(nodes)
    if n < 2:
        return False
    x = np.array([m.x for m in nodes])
    y = np.array([m.y for m in nodes])
    x2 = x + np.array([m.width for m in nodes])
    y2 = y + np.array([m.height for m in nodes])
    over = (
        (x[:, None] < x2[None, :])
        & (x[None, :] < x2[:, None])
        & (y[:, None] < y2[None, :])
        & (y[None, :] < y2[:, None])
    )
    np.fill_diagonal(over, False)
    return bool(over.any())
