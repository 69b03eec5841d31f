"""Coarsening tests: scores Γ/φ, greedy clustering, coarse netlist."""

import heapq
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

import repro.coarsen.cluster as cluster_mod
from repro.coarsen.cluster import (
    _build_connectivity,
    _Connectivity,
    cluster_cells,
    cluster_macros,
    greedy_cluster,
    nearest_slots,
    singleton_groups,
)
from repro.coarsen.coarse import coarsen_design
from repro.coarsen.groups import Group, GroupKind
from repro.coarsen.scores import (
    GammaParams,
    PhiParams,
    gamma_score,
    phi_score,
)
from repro.gp.mixed_size import MixedSizePlacer
from repro.grid.plan import GridPlan
from repro.netlist.model import Macro, Net, Pin
from repro.netlist.suites import make_iccad04_circuit, make_industrial_circuit


def make_group(gid, cx, cy, area=10.0, hierarchy="", kind=GroupKind.MACRO):
    return Group(
        gid=gid, kind=kind, members=[f"n{gid}"], area=area, cx=cx, cy=cy,
        hierarchy=hierarchy, bbox=(cx - 1, cy - 1, cx + 1, cy + 1),
    )


class TestGammaScore:
    def test_distance_dominates(self):
        near = gamma_score(make_group(0, 0, 0), make_group(1, 1, 0), 0.0)
        far = gamma_score(make_group(0, 0, 0), make_group(1, 100, 0), 0.0)
        assert near > far

    def test_hierarchy_term(self):
        p = GammaParams(delta=10.0)
        a = make_group(0, 0, 0, hierarchy="top/cpu/alu")
        b_same = make_group(1, 10, 0, hierarchy="top/cpu/fpu")
        b_other = make_group(2, 10, 0, hierarchy="io/uart")
        assert gamma_score(a, b_same, 0.0, p) > gamma_score(a, b_other, 0.0, p)

    def test_connectivity_term(self):
        a, b = make_group(0, 0, 0), make_group(1, 10, 0)
        assert gamma_score(a, b, 100.0) > gamma_score(a, b, 0.0)

    def test_area_similarity_term(self):
        a = make_group(0, 0, 0, area=10.0)
        b_same = make_group(1, 10, 0, area=10.0)
        b_diff = make_group(2, 10, 0, area=100.0)
        assert gamma_score(a, b_same, 0.0) > gamma_score(a, b_diff, 0.0)

    def test_zero_distance_guarded(self):
        a, b = make_group(0, 5, 5), make_group(1, 5, 5)
        assert np.isfinite(gamma_score(a, b, 0.0))

    def test_symmetry(self):
        a = make_group(0, 0, 0, area=5.0, hierarchy="t/x")
        b = make_group(1, 7, 3, area=9.0, hierarchy="t/y")
        assert gamma_score(a, b, 2.0) == pytest.approx(gamma_score(b, a, 2.0))


class TestPhiScore:
    def test_distance_dominates(self):
        near = phi_score(make_group(0, 0, 0), make_group(1, 1, 0), 0.0)
        far = phi_score(make_group(0, 0, 0), make_group(1, 50, 0), 0.0)
        assert near > far

    def test_connectivity_normalized_by_area(self):
        small = phi_score(
            make_group(0, 0, 0, area=1.0), make_group(1, 10, 0, area=1.0), 4.0
        )
        big = phi_score(
            make_group(0, 0, 0, area=100.0), make_group(1, 10, 0, area=100.0), 4.0
        )
        assert small > big

    def test_symmetry(self):
        a = make_group(0, 0, 0, area=2.0)
        b = make_group(1, 3, 4, area=8.0)
        assert phi_score(a, b, 1.0) == pytest.approx(phi_score(b, a, 1.0))


class TestGroupMerging:
    def test_merged_centroid_is_area_weighted(self):
        a = make_group(0, 0.0, 0.0, area=10.0)
        b = make_group(1, 10.0, 0.0, area=30.0)
        m = a.merged_with(b, gid=2)
        assert m.cx == pytest.approx(7.5)
        assert m.area == 40.0

    def test_merged_members_concatenate(self):
        m = make_group(0, 0, 0).merged_with(make_group(1, 1, 1), gid=2)
        assert m.members == ["n0", "n1"]

    def test_merged_hierarchy_is_common_prefix(self):
        a = make_group(0, 0, 0, hierarchy="top/cpu/alu")
        b = make_group(1, 1, 1, hierarchy="top/cpu/fpu")
        assert a.merged_with(b, 2).hierarchy == "top/cpu"

    def test_merged_bbox_unions(self):
        a = make_group(0, 0, 0)
        b = make_group(1, 10, 10)
        m = a.merged_with(b, 2)
        assert m.bbox == (-1, -1, 11, 11)

    def test_shape_preserves_area(self):
        g = make_group(0, 0, 0, area=36.0)
        w, h = g.shape()
        assert w * h == pytest.approx(36.0)

    def test_shape_clamps_aspect(self):
        g = make_group(0, 0, 0, area=16.0)
        g.bbox = (0.0, 0.0, 100.0, 1.0)  # extreme aspect
        w, h = g.shape(max_aspect=2.0)
        assert w / h == pytest.approx(2.0)

    def test_of_node_captures_attributes(self):
        m = Macro("m", 4.0, 2.0, x=10.0, y=20.0, hierarchy="a/b")
        g = Group.of_node(5, m, GroupKind.MACRO)
        assert g.area == 8.0
        assert (g.cx, g.cy) == (12.0, 21.0)
        assert g.hierarchy == "a/b"


class TestGreedyCluster:
    def _seeds(self, positions, area=4.0):
        return [
            make_group(i, x, y, area=area) for i, (x, y) in enumerate(positions)
        ]

    def test_close_pair_merges(self):
        seeds = self._seeds([(0, 0), (0.5, 0), (100, 100)])
        out = greedy_cluster(seeds, [], lambda a, b, w: gamma_score(a, b, w),
                             max_area=100.0, threshold=0.5)
        sizes = sorted(len(g.members) for g in out)
        assert sizes == [1, 2]

    def test_max_area_respected(self):
        seeds = self._seeds([(0, 0), (0.1, 0), (0.2, 0)], area=60.0)
        out = greedy_cluster(seeds, [], lambda a, b, w: gamma_score(a, b, w),
                             max_area=100.0, threshold=0.0)
        assert all(g.area <= 120.0 for g in out)
        # No group can absorb a third member (2*60 > 100 already blocks pairs)
        assert all(len(g.members) == 1 for g in out)

    def test_threshold_stops_merging(self):
        seeds = self._seeds([(0, 0), (1000, 1000)])
        out = greedy_cluster(seeds, [], lambda a, b, w: gamma_score(a, b, w),
                             max_area=1e9, threshold=10.0)
        assert len(out) == 2

    def test_connectivity_drives_merges(self):
        seeds = self._seeds([(0, 0), (50, 0), (50.1, 100)])
        nets = [Net("n", pins=[Pin("n0"), Pin("n1")], weight=1.0)] * 5
        score = lambda a, b, w: 1e-6 + w  # connectivity-only score
        out = greedy_cluster(seeds, nets, score, max_area=1e9, threshold=0.5)
        merged = [g for g in out if len(g.members) == 2]
        assert merged and set(merged[0].members) == {"n0", "n1"}

    def test_members_conserved(self, placed_design):
        plan_area = 400.0
        groups = cluster_macros(placed_design.netlist, plan_area)
        members = sorted(m for g in groups for m in g.members)
        expected = sorted(m.name for m in placed_design.netlist.movable_macros)
        assert members == expected

    def test_cell_grouping_reduces_count(self, placed_design):
        groups = cluster_cells(placed_design.netlist, max_area=1e9)
        assert 0 < len(groups) < len(placed_design.netlist.cells)

    def test_singleton_groups(self, placed_design):
        pads = placed_design.netlist.pads
        groups = singleton_groups(pads, GroupKind.FIXED, start_gid=100)
        assert len(groups) == len(pads)
        assert groups[0].gid == 100
        assert all(len(g.members) == 1 for g in groups)


class TestCoarsenDesign:
    def test_macro_groups_sorted_by_area(self, coarse_small):
        areas = [g.area for g in coarse_small.macro_groups]
        assert areas == sorted(areas, reverse=True)

    def test_all_movable_macros_covered(self, coarse_small):
        members = sorted(
            m for g in coarse_small.macro_groups for m in g.members
        )
        expected = sorted(
            m.name for m in coarse_small.design.netlist.movable_macros
        )
        assert members == expected

    def test_fixed_groups_cover_pads_and_preplaced(self, coarse_small):
        nl = coarse_small.design.netlist
        assert len(coarse_small.fixed_groups) == len(nl.pads) + len(
            nl.preplaced_macros
        )

    def test_coarse_nets_span_multiple_groups(self, coarse_small):
        for cnet in coarse_small.coarse_nets:
            assert len(cnet.groups) >= 2
            assert len(set(cnet.groups)) == len(cnet.groups)

    def test_coarse_net_weights_accumulate(self, coarse_small):
        total_weight = sum(c.weight for c in coarse_small.coarse_nets)
        assert total_weight > 0
        # Merged projection can never exceed the original net count (all
        # original weights are 1.0 here).
        assert total_weight <= len(coarse_small.design.netlist.nets)

    def test_as_netlist_structure(self, coarse_small):
        nl = coarse_small.as_netlist()
        n_groups = len(coarse_small.all_groups)
        assert len(nl) == n_groups
        assert len(nl.nets) == len(coarse_small.coarse_nets)

    def test_as_netlist_fixed_flags(self, coarse_small):
        nl = coarse_small.as_netlist()
        n_mg = coarse_small.n_macro_groups
        n_cg = len(coarse_small.cell_groups)
        for i in range(len(coarse_small.all_groups)):
            node = nl[coarse_small.group_node_name(i)]
            if i < n_mg + n_cg:
                assert not node.fixed
            else:
                assert node.fixed

    def test_group_span_positive(self, coarse_small):
        for i in range(coarse_small.n_macro_groups):
            rows, cols = coarse_small.group_span(i)
            assert rows >= 1 and cols >= 1

    def test_scatter_macro_group_rigid(self, coarse_small):
        g = coarse_small.macro_groups[0]
        nl = coarse_small.design.netlist
        before = [(nl[m].cx - g.cx, nl[m].cy - g.cy) for m in g.members]
        coarse_small.scatter_macro_group(0, 12.3, 4.5)
        after = [(nl[m].cx - 12.3, nl[m].cy - 4.5) for m in g.members]
        for (bx, by), (ax, ay) in zip(before, after):
            assert ax == pytest.approx(bx)
            assert ay == pytest.approx(by)
        assert (g.cx, g.cy) == (12.3, 4.5)


def _reference_greedy_cluster(seeds, nets, score_fn, max_area, threshold, k_spatial=6):
    """Test oracle: the greedy loop with a KD-tree rebuilt after every merge.

    This is the implementation the vectorized neighbour query replaced,
    kept verbatim so the two can be compared on real designs.
    """
    groups = {g.gid: g for g in seeds}
    next_gid = max(groups, default=-1) + 1
    group_of_node = {name: g.gid for g in seeds for name in g.members}
    conn = _Connectivity()
    if nets:
        conn = _build_connectivity(nets, group_of_node)

    heap = []

    def push_pair(a, b):
        ga, gb = groups.get(a), groups.get(b)
        if ga is None or gb is None:
            return
        if ga.area + gb.area > max_area:
            return
        s = score_fn(ga, gb, conn.weight(a, b))
        if s >= threshold:
            heapq.heappush(heap, (-s, a, b))

    def spatial_neighbors(gid, k):
        active = [g for g in groups.values() if g.gid != gid]
        if not active:
            return []
        pts = np.array([[g.cx, g.cy] for g in active])
        tree = cKDTree(pts)
        g = groups[gid]
        k_eff = min(k, len(active))
        _, idx = tree.query([g.cx, g.cy], k=k_eff)
        idx = np.atleast_1d(idx)
        return [active[int(i)].gid for i in idx]

    for gid in list(groups):
        for nb in conn.neighbors(gid):
            if gid < nb:
                push_pair(gid, nb)
    if k_spatial > 0 and len(groups) > 1:
        pts = np.array([[g.cx, g.cy] for g in groups.values()])
        gids = list(groups)
        tree = cKDTree(pts)
        k_eff = min(k_spatial + 1, len(gids))
        _, nbrs = tree.query(pts, k=k_eff)
        nbrs = np.atleast_2d(nbrs)
        for i, row in enumerate(nbrs):
            for j in np.atleast_1d(row):
                a, b = gids[i], gids[int(j)]
                if a < b:
                    push_pair(a, b)

    while heap:
        neg_s, a, b = heapq.heappop(heap)
        ga, gb = groups.get(a), groups.get(b)
        if ga is None or gb is None:
            continue
        s = score_fn(ga, gb, conn.weight(a, b))
        if s < threshold or ga.area + gb.area > max_area:
            continue
        if s < -neg_s - 1e-12:
            heapq.heappush(heap, (-s, a, b))
            continue

        merged = ga.merged_with(gb, next_gid)
        next_gid += 1
        del groups[a], groups[b]
        groups[merged.gid] = merged
        conn.merge(a, b, merged.gid)

        for nb in conn.neighbors(merged.gid):
            lo, hi = min(merged.gid, nb), max(merged.gid, nb)
            push_pair(lo, hi)
        if k_spatial > 0:
            for nb in spatial_neighbors(merged.gid, k_spatial):
                lo, hi = min(merged.gid, nb), max(merged.gid, nb)
                push_pair(lo, hi)

    return sorted(groups.values(), key=lambda g: g.gid)


def _partition(groups):
    return [(g.gid, tuple(g.members), g.cx, g.cy, g.area) for g in groups]


def _coarse_signature(coarse):
    groups = [(tuple(g.members), g.cx, g.cy, g.area) for g in coarse.all_groups]
    nets = [(n.groups, n.weight) for n in coarse.coarse_nets]
    return groups, nets


class TestNeighbourQueryEquivalence:
    """The per-merge neighbour query reproduces the per-merge KD-tree."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: make_iccad04_circuit("ibm01").design, id="ibm01"),
            pytest.param(
                lambda: make_iccad04_circuit("ibm01", seed_offset=3).design,
                id="ibm01+3",
            ),
            pytest.param(
                lambda: make_iccad04_circuit("ibm01", seed_offset=11).design,
                id="ibm01+11",
            ),
            pytest.param(lambda: make_iccad04_circuit("ibm10").design, id="ibm10"),
            pytest.param(
                lambda: make_industrial_circuit("Cir2", scale=0.0004).design,
                id="Cir2-small",
            ),
        ],
    )
    def test_coarsen_design_matches_kdtree_reference(self, make, monkeypatch):
        design = make()
        MixedSizePlacer(n_iterations=2).place(design)
        plan = GridPlan(design.region, zeta=8)
        got = _coarse_signature(coarsen_design(design, plan))
        monkeypatch.setattr(cluster_mod, "greedy_cluster", _reference_greedy_cluster)
        want = _coarse_signature(coarsen_design(design, plan))
        assert got == want
        assert len(got[0]) < len(design.netlist)  # merges actually happened

    @pytest.mark.parametrize("gids", [[9, 4, 17, 2, 30, 11], [5, 3, 1, 0, 2, 4]])
    def test_unsorted_and_gapped_gids(self, gids):
        rng = np.random.default_rng(sum(gids))
        seeds = [
            make_group(gid, *rng.uniform(0, 50, size=2), area=4.0) for gid in gids
        ]
        seeds += [
            make_group(100 + i, *rng.uniform(0, 50, size=2), area=4.0)
            for i in range(30)
        ]
        nets = [
            Net(f"e{i}", pins=[Pin(f"n{a}"), Pin(f"n{b}")], weight=1.0)
            for i, (a, b) in enumerate(zip(gids, gids[1:] + [100]))
        ]
        score = lambda a, b, w: phi_score(a, b, w)  # noqa: E731
        kwargs = dict(max_area=20.0, threshold=0.01, k_spatial=3)
        got = greedy_cluster(seeds, nets, score, **kwargs)
        want = _reference_greedy_cluster(seeds, nets, score, **kwargs)
        assert _partition(got) == _partition(want)
        assert len(got) < len(seeds)


class TestNearestSlotsTieRule:
    def test_coincident_points_pick_earlier_slots(self):
        xs = np.zeros(6)
        ys = np.zeros(6)
        live = np.ones(6, dtype=bool)
        assert sorted(nearest_slots(xs, ys, live, 2, 3).tolist()) == [0, 1, 3]

    def test_dead_slots_and_self_are_skipped(self):
        xs = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 5.0])
        ys = np.zeros(6)
        live = np.array([True, True, False, True, True, True])
        got = nearest_slots(xs, ys, live, 0, 2)
        assert sorted(got.tolist()) == [1, 3]  # slot 2 ties too, but is dead

    def test_distance_beats_slot(self):
        xs = np.array([0.0, 3.0, 2.0, 1.0])
        ys = np.zeros(4)
        live = np.ones(4, dtype=bool)
        assert sorted(nearest_slots(xs, ys, live, 0, 2).tolist()) == [2, 3]

    def test_fewer_candidates_than_k(self):
        xs = np.arange(4.0)
        ys = np.zeros(4)
        live = np.array([True, False, True, True])
        assert nearest_slots(xs, ys, live, 3, 6).tolist() == [0, 2]

    def test_merge_neighbour_tie_goes_to_earlier_created_group(self):
        # n0 and n1 merge first (connected); their merged centroid (1, 0) is
        # equidistant from the coincident groups gid 7 and gid 3.  With one
        # spatial neighbour per merge, only the earlier-created one (gid 7,
        # listed first) is offered, although its gid is larger.
        seeds = [
            make_group(0, 0.0, 0.0, area=1.0),
            make_group(1, 2.0, 0.0, area=1.0),
            make_group(7, 1.0, 5.0, area=5.0),
            make_group(3, 1.0, 5.0, area=5.0),
        ]
        nets = [Net("e", pins=[Pin("n0"), Pin("n1")], weight=1.0)]

        def score(a, b, w):
            return 1.0 / max(math.hypot(a.cx - b.cx, a.cy - b.cy), 1e-6) + 10.0 * w

        out = greedy_cluster(
            seeds, nets, score, max_area=7.0, threshold=0.01, k_spatial=1
        )
        assert sorted(sorted(g.members) for g in out) == [["n0", "n1", "n7"], ["n3"]]
