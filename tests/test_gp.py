"""Analytical global-placement substrate tests (net models, QP, spreading,
mixed-size placer)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gp.mixed_size import (
    MixedSizePlacer,
    legalize_macros_greedy,
    place_cells_with_fixed_macros,
)
from repro.gp.netmodel import QuadraticSystem, build_quadratic_system
from repro.gp.quadratic import solve_quadratic_placement
from repro.gp.spreading import blocked_area_grid, spread_step
from repro.eval.metrics import macro_overlap_area
from repro.netlist.hpwl import FlatNetlist, hpwl
from repro.netlist.model import (
    Cell,
    Design,
    Macro,
    Net,
    Netlist,
    Pin,
    PlacementRegion,
)
from repro.netlist.suites import make_iccad04_circuit


def two_fixed_one_free() -> Netlist:
    """free cell connected to fixed anchors at x=0 and x=10."""
    nl = Netlist()
    nl.add_node(Cell("a", 0, 0, x=0.0, y=0.0, fixed=True))
    nl.add_node(Cell("b", 0, 0, x=10.0, y=4.0, fixed=True))
    nl.add_node(Cell("free", 0, 0, x=99.0, y=99.0))
    nl.add_net(Net("n0", pins=[Pin("a"), Pin("free")]))
    nl.add_net(Net("n1", pins=[Pin("b"), Pin("free")]))
    return nl


class TestQuadraticSystem:
    def test_free_node_lands_at_weighted_mean(self):
        nl = two_fixed_one_free()
        flat = FlatNetlist(nl)
        movable = ~flat.fixed
        solve_quadratic_placement(flat, movable, (5.0, 5.0))
        assert flat.cx[2] == pytest.approx(5.0, abs=1e-4)
        assert flat.cy[2] == pytest.approx(2.0, abs=1e-4)

    def test_weights_shift_solution(self):
        nl = two_fixed_one_free()
        nl.nets[0].weight = 3.0  # pull 3x harder toward a at x=0
        flat = FlatNetlist(nl)
        solve_quadratic_placement(flat, ~flat.fixed, (5.0, 5.0))
        assert flat.cx[2] == pytest.approx(10.0 / 4.0, abs=1e-6)

    def test_disconnected_node_anchored_to_center(self):
        nl = Netlist()
        nl.add_node(Cell("island", 0, 0, x=77.0, y=77.0))
        flat = FlatNetlist(nl)
        solve_quadratic_placement(flat, ~flat.fixed, (5.0, 6.0))
        assert flat.cx[0] == pytest.approx(5.0, abs=1e-3)
        assert flat.cy[0] == pytest.approx(6.0, abs=1e-3)

    def test_mask_shape_validated(self):
        nl = two_fixed_one_free()
        flat = FlatNetlist(nl)
        with pytest.raises(ValueError):
            build_quadratic_system(flat, np.ones(99, dtype=bool))

    def test_star_and_clique_models_agree_for_symmetric_net(self):
        """A star-decomposed high-degree net keeps the centroid solution."""

        def make(threshold):
            nl = Netlist()
            for i, x in enumerate([0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0]):
                nl.add_node(Cell(f"f{i}", 0, 0, x=x, y=float(i), fixed=True))
            nl.add_node(Cell("m", 0, 0))
            nl.add_net(
                Net("n", pins=[Pin(f"f{i}") for i in range(7)] + [Pin("m")])
            )
            flat = FlatNetlist(nl)
            solve_quadratic_placement(
                flat, ~flat.fixed, (12.0, 3.0), clique_threshold=threshold
            )
            return float(flat.cx[-1])

        clique_x = make(threshold=20)
        star_x = make(threshold=2)
        assert clique_x == pytest.approx(star_x, abs=1e-4)

    def test_anchor_pseudo_nets_pull(self):
        nl = two_fixed_one_free()
        flat = FlatNetlist(nl)
        solve_quadratic_placement(
            flat,
            ~flat.fixed,
            (5.0, 5.0),
            anchor_weight=np.array([1e6]),
            anchor_x=np.array([8.0]),
            anchor_y=np.array([1.0]),
        )
        assert flat.cx[2] == pytest.approx(8.0, abs=1e-3)
        assert flat.cy[2] == pytest.approx(1.0, abs=1e-3)

    def test_solve_reduces_hpwl(self, small_design):
        flat = FlatNetlist(small_design.netlist)
        before = flat.total_hpwl()
        solve_quadratic_placement(
            flat,
            ~flat.fixed,
            (small_design.region.width / 2, small_design.region.height / 2),
        )
        assert flat.total_hpwl() < before


def _reference_build_quadratic_system(
    flat, movable_mask, clique_threshold=6, min_weight=1e-9
):
    """Test oracle: the per-net loop with an ``add_pair`` closure.

    This is the implementation the array assembly replaced, kept verbatim
    so the two can be compared byte for byte.
    """
    if movable_mask.shape != (flat.n_nodes,):
        raise ValueError("movable_mask must have one entry per node")
    movable = np.flatnonzero(movable_mask)
    n_mov = len(movable)
    unknown_of_node = -np.ones(flat.n_nodes, dtype=np.int64)
    unknown_of_node[movable] = np.arange(n_mov)

    rows, cols, vals = [], [], []
    n_star = 0
    fx = flat.cx
    fy = flat.cy
    bx_fixed = {}
    by_fixed = {}

    def add_pair(u, v, w, xu, yu, xv, yv):
        if u >= 0 and v >= 0:
            rows.extend((u, v, u, v))
            cols.extend((u, v, v, u))
            vals.extend((w, w, -w, -w))
        elif u >= 0:
            rows.append(u)
            cols.append(u)
            vals.append(w)
            bx_fixed[u] = bx_fixed.get(u, 0.0) + w * xv
            by_fixed[u] = by_fixed.get(u, 0.0) + w * yv
        elif v >= 0:
            rows.append(v)
            cols.append(v)
            vals.append(w)
            bx_fixed[v] = bx_fixed.get(v, 0.0) + w * xu
            by_fixed[v] = by_fixed.get(v, 0.0) + w * yu

    for net_idx in range(flat.n_nets):
        lo = int(flat.net_ptr[net_idx])
        hi = int(flat.net_ptr[net_idx + 1])
        nodes = flat.pin_node[lo:hi]
        k = hi - lo
        w_net = float(flat.net_weight[net_idx])
        if w_net <= min_weight or k < 2:
            continue
        unknowns = unknown_of_node[nodes]
        if np.all(unknowns < 0):
            continue
        if k <= clique_threshold:
            w = w_net / (k - 1)
            for a in range(k):
                for b in range(a + 1, k):
                    na, nb = int(nodes[a]), int(nodes[b])
                    add_pair(int(unknowns[a]), int(unknowns[b]), w,
                             fx[na], fy[na], fx[nb], fy[nb])
        else:
            w = w_net * k / (k - 1)
            star_id = n_mov + n_star
            n_star += 1
            fixed_x = fixed_y = 0.0
            fixed_w = 0.0
            for a in range(k):
                ua = int(unknowns[a])
                na = int(nodes[a])
                rows.append(star_id)
                cols.append(star_id)
                vals.append(w)
                if ua >= 0:
                    rows.extend((ua, ua, star_id))
                    cols.extend((ua, star_id, ua))
                    vals.extend((w, -w, -w))
                else:
                    fixed_x += w * fx[na]
                    fixed_y += w * fy[na]
                    fixed_w += w
            if fixed_w > 0:
                bx_fixed[star_id] = bx_fixed.get(star_id, 0.0) + fixed_x
                by_fixed[star_id] = by_fixed.get(star_id, 0.0) + fixed_y

    n = n_mov + n_star
    A = sp.coo_matrix(
        (np.asarray(vals), (np.asarray(rows), np.asarray(cols))), shape=(n, n)
    ).tocsr()
    bx = np.zeros(n)
    by = np.zeros(n)
    for i, v in bx_fixed.items():
        bx[i] = v
    for i, v in by_fixed.items():
        by[i] = v
    return QuadraticSystem(A=A, bx=bx, by=by, movable=movable, n_star=n_star)


def _assert_systems_identical(got, want):
    assert got.A.shape == want.A.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got.A, name), getattr(want.A, name)
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name
    for name in ("bx", "by", "movable"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name
    assert got.n_star == want.n_star


def _awkward_netlist(seed: int) -> Netlist:
    """Random nets of degree 2-10, some listing a node twice, with zero,
    negative and sub-threshold weights, plus a net over fixed nodes only."""
    rng = np.random.default_rng(seed)
    nl = Netlist()
    n_nodes = 40
    for i in range(n_nodes):
        nl.add_node(Cell(f"c{i}", 1.0, 1.0, x=float(rng.uniform(-50, 50)),
                         y=float(rng.uniform(0, 80)), fixed=i < 6))
    weights = [1.0, 2.5, 0.3, 0.0, -1.0, 1e-12]
    for j in range(60):
        k = int(rng.integers(2, 11))
        members = [int(x) for x in rng.choice(n_nodes, size=k, replace=False)]
        if j % 7 == 0:
            members[-1] = members[0]  # the same node on two pins
        nl.add_net(Net(f"n{j}", pins=[Pin(f"c{m}") for m in members],
                       weight=weights[j % len(weights)]))
    nl.add_net(Net("all_fixed", pins=[Pin(f"c{i}") for i in range(6)]))
    return nl


class TestQuadraticAssemblyEquivalence:
    """Array assembly reproduces the per-net loop byte for byte."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("clique_threshold", [1, 2, 6])
    @pytest.mark.parametrize("min_weight", [1e-9, -np.inf])
    def test_random_masks_on_awkward_nets(self, seed, clique_threshold, min_weight):
        flat = FlatNetlist(_awkward_netlist(seed))
        rng = np.random.default_rng(100 + seed)
        masks = [rng.random(flat.n_nodes) < p for p in (0.1, 0.5, 0.9)]
        masks += [~flat.fixed, np.ones(flat.n_nodes, dtype=bool)]
        for mask in masks:
            _assert_systems_identical(
                build_quadratic_system(flat, mask, clique_threshold, min_weight),
                _reference_build_quadratic_system(
                    flat, mask, clique_threshold, min_weight
                ),
            )

    @pytest.mark.parametrize("clique_threshold", [1, 2, 6])
    def test_all_fixed_mask(self, clique_threshold):
        flat = FlatNetlist(_awkward_netlist(3))
        mask = np.zeros(flat.n_nodes, dtype=bool)
        got = build_quadratic_system(flat, mask, clique_threshold)
        _assert_systems_identical(
            got, _reference_build_quadratic_system(flat, mask, clique_threshold)
        )
        assert got.A.shape == (0, 0)

    def test_degree_two_nets(self):
        flat = FlatNetlist(two_fixed_one_free())
        for threshold in (1, 2, 6):
            for mask in (~flat.fixed, np.ones(3, dtype=bool)):
                _assert_systems_identical(
                    build_quadratic_system(flat, mask, threshold),
                    _reference_build_quadratic_system(flat, mask, threshold),
                )

    @pytest.mark.parametrize("clique_threshold", [1, 2, 6])
    def test_suite_design_random_masks(self, clique_threshold):
        flat = FlatNetlist(make_iccad04_circuit("ibm01").design.netlist)
        rng = np.random.default_rng(clique_threshold)
        flat.cx[:] = rng.uniform(0, 1000, flat.n_nodes)
        flat.cy[:] = rng.uniform(0, 1000, flat.n_nodes)
        for _ in range(10):
            mask = rng.random(flat.n_nodes) < rng.random()
            _assert_systems_identical(
                build_quadratic_system(flat, mask, clique_threshold),
                _reference_build_quadratic_system(flat, mask, clique_threshold),
            )


class TestSpreading:
    def test_blocked_area_grid_accounts_blocker(self):
        region = PlacementRegion(0, 0, 100, 100)
        blocked = blocked_area_grid(region, [Macro("m", 50, 50, x=0, y=0)], 4, 4)
        assert blocked[0, 0] == pytest.approx(625.0)
        assert blocked.sum() == pytest.approx(2500.0)

    def test_spread_pushes_cells_apart(self):
        region = PlacementRegion(0, 0, 100, 100)
        n = 50
        cx = np.full(n, 50.0) + np.linspace(-0.5, 0.5, n)
        cy = np.full(n, 50.0) + np.linspace(-0.5, 0.5, n)
        areas = np.full(n, 4.0)
        blocked = np.zeros((4, 4))
        sx, sy = spread_step(cx, cy, areas, region, blocked, eta=1.0)
        assert sx.std() > cx.std()

    def test_spread_avoids_blocked_bins(self):
        region = PlacementRegion(0, 0, 100, 100)
        n = 40
        rng = np.random.default_rng(0)
        cx = rng.uniform(0, 100, n)
        cy = np.full(n, 50.0)
        areas = np.full(n, 2.0)
        blocked = np.zeros((4, 4))
        blocked[:, 0] = 625.0  # left quarter fully blocked
        sx, _sy = spread_step(cx, cy, areas, region, blocked, eta=1.0)
        assert (sx > 20.0).mean() > 0.9

    def test_damping_limits_motion(self):
        region = PlacementRegion(0, 0, 100, 100)
        cx = np.array([50.0, 50.1])
        cy = np.array([50.0, 50.0])
        areas = np.array([1.0, 1.0])
        blocked = np.zeros((2, 2))
        sx0, _ = spread_step(cx, cy, areas, region, blocked, eta=0.0)
        np.testing.assert_allclose(sx0, cx)


class TestMixedSizePlacer:
    def test_reduces_hpwl(self, small_design):
        before = hpwl(small_design.netlist)
        result = MixedSizePlacer(n_iterations=2).place(small_design)
        assert result.hpwl < before

    def test_macros_legal_after_place(self, small_design):
        result = MixedSizePlacer(n_iterations=2).place(small_design)
        assert result.macro_overlap == 0.0
        assert macro_overlap_area(small_design) < 1e-9

    def test_everything_inside_region(self, small_design):
        MixedSizePlacer(n_iterations=2).place(small_design)
        for node in small_design.netlist:
            if not node.fixed:
                assert small_design.region.contains(node, tol=1e-6)

    def test_cells_only_mode_keeps_macros(self, placed_design):
        macro_pos = {
            m.name: (m.x, m.y) for m in placed_design.netlist.macros
        }
        MixedSizePlacer(n_iterations=2).place(placed_design, move_macros=False)
        for name, (x, y) in macro_pos.items():
            node = placed_design.netlist[name]
            assert (node.x, node.y) == (x, y)

    def test_place_cells_with_fixed_macros_returns_hpwl(self, placed_design):
        wl = place_cells_with_fixed_macros(placed_design, n_iterations=2)
        assert wl == pytest.approx(hpwl(placed_design.netlist), rel=1e-9)
        assert wl > 0

    def test_deterministic(self, small_design):
        import copy

        d2 = copy.deepcopy(small_design)
        r1 = MixedSizePlacer(n_iterations=2).place(small_design)
        r2 = MixedSizePlacer(n_iterations=2).place(d2)
        assert r1.hpwl == pytest.approx(r2.hpwl)


class TestGreedyLegalizer:
    def test_clears_overlap(self):
        nl = Netlist()
        for i in range(4):
            nl.add_node(Macro(f"m{i}", 10, 10, x=5.0, y=5.0))
        design = Design(netlist=nl, region=PlacementRegion(0, 0, 100, 100))
        residual = legalize_macros_greedy(design)
        assert residual == 0.0
        assert macro_overlap_area(design) < 1e-9

    def test_respects_preplaced(self):
        nl = Netlist()
        nl.add_node(Macro("pp", 20, 20, x=40.0, y=40.0, fixed=True))
        nl.add_node(Macro("mv", 10, 10, x=45.0, y=45.0))
        design = Design(netlist=nl, region=PlacementRegion(0, 0, 100, 100))
        legalize_macros_greedy(design)
        assert not nl["pp"].overlaps(nl["mv"])
        assert (nl["pp"].x, nl["pp"].y) == (40.0, 40.0)

    def test_no_macros_is_noop(self):
        nl = Netlist()
        nl.add_node(Cell("c", 1, 1))
        design = Design(netlist=nl, region=PlacementRegion(0, 0, 10, 10))
        assert legalize_macros_greedy(design) == 0.0

    def test_stays_in_region(self):
        nl = Netlist()
        for i in range(6):
            nl.add_node(Macro(f"m{i}", 30, 30, x=90.0, y=90.0))
        design = Design(netlist=nl, region=PlacementRegion(0, 0, 100, 100))
        legalize_macros_greedy(design)
        for m in nl.macros:
            assert design.region.contains(m, tol=1e-6)
