"""Legalization tests: sequence pair, LP overlap removal, full pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.metrics import macro_overlap_area, out_of_region_area
from repro.legalize import lp_spread
from repro.legalize.lp_spread import AxisNet, lp_legalize_axis, pack_longest_path
from repro.legalize.pipeline import MacroLegalizer, anchor_for_span, span_rect
from repro.legalize.sequence_pair import SequencePair, extract_sequence_pair
from repro.runtime.errors import SolverInfeasibleError

_PROPERTY_COARSE = None


def _coarse_for_property():
    """Session-cached coarse instance for hypothesis property tests."""
    global _PROPERTY_COARSE
    if _PROPERTY_COARSE is None:
        from repro.coarsen import coarsen_design
        from repro.gp.mixed_size import MixedSizePlacer
        from repro.grid.plan import GridPlan
        from repro.netlist.generator import GeneratorSpec, generate_design

        design = generate_design(
            GeneratorSpec(
                name="prop", n_movable_macros=6, n_preplaced_macros=1,
                n_pads=4, n_cells=30, n_nets=40, seed=11,
            )
        )
        MixedSizePlacer(n_iterations=2).place(design)
        _PROPERTY_COARSE = coarsen_design(design, GridPlan(design.region, zeta=4))
    return _PROPERTY_COARSE


class TestSequencePair:
    def test_permutation_validation(self):
        with pytest.raises(ValueError):
            SequencePair(s_plus=(0, 1), s_minus=(0, 0))

    def test_left_of_relation(self):
        # a at x=0, b at x=10, same y: a left of b.
        sp = extract_sequence_pair(
            np.array([0.0, 10.0]), np.array([0.0, 0.0]),
            np.array([2.0, 2.0]), np.array([2.0, 2.0]),
        )
        horizontal, vertical = sp.relations()
        assert (0, 1) in horizontal
        assert not vertical

    def test_above_relation(self):
        # a above b: vertical edge (b, a) meaning b below a.
        sp = extract_sequence_pair(
            np.array([0.0, 0.0]), np.array([10.0, 0.0]),
            np.array([2.0, 2.0]), np.array([2.0, 2.0]),
        )
        horizontal, vertical = sp.relations()
        assert (1, 0) in vertical
        assert not horizontal

    def test_every_pair_has_exactly_one_relation(self):
        rng = np.random.default_rng(0)
        n = 8
        xs, ys = rng.uniform(0, 100, n), rng.uniform(0, 100, n)
        ws, hs = rng.uniform(1, 5, n), rng.uniform(1, 5, n)
        sp = extract_sequence_pair(xs, ys, ws, hs)
        horizontal, vertical = sp.relations()
        seen = set()
        for a, b in horizontal:
            seen.add(frozenset((a, b)))
        for a, b in vertical:
            seen.add(frozenset((a, b)))
        assert len(seen) == n * (n - 1) // 2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 1000))
    def test_extraction_always_valid_permutations(self, n, seed):
        rng = np.random.default_rng(seed)
        sp = extract_sequence_pair(
            rng.uniform(0, 50, n), rng.uniform(0, 50, n),
            rng.uniform(1, 5, n), rng.uniform(1, 5, n),
        )
        assert sorted(sp.s_plus) == list(range(n))
        assert sorted(sp.s_minus) == list(range(n))


class TestPackLongestPath:
    def test_simple_chain(self):
        sizes = np.array([3.0, 4.0, 5.0])
        pos = pack_longest_path(sizes, [(0, 1), (1, 2)], lo=10.0)
        np.testing.assert_allclose(pos, [10.0, 13.0, 17.0])

    def test_diamond(self):
        sizes = np.array([2.0, 5.0, 3.0, 1.0])
        edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
        pos = pack_longest_path(sizes, edges, lo=0.0)
        assert pos[3] == pytest.approx(7.0)  # max(2+5, 2+3)

    def test_no_edges(self):
        pos = pack_longest_path(np.array([1.0, 2.0]), [], lo=5.0)
        np.testing.assert_allclose(pos, [5.0, 5.0])


class TestLPLegalizeAxis:
    def test_constraints_satisfied(self):
        sizes = np.array([3.0, 4.0])
        pos = lp_legalize_axis(sizes, [(0, 1)], 0.0, 20.0, [])
        assert pos[0] + 3.0 <= pos[1] + 1e-6
        assert pos[0] >= -1e-6 and pos[1] + 4.0 <= 20.0 + 1e-6

    def test_net_pull_toward_fixed_pin(self):
        sizes = np.array([2.0])
        nets = [AxisNet(weight=1.0, pins=[(0, 1.0)], fixed_positions=[15.0])]
        pos = lp_legalize_axis(sizes, [], 0.0, 20.0, nets)
        # Pin at pos+1 should reach 15 → pos = 14.
        assert pos[0] == pytest.approx(14.0, abs=1e-6)

    def test_two_rect_net_compacts(self):
        sizes = np.array([2.0, 2.0])
        nets = [AxisNet(weight=1.0, pins=[(0, 1.0), (1, 1.0)])]
        pos = lp_legalize_axis(sizes, [(0, 1)], 0.0, 100.0, nets)
        # Minimum span subject to no-overlap: rect1 exactly after rect0.
        assert pos[1] - pos[0] == pytest.approx(2.0, abs=1e-6)

    def test_weights_break_ties(self):
        sizes = np.array([2.0])
        nets = [
            AxisNet(weight=5.0, pins=[(0, 1.0)], fixed_positions=[0.0]),
            AxisNet(weight=1.0, pins=[(0, 1.0)], fixed_positions=[50.0]),
        ]
        pos = lp_legalize_axis(sizes, [], 0.0, 60.0, nets)
        assert pos[0] == pytest.approx(0.0, abs=1e-6)  # heavy net wins

    def test_infeasible_falls_back_to_packing(self):
        # Three width-5 rects chained in a width-8 window: impossible.
        sizes = np.array([5.0, 5.0, 5.0])
        pos = lp_legalize_axis(sizes, [(0, 1), (1, 2)], 0.0, 8.0, [])
        assert len(pos) == 3
        assert (np.diff(np.sort(pos)) >= 0).all()

    def test_empty_input(self):
        assert lp_legalize_axis(np.zeros(0), [], 0.0, 1.0, []).shape == (0,)


def _random_axis_lps(seed: int = 0, count: int = 80):
    """Small one-axis LPs as the legalizer builds them: sequence-pair
    edges from random rectangles, a random window, random nets."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        xs, ys = rng.uniform(0, 40, n), rng.uniform(0, 40, n)
        ws, hs = rng.uniform(1, 25, n), rng.uniform(1, 25, n)
        edges, _ = extract_sequence_pair(xs, ys, ws, hs).relations()
        lo = float(rng.uniform(-10, 10))
        hi = lo + float(rng.uniform(10, 70))
        nets = [
            AxisNet(
                weight=float(rng.uniform(0.5, 2)),
                pins=[(int(i), float(rng.uniform(0, ws[i])))
                      for i in rng.choice(n, size=min(n, 2), replace=False)],
                fixed_positions=[float(rng.uniform(lo, hi))],
            )
            for _ in range(int(rng.integers(0, 4)))
        ]
        yield ws, edges, lo, hi, nets
    # one rectangle wider than the window, alone and chained behind another
    yield np.array([30.0]), [], 0.0, 20.0, []
    yield np.array([30.0, 2.0]), [], 0.0, 20.0, []
    yield np.array([2.0, 30.0]), [(0, 1)], 0.0, 20.0, []


class TestInfeasibilityPrecheck:
    def test_precheck_matches_linprog(self, monkeypatch):
        verdicts = []
        for sizes, edges, lo, hi, nets in _random_axis_lps():
            _, overrun = lp_spread._worst_overrun(sizes, edges, lo, hi)
            rejected = overrun > lp_spread.INFEASIBLE_OVERRUN_TOL * max(hi - lo, 1.0)
            with monkeypatch.context() as m:
                # let every LP through to HiGHS
                m.setattr(lp_spread, "_worst_overrun",
                          lambda *_: (0, float("-inf")))
                try:
                    lp_spread.lp_solve_axis(sizes, edges, lo, hi, nets)
                    solved = True
                except SolverInfeasibleError as exc:
                    assert exc.details["status"] == 2
                    solved = False
            assert rejected == (not solved), (sizes, edges, lo, hi)
            verdicts.append(rejected)
        assert any(verdicts) and not all(verdicts)

    def test_rejected_lp_skips_the_solver_and_packs(self, monkeypatch):
        def no_solver(*_args, **_kwargs):
            raise AssertionError("linprog called on a provably infeasible LP")

        monkeypatch.setattr(lp_spread.sopt, "linprog", no_solver)
        sizes = np.array([5.0, 5.0, 5.0])
        edges = [(0, 1), (1, 2)]
        errors = []
        pos = lp_legalize_axis(sizes, edges, 0.0, 8.0, [],
                               on_degrade=errors.append)
        np.testing.assert_array_equal(
            pos, np.minimum(pack_longest_path(sizes, edges, 0.0), 8.0 - sizes)
        )
        assert [e.details["status"] for e in errors] == [2]


class TestSpanHelpers:
    def test_anchor_clamped(self, coarse_small):
        plan = coarse_small.plan
        rows, cols = 2, 2
        r, c = anchor_for_span(plan, plan.n_grids - 1, rows, cols)
        assert r + rows <= plan.zeta
        assert c + cols <= plan.zeta

    def test_span_rect_inside_region(self, coarse_small):
        for flat in [0, coarse_small.plan.n_grids // 2, coarse_small.plan.n_grids - 1]:
            rect = span_rect(coarse_small, 0, flat)
            region = coarse_small.design.region
            assert rect.x >= region.x - 1e-9
            assert rect.y >= region.y - 1e-9
            assert rect.x + rect.width <= region.x_max + 1e-9
            assert rect.y + rect.height <= region.y_max + 1e-9


class TestMacroLegalizerPipeline:
    def _legalize(self, coarse, seed=0):
        rng = np.random.default_rng(seed)
        assignment = list(
            rng.integers(0, coarse.plan.n_grids, size=coarse.n_macro_groups)
        )
        MacroLegalizer().legalize(coarse, assignment)
        return assignment

    def test_wrong_assignment_length_rejected(self, coarse_small):
        with pytest.raises(ValueError, match="assignment"):
            MacroLegalizer().legalize(coarse_small, [0])

    def test_no_overlap_after_legalization(self, coarse_small):
        self._legalize(coarse_small)
        assert macro_overlap_area(coarse_small.design) < 1e-9

    def test_macros_inside_region(self, coarse_small):
        self._legalize(coarse_small)
        assert out_of_region_area(coarse_small.design) < 1e-6

    def test_preplaced_macros_untouched(self, coarse_small):
        before = {
            m.name: (m.x, m.y)
            for m in coarse_small.design.netlist.preplaced_macros
        }
        self._legalize(coarse_small)
        for name, pos in before.items():
            node = coarse_small.design.netlist[name]
            assert (node.x, node.y) == pos

    def test_different_assignments_give_different_layouts(self, coarse_small):
        import copy

        c2 = copy.deepcopy(coarse_small)
        MacroLegalizer().legalize(
            coarse_small, [0] * coarse_small.n_macro_groups
        )
        far = coarse_small.plan.n_grids - 1
        MacroLegalizer().legalize(c2, [far] * c2.n_macro_groups)
        a = [(m.x, m.y) for m in coarse_small.design.netlist.movable_macros]
        b = [(m.x, m.y) for m in c2.design.netlist.movable_macros]
        assert a != b

    def test_repeated_legalization_consistent(self, coarse_small):
        """Re-legalizing the same assignment is deterministic episode-to-episode."""
        assignment = [1] * coarse_small.n_macro_groups
        MacroLegalizer().legalize(coarse_small, assignment)
        first = [
            (m.x, m.y) for m in coarse_small.design.netlist.movable_macros
        ]
        MacroLegalizer().legalize(coarse_small, assignment)
        second = [
            (m.x, m.y) for m in coarse_small.design.netlist.movable_macros
        ]
        for (ax, ay), (bx, by) in zip(first, second):
            assert ax == pytest.approx(bx, abs=1e-6)
            assert ay == pytest.approx(by, abs=1e-6)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_legality_invariant_random_assignments(self, seed):
        """Property: any assignment legalizes to zero overlap, in region.

        Builds its own coarse instance (hypothesis forbids function-scoped
        fixtures inside @given).
        """
        import copy


        coarse = copy.deepcopy(_coarse_for_property())
        self._legalize(coarse, seed=seed)
        assert macro_overlap_area(coarse.design) < 1e-9
        assert out_of_region_area(coarse.design) < 1e-6
