"""End-to-end flow tests (Algorithm 1) and config validation."""

import pytest

from repro.core import MCTSGuidedPlacer, PlacerConfig
from repro.core.config import PlacerConfig as PC
from repro.agent.network import NetworkConfig
from repro.eval.metrics import macro_overlap_area, out_of_region_area


class TestPlacerConfig:
    def test_defaults_consistent(self):
        cfg = PlacerConfig()
        assert cfg.network.zeta == cfg.zeta

    def test_zeta_propagates_to_network(self):
        cfg = PlacerConfig(zeta=4)
        assert cfg.network.zeta == 4

    def test_paper_config_matches_published_values(self):
        cfg = PlacerConfig.paper()
        assert cfg.zeta == 16
        assert cfg.network.channels == 128
        assert cfg.network.res_blocks == 10
        assert cfg.update_every == 30
        assert cfg.calibration_episodes == 50
        assert cfg.mcts.c_puct == pytest.approx(1.05)
        assert 0.5 <= cfg.alpha <= 1.0
        assert cfg.gamma_params.delta == pytest.approx(0.001)
        assert cfg.gamma_params.epsilon == pytest.approx(0.0003)
        assert cfg.gamma_params.kappa == pytest.approx(1.0)
        assert cfg.gamma_params.threshold == pytest.approx(0.001)
        assert cfg.phi_params.rho == pytest.approx(1.0)

    def test_fast_config_is_small(self):
        cfg = PlacerConfig.fast()
        assert cfg.episodes <= 30
        assert cfg.network.channels <= 16


class TestFullFlow:
    @pytest.fixture(scope="class")
    def flow_result(self, _flow_design):
        design, result = _flow_design
        return design, result

    @pytest.fixture(scope="class")
    def _flow_design(self):
        import copy

        from tests.conftest import _SMALL_SPEC
        from repro.netlist.generator import generate_design

        design = generate_design(copy.deepcopy(_SMALL_SPEC))
        cfg = PC.fast(seed=1)
        result = MCTSGuidedPlacer(cfg).place(design)
        return design, result

    def test_hpwl_positive(self, flow_result):
        _, result = flow_result
        assert result.hpwl > 0

    def test_final_placement_legal(self, flow_result):
        design, _ = flow_result
        assert macro_overlap_area(design) < 1e-9
        assert out_of_region_area(design) < 1e-6

    def test_assignment_complete(self, flow_result):
        _, result = flow_result
        assert len(result.assignment) == result.n_macro_groups

    def test_history_populated(self, flow_result):
        _, result = flow_result
        assert len(result.history.rewards) == PC.fast().episodes

    def test_stopwatch_covers_stages(self, flow_result):
        _, result = flow_result
        for stage in ("prototype", "preprocess", "calibration", "rl_training",
                      "mcts", "final"):
            assert result.stopwatch.total(stage) > 0
        assert result.mcts_runtime == result.stopwatch.total("mcts")

    def test_stage_seconds_breakdown(self, flow_result):
        """The per-stage wall-clock accessor the CLI and service print."""
        _, result = flow_result
        breakdown = result.stage_seconds
        assert tuple(breakdown) == result.STAGE_ORDER
        for stage, seconds in breakdown.items():
            assert seconds == result.stopwatch.total(stage)
        # Cell legalization is off by default, so its slot reads zero.
        assert breakdown["cell_legalization"] == 0.0
        assert sum(breakdown.values()) == pytest.approx(
            result.stopwatch.overall()
        )

    def test_result_accessors(self, flow_result):
        _, result = flow_result
        assert result.n_macro_groups == len(result.assignment) > 0
        assert result.mcts_runtime > 0

    def test_flow_beats_random_play(self, flow_result):
        """The training process must beat the mean random-play wirelength
        captured by the reward calibration; the committed MCTS result may
        wobble around it at the minimal CI budget (20 episodes, γ=8), so it
        only gets a noise margin."""
        _, result = flow_result
        assert result.history.best_wirelength() < result.reward_fn.w_avg
        assert result.hpwl < result.reward_fn.w_avg * 1.15

    def test_checkpointing_through_flow(self):
        import copy

        from tests.conftest import _SMALL_SPEC
        from repro.netlist.generator import generate_design
        from dataclasses import replace

        design = generate_design(copy.deepcopy(_SMALL_SPEC))
        cfg = replace(PC.fast(seed=2), checkpoint_every=10)
        result = MCTSGuidedPlacer(cfg).place(design)
        assert len(result.history.snapshots) == cfg.episodes // 10


class TestCellLegalizationOption:
    def test_flow_with_legalize_cells(self):
        import copy
        from dataclasses import replace

        from tests.conftest import _SMALL_SPEC
        from repro.netlist.generator import generate_design

        design = generate_design(copy.deepcopy(_SMALL_SPEC))
        cfg = replace(PC.fast(seed=4), legalize_cells=True)
        result = MCTSGuidedPlacer(cfg).place(design)
        assert result.legal_hpwl is not None
        assert result.cell_legalization is not None
        assert result.cell_legalization.failed == 0
        # Legalized cells must not overlap each other or macros.
        cells = design.netlist.cells
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                assert not cells[i].overlaps(cells[j])
            for m in design.netlist.macros:
                assert not cells[i].overlaps(m)

    def test_flow_without_legalize_cells_default(self):
        import copy

        from tests.conftest import _SMALL_SPEC
        from repro.netlist.generator import generate_design

        design = generate_design(copy.deepcopy(_SMALL_SPEC))
        result = MCTSGuidedPlacer(PC.fast(seed=4)).place(design)
        assert result.legal_hpwl is None


class TestFinalStage:
    def test_final_stage_reuses_the_search_evaluation(self, monkeypatch):
        """MCTSPlacer.run ends by legalizing the committed assignment in
        process, so the final stage adds no legalize call of its own; one
        more evaluation would reproduce the HPWL and every coordinate."""
        import copy

        import numpy as np

        from tests.conftest import _SMALL_SPEC
        from repro.env.placement_env import MacroGroupPlacementEnv
        from repro.legalize.pipeline import MacroLegalizer
        from repro.mcts.search import MCTSPlacer
        from repro.netlist.generator import generate_design

        calls = []
        legalize = MacroLegalizer.legalize
        run = MCTSPlacer.run

        def counting_legalize(self, coarse, assignment):
            calls.append(list(assignment))
            return legalize(self, coarse, assignment)

        def counting_run(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            calls_at_search_end.append(len(calls))
            return result

        calls_at_search_end = []
        monkeypatch.setattr(MacroLegalizer, "legalize", counting_legalize)
        monkeypatch.setattr(MCTSPlacer, "run", counting_run)
        cfg = PC.fast(seed=1)
        result = MCTSGuidedPlacer(cfg).place(
            generate_design(copy.deepcopy(_SMALL_SPEC))
        )
        assert calls_at_search_end == [len(calls)]
        assert calls[-1] == list(result.assignment)

        design = result.coarse.design
        placed = np.array([(n.x, n.y) for n in design.netlist]).tobytes()
        env = MacroGroupPlacementEnv(
            result.coarse, cell_place_iters=cfg.cell_place_iterations
        )
        assert env.evaluate_assignment(result.assignment) == result.hpwl
        assert np.array([(n.x, n.y) for n in design.netlist]).tobytes() == placed
