"""Two-tier terminal evaluation tests.

Three contracts are locked in here:

- ``score`` equals a per-net reference scorer kept in this file bitwise
  across arbitrary move sequences (property-tested with random
  single-group moves);
- ``exact_topk=None`` (and measure-only mode, surrogate attached but no
  pruning) reproduces the single-tier search bit-for-bit;
- whatever K prunes, the *reported* results stay exact: the committed
  wirelength and ``best_terminal_wirelength`` always re-derive from the
  real legalize-and-place pipeline.

Plus the legalizer's reuse gate: a long-lived :class:`MacroLegalizer`
must place every node exactly where a fresh instance per call does.
"""

import copy
import math

import numpy as np
import pytest

from repro.agent.network import NetworkConfig, PolicyValueNet
from repro.agent.reward import NormalizedReward
from repro.env.placement_env import MacroGroupPlacementEnv
from repro.legalize.pipeline import MacroLegalizer
from repro.mcts.search import MCTSConfig, MCTSPlacer
from repro.runtime.faults import Fault, FaultPlan, inject
from repro.surrogate import GroupCentroidSurrogate, SurrogateCalibration, spearman


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == pytest.approx(1.0)

    def test_perfect_inversion(self):
        assert spearman([1.0, 2.0, 3.0], [5.0, 4.0, 3.0]) == pytest.approx(-1.0)

    def test_monotone_nonlinear_is_still_one(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, [v**3 for v in x]) == pytest.approx(1.0)

    def test_ties_use_average_ranks(self):
        # [1, 2, 2, 3] vs [1, 2, 2, 3]: ties on both sides, still rho=1.
        assert spearman([1, 2, 2, 3], [10, 20, 20, 30]) == pytest.approx(1.0)

    def test_degenerate_inputs_are_nan(self):
        assert math.isnan(spearman([1.0], [2.0]))
        assert math.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
        assert math.isnan(spearman([1.0, 2.0], [1.0, 2.0, 3.0]))


class TestSurrogateCalibration:
    def test_empty_is_identity(self):
        assert SurrogateCalibration().predict(123.5) == 123.5

    def test_single_pair_uses_ratio(self):
        cal = SurrogateCalibration()
        cal.observe(10.0, 30.0)
        assert cal.predict(20.0) == pytest.approx(60.0)

    def test_least_squares_recovers_linear_map(self):
        cal = SurrogateCalibration()
        for s in [1.0, 2.0, 5.0, 9.0]:
            cal.observe(s, 3.0 * s + 7.0)
        assert cal.predict(4.0) == pytest.approx(19.0)

    def test_zero_variance_falls_back_to_ratio(self):
        cal = SurrogateCalibration()
        cal.observe(10.0, 20.0)
        cal.observe(10.0, 40.0)
        assert cal.predict(10.0) == pytest.approx(30.0)

    def test_pair_replay_is_bit_identical(self):
        cal = SurrogateCalibration()
        rng = np.random.default_rng(3)
        for s, e in rng.random((17, 2)):
            cal.observe(float(s * 100), float(e * 100 + 50))
        clone = SurrogateCalibration.from_pairs(cal.export_pairs())
        for probe in [0.0, 13.7, 91.2]:
            assert clone.predict(probe) == cal.predict(probe)
        assert clone.fidelity() == cal.fidelity()


def _per_net_oracle(sur, assignment) -> float:
    """Reference scorer: the surrogate's tables, every net summed in order.

    Written out independently of ``score``, which must match it bit for
    bit.
    """
    gx = sur._gx.copy()
    gy = sur._gy.copy()
    for i, anchor in enumerate(assignment):
        gx[i] = sur._anchor_cx[i, int(anchor)]
        gy[i] = sur._anchor_cy[i, int(anchor)]
    if sur._has_cells:
        gx[sur._cell_idx] = sur._M @ gx[sur._bound_idx] + sur._b0x
        gy[sur._cell_idx] = sur._M @ gy[sur._bound_idx] + sur._b0y
    out = np.empty(len(sur._net_groups))
    for j, idx in enumerate(sur._net_groups):
        xs, ys = gx[idx], gy[idx]
        out[j] = float(
            sur._net_weight[j] * ((xs.max() - xs.min()) + (ys.max() - ys.min()))
        )
    return float(out.sum())


class TestGroupCentroidSurrogate:
    def test_score_matches_per_net_oracle_on_random_moves(self, coarse_small):
        """Property: after any sequence of random single-group re-anchors,
        ``score`` equals the per-net oracle bitwise, and re-scoring an
        earlier assignment returns the same float (no history)."""
        sur = GroupCentroidSurrogate(coarse_small)
        n, grids = sur.n_macro_groups, coarse_small.plan.n_grids
        rng = np.random.default_rng(0)
        assignment = [int(a) for a in rng.integers(0, grids, size=n)]
        first = list(assignment)
        first_score = sur.score(first)
        for _ in range(200):
            assignment[int(rng.integers(0, n))] = int(rng.integers(0, grids))
            assert sur.score(assignment) == _per_net_oracle(sur, assignment)
        assert sur.score(first) == first_score

    def test_scoring_does_not_disturb_the_design(self, coarse_small):
        """Tier 1 must never leak coordinates into what tier 2 sees."""
        before = {
            node.name: (node.x, node.y) for node in coarse_small.design.netlist
        }
        sur = GroupCentroidSurrogate(coarse_small)
        rng = np.random.default_rng(1)
        for _ in range(5):
            sur.score(
                rng.integers(0, coarse_small.plan.n_grids, size=sur.n_macro_groups)
            )
        after = {
            node.name: (node.x, node.y) for node in coarse_small.design.netlist
        }
        assert after == before

    def test_rejects_incomplete_assignment(self, coarse_small):
        sur = GroupCentroidSurrogate(coarse_small)
        with pytest.raises(ValueError):
            sur.score([0] * (sur.n_macro_groups + 1))


class TestTwoTierSearch:
    @pytest.fixture
    def setup(self, coarse_small):
        env = MacroGroupPlacementEnv(coarse_small, cell_place_iters=1)
        net = PolicyValueNet(NetworkConfig(zeta=4, channels=4, res_blocks=1, seed=0))
        reward_fn = NormalizedReward(
            w_max=2000.0, w_min=500.0, w_avg=1200.0, alpha=0.75
        )
        return env, net, reward_fn

    def _fresh_env(self, env):
        return MacroGroupPlacementEnv(copy.deepcopy(env.coarse), cell_place_iters=1)

    def test_measure_only_mode_is_bitwise_identical(self, setup):
        """Surrogate attached with exact_topk=None: fidelity is measured
        but nothing is pruned — the search result must not move a bit."""
        env, net, reward_fn = setup
        cfg = MCTSConfig(explorations=6, seed=2)
        base = MCTSPlacer(env, net, reward_fn, cfg).run()
        env2 = self._fresh_env(env)
        placer = MCTSPlacer(
            env2, net, reward_fn, cfg,
            surrogate=GroupCentroidSurrogate(env2.coarse),
        )
        measured = placer.run()
        assert measured.assignment == base.assignment
        assert measured.wirelength == base.wirelength
        assert measured.best_terminal_wirelength == base.best_terminal_wirelength
        assert measured.n_exact_evaluations == base.n_exact_evaluations
        assert measured.n_surrogate_evaluations > 0

    def test_huge_k_is_bitwise_identical(self, setup):
        """A K larger than the number of terminals admits everything —
        bit-for-bit the single-tier search."""
        env, net, reward_fn = setup
        base = MCTSPlacer(
            env, net, reward_fn, MCTSConfig(explorations=6, seed=2)
        ).run()
        topk = MCTSPlacer(
            self._fresh_env(env), net, reward_fn,
            MCTSConfig(explorations=6, seed=2, exact_topk=10**6),
        ).run()
        assert topk.assignment == base.assignment
        assert topk.wirelength == base.wirelength
        assert topk.best_terminal_wirelength == base.best_terminal_wirelength
        assert topk.n_exact_evaluations == base.n_exact_evaluations

    def test_small_k_prunes_but_reports_exact(self, setup):
        env, net, reward_fn = setup
        base = MCTSPlacer(
            env, net, reward_fn, MCTSConfig(explorations=8, seed=1)
        ).run()
        env2 = self._fresh_env(env)
        pruned = MCTSPlacer(
            env2, net, reward_fn,
            MCTSConfig(explorations=8, seed=1, exact_topk=2),
        ).run()
        assert pruned.n_exact_evaluations <= base.n_exact_evaluations
        assert pruned.n_surrogate_evaluations > 0
        # The committed wirelength is always a real pipeline measurement.
        check_env = self._fresh_env(env)
        assert pruned.wirelength == check_env.evaluate_assignment(
            pruned.assignment
        )
        # ... and so is the anytime best-terminal.
        if pruned.best_terminal_assignment is not None:
            assert pruned.best_terminal_wirelength == check_env.evaluate_assignment(
                pruned.best_terminal_assignment
            )

    def test_k_zero_prunes_every_search_time_exact_call(self, setup):
        env, net, reward_fn = setup
        result = MCTSPlacer(
            self._fresh_env(env), net, reward_fn,
            MCTSConfig(explorations=4, seed=0, exact_topk=0),
        ).run()
        assert result.n_exact_evaluations == 0
        assert result.n_surrogate_evaluations > 0
        assert len(result.assignment) == env.n_steps
        assert math.isfinite(result.wirelength)

    def test_checkpoint_resume_is_bitwise_with_pruning(self, setup):
        """Heap + calibration pairs round-trip through a snapshot: a
        resumed pruned search finishes exactly like an uninterrupted one."""
        env, net, reward_fn = setup
        cfg = MCTSConfig(explorations=6, seed=5, exact_topk=2)
        snapshots = []
        full = MCTSPlacer(
            self._fresh_env(env), net, reward_fn, cfg,
            # The harness pickles each snapshot to disk, freezing it; the
            # in-memory dict holds live tree references, so freeze by copy.
            on_commit=lambda state: snapshots.append(copy.deepcopy(state)),
        ).run()
        if len(snapshots) < 2:
            pytest.skip("search too short to interrupt")
        resumed = MCTSPlacer(
            self._fresh_env(env), net, reward_fn, cfg
        ).run(resume_state=snapshots[len(snapshots) // 2 - 1])
        assert resumed.assignment == full.assignment
        assert resumed.wirelength == full.wirelength
        assert resumed.best_terminal_wirelength == full.best_terminal_wirelength

    def test_fidelity_reported_when_surrogate_active(self, setup):
        env, net, reward_fn = setup
        result = MCTSPlacer(
            self._fresh_env(env), net, reward_fn,
            MCTSConfig(explorations=8, seed=1, exact_topk=4),
        ).run()
        if result.surrogate_spearman is not None:
            assert -1.0 <= result.surrogate_spearman <= 1.0
        base = MCTSPlacer(
            self._fresh_env(env), net, reward_fn, MCTSConfig(explorations=4)
        ).run()
        assert base.surrogate_spearman is None
        assert base.n_surrogate_evaluations == 0


class TestIncrementalLegalizer:
    """One long-lived legalizer against a fresh one per call, byte for byte.

    The long-lived instance keeps the factorization cache, the step-1
    netlist, the axis-net topologies and the region memo across calls;
    none of them may move a single bit of any node position.
    """

    @staticmethod
    def _replay(legalizer_for, coarse, phase, qp_fault_at) -> list[bytes]:
        """Legalize *phase* in order, failing the QP solves numbered in
        *qp_fault_at*; node positions (x, y) after each call."""
        plan = FaultPlan(*(Fault("qp.solve", at=k) for k in qp_fault_at))
        out = []
        with inject(plan):
            for assignment in phase:
                legalizer_for().legalize(coarse, assignment)
                out.append(
                    np.array(
                        [(node.x, node.y) for node in coarse.design.netlist]
                    ).tobytes()
                )
        assert plan.total_fired("qp.solve") == len(qp_fault_at)
        return out

    @staticmethod
    def _assignments(coarse) -> list[list[int]]:
        assert max(len(g.members) for g in coarse.macro_groups) > 1
        n, grids = coarse.n_macro_groups, coarse.plan.n_grids
        rng = np.random.default_rng(7)
        return [
            [int(a) for a in rng.integers(0, grids, size=n)] for _ in range(4)
        ]

    def _compare(self, phases) -> tuple[MacroLegalizer, int]:
        """Run each (coarse, assignments, qp_fault_at) phase through one
        long-lived legalizer and, on a copy of the same coarse netlist
        taken before any call, through a fresh legalizer per call; the
        positions must agree after every call.  Returns the long-lived
        legalizer and the most axis-net topologies it held at once."""
        fresh_copies = {
            id(coarse): copy.deepcopy(coarse) for coarse, _, _ in phases
        }
        long_lived = MacroLegalizer()
        topologies = 0
        for coarse, phase, qp_fault_at in phases:
            kept = self._replay(lambda: long_lived, coarse, phase, qp_fault_at)
            fresh = self._replay(
                MacroLegalizer, fresh_copies[id(coarse)], phase, qp_fault_at
            )
            assert kept == fresh
            topologies = max(
                topologies, long_lived.cache_stats()["axis_topologies"]
            )
        return long_lived, topologies

    def test_bitwise_equivalent_to_from_scratch(self, coarse_small):
        seen = self._assignments(coarse_small)
        # The faulted phase fails QP solves 1 and 4: step 1 of its first
        # call (the reused step-1 netlist must rewind unsolved positions)
        # and step 2 of its second call.
        long_lived, topologies = self._compare(
            [
                (coarse_small, seen + seen[:1], ()),  # the repeat hits the memo
                (coarse_small, seen[1:3], (1, 4)),
                (coarse_small, seen[1:2], ()),
            ]
        )
        stats = long_lived.cache_stats()
        assert stats["factor_hits"] > 0
        assert stats["region_memo_hits"] > 0
        assert stats["region_memo_misses"] > 0
        assert topologies > 0

    def test_new_coarse_drops_caches(self, coarse_small):
        """A second coarse netlist, legalized after the caches were filled
        on the first with the same assignments, must not reuse them."""
        seen = self._assignments(coarse_small)
        other = copy.deepcopy(coarse_small)
        long_lived, topologies = self._compare(
            [
                (coarse_small, seen, ()),
                (other, seen[2:] + seen[:1], ()),
            ]
        )
        assert long_lived.cache_stats()["region_memo_misses"] > 0
        assert topologies > 0
