"""Which layer boundaries the traced run times, and the per-layer metrics.

Every target is a public function or method of a ``src/repro/`` module
(plus scipy's ``linprog``, timed where the legalizer calls it).  Span
names are ``<layer>.<function>``, the layer being the module's package.

Kernel counts are computed from argument and result shapes, not
measured, so they repeat exactly for the same inputs:

- ``nn.im2col.bytes``: input bytes read + column bytes written;
- ``nn.col2im.bytes``: column bytes read + image bytes written;
- ``nn.Conv2D.forward.gflop``: 2·N·O·F·H·W (one GEMM, F = C·k·k);
- ``nn.Conv2D.backward.gflop``: 4·N·O·F·H·W (weight- and input-gradient GEMMs);
- ``legalize.linprog.vars`` / ``.rows``: LP variables and constraint rows.
"""

from __future__ import annotations

import statistics
from typing import Callable, NamedTuple

from tracer import rollup, self_seconds


def _im2col_counts(args, kwargs, result, before):
    return {"bytes": args[0].nbytes + result.nbytes}


def _col2im_counts(args, kwargs, result, before):
    return {"bytes": args[0].nbytes + result.nbytes}


def _conv_forward_counts(args, kwargs, result, before):
    conv, x = args[0], args[1]
    n, _c, h, w = x.shape
    o, f = conv.weight.data.shape
    return {"gflop": 2.0 * n * o * f * h * w / 1e9}


def _conv_backward_counts(args, kwargs, result, before):
    conv, dy = args[0], args[1]
    n, _o, h, w = dy.shape
    o, f = conv.weight.data.shape
    return {"gflop": 4.0 * n * o * f * h * w / 1e9}


def _rows(args, kwargs, result, before):
    return {"rows": len(args[1])}


def _linprog_counts(args, kwargs, result, before):
    c = args[0] if args else kwargs["c"]
    rows = 0
    for key in ("A_ub", "A_eq"):
        a = kwargs.get(key)
        if a is not None:
            rows += a.shape[0]
    return {"vars": len(c), "rows": rows}


def _factor_hits(args, kwargs):
    return args[0].hits


def _factor_counts(args, kwargs, result, hits_before):
    return {"lookups": 1, "hits": args[0].hits - hits_before}


def _cache_get_counts(args, kwargs, result, before):
    return {"hits": 0 if result is None else 1}


def _search_counts(args, kwargs, result, before):
    return {
        "network_evaluations": result.n_network_evaluations,
        "exact_evaluations": result.n_exact_evaluations,
        "eval_cache_hits": result.n_eval_cache_hits,
        "terminal_evaluations": result.n_terminal_evaluations,
        "terminal_cache_hits": result.n_terminal_cache_hits,
    }


def _transition_counts(args, kwargs, result, before):
    state = args[2] if len(args) > 2 else kwargs.get("state")
    return {"running": 1 if state == "RUNNING" else 0}


class Target(NamedTuple):
    """One timed boundary: span name, ``"module:qualname"``, and optional
    hooks.  ``before(args, kwargs)`` runs ahead of the call; its value is
    passed to ``counts(args, kwargs, result, before)``, whose dict of
    numbers is attached to the span."""

    name: str
    target: str
    counts: Callable | None = None
    before: Callable | None = None


TARGETS = [
    Target("nn.im2col", "repro.nn.functional:im2col", _im2col_counts),
    Target("nn.col2im", "repro.nn.functional:col2im", _col2im_counts),
    Target("nn.Conv2D.forward", "repro.nn.layers:Conv2D.forward", _conv_forward_counts),
    Target("nn.Conv2D.backward", "repro.nn.layers:Conv2D.backward",
           _conv_backward_counts),
    Target("nn.Adam.step", "repro.nn.optim:Adam.step"),
    Target("agent.PolicyValueNet.forward", "repro.agent.network:PolicyValueNet.forward",
           _rows),
    Target("agent.PolicyValueNet.backward", "repro.agent.network:PolicyValueNet.backward"),
    Target("agent.PolicyValueNet.evaluate_batch",
           "repro.agent.network:PolicyValueNet.evaluate_batch", _rows),
    Target("agent.ActorCriticTrainer.train",
           "repro.agent.actorcritic:ActorCriticTrainer.train"),
    Target("agent.calibrate_reward", "repro.agent.reward:calibrate_reward"),
    Target("env.evaluate_assignment",
           "repro.env.placement_env:MacroGroupPlacementEnv.evaluate_assignment"),
    Target("legalize.MacroLegalizer.legalize",
           "repro.legalize.pipeline:MacroLegalizer.legalize"),
    Target("legalize.lp_legalize_axis", "repro.legalize.lp_spread:lp_legalize_axis"),
    Target("legalize.linprog", "scipy.optimize:linprog", _linprog_counts),
    Target("legalize.pack_longest_path", "repro.legalize.lp_spread:pack_longest_path"),
    Target("legalize.extract_sequence_pair",
           "repro.legalize.sequence_pair:extract_sequence_pair"),
    Target("gp.MixedSizePlacer.place", "repro.gp.mixed_size:MixedSizePlacer.place"),
    Target("gp.place_cells_with_fixed_macros",
           "repro.gp.mixed_size:place_cells_with_fixed_macros"),
    Target("gp.solve_quadratic_placement", "repro.gp.quadratic:solve_quadratic_placement"),
    Target("gp.build_quadratic_system", "repro.gp.netmodel:build_quadratic_system"),
    Target("gp.solve_system", "repro.gp.quadratic:solve_system"),
    Target("gp.FactorizationCache.solver_for",
           "repro.gp.quadratic:FactorizationCache.solver_for",
           _factor_counts, _factor_hits),
    Target("gp.legalize_macros_greedy", "repro.gp.mixed_size:legalize_macros_greedy"),
    Target("coarsen.coarsen_design", "repro.coarsen.coarse:coarsen_design"),
    Target("netlist.FlatNetlist.init", "repro.netlist.hpwl:FlatNetlist.__init__"),
    Target("mcts.MCTSPlacer.run", "repro.mcts.search:MCTSPlacer.run", _search_counts),
    Target("parallel.TerminalCache.get", "repro.parallel.cache:TerminalCache.get",
           _cache_get_counts),
    Target("runtime.guarded_write", "repro.runtime.resources:guarded_write"),
    Target("service.JobStore.transition", "repro.service.jobs:JobStore.transition",
           _transition_counts),
    Target("verify.verify_placement", "repro.verify.placement:verify_placement"),
    Target("core.place", "repro.core.flow:MCTSGuidedPlacer.place"),
]

#: function metrics: span name → the suffixes reported for it
FUNCTION_METRICS = {
    "nn.im2col": ("calls", "s", "bytes"),
    "nn.col2im": ("calls", "s", "bytes"),
    "nn.Conv2D.forward": ("calls", "s", "gflop"),
    "nn.Conv2D.backward": ("calls", "s", "gflop"),
    "nn.Adam.step": ("calls", "s"),
    "agent.PolicyValueNet.forward": ("calls", "s", "rows"),
    "agent.PolicyValueNet.backward": ("calls", "s"),
    "agent.PolicyValueNet.evaluate_batch": ("calls", "s", "rows"),
    "agent.ActorCriticTrainer.train": ("s", "self_s"),
    "agent.calibrate_reward": ("s",),
    "env.evaluate_assignment": ("calls", "s"),
    "legalize.MacroLegalizer.legalize": ("calls", "s", "self_s"),
    "legalize.lp_legalize_axis": ("calls", "s"),
    "legalize.linprog": ("calls", "s", "vars", "rows"),
    "legalize.extract_sequence_pair": ("calls", "s"),
    "gp.MixedSizePlacer.place": ("calls", "s", "self_s"),
    "gp.place_cells_with_fixed_macros": ("calls", "s"),
    "gp.solve_quadratic_placement": ("calls", "s"),
    "gp.build_quadratic_system": ("calls", "s"),
    "gp.solve_system": ("calls", "s"),
    "gp.legalize_macros_greedy": ("calls", "s"),
    "coarsen.coarsen_design": ("calls", "s"),
    "netlist.FlatNetlist.init": ("calls", "s"),
    "mcts.MCTSPlacer.run": ("calls", "s", "self_s"),
    "parallel.TerminalCache.get": ("calls",),
    "runtime.guarded_write": ("calls", "s"),
    "service.JobStore.transition": ("calls", "s"),
    "verify.verify_placement": ("calls", "s"),
    "core.place": ("calls", "s", "self_s"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, ops) -> dict[str, float]:
    """Per-layer metrics of the traced ops, as means per traced op.

    *spans* are every recorded span; *ops* the traced ops' records (the
    benchmark's own dicts, carrying the op span id and ``warm_hit``).
    Ratios are reported with their base (``lookups``/``jobs``/``calls``).
    """
    n_ops = max(len(ops), 1)
    rows = rollup(spans)

    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for name, suffixes in FUNCTION_METRICS.items():
        for suffix in suffixes:
            out[f"{name}.{suffix}"] = get(name, suffix) / n_ops

    out["legalize.lp_fallbacks"] = get("legalize.pack_longest_path", "calls") / n_ops
    lookups = get("gp.FactorizationCache.solver_for", "lookups")
    out["gp.FactorizationCache.lookups"] = lookups / n_ops
    out["gp.FactorizationCache.hit_ratio"] = _ratio(
        get("gp.FactorizationCache.solver_for", "hits"), lookups
    )

    search = "mcts.MCTSPlacer.run"
    out["mcts.network_evaluations"] = get(search, "network_evaluations") / n_ops
    out["mcts.exact_evaluations"] = get(search, "exact_evaluations") / n_ops
    eval_lookups = get(search, "eval_cache_hits") + get(search, "network_evaluations")
    out["mcts.eval_cache.lookups"] = eval_lookups / n_ops
    out["mcts.eval_cache.hit_ratio"] = _ratio(get(search, "eval_cache_hits"), eval_lookups)
    term_lookups = get(search, "terminal_cache_hits") + get(search, "terminal_evaluations")
    out["mcts.terminal_cache.lookups"] = term_lookups / n_ops
    out["mcts.terminal_cache.hit_ratio"] = _ratio(
        get(search, "terminal_cache_hits"), term_lookups
    )
    out["parallel.TerminalCache.get.hit_ratio"] = _ratio(
        get("parallel.TerminalCache.get", "hits"),
        get("parallel.TerminalCache.get", "calls"),
    )

    # service: per-op figures from each op's own span tree
    by_parent: dict[int, list] = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)
    op_spans = {s.id: s for s in spans if s.parent is None}
    waits, overheads = [], []
    jobs = [op for op in ops if op.get("job") and op.get("span") is not None]
    for op in jobs:
        root = op_spans[op["span"]]
        inside = _descendants(root.id, by_parent)
        running = [s for s in inside
                   if s.name == "service.JobStore.transition" and s.attrs.get("running")]
        if running:
            waits.append(min(s.start for s in running) - root.start)
        place = sum(s.seconds for s in inside if s.name == "core.place")
        overheads.append(root.seconds - place)
    out["service.jobs"] = len(jobs) / n_ops
    out["service.queue_wait_s.p50"] = statistics.median(waits) if waits else 0.0
    out["service.job_overhead_s.p50"] = statistics.median(overheads) if overheads else 0.0
    out["service.warm_hit_ratio"] = _ratio(
        sum(1 for op in jobs if op.get("warm_hit")), len(jobs)
    )

    out["core.unattributed_share"] = _ratio(get("core.place", "self_s"),
                                            get("core.place", "s"))
    # self time of the op roots: benchmark-side time outside core.place
    selfs = self_seconds(spans)
    out["trace.op_self_s"] = sum(selfs[i] for i in op_spans) / n_ops
    out["trace.spans"] = (len(spans) - len(op_spans)) / n_ops
    return out


def _descendants(root_id: int, by_parent: dict) -> list:
    found, frontier = [], [root_id]
    while frontier:
        for child in by_parent.get(frontier.pop(), ()):
            found.append(child)
            frontier.append(child.id)
    return found
