"""The benchmark's three workloads.

Each workload runs *rounds*: a fixed list of ops, where one op is one
placement through a public entry point of the placer.  The first round
is the quality set (its HPWLs make ``hpwl.geomean``); later rounds repeat
it (cold workloads) or continue the same kind of job (the warm service
workload).  Each round is sized to take longer than the benchmark's run
time in normalized seconds (see ``run.py``), so an untraced run measures
exactly one round.  On ``cold-ibm01`` the run seed sets the generated designs'
``seed_offset`` and the config seed, on ``large-fast`` the config seed;
``sweep-warm-ibm10`` runs a fixed job list (see its factory).  The placer
only ever sees the generated inputs.

Sizes are reduced from the ROADMAP headline run (``--preset benchmark``
on ibm01 takes ~71 s on a 2-core host) so that one run measures several
ops within its time budget while keeping each workload's character:

- ``cold-ibm01``: calibration and RL pre-training dominate, so the
  ``nn``/``agent`` layers do most of the work (fewer episodes than the
  preset's 600; the per-episode work is the preset's).
- ``large-fast``: ~1.5k–2.2k-cell designs at the ``fast`` preset with
  training and search cut to one episode each, so prototype placement,
  coarsening and the QP solves (``gp``, ``coarsen``, ``netlist``)
  dominate.
- ``sweep-warm-ibm10``: warm service jobs that skip calibration and RL;
  MCTS, the service, the run dir and the shared terminal cache dominate.
"""

from __future__ import annotations

import copy
import math
import os
import threading
import time
from contextlib import nullcontext
from dataclasses import replace

#: seconds between polls of a service job's result file
RESULT_POLL_S = 0.005
#: a service op that takes longer than this counts as failed
JOB_TIMEOUT_S = 150.0


def _null_op(name, **attrs):
    return nullcontext()


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


class ColdPlacement:
    """Each op: ``MCTSGuidedPlacer(config).place(design)`` from scratch,
    verifier on, over a fixed round of generated designs."""

    def __init__(self, name: str, designs, config) -> None:
        self.name = name
        #: (label, zero-argument design factory) per op of a round
        self.design_factories = designs
        self.config = replace(config, verify_results=True)
        self.designs: list = []

    @property
    def round_size(self) -> int:
        return len(self.design_factories)

    def setup(self, work_dir: str) -> None:
        self.designs = [(label, make()) for label, make in self.design_factories]

    def run_op(self, round_index: int, j: int, op=_null_op) -> dict:
        from repro.core.flow import MCTSGuidedPlacer

        label, pristine = self.designs[j]
        design = copy.deepcopy(pristine)  # place() moves the design's nodes
        record = {"round": round_index, "op": j, "design": label}
        started = time.perf_counter()
        try:
            with op(self.name, design=label) as span:
                result = MCTSGuidedPlacer(self.config).place(design)
            record["seconds"] = time.perf_counter() - started
        except Exception as exc:  # noqa: BLE001 — a failed op is a result
            record.update(seconds=time.perf_counter() - started,
                          ok=False, error=f"{type(exc).__name__}: {exc}")
            return record
        record.update(span=getattr(span, "id", None), hpwl=result.hpwl,
                      stage_seconds=result.stage_seconds)
        verified = result.verification is not None and result.verification.ok
        if not verified:
            record.update(ok=False, error="verifier did not pass")
        elif not _finite(result.hpwl):
            record.update(ok=False, error="non-finite HPWL")
        else:
            record["ok"] = True
        return record

    def close(self) -> None:
        pass


class WarmServiceSweep:
    """An in-process :class:`PlacementService` with one worker, driven in a
    closed loop (one job outstanding).  Set-up submits one cold leader job,
    which fills the warm-artifact cache; each op is then a warm job of the
    same design with root noise and its own ``mcts.seed``, timed from
    ``submit_job`` until ``read_result`` returns its result."""

    def __init__(self, name: str, seed: int, make_design, train_overrides,
                 leader_overrides, op_overrides, round_size: int) -> None:
        self.name = name
        self.seed = seed
        self.make_design = make_design
        #: knobs shared by leader and followers (they key the warm cache)
        self.train_overrides = tuple(train_overrides)
        self.leader_overrides = tuple(leader_overrides)
        self.op_overrides = tuple(op_overrides)
        self.round_size = round_size
        self.service_dir: str | None = None
        self.aux: str | None = None
        self._services: list = []
        self._setups = 0

    def setup(self, work_dir: str) -> None:
        """Fresh design files, service directory and cold leader job.

        Run several times, each set-up stops the previous one's service,
        so every repeat pays the full cold cost."""
        from repro.netlist.bookshelf import write_design
        from repro.service import PlacementService

        self.close()
        self._setups += 1
        root = os.path.join(work_dir, f"setup-{self._setups}")
        self.aux = write_design(self.make_design(), os.path.join(root, "design"))
        self.service_dir = os.path.join(root, "service")
        service = PlacementService(self.service_dir, workers=1)
        thread = threading.Thread(target=service.run, name="perfbench-service",
                                  daemon=True)
        thread.start()
        self._services.append((self.service_dir, thread))
        leader = self._job(self.train_overrides + self.leader_overrides)
        if not (leader.get("state") == "DONE" and not leader.get("warm_hit")
                and _finite(leader.get("hpwl"))):
            raise RuntimeError(f"cold leader job did not complete cold: {leader}")

    def _job(self, overrides) -> dict:
        from repro.service import JobSpec
        from repro.service.service import read_result, submit_job

        spec = JobSpec(aux=self.aux, preset="benchmark", seed=self.seed,
                       overrides=tuple(overrides))
        job_id = submit_job(self.service_dir, spec)
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while True:
            result = read_result(self.service_dir, job_id)
            if result is not None:
                return result
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} gave no result in {JOB_TIMEOUT_S}s")
            time.sleep(RESULT_POLL_S)

    def run_op(self, round_index: int, j: int, op=_null_op) -> dict:
        mcts_seed = 1 + round_index * self.round_size + j
        overrides = (self.train_overrides + self.op_overrides
                     + (("mcts.seed", mcts_seed),))
        record = {"round": round_index, "op": j, "design": f"mcts.seed={mcts_seed}",
                  "job": True}
        started = time.perf_counter()
        try:
            with op(self.name, mcts_seed=mcts_seed) as span:
                result = self._job(overrides)
            record["seconds"] = time.perf_counter() - started
        except Exception as exc:  # noqa: BLE001 — a failed op is a result
            record.update(seconds=time.perf_counter() - started,
                          ok=False, error=f"{type(exc).__name__}: {exc}")
            return record
        record.update(span=getattr(span, "id", None), hpwl=result.get("hpwl"),
                      warm_hit=bool(result.get("warm_hit")),
                      attempts=result.get("attempts"),
                      stage_seconds=result.get("stage_seconds"))
        if result.get("state") != "DONE":
            record.update(ok=False, error=f"job ended {result.get('state')}: "
                                           f"{result.get('error')}")
        elif not result.get("verified"):
            record.update(ok=False, error="job result not verified")
        elif not result.get("warm_hit"):
            record.update(ok=False, error="warm job missed the warm cache")
        elif not _finite(result.get("hpwl")):
            record.update(ok=False, error="non-finite HPWL")
        else:
            record["ok"] = True
        return record

    def close(self) -> None:
        from repro.service.service import request_stop

        while self._services:
            service_dir, thread = self._services.pop()
            request_stop(service_dir)
            thread.join(JOB_TIMEOUT_S)
            if thread.is_alive():
                raise RuntimeError(f"service in {service_dir} did not stop")


def warm_up() -> None:
    """One tiny placement, so that first-call costs inside numpy, scipy and
    the placer (measured at up to 0.5 s on the first ``cold-ibm01`` op)
    are paid before any op is timed."""
    from repro.core.config import PlacerConfig
    from repro.core.flow import MCTSGuidedPlacer

    config = _overridden(PlacerConfig.fast(), {
        "episodes": 2, "calibration_episodes": 2, "mcts.explorations": 2})
    design = _iccad04("ibm01", 0, scale=0.004)()
    MCTSGuidedPlacer(replace(config, verify_results=True)).place(design)


def _iccad04(name: str, seed_offset: int, **scale):
    from repro.netlist.suites import make_iccad04_circuit

    return lambda: make_iccad04_circuit(name, seed_offset=seed_offset, **scale).design


def _industrial(name: str, seed_offset: int, **scale):
    from repro.netlist.suites import make_industrial_circuit

    return lambda: make_industrial_circuit(name, seed_offset=seed_offset,
                                           **scale).design


def _overridden(config, overrides: dict):
    from repro.core.config import apply_overrides

    return apply_overrides(config, overrides)


def cold_ibm01(seed: int, tiny: bool = False) -> ColdPlacement:
    from repro.core.config import PlacerConfig

    # thirty-four distinct designs per round: op time and HPWL vary between
    # instances, and a run's median should not hinge on a few of them.
    # One exploration per search step: from two on, the search's cost is
    # heavy-tailed in the design and seed (0.08 s typically, up to 1.1 s),
    # which this workload is not about.
    n_designs = 2 if tiny else 34
    scale = {"scale": 0.004} if tiny else {}
    designs = [(f"ibm01+{n_designs * seed + j}",
                _iccad04("ibm01", n_designs * seed + j, **scale))
               for j in range(n_designs)]
    overrides = ({"episodes": 2, "calibration_episodes": 2, "mcts.explorations": 2}
                 if tiny else
                 {"episodes": 5, "update_every": 5, "calibration_episodes": 3,
                  "mcts.explorations": 1})
    return ColdPlacement("cold-ibm01", designs,
                         _overridden(PlacerConfig.benchmark(seed=seed), overrides))


def large_fast(seed: int, tiny: bool = False) -> ColdPlacement:
    from repro.core.config import PlacerConfig

    # The suite's own instances for every seed; the seed sets the config
    # seed.  Generated variants differed by up to 1.8x in op time within
    # one circuit (more or fewer macro groups to legalize and search).
    # A round places each design twice, so the median has six samples.
    iccad = {"scale": 0.001} if tiny else {}
    industrial = {"scale": 0.0002} if tiny else {}
    designs = [
        ("ibm14", _iccad04("ibm14", 0, **iccad)),
        ("ibm18", _iccad04("ibm18", 0, **iccad)),
        ("Cir2", _industrial("Cir2", 0, **industrial)),
    ] * 2
    overrides = {"episodes": 1, "calibration_episodes": 1, "mcts.explorations": 1}
    return ColdPlacement("large-fast", designs,
                         _overridden(PlacerConfig.fast(seed=seed), overrides))


def sweep_warm_ibm10(seed: int, tiny: bool = False) -> WarmServiceSweep:
    """A fixed job list: the suite's ibm10, config seed 0, and search seeds
    1, 2, 3, ... in order, whatever the run seed.

    A warm op's cost is heavy-tailed in its search seed (1.2 s to 19 s on
    one network at ``mcts.explorations=24``, deterministic per seed), and
    the network, hence which seeds are slow, changes with the config seed.
    With seed-driven jobs the run-to-run spread of ``placements_per_min``
    was 0.95 of its median over five seeds; a fixed list keeps the same
    jobs in every run.
    """
    name = "ibm01" if tiny else "ibm10"
    scale = {"scale": 0.004} if tiny else {}
    train = ((("episodes", 2), ("calibration_episodes", 2)) if tiny else
             (("episodes", 6), ("calibration_episodes", 3)))
    # The leader trains the network the followers reuse; its own search is
    # cut to one exploration because only the followers' search is timed.
    leader = (("mcts.explorations", 1),)
    ops = (("mcts.explorations", 2 if tiny else 12), ("mcts.root_noise_frac", 0.25))
    return WarmServiceSweep("sweep-warm-ibm10", 0, _iccad04(name, 0, **scale),
                            train, leader, ops, round_size=2 if tiny else 16)


WORKLOADS = {
    "cold-ibm01": cold_ibm01,
    "large-fast": large_fast,
    "sweep-warm-ibm10": sweep_warm_ibm10,
}
