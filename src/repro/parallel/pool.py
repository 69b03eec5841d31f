"""Persistent worker pool for terminal legalize-and-place evaluations.

Terminal evaluation is the dominant cost of both RL pre-training and MCTS
(BENCH_pr2: ``seconds_terminal`` ≈ 73% of search wall-clock).  Because the
purity fix made ``evaluate_assignment`` a deterministic function of the
assignment alone, the work can move off-process: a spawn-context
:class:`~concurrent.futures.ProcessPoolExecutor` receives the pickled
coarse netlist **once** at pool creation (the initializer rebuilds a full
environment per worker) and then only assignment tuples travel per task.

Guarantees:

- **Bitwise equivalence** — every worker legalizes from the same canonical
  start state as the parent (the pool captures it before pickling), so a
  pooled evaluation returns exactly the float the parent would compute.
- **Adaptive sizing** — requesting more workers than the host has cores
  makes the pool *slower* (BENCH_pr3 recorded 0.21× at ``workers=4`` on
  a 1-core host: four interpreters time-slicing one core plus IPC), so
  the pool clamps its worker count to ``os.cpu_count()`` and falls back
  in-process entirely when the clamp leaves a single worker — the pool
  would only add pickling overhead to a serial execution.  Both
  adjustments emit a ``degradation`` event (``phase="sizing"``) so the
  clamp is observable, and ``clamp=False`` restores the literal request
  (benchmarks measuring oversubscription, and fault drills that need a
  real pool on small CI hosts, opt out).
- **Graceful degradation** — ``workers <= 1`` or a failed spawn fall back
  to in-process evaluation with a ``degradation`` event.  A pool that
  dies mid-run (``BrokenProcessPool``) is **respawned** up to
  ``respawn_limit`` times — a crashed worker costs one degradation event
  and a restart, not parallelism for the rest of the run — and only when
  the limit is exhausted does the pool permanently degrade in-process.
  Every failed evaluation re-runs in-process, so results are unchanged
  either way (terminal evaluation is pure).  Fault sites ``pool.spawn``,
  ``pool.submit``, and ``pool.worker_kill`` (hard ``os._exit`` inside a
  live worker) let tests drill each path deterministically.
"""

from __future__ import annotations

import pickle
import time

from repro.runtime import faults
from repro.runtime.errors import PlacementError
from repro.utils.events import EventLog

#: per-worker environment, built once by :func:`_init_worker`
_WORKER_ENV = None


def _init_worker(payload: bytes) -> None:
    """Pool initializer: unpickle the problem and build a private env."""
    global _WORKER_ENV
    from repro.env.placement_env import MacroGroupPlacementEnv

    spec = pickle.loads(payload)
    _WORKER_ENV = MacroGroupPlacementEnv(
        spec["coarse"], cell_place_iters=spec["cell_place_iters"]
    )


def _evaluate_assignment(assignment: tuple[int, ...]) -> float:
    """Task function: one terminal evaluation in the worker's private env."""
    return _WORKER_ENV.evaluate_assignment(list(assignment))


def _kill_worker() -> None:
    """Task function behind the ``pool.worker_kill`` fault site: die hard,
    exactly like an OOM-killed or segfaulted worker would."""
    import os

    os._exit(86)


class _ImmediateResult:
    """Future-alike wrapping an already-computed in-process value."""

    __slots__ = ("_value",)

    def __init__(self, value: float) -> None:
        self._value = value

    def result(self) -> float:
        return self._value


class _PooledResult:
    """Future-alike that falls back in-process if the pool died.

    Remembers the pool *epoch* it was submitted under, so a batch of
    futures stranded by one dead executor triggers exactly one
    respawn — the stragglers just re-evaluate locally.
    """

    __slots__ = ("_pool", "_future", "_assignment", "_epoch")

    def __init__(self, pool, future, assignment, epoch) -> None:
        self._pool = pool
        self._future = future
        self._assignment = assignment
        self._epoch = epoch

    def result(self) -> float:
        try:
            return self._future.result()
        except Exception as exc:  # BrokenProcessPool, pickling faults, ...
            self._pool._handle_failure("result", exc, epoch=self._epoch)
            return self._pool._evaluate_local(self._assignment)


class TerminalEvaluationPool:
    """Dispatches ``evaluate_assignment`` calls to persistent workers.

    Args:
        env: the environment whose problem the workers replicate.  The
            pool captures (and thereby pins) the env's canonical start
            state at construction, so pooled and in-process evaluations
            agree bitwise.
        workers: process count; ``<= 1`` skips spawning entirely and every
            evaluation runs in-process (the sequential twin).
        events: degradation events (spawn failures, broken pools) land here.
        respawn_limit: crashed-pool restarts attempted before permanently
            degrading to in-process evaluation.
        clamp: bound workers by ``os.cpu_count()`` (and fall back
            in-process when that leaves one worker); False takes the
            requested count literally.
    """

    def __init__(
        self,
        env,
        workers: int = 1,
        events: EventLog | None = None,
        respawn_limit: int = 2,
        clamp: bool = True,
    ) -> None:
        import os

        self.env = env
        self.requested_workers = max(1, int(workers))
        self.workers = self.requested_workers
        self.events = events if events is not None else EventLog()
        self.respawn_limit = max(0, int(respawn_limit))
        self.respawns = 0
        self.n_pooled = 0
        self.n_local = 0
        self._executor = None
        self._broken = False
        self._epoch = 0
        if clamp:
            cores = os.cpu_count() or 1
            self.workers = min(self.requested_workers, cores)
            if self.workers < self.requested_workers:
                # Oversubscription loses (BENCH_pr3: w4 = 0.21× on one
                # core); shrink to the cores we have, or skip the pool
                # entirely when that leaves a serial execution anyway.
                self.events.emit(
                    "degradation",
                    solver="terminal_pool",
                    phase="sizing",
                    fallback="in_process" if self.workers <= 1 else "clamp",
                    requested=self.requested_workers,
                    cpu_count=cores,
                    workers=self.workers,
                )
        if self.workers > 1:
            self._start()

    @property
    def parallel(self) -> bool:
        """True while pooled (asynchronous) evaluation is available."""
        return self._executor is not None and not self._broken

    # -- lifecycle -------------------------------------------------------------
    def _start(self) -> None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Pin the canonical start state *before* pickling so every worker
        # legalizes from exactly the parent's rewind point.
        self.env.coarse.restore_canonical()
        payload = pickle.dumps(
            {
                "coarse": self.env.coarse,
                "cell_place_iters": self.env.cell_place_iters,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        try:
            if faults.should_fire("pool.spawn"):
                raise OSError("injected pool spawn failure")
            ctx = multiprocessing.get_context("spawn")
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(payload,),
            )
            self._epoch += 1
        except PlacementError:
            raise
        except Exception as exc:
            self._executor = None
            self.events.emit(
                "degradation",
                solver="terminal_pool",
                fallback="in_process",
                phase="spawn",
                error=str(exc),
            )

    def _handle_failure(self, phase: str, exc: Exception, epoch: int | None = None) -> None:
        """A pooled operation failed: respawn the workers (bounded), or —
        once the respawn budget is spent — degrade to in-process forever.

        *epoch* is the pool generation the failing future belonged to;
        failures from an executor that was already replaced are ignored
        (their evaluations simply re-ran locally).
        """
        if self._broken:
            return
        if epoch is not None and epoch != self._epoch:
            return
        executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        if self.respawns < self.respawn_limit:
            self.respawns += 1
            self.events.emit(
                "degradation",
                solver="terminal_pool",
                fallback="respawn",
                phase=phase,
                respawn=self.respawns,
                error=str(exc),
            )
            self._start()
            if self._executor is not None:
                return
        self._broken = True
        self.events.emit(
            "degradation",
            solver="terminal_pool",
            fallback="in_process",
            phase=phase,
            error=str(exc),
        )

    def close(self) -> None:
        """Shut the workers down; further evaluations run in-process."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "TerminalEvaluationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- evaluation ------------------------------------------------------------
    def _evaluate_local(self, assignment) -> float:
        self.n_local += 1
        return self.env.evaluate_assignment(list(assignment))

    def submit(self, assignment):
        """Dispatch one evaluation; returns an object with ``.result()``.

        Pooled when workers are alive (the call returns immediately and
        the legalization overlaps with whatever the caller does next);
        otherwise the evaluation happens synchronously in-process before
        this returns.
        """
        key = tuple(int(a) for a in assignment)
        if self.parallel:
            try:
                if faults.should_fire("pool.worker_kill"):
                    # hard-kill one live worker; in-flight and subsequent
                    # futures observe BrokenProcessPool and the pool respawns
                    self._executor.submit(_kill_worker)
                if faults.should_fire("pool.submit"):
                    raise RuntimeError("injected pool submit failure")
                future = self._executor.submit(_evaluate_assignment, key)
            except PlacementError:
                raise
            except Exception as exc:
                self._handle_failure("submit", exc, epoch=self._epoch)
            else:
                self.n_pooled += 1
                return _PooledResult(self, future, key, self._epoch)
        return _ImmediateResult(self._evaluate_local(key))

    def evaluate(self, assignment) -> float:
        """Synchronous single evaluation (pooled when possible)."""
        return self.submit(assignment).result()

    def evaluate_many(self, assignments) -> list[float]:
        """Evaluate *assignments* concurrently; results in input order."""
        pending = [self.submit(a) for a in assignments]
        return [p.result() for p in pending]

    def warm_up(self, assignment, timeout: float | None = None) -> None:
        """Force worker start-up (spawn + imports) with one throwaway task.

        Benchmarks call this so throughput numbers measure steady-state
        evaluation, not interpreter boot.  *timeout* bounds the wait; on
        expiry the pool is marked broken and evaluation degrades
        in-process.
        """
        if not self.parallel:
            return
        started = time.perf_counter()
        try:
            futures = [
                self._executor.submit(_evaluate_assignment, tuple(int(a) for a in assignment))
                for _ in range(self.workers)
            ]
            for f in futures:
                remaining = None
                if timeout is not None:
                    remaining = max(0.0, timeout - (time.perf_counter() - started))
                f.result(timeout=remaining)
        except Exception as exc:
            self._handle_failure("warm_up", exc, epoch=self._epoch)
