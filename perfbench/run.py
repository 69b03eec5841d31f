"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-ibm01 --seed 1 --seconds 20 --trace 0

The placer is imported from ``src/`` of the same checkout (pure Python:
nothing to build).  ``--trace 0`` reports the end-to-end metrics of
untraced ops; ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones, plus the tracing
overhead.  Metric names and units come from ``BENCHMARK.json``.

Times in the end-to-end metrics are normalized to a reference host
speed: after every op and set-up step a fixed reference kernel
(``probe.py``) runs briefly, and each op's wall-clock is divided by how
much slower than the reference that kernel ran just before and after it.
On a shared host this removes most of the run-to-run drift in speed.
``--seconds`` counts normalized op time too, so a fast spell on the host
does not let a run take in more ops.  The raw wall-clock of every op
stays in the record file.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
A fuller record (every op, host facts, set-up repeats) goes to
``.perfbench_out/`` and, for traced runs, a Chrome trace-event file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pkgutil
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: scratch for one run (per process, so concurrent runs cannot collide)
WORK_DIR = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")

#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 3
#: after each op or set-up step, the reference kernel (``probe.py``) runs
#: for this share of its wall-clock
PROBE_SHARE = 0.05

# BLAS runs single-threaded unless the caller says otherwise.  On a 2-core
# host, two OpenBLAS threads made identical cold-ibm01 runs both slower
# (place_s.p50 1.53-1.79 s against 1.44-1.53 s) and less steady; HPWLs
# were bitwise equal either way.  Must be set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_placer() -> None:
    """Import every module of the placer before any patching, so no module
    imported later binds a span wrapper (see ``tracer.Patcher``)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            __import__(info.name)


def openblas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def run_rounds(workload, seconds: float, trace: bool, recorder, patcher,
               setup_passes):
    """Whole rounds until the ops' normalized times add up to *seconds*
    (the run ends at the first round boundary after that).

    At least one round (two with *trace*: untraced rounds alternate with
    traced ones, so the tracing overhead compares like with like).  After
    each op the reference kernel runs for ``PROBE_SHARE`` of the op's time,
    and the op is normalized (see ``normalize_op``).  Counting normalized
    rather than wall-clock seconds keeps the ops a run measures the same
    when the host's speed drifts.  Returns the op records.
    """
    import probe

    ops = []
    before = setup_passes
    measured = 0.0
    min_rounds = 2 if trace else 1
    round_index = 0
    while True:
        traced = trace and round_index % 2 == 1
        with patcher.active() if traced else nullcontext():
            for j in range(workload.round_size):
                if traced:
                    record = workload.run_op(round_index, j, recorder.op)
                else:
                    record = workload.run_op(round_index, j)
                record["traced"] = traced
                ops.append(record)
                record["probe_s"] = probe.passes(PROBE_SHARE * record["seconds"])
                normalize_op(record, before)
                before = record["probe_s"]
                measured += record["norm_seconds"]
        round_index += 1
        if round_index >= min_rounds and measured >= seconds:
            return ops


def normalize_op(op, passes_before) -> None:
    """Set the op's ``pace`` from the kernel passes just before it and its
    own ``probe_s`` passes just after it, and its ``norm_seconds`` =
    ``seconds / pace``: the op's time on the reference host."""
    import probe

    op["pace"] = probe.pace_factor(passes_before + op["probe_s"])
    op["norm_seconds"] = op["seconds"] / op["pace"]


def end_to_end_metrics(ops, setup_s) -> dict:
    """The ``--trace 0`` metrics, from normalized times (see ``normalize_op``)."""
    done = [op for op in ops if op.get("ok")]
    first_round = [op for op in ops if op["round"] == 0]
    quality = [op["hpwl"] for op in first_round if op.get("ok")]
    op_seconds = sum(op["norm_seconds"] for op in ops)
    return {
        "place_s.p50": (statistics.median(op["norm_seconds"] for op in done)
                        if done else 0.0),
        "placements_per_min": 60.0 * len(done) / op_seconds,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "hpwl.geomean": (geomean(quality) if quality and len(quality) == len(first_round)
                         else 0.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return _fail(f"no placer sources under {SRC}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    result, record = run_benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace), spec)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, default=str)
    if record.get("chrome_trace") is not None:
        with open(os.path.join(OUT_DIR, stem + ".trace.json"), "w") as f:
            json.dump(record.pop("chrome_trace"), f)
    print(json.dumps(result))
    return 0


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, spec: dict,
                  tiny: bool = False, work_dir: str = WORK_DIR):
    """One run: set-up repeats, timed rounds, checks, metrics.

    Returns (the result line as a dict, the full record for the output file).
    """
    import layers
    import workloads
    from tracer import Patcher, SpanRecorder

    started = time.perf_counter()
    import_placer()
    workloads.warm_up()
    startup_s = time.perf_counter() - started
    import probe

    probe.passes(0.0)  # first-call costs, untimed
    setup_passes = probe.passes(PROBE_SHARE * startup_s)
    from repro.utils.host import host_metadata

    workload = workloads.WORKLOADS[name](seed, tiny=tiny)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    recorder = SpanRecorder()
    patcher = Patcher(recorder, layers.TARGETS)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload.setup(work_dir)
            setup_times.append(time.perf_counter() - started)
            setup_passes += probe.passes(PROBE_SHARE * setup_times[-1])
        started = time.perf_counter()
        ops = run_rounds(workload, seconds, trace, recorder, patcher, setup_passes)
        timed_seconds = time.perf_counter() - started
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run's scratch is still there

    failed = [op for op in ops if not op.get("ok")]
    # A cold placement of a design must reproduce the HPWL of its first
    # placement in the run bit for bit, or the repeat counts as failed.
    if isinstance(workload, workloads.ColdPlacement):
        first = {}
        for op in ops:
            if op.get("ok") and first.setdefault(op["design"], op["hpwl"]) != op["hpwl"]:
                op.update(ok=False, error="HPWL differs from the design's first placement")
                failed.append(op)

    setup_pace = probe.pace_factor(setup_passes)
    untraced = [op for op in ops if not op["traced"]]
    if trace:
        traced = [op for op in ops if op["traced"]]
        metrics = layers.layer_metrics(recorder.spans, traced)
        traced_p50 = statistics.median(op["norm_seconds"] for op in traced)
        untraced_p50 = statistics.median(op["norm_seconds"] for op in untraced)
        metrics["trace.overhead"] = traced_p50 / untraced_p50 - 1.0
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end_metrics(
            ops, (startup_s + statistics.median(setup_times)) / setup_pace)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"benchmark produced no value for {missing}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "result": result,
        "samples": len([op for op in ops if op.get("ok")]),
        "timed_seconds": timed_seconds,
        "startup_seconds": startup_s,
        "setup_seconds": setup_times,
        "setup_probe_s": setup_passes,
        "setup_pace": setup_pace,
        "wall_place_s.p50": statistics.median(op["seconds"] for op in untraced),
        "ops": ops,
        "host": host_metadata(),
        "nproc": os.cpu_count(),
        "openblas_threads": openblas_threads(),
        "chrome_trace": recorder.chrome_trace() if trace else None,
    }
    return result, record


if __name__ == "__main__":
    sys.exit(main())
