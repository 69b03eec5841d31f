"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import os
import threading

import pytest

import layers
import probe
import run
from tracer import Patcher, Span, SpanRecorder, rollup, self_seconds

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _span(id, name, parent, start, end):
    return Span(id, name, parent, start, tid=0, end=end)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, "op", None, 0.0, 10.0),
        _span(2, "a", 1, 1.0, 5.0),
        _span(3, "b", 2, 2.0, 3.0),
        _span(4, "c", 1, 4.0, 8.0),  # overlaps "a", as a second thread's span can
        _span(5, "d", 1, 9.5, 12.0),  # runs past its parent's end
    ]
    selfs = self_seconds(spans)
    assert selfs[1] == pytest.approx(10.0 - (7.0 + 0.5))
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(4.0)


def test_rollup_counts_nested_same_name_once():
    spans = [
        _span(1, "op", None, 0.0, 10.0),
        _span(2, "x", 1, 1.0, 9.0),
        _span(3, "x", 2, 2.0, 4.0),
        _span(4, "y", 3, 2.5, 3.0),
    ]
    spans[3].attrs["gflop"] = 0.5
    rows = rollup(spans)
    assert rows["x"]["calls"] == 2
    assert rows["x"]["s"] == pytest.approx(8.0)
    assert rows["x"]["self_s"] == pytest.approx(6.0 + 1.5)
    assert rows["y"]["gflop"] == 0.5
    assert rows["op"]["self_s"] == pytest.approx(2.0)


def test_spans_from_another_thread_nest_under_the_open_op():
    recorder = SpanRecorder()

    def worker():
        span = recorder.begin("worker.outer")
        recorder.end(recorder.begin("worker.inner"))
        recorder.end(span)

    with recorder.op("op") as op:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(10)
    assert not thread.is_alive()
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["worker.outer"].parent == op.id
    assert by_name["worker.inner"].parent == by_name["worker.outer"].id
    events = recorder.chrome_trace()["traceEvents"]
    assert {e["name"] for e in events} == {"op", "worker.outer", "worker.inner"}
    assert all(e["ph"] == "X" for e in events)


def test_pace_factor_is_one_at_the_reference_speed():
    reference = probe.REFERENCE_PASS_S
    assert probe.pace_factor([reference] * 3) == pytest.approx(1.0)
    slow = probe.pace_factor([0.5 * reference, 2 * reference, 2 * reference])
    assert slow == pytest.approx(2.0)


def test_normalize_op_uses_the_passes_either_side_of_it():
    reference = probe.REFERENCE_PASS_S
    op = {"seconds": 3.0, "probe_s": [reference] * 2}
    run.normalize_op(op, passes_before=[2 * reference] * 2)
    assert op["pace"] == pytest.approx(1.5)
    assert op["norm_seconds"] == pytest.approx(2.0)


def test_probe_passes_fill_their_budget():
    times = probe.passes(0.0)
    assert len(times) == probe.MIN_PASSES
    assert all(t > 0 for t in times)
    assert sum(probe.passes(0.2)) >= 0.2


def test_uninstall_restores_every_patched_name():
    run.import_placer()
    import scipy.optimize

    import repro.legalize.pipeline
    import repro.nn.layers

    originals = {
        "im2col": repro.nn.layers.im2col,
        "lp_legalize_axis": repro.legalize.pipeline.lp_legalize_axis,
        "linprog": scipy.optimize.linprog,
        "forward": repro.nn.layers.Conv2D.forward,
    }
    patcher = Patcher(SpanRecorder(), layers.TARGETS)
    with patcher.active():
        installed = list(patcher.installed)
        assert len(installed) > len(layers.TARGETS)  # from-imports patched too
        assert repro.nn.layers.im2col is not originals["im2col"]
        assert repro.legalize.pipeline.lp_legalize_axis is not originals["lp_legalize_axis"]
        assert scipy.optimize.linprog is not originals["linprog"]
        assert repro.nn.layers.Conv2D.forward is not originals["forward"]
    for site, attr, original in installed:
        assert getattr(site, attr) is original
    assert repro.nn.layers.im2col is originals["im2col"]
    assert scipy.optimize.linprog is originals["linprog"]
    assert repro.nn.layers.Conv2D.forward is originals["forward"]


@pytest.mark.parametrize("workload", ["cold-ibm01", "large-fast", "sweep-warm-ibm10"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_smoke(workload, trace, tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    result, record = run.run_benchmark(workload, 1, 0.0, trace, spec, tiny=True,
                                       work_dir=str(tmp_path / "scratch" / "run"))
    assert result["correct"], [op.get("error") for op in record["ops"]]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    if trace:
        assert result["metrics"]["core.place.calls"]["value"] == 1
        assert record["chrome_trace"]["traceEvents"]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not os.path.exists(tmp_path / "scratch")
