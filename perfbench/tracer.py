"""Span recorder and call-site patcher for the traced benchmark run.

The recorder times calls into the placer's layers from outside the
program: :class:`Patcher` replaces each target function or method with a
wrapper at every place its callers look it up, and restores the original
objects afterwards, so untraced runs execute unpatched code.

Spans carry a name, start, end, parent and optional counts.  Each thread
keeps its own parent stack; a span opened on a thread whose stack is empty
(the service's worker thread) nests under the operation span that is open
on the benchmark's thread, so a service job's spans land in its op's tree.
Spans are kept in memory and written once, as Chrome trace-event JSON.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    tid: int
    end: float = 0.0
    #: counts attached after the call returned (computed from its
    #: arguments and result, e.g. GFLOP from array shapes)
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from every thread into one in-memory list."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: the open operation span that spans from other threads nest under
        self._op: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            parent = self._op.id if self._op is not None else None
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, parent, self.clock(), threading.get_ident(),
                    attrs=dict(attrs))
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def op(self, name: str, **attrs):
        """One benchmark operation: the root of its span tree."""
        span = self.begin(name, **attrs)
        self._op = span
        try:
            yield span
        finally:
            self._op = None
            self.end(span)

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (``ph: X`` events, µs)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.seconds * 1e6,
                "pid": pid,
                "tid": s.tid,
                "args": {"id": s.id, "parent": s.parent, **s.attrs},
            }
            for s in sorted(self.spans, key=lambda s: (s.start, s.id))
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- roll-up -------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Per span id: its duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.seconds - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def rollup(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s``, ``self_s`` and summed attrs.

    Inclusive seconds count only spans with no ancestor of the same name,
    so a recursive (or super-calling) layer is not counted twice.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_seconds(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[s.id]
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            row["s"] += s.seconds
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row[key] = row.get(key, 0) + value
    return out


# -- patching --------------------------------------------------------------------
def resolve(target: str):
    """``"pkg.mod:Class.attr"`` → (owner object, attribute name, original)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Patcher:
    """Installs span wrappers at every lookup site of each target.

    *targets* have ``name``, ``target`` (``"module:qualname"``), ``counts``
    and ``before`` fields (see ``layers.Target``).

    A method is looked up on its class, so the class attribute is
    replaced.  A function is looked up in the namespace of whichever
    module calls it: the defining module (module-qualified calls and
    imports inside functions) and every loaded ``repro`` module that bound
    the same object with ``from ... import``.  Modules imported after
    :meth:`install` would capture the wrapper, so callers import
    everything first (the placer's package is imported whole).
    """

    def __init__(self, recorder: SpanRecorder, targets):
        self.recorder = recorder
        self.targets = list(targets)
        #: (owner, attribute, original) for every replaced binding
        self.installed: list[tuple[object, str, object]] = []

    def _sites(self, owner, attr, original):
        yield owner
        if isinstance(owner, type):
            return
        for name, module in list(sys.modules.items()):
            if module is owner or module is None:
                continue
            if name.split(".", 1)[0] != "repro":
                continue
            if getattr(module, attr, None) is original:
                yield module

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("patcher already installed")
        try:
            for target in self.targets:
                owner, attr, original = resolve(target.target)
                wrapper = _wrap(self.recorder, target, original)
                for site in self._sites(owner, attr, original):
                    self.installed.append((site, attr, original))
                    setattr(site, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self.installed:
            site, attr, original = self.installed.pop()
            setattr(site, attr, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _wrap(recorder: SpanRecorder, target, fn):
    name, counts, before = target.name, target.counts, target.before

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if counts is not None:
            span.attrs.update(counts(args, kwargs, result, state))
        return result

    return wrapper
