"""Spans around the calls into each ``repro`` layer, recorded from outside.

A traced run wraps the public function at every layer boundary (see
:data:`FUNCTION_BOUNDARIES` and :func:`install`) so that each call opens
a span.  A span is ``(id, name, t0, t1, parent, op)``: the parent is the
span that was open on the same thread when it started, and ``op`` is the
id of the benchmark operation it belongs to.  Spans stay in memory and
are written out once, when the run ends.

A layer's *self time* is its span's duration minus the durations of its
child spans, so the self times of every span under one operation add up
to that operation's duration exactly (:func:`self_times`).

Nothing under ``src/`` is edited: the wrappers replace module and class
attributes at run time, and only while a :class:`Recorder` is active do
they record anything.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (module, function name, span name) for module-level functions; every
#: module that imported the function by name is re-bound too
FUNCTION_BOUNDARIES = [
    ("repro.backend.compiler", "ptxas", "backend.ptxas"),
    ("repro.sassi.inject", "instrument_kernel", "sassi.inject"),
    ("repro.trace.io", "decode_frame_columns", "trace.decode"),
    ("repro.trace.index", "sidecar_index", "trace.open"),
    ("repro.trace.index", "ensure_index", "trace.open"),
    ("repro.trace.index", "read_index", "trace.open"),
    ("repro.trace.diff", "diff_traces", "trace.diff"),
]

#: (module, class, method, span name)
METHOD_BOUNDARIES = [
    ("repro.trace.io", "TraceWriter", "write", "trace.write"),
    ("repro.trace.io", "TraceWriter", "write_batch", "trace.write"),
    ("repro.trace.io", "TraceWriter", "close", "trace.write"),
    ("repro.trace.io", "TraceReader", "read_frame", "trace.open"),
    ("repro.server.client", "ServerClient", "submit", "server.submit"),
    ("repro.server.client", "ServerClient", "wait", "server.wait"),
]

#: the replay analyses whose batch feed and result calls get a span each
ANALYSIS_METHODS = ("feed_columns", "result", "report")

#: span name -> per-layer metric name (self seconds per operation)
LAYER_METRICS = {
    "backend.ptxas": "backend.ptxas_s",
    "sassi.inject": "sassi.inject_s",
    "sim.launch": "sim.launch_self_s",
    "handlers.body": "handlers.body_s",
    "trace.write": "trace.write_s",
    "trace.open": "trace.open_s",
    "trace.decode": "trace.decode_s",
    "trace.analysis.cachesim": "trace.analysis.cachesim_s",
    "trace.analysis.divergence": "trace.analysis.divergence_s",
    "trace.analysis.memdiv": "trace.analysis.memdiv_s",
    "trace.analysis.opcodes": "trace.analysis.opcodes_s",
    "trace.analysis.timing": "trace.analysis.timing_s",
    "trace.query": "trace.query_s",
    "trace.diff": "trace.diff_s",
    "campaign.task": "campaign.self_s",
    "server.submit": "server.submit_s",
    "server.wait": "server.wait_overhead_s",
    "server.job": "server.dispatch_s",
    "op": "other_self_s",
}

#: telemetry timer prefixes under which a server worker ships its
#: per-layer self seconds and counts back (see worker_hook.py)
TIMER_PREFIX = "pipebench."
COUNT_PREFIX = "pipebench.count."

Span = Tuple[int, str, float, float, Optional[int], Optional[int]]


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self):
        self.active = False
        self.spans: List[Span] = []
        #: op id -> counter name -> count
        self.counts: Dict[Optional[int], Dict[str, float]] = \
            defaultdict(lambda: defaultdict(float))
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op: Optional[int] = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent[3]
        span = [next(self._ids), name,
                parent[0] if parent is not None else None, op,
                time.perf_counter()]
        stack.append(span)
        return span

    def end(self, span: list) -> float:
        t1 = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span[1]!r} closed out of order")
        stack.pop()
        sid, name, parent, op, t0 = span
        with self._lock:
            self.spans.append((sid, name, t0, t1, parent, op))
        return t1 - t0

    def add(self, name: str, seconds: float, parent_id: int,
            op: Optional[int]) -> int:
        """Record a span measured elsewhere (in a worker process) as a
        child of span *parent_id*; only its duration is known."""
        sid = next(self._ids)
        with self._lock:
            self.spans.append((sid, name, 0.0, seconds, parent_id, op))
        return sid

    def current_op(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1][3] if stack else None

    def count(self, key: str, amount: float,
              op: Optional[int] = None) -> None:
        if op is None:
            op = self.current_op()
        with self._lock:
            self.counts[op][key] += amount

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counts.clear()

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for sid, name, t0, t1, parent, op in self.spans:
                handle.write(json.dumps(
                    {"id": sid, "name": name, "start": t0, "end": t1,
                     "parent": parent, "op": op}) + "\n")


def self_times(spans) -> Dict[Optional[int], Dict[str, float]]:
    """Per op, per span name: summed self time (duration minus the
    durations of direct children)."""
    wall = {}
    child_total: Dict[int, float] = defaultdict(float)
    for sid, _name, t0, t1, parent, _op in spans:
        wall[sid] = t1 - t0
        if parent is not None:
            child_total[parent] += t1 - t0
    out: Dict[Optional[int], Dict[str, float]] = \
        defaultdict(lambda: defaultdict(float))
    for sid, name, _t0, _t1, _parent, op in spans:
        out[op][name] += wall[sid] - child_total.get(sid, 0.0)
    return out


# ------------------------------------------------------------- wrapping

def timed(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        span = recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(span)
    return wrapper


def _timed_launch(recorder: Recorder, fn: Callable) -> Callable:
    """``Device.launch``: a span plus the launch's simulated counts."""
    @functools.wraps(fn)
    def launch(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        span = recorder.begin("sim.launch")
        try:
            stats = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        recorder.count("sim.warp_instrs", stats.baseline_warp_instructions)
        recorder.count("sim.launches", 1)
        recorder.count("sassi.handler_calls", stats.handler_calls)
        return stats
    return launch


def _timed_decode(recorder: Recorder, fn: Callable) -> Callable:
    """``decode_frame_columns``: a span plus the events it decoded."""
    @functools.wraps(fn)
    def decode(data):
        if not recorder.active:
            return fn(data)
        span = recorder.begin("trace.decode")
        try:
            frame = fn(data)
        finally:
            recorder.end(span)
        if frame is not None:
            recorder.count("trace.decoded_events", frame.events)
        return frame
    return decode


def _timed_query(recorder: Recorder, fn: Callable) -> Callable:
    """``run_query`` returns a lazy hit iterator; the query's work runs
    while it is consumed, so its span covers the whole consumption."""
    @functools.wraps(fn)
    def run_query(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        span = recorder.begin("trace.query")
        try:
            hits, stats = fn(*args, **kwargs)
        except BaseException:
            recorder.end(span)
            raise
        recorder.end(span)

        def consumed():
            inner = recorder.begin("trace.query")
            try:
                yield from hits
            finally:
                recorder.end(inner)
        return consumed(), stats
    return run_query


def _timed_registration(recorder: Recorder, fn: Callable) -> Callable:
    """``SassiRuntime.register_handler``: wrap each registered warp-level
    handler callable in a ``handlers.body`` span.  Thread-level handlers
    return per-lane generators; their bodies stay unwrapped."""
    @functools.wraps(fn)
    def register_handler(self, name, handler, kind="warp", *args,
                         **kwargs):
        if kind == "warp":
            handler = timed(recorder, "handlers.body", handler)
        return fn(self, name, handler, kind, *args, **kwargs)
    return register_handler


class Patches:
    """The attribute replacements :func:`install` made, for undoing."""

    def __init__(self):
        self.applied: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.applied.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original, replacement) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        for owner, attr, value in reversed(self.applied):
            setattr(owner, attr, value)
        self.applied.clear()


def install(recorder: Recorder) -> Patches:
    """Wrap every layer boundary; returns the patches for undoing."""
    import importlib

    import repro.trace.query
    import repro.trace.timing  # noqa: F401  (registers "timing")
    from repro.sassi.handlers import SassiRuntime
    from repro.sim.device import Device
    from repro.trace.replay import ANALYSES

    patches = Patches()
    for module_name, attr, name in FUNCTION_BOUNDARIES:
        original = getattr(importlib.import_module(module_name), attr)
        if name == "trace.decode":
            wrapper = _timed_decode(recorder, original)
        else:
            wrapper = timed(recorder, name, original)
        patches.rebind(original, wrapper)
    patches.rebind(repro.trace.query.run_query,
                   _timed_query(recorder, repro.trace.query.run_query))
    for module_name, cls_name, attr, name in METHOD_BOUNDARIES:
        cls = getattr(importlib.import_module(module_name), cls_name)
        patches.set(cls, attr, timed(recorder, name, getattr(cls, attr)))
    patches.set(Device, "launch", _timed_launch(recorder, Device.launch))
    patches.set(SassiRuntime, "register_handler",
                _timed_registration(recorder,
                                    SassiRuntime.register_handler))
    for analysis_name, cls in sorted(ANALYSES.items()):
        for attr in ANALYSIS_METHODS:
            if attr in vars(cls):
                patches.set(cls, attr, timed(
                    recorder, f"trace.analysis.{analysis_name}",
                    vars(cls)[attr]))
    return patches
