"""Trace comparison: find where two recorded runs first diverge.

The error-injection use case: record a trace per injection trial, then
``repro trace-diff golden.rptrace trial.rptrace`` pinpoints the first
dynamic event where the fault became architecturally visible — without
re-simulating anything.  Comparison is exact: two events are equal iff
every recorded field is equal.

When both traces carry a bound, shardable ``.rpti`` sidecar, the diff
runs on columns.  Each trace's launch frames are read and decoded in
batched runs (:meth:`~repro.trace.io.TraceReader.frame_columns`) and
laid out as dense per-event-slot columns, a window of whole frames at
a time.  Aligned slots of the two windows are compared with array
equality on tags and fields, and memory line lists segment by segment.
Memory stays bounded by one window (about :data:`WINDOW_SLOTS` slots)
per trace, however long the traces are.  Totals come from the index,
and only the divergent pair's events are materialized.  Traces without
such a sidecar, or with a frame the vector decoder declines, are
compared by walking two lazy readers event by event, in constant
memory.  Both paths return the same :class:`TraceDiff`.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass
from itertools import accumulate, zip_longest
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.telemetry.collector import TELEMETRY, span as telemetry_span
from repro.trace import index as index_mod
from repro.trace.format import (
    KIND_NAMES,
    TAG_BRANCH,
    TAG_INSTR,
    TAG_KEND,
    TAG_LAUNCH,
    TAG_MEM,
    BranchEvent,
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
)
from repro.trace.io import FrameColumns, TraceReader

#: event slots per comparison window (whole frames are added to a
#: window until it holds at least this many)
WINDOW_SLOTS = 1 << 16


def _describe(event) -> str:
    if event is None:
        return "<end of trace>"
    kind = KIND_NAMES[event.tag]
    addr = getattr(event, "ins_addr", None)
    if addr is not None:
        return f"{kind} @0x{addr:x} {event}"
    return f"{kind} {event}"


@dataclass
class TraceDiff:
    """Outcome of comparing two traces."""

    events_a: int
    events_b: int
    #: index (0-based, in event-stream order) of the first differing
    #: event, or None when the traces are identical
    first_divergence: Optional[int] = None
    #: the differing pair at that index (either side may be None when
    #: one trace simply ended first)
    divergent_pair: Tuple[Optional[object], Optional[object]] = (None, None)
    #: kernel frame (name, launch index) containing the divergence
    kernel_frame: Optional[Tuple[str, int]] = None
    #: total number of differing event slots (bounded by *max_deltas*)
    deltas: int = 0
    #: True when more than *max_deltas* event slots differ
    deltas_truncated: bool = False

    @property
    def identical(self) -> bool:
        return self.first_divergence is None

    def report(self) -> str:
        if self.identical:
            return (f"traces identical: {self.events_a:,} events, "
                    "0 deltas")
        lines = [f"first divergence at event {self.first_divergence:,}"]
        if self.kernel_frame is not None:
            name, index = self.kernel_frame
            lines[0] += f" (kernel {name!r}, launch {index})"
        a, b = self.divergent_pair
        lines.append(f"  a: {_describe(a)}")
        lines.append(f"  b: {_describe(b)}")
        deltas = f"{self.deltas:,}"
        if self.deltas_truncated:
            deltas += "+"
        lines.append(f"{deltas} differing events "
                     f"({self.events_a:,} vs {self.events_b:,} total)")
        return "\n".join(lines)


def diff_traces(path_a, path_b, max_deltas: int = 100_000) -> TraceDiff:
    """Compare two traces event by event.

    Counting every delta of two wildly different traces is pointless
    work, so counting stops at *max_deltas* differences, and
    ``deltas_truncated`` says that more than that many differ; the
    first-divergence point is exact regardless.
    """
    if max_deltas < 1:
        raise ValueError(f"max_deltas must be at least 1 (got {max_deltas})")
    with telemetry_span("trace.diff"):
        diff = None
        index_a = _shardable_index(path_a)
        index_b = _shardable_index(path_b) if index_a is not None else None
        if index_b is not None:
            try:
                diff = _diff_columns(path_a, index_a, path_b, index_b,
                                     max_deltas)
            except _Declined:
                pass
        if diff is None:
            diff = _diff_events(path_a, path_b, max_deltas)
        if TELEMETRY.enabled:
            TELEMETRY.incr("trace.diff.events",
                           diff.events_a + diff.events_b)
    return diff


def _shardable_index(path) -> Optional["index_mod.TraceIndex"]:
    if not isinstance(path, (str, os.PathLike)):
        return None
    index = index_mod.sidecar_index(os.fspath(path))
    return index if index is not None and index.shardable else None


# ------------------------------------------------------------ event walk

def _diff_events(path_a, path_b, max_deltas: int) -> TraceDiff:
    """The streaming comparison: two lazy readers, one event at a time."""
    reader_a = TraceReader(path_a)
    reader_b = TraceReader(path_b)
    index = 0
    first: Optional[int] = None
    pair: Tuple[Optional[object], Optional[object]] = (None, None)
    frame: Optional[Tuple[str, int]] = None
    divergence_frame: Optional[Tuple[str, int]] = None
    deltas = 0
    truncated = False
    count_a = count_b = 0
    for event_a, event_b in zip_longest(reader_a.events(),
                                        reader_b.events()):
        if event_a is not None:
            count_a += 1
            if isinstance(event_a, LaunchEvent):
                frame = (event_a.kernel, event_a.launch_index)
        if event_b is not None:
            count_b += 1
        if event_a != event_b:
            if first is None:
                first = index
                pair = (event_a, event_b)
                divergence_frame = frame
            if deltas == max_deltas:
                truncated = True
                break
            deltas += 1
        index += 1
    if truncated:
        # re-scan for the full totals so the report stays meaningful
        count_a = sum(1 for _ in reader_a.events())
        count_b = sum(1 for _ in reader_b.events())
    return TraceDiff(events_a=count_a, events_b=count_b,
                     first_divergence=first, divergent_pair=pair,
                     kernel_frame=divergence_frame, deltas=deltas,
                     deltas_truncated=truncated)


# ---------------------------------------------------------- columnar diff

class _Declined(Exception):
    """A frame the vector decoder declines: the diff falls back to the
    event walk."""


#: field columns of each record kind, in the order of the dense
#: ``fields`` matrix (a LAUNCH slot holds its interned launch id)
_KIND_FIELDS = (
    (TAG_KEND, ("kend_counts",)),
    (TAG_INSTR, ("instr_addr", "instr_opcodes", "instr_lanes",
                 "instr_widths")),
    (TAG_MEM, ("mem_addr", "mem_flags", "mem_width", "mem_active",
               "mem_nlines")),
    (TAG_BRANCH, ("branch_addr", "branch_active", "branch_taken",
                  "branch_not_taken")),
)


class _Window:
    """Consecutive whole frames of one trace as dense per-slot columns.

    Slot *i* is the *i*-th event of the window in stream order: its tag,
    up to five int64 fields (all of an event's fields except a memory
    event's line list), and for a memory event the offset of its line
    list in ``lines``.  Two slots hold equal events iff their tags,
    fields and line lists are equal.
    """

    __slots__ = ("tags", "fields", "line_start", "lines", "heads",
                 "launches")

    def __init__(self, frames: List[FrameColumns],
                 launch_ids: Dict[LaunchEvent, int]):
        sizes = [frame.events for frame in frames]
        slots = sum(sizes)
        self.heads = np.fromiter(accumulate(sizes[:-1], initial=0),
                                 dtype=np.int64, count=len(frames))
        self.launches = [frame.launch for frame in frames]
        tags = np.full(slots, TAG_LAUNCH, dtype=np.int64)
        body = np.ones(slots, dtype=bool)
        body[self.heads] = False
        tags[body] = np.concatenate([f.record_tags for f in frames])
        fields = np.zeros((slots, 5), dtype=np.int64)
        fields[self.heads, 0] = [
            launch_ids.setdefault(launch, len(launch_ids))
            for launch in self.launches]
        mem_at = None
        for tag, names in _KIND_FIELDS:
            at = np.flatnonzero(tags == tag)
            for k, name in enumerate(names):
                fields[at, k] = np.concatenate(
                    [getattr(f, name) for f in frames])
            if tag == TAG_MEM:
                mem_at = at
        nlines = fields[mem_at, 4]
        self.line_start = np.zeros(slots, dtype=np.int64)
        self.line_start[mem_at] = np.cumsum(nlines) - nlines
        self.lines = np.concatenate([f.mem_lines for f in frames])
        self.tags = tags
        self.fields = fields

    @property
    def size(self) -> int:
        return int(self.tags.size)

    def event(self, i: int):
        """Materialize slot *i* as the event object the reader yields."""
        tag = int(self.tags[i])
        f = self.fields[i].tolist()
        if tag == TAG_LAUNCH:
            return self.launches[int(np.searchsorted(self.heads, i))]
        if tag == TAG_KEND:
            return KernelEndEvent(warp_instructions=f[0])
        if tag == TAG_INSTR:
            return InstrEvent(ins_addr=f[0], opcode=f[1], lanes=f[2],
                              width=f[3])
        if tag == TAG_MEM:
            start = int(self.line_start[i])
            return MemEvent(ins_addr=f[0], flags=f[1], width=f[2],
                            active_lanes=f[3],
                            line_addresses=tuple(
                                self.lines[start:start + f[4]].tolist()))
        return BranchEvent(ins_addr=f[0], active=f[1], taken=f[2],
                           not_taken=f[3])


class _Slots:
    """One trace's events in global order, a :class:`_Window` at a time;
    ``window.event(at)`` is the next unread slot."""

    def __init__(self, path, index: "index_mod.TraceIndex",
                 launch_ids: Dict[LaunchEvent, int]):
        self.total = index.trace_total_events
        self._frames = TraceReader(path).frame_columns(index.entries)
        self._launch_ids = launch_ids
        self.window: Optional[_Window] = None
        self.at = 0

    def fill(self) -> bool:
        """Load the next window if this one is used up; False at the
        end of the trace."""
        if self.window is not None and self.at < self.window.size:
            return True
        frames: List[FrameColumns] = []
        slots = 0
        for _, _, frame in self._frames:
            if frame is None:
                raise _Declined
            frames.append(frame)
            slots += frame.events
            if slots >= WINDOW_SLOTS:
                break
        if not frames:
            return False
        self.window = _Window(frames, self._launch_ids)
        self.at = 0
        return True


def _differing(a: _Window, ia: int, b: _Window, ib: int,
               n: int) -> np.ndarray:
    """Offsets *k* < *n* where slot ``ia + k`` of *a* and slot
    ``ib + k`` of *b* hold different events."""
    tags = a.tags[ia:ia + n]
    fields = a.fields[ia:ia + n]
    same = ((tags == b.tags[ib:ib + n])
            & (fields == b.fields[ib:ib + n]).all(axis=1))
    # memory events equal so far: compare their line lists segment by
    # segment (equal fields mean equal line counts)
    mem = np.flatnonzero(same & (tags == TAG_MEM) & (fields[:, 4] > 0))
    if mem.size:
        counts = fields[mem, 4]
        offsets = (np.arange(int(counts.sum()), dtype=np.int64)
                   - np.repeat(np.cumsum(counts) - counts, counts))
        lines_a = a.lines[np.repeat(a.line_start[ia + mem], counts)
                          + offsets]
        lines_b = b.lines[np.repeat(b.line_start[ib + mem], counts)
                          + offsets]
        same[np.repeat(mem, counts)[lines_a != lines_b]] = False
    return np.flatnonzero(~same)


def _diff_columns(path_a, index_a: "index_mod.TraceIndex", path_b,
                  index_b: "index_mod.TraceIndex",
                  max_deltas: int) -> TraceDiff:
    """The columnar comparison; same :class:`TraceDiff` as the walk."""
    launch_ids: Dict[LaunchEvent, int] = {}
    a = _Slots(path_a, index_a, launch_ids)
    b = _Slots(path_b, index_b, launch_ids)
    pos = 0
    first: Optional[int] = None
    pair: Tuple[Optional[object], Optional[object]] = (None, None)
    deltas = 0
    truncated = False
    while True:
        more_a = a.fill()
        more_b = b.fill()
        if not (more_a and more_b):
            break
        n = min(a.window.size - a.at, b.window.size - b.at)
        differ = _differing(a.window, a.at, b.window, b.at, n)
        if differ.size:
            if first is None:
                k = int(differ[0])
                first = pos + k
                pair = (a.window.event(a.at + k), b.window.event(b.at + k))
            if deltas + differ.size > max_deltas:
                deltas = max_deltas
                truncated = True
                break
            deltas += int(differ.size)
        a.at += n
        b.at += n
        pos += n
    if not truncated:
        # one trace ended: every remaining slot of the other differs
        rest = max(a.total, b.total) - pos
        if rest:
            if first is None:
                first = pos
                pair = (a.window.event(a.at) if more_a else None,
                        b.window.event(b.at) if more_b else None)
            truncated = deltas + rest > max_deltas
            deltas = min(deltas + rest, max_deltas)
    frame = None
    if first is not None:
        # the walk reports a's frame at the divergence (its last frame
        # when a ended first)
        ends = list(accumulate(e.events for e in index_a.entries))
        entry = index_a.entries[bisect.bisect_right(
            ends, min(first, a.total - 1))]
        frame = (entry.kernel, entry.launch_index)
    return TraceDiff(events_a=a.total, events_b=b.total,
                     first_divergence=first, divergent_pair=pair,
                     kernel_frame=frame, deltas=deltas,
                     deltas_truncated=truncated)
