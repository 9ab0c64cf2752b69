"""Scalar reference implementations of warp segmentation.

The timing model and ``repro trace query --warp`` segment instruction
columns in one vectorized pass (:func:`repro.trace.timing.warp_ordinals`).
This module keeps the per-event state machine they replaced, as the
oracle for ``test_warp_segmentation.py``:

* :class:`ScalarLaunchBuilder` assigns each instruction to the current
  warp with a one-instruction lookahead;
* :class:`ScalarTimingModel` feeds trace events through it, grading
  memory records one line at a time;
* :func:`walk_query` is the event-walk ``run_query``, tagging warps
  event by event.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Optional, Tuple

from repro.isa.opcodes import OPCODE_CLASSES, Opcode
from repro.isa.program import INSTRUCTION_BYTES
from repro.sim.cache import Cache
from repro.sim.scheduler import WarpInstr, WarpStream
from repro.sim.warp import WARP_SIZE
from repro.trace import index as index_mod
from repro.trace.format import (
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
    iter_slice_events,
)
from repro.trace.io import TraceReader
from repro.trace.query import QueryFilter, QueryHit, QueryStats


class ScalarLaunchBuilder:
    """Segments one launch's instruction stream into per-CTA warp
    streams, one instruction at a time."""

    def __init__(self, event: LaunchEvent):
        self.kernel = event.kernel
        self.launch_index = event.launch_index
        bx, by, bz = event.block
        gx, gy, gz = event.grid
        self.threads = max(1, bx * by * bz)
        self.warps_per_cta = -(-self.threads // WARP_SIZE)
        self.num_ctas = max(1, gx * gy * gz)
        self.entry_addr: Optional[int] = None
        self.instr_count = 0
        self.warp_instructions = 0
        self.desyncs = 0
        self.ctas: List[List[WarpStream]] = []
        self._start_cta()

    def _start_cta(self) -> None:
        n = self.warps_per_cta
        self.streams = [WarpStream(warp=i) for i in range(n)]
        self.alive = [True] * n
        self.parked = [False] * n
        self.started = [False] * n
        self.resume = [0] * n
        self.rebase = [False] * n
        self.committed = [
            min(WARP_SIZE, self.threads - i * WARP_SIZE) for i in range(n)]
        self.current = 0
        self.started[0] = True

    @property
    def ordinal(self) -> int:
        """The warp ordinal the next instruction joins."""
        return len(self.ctas) * self.warps_per_cta + self.current

    def _select_next(self, current_dead: bool):
        alive = self.alive
        skip = self.current if current_dead else -1
        for i in range(self.current + 1, self.warps_per_cta):
            if i != skip and alive[i] and not self.parked[i]:
                addr = self.resume[i] if self.started[i] else self.entry_addr
                return ("warp", i, addr, False)
        for i in range(self.warps_per_cta):
            if i != skip and alive[i]:
                return ("warp", i, self.resume[i], True)
        if len(self.ctas) + 1 < self.num_ctas:
            return ("cta", 0, self.entry_addr, False)
        return ("end", None, None, False)

    def _advance(self, current_dead: bool) -> None:
        if current_dead:
            self.alive[self.current] = False
        kind, index, _, release = self._select_next(current_dead=False)
        if kind == "warp":
            if release:
                for i in range(self.warps_per_cta):
                    self.parked[i] = False
            self.current = index
            self.started[index] = True
        elif kind == "cta":
            self.ctas.append(self.streams)
            self._start_cta()

    def add(self, rec: WarpInstr, next_addr: Optional[int]) -> None:
        """Assign *rec* to the current warp; *next_addr* is the
        one-instruction lookahead (None at launch end)."""
        if self.entry_addr is None:
            self.entry_addr = rec.addr
        w = self.current
        if not self.alive[w]:
            self.desyncs += 1
        if self.rebase[w]:
            self.committed[w] = max(rec.lanes, 1)
            self.rebase[w] = False
        if rec.lanes > self.committed[w]:
            self.committed[w] = rec.lanes
        rec.divergent = 0 < rec.lanes < self.committed[w]
        self.streams[w].instrs.append(rec)
        self.instr_count += 1
        opcode = rec.opcode
        if opcode is Opcode.BAR:
            self.parked[w] = True
            self.resume[w] = rec.addr + INSTRUCTION_BYTES
            self._advance(current_dead=False)
        elif opcode is Opcode.EXIT or opcode is Opcode.RET:
            self.rebase[w] = True
            if next_addr is None:
                self._advance(current_dead=True)
            elif next_addr == rec.addr + INSTRUCTION_BYTES:
                pass
            else:
                kind, _, cand, _ = self._select_next(current_dead=True)
                if kind != "end" and next_addr == cand:
                    self._advance(current_dead=True)

    def finalize(self) -> None:
        if any(stream.instrs for stream in self.streams):
            self.ctas.append(self.streams)
        self.streams = []


class ScalarTimingModel:
    """Event-at-a-time warp-stream rebuild with per-line cache grading
    (the same 16 KiB/4-way L1 over 256 KiB/16-way L2)."""

    def __init__(self):
        self.l2 = Cache(256 << 10, ways=16, name="L2")
        self.l1 = Cache(16 << 10, ways=4, name="L1", next_level=self.l2)
        self.launches: List[ScalarLaunchBuilder] = []
        self._builder: Optional[ScalarLaunchBuilder] = None
        self._pending: Optional[WarpInstr] = None

    def feed(self, event) -> None:
        if isinstance(event, InstrEvent):
            self._flush(next_addr=event.ins_addr)
            self._pending = WarpInstr(addr=event.ins_addr,
                                      opcode=Opcode(event.opcode),
                                      lanes=event.lanes)
        elif isinstance(event, MemEvent):
            pending = self._pending
            if pending is not None:
                before_l1 = self.l1.stats.misses
                before_l2 = self.l2.stats.misses
                for line in event.line_addresses:
                    self.l1.access(line)
                pending.transactions += len(event.line_addresses)
                pending.l1_misses += self.l1.stats.misses - before_l1
                pending.l2_misses += self.l2.stats.misses - before_l2
        elif isinstance(event, LaunchEvent):
            self.finish()
            self.l1.invalidate()
            self._builder = ScalarLaunchBuilder(event)
            self.launches.append(self._builder)
        elif isinstance(event, KernelEndEvent):
            self._flush(next_addr=None)
            if self._builder is not None:
                self._builder.warp_instructions = event.warp_instructions
                self._builder.finalize()
            self._builder = None

    def finish(self) -> None:
        self._flush(next_addr=None)
        if self._builder is not None:
            self._builder.finalize()
            self._builder = None

    def _flush(self, next_addr: Optional[int]) -> None:
        pending, self._pending = self._pending, None
        if pending is not None and self._builder is not None:
            self._builder.add(pending, next_addr)


# ------------------------------------------------------------- query

def _frame_hits(events, ordinal: int, kernel: str, filt: QueryFilter,
                stats: QueryStats, launch: Optional[LaunchEvent]
                ) -> Iterator[QueryHit]:
    """Filter one frame's events, tagging each instruction's warp once
    the next instruction (or a kernel-end record) resolves it."""
    builder = (ScalarLaunchBuilder(launch)
               if filt.warp is not None and launch is not None else None)
    lo, hi = filt.addr if filt.addr is not None else (None, None)

    def contains(value: int) -> bool:
        return (lo is None or value >= lo) and (hi is None or value < hi)

    def addr_matches(event) -> bool:
        if filt.addr is None or contains(event.ins_addr):
            return True
        return isinstance(event, MemEvent) and any(
            contains(line) for line in event.line_addresses)

    pending_instr: Optional[InstrEvent] = None
    pending_emit: List[object] = []
    group_match = filt.classes is None

    def flush(next_addr: Optional[int]) -> Iterator[QueryHit]:
        nonlocal pending_instr, pending_emit
        if pending_instr is not None:
            warp = builder.ordinal
            builder.add(WarpInstr(addr=pending_instr.ins_addr,
                                  opcode=Opcode(pending_instr.opcode),
                                  lanes=pending_instr.lanes), next_addr)
            if warp == filt.warp:
                for item in pending_emit:
                    stats.hits += 1
                    yield QueryHit(launch=ordinal, kernel=kernel,
                                   warp=warp, event=item)
        pending_instr = None
        pending_emit = []

    for event in events:
        stats.events_scanned += 1
        if isinstance(event, InstrEvent):
            yield from flush(event.ins_addr)
            group_match = (filt.classes is None
                           or bool(OPCODE_CLASSES[Opcode(event.opcode)]
                                   & filt.classes))
            passes = (group_match and "instr" in filt.kinds
                      and addr_matches(event))
            if builder is not None:
                pending_instr = event
                if passes:
                    pending_emit.append(event)
            elif passes:
                stats.hits += 1
                yield QueryHit(launch=ordinal, kernel=kernel, warp=None,
                               event=event)
        elif isinstance(event, (LaunchEvent, KernelEndEvent)):
            yield from flush(None)
        else:
            kind = "mem" if isinstance(event, MemEvent) else "branch"
            if not (kind in filt.kinds and group_match
                    and addr_matches(event)):
                continue
            if builder is not None:
                if pending_instr is not None:
                    pending_emit.append(event)
            else:
                stats.hits += 1
                yield QueryHit(launch=ordinal, kernel=kernel, warp=None,
                               event=event)
    yield from flush(None)


@lru_cache(maxsize=16)
def _trace_events(trace_path: str) -> Tuple[object, ...]:
    return tuple(TraceReader(trace_path).events())


@lru_cache(maxsize=16)
def _frame_events(trace_path: str) -> Tuple[Tuple[object, ...], ...]:
    reader = TraceReader(trace_path)
    return tuple(tuple(iter_slice_events(reader.read_frame(entry)))
                 for entry in index_mod.sidecar_index(trace_path).entries)


def walk_query(trace_path: str, filt: QueryFilter) -> tuple:
    """``(hits, stats)`` of the event walk: through the ``.rpti``
    sidecar when one is on disk (skipping launches exactly as
    ``run_query`` does), else over the whole event stream.  Decoded
    events are cached per path: a trace must not change under it."""
    from repro.trace.query import _entry_can_match

    stats = QueryStats()
    index = index_mod.sidecar_index(trace_path)
    hits: List[QueryHit] = []
    if index is not None and index.shardable:
        stats.used_index = True
        stats.launches_total = index.launches
        for ordinal, entry in enumerate(index.entries):
            if not (filt.launch_in_range(ordinal)
                    and _entry_can_match(entry, filt)):
                stats.launches_skipped += 1
                continue
            stats.launches_visited += 1
            events = iter(_frame_events(trace_path)[ordinal])
            launch = next(events)
            stats.events_scanned += 1
            hits.extend(_frame_hits(events, ordinal, entry.kernel, filt,
                                    stats, launch))
        return hits, stats
    ordinal = -1
    launch: Optional[LaunchEvent] = None
    frame: List[object] = []

    def drain() -> None:
        if not frame:
            return
        if filt.launch_in_range(ordinal):
            stats.launches_visited += ordinal >= 0
            hits.extend(_frame_hits(
                frame, ordinal, launch.kernel if launch else "", filt,
                stats, launch))
        else:
            stats.launches_skipped += 1
            stats.events_scanned += len(frame)
        frame.clear()

    for event in _trace_events(trace_path):
        if isinstance(event, LaunchEvent):
            drain()
            ordinal += 1
            launch = event
            stats.launches_total += 1
            stats.events_scanned += 1
        else:
            frame.append(event)
    drain()
    return hits, stats
