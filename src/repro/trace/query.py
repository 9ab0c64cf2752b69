"""``repro trace query``: filtered event extraction from a trace.

Treats a recorded trace as a queryable artifact instead of a linear
stream (the nsys-style ``search`` workflow): filter events by launch
range, opcode class, instruction/line address range, and warp, and let
the ``.rpti`` index skip entire launch frames — a query over one late
launch reads O(frame) bytes, not O(trace).

Filter semantics:

* ``launches`` — half-open ordinal range ``[lo, hi)`` over the trace's
  launch frames (ordinal = position in the trace, not ``launch_index``).
* ``classes`` — an :class:`~repro.isa.opcodes.OpClass` mask matched
  against each instruction's opcode classes.  Memory and branch events
  carry no opcode, so they inherit the verdict of the instruction event
  they are attached to (capture writes ``[instr, mem?, branch?]``
  batches per site — attachment is "after this instruction, before the
  next one").
* ``addr`` — half-open address range; an event matches on its
  instruction address, and a memory event also matches when any of its
  coalesced line addresses falls in the range.
* ``warp`` — global warp ordinal within each launch
  (``cta_index * warps_per_cta + warp_index``), recovered by the same
  deterministic warp segmentation the timing model uses.  Only
  meaningful for full captures (warp reconstruction needs every
  instruction); segmentation runs only when the filter is set.
* ``kinds`` — restrict which event kinds are emitted at all
  (``instr`` / ``mem`` / ``branch``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.isa.opcodes import Opcode, OpClass, OPCODE_CLASSES
from repro.trace import index as index_mod
from repro.trace.format import (
    TAG_BRANCH,
    TAG_INSTR,
    TAG_KEND,
    TAG_MEM,
    BranchEvent,
    InstrEvent,
    LaunchEvent,
    MemEvent,
    iter_slice_events,
)
from repro.trace.io import FrameColumns, TraceReader

QUERY_KINDS = ("instr", "mem", "branch")

#: OpClass members addressable from the CLI (lowercase)
CLASS_NAMES = {name.lower(): member
               for name, member in OpClass.__members__.items()
               if member is not OpClass.NONE}


class QueryError(ValueError):
    """A malformed query filter (bad range/class/address syntax)."""


def _parse_range(text: str, what: str
                 ) -> Tuple[Optional[int], Optional[int]]:
    """``"a:b"`` / ``"a:"`` / ``":b"`` / ``"a"`` -> (lo, hi-exclusive)."""
    try:
        if ":" not in text:
            value = int(text, 0)
            return value, value + 1
        lo_text, hi_text = text.split(":", 1)
        lo = int(lo_text, 0) if lo_text else None
        hi = int(hi_text, 0) if hi_text else None
    except ValueError:
        raise QueryError(f"bad {what} range {text!r} (want N, N:M, N:, "
                         "or :M; addresses may be hex)")
    if lo is not None and hi is not None and hi < lo:
        raise QueryError(f"reversed {what} range {text!r} (the end is "
                         "below the start)")
    return lo, hi


@dataclass(frozen=True)
class QueryFilter:
    """One query's predicates (all optional, AND-ed together)."""

    launches: Optional[Tuple[Optional[int], Optional[int]]] = None
    classes: Optional[OpClass] = None
    addr: Optional[Tuple[Optional[int], Optional[int]]] = None
    warp: Optional[int] = None
    kinds: Tuple[str, ...] = QUERY_KINDS

    @classmethod
    def parse(cls, launches: Optional[str] = None,
              classes: Optional[str] = None,
              addr: Optional[str] = None,
              warp: Optional[int] = None,
              kinds: Optional[str] = None) -> "QueryFilter":
        """Build a filter from CLI strings."""
        if warp is not None and warp < 0:
            raise QueryError(f"bad warp ordinal {warp} (must be 0 or "
                             "more)")
        launch_range = _parse_range(launches, "launch") if launches else None
        mask = None
        if classes:
            mask = OpClass.NONE
            for name in classes.split(","):
                name = name.strip().lower()
                if name not in CLASS_NAMES:
                    raise QueryError(
                        f"unknown opcode class {name!r} (choose from "
                        f"{', '.join(sorted(CLASS_NAMES))})")
                mask |= CLASS_NAMES[name]
        addr_range = _parse_range(addr, "address") if addr else None
        kind_tuple = QUERY_KINDS
        if kinds:
            requested = tuple(k.strip() for k in kinds.split(","))
            for kind in requested:
                if kind not in QUERY_KINDS:
                    raise QueryError(
                        f"unknown event kind {kind!r} (choose from "
                        f"{', '.join(QUERY_KINDS)})")
            kind_tuple = requested
        return cls(launches=launch_range, classes=mask, addr=addr_range,
                   warp=warp, kinds=kind_tuple)

    # ------------------------------------------------------ predicates

    def launch_in_range(self, ordinal: int) -> bool:
        if self.launches is None:
            return True
        lo, hi = self.launches
        return ((lo is None or ordinal >= lo)
                and (hi is None or ordinal < hi))


@dataclass(frozen=True)
class QueryHit:
    """One matching event with its launch/warp context."""

    launch: int                  # launch ordinal (-1: before any launch)
    kernel: str                  # "" before any launch
    warp: Optional[int]          # tagged only when filtering by warp
    event: object


@dataclass
class QueryStats:
    """What the query engine did (shown by the CLI)."""

    launches_total: int = 0
    launches_visited: int = 0
    launches_skipped: int = 0
    events_scanned: int = 0
    hits: int = 0
    used_index: bool = False


#: opcode id -> OPCODE_CLASSES flag value, for vectorized class tests
_class_values: Optional[np.ndarray] = None


def _opclass_values() -> np.ndarray:
    global _class_values
    if _class_values is None:
        table = np.zeros(max(op.value for op in Opcode) + 1,
                         dtype=np.int64)
        for op in Opcode:
            table[op.value] = OPCODE_CLASSES[op].value
        _class_values = table
    return _class_values


def _frame_hits_columns(frame: FrameColumns, ordinal: int, kernel: str,
                        filt: QueryFilter, stats: QueryStats
                        ) -> Iterator[QueryHit]:
    """Filter one frame's records (the leading launch record excluded):
    the class/addr/warp/kind predicates run as array masks over the
    columns, and only the matching events are materialized as objects,
    in record order."""
    stats.events_scanned += frame.record_tags.size
    tags = frame.record_tags
    instr_pos = np.flatnonzero(tags == TAG_INSTR)

    addr_range = filt.addr

    def in_range(values: np.ndarray) -> np.ndarray:
        if addr_range is None:
            return np.ones(values.size, dtype=bool)
        lo, hi = addr_range
        match = np.ones(values.size, dtype=bool)
        if lo is not None:
            match &= values >= lo
        if hi is not None:
            match &= values < hi
        return match

    instr_ok = np.ones(instr_pos.size, dtype=bool)
    if filt.classes is not None:
        instr_ok &= (_opclass_values()[frame.instr_opcodes]
                     & filt.classes.value) != 0
    warp = None
    if filt.warp is not None and frame.launch is not None:
        from repro.trace.timing import warp_ordinals

        warp = filt.warp
        # an instruction's lookahead stops at a kernel-end record
        kend_pos = np.flatnonzero(tags == TAG_KEND)
        kends_before = np.searchsorted(kend_pos, instr_pos)
        ends = np.ones(instr_pos.size, dtype=bool)
        ends[:-1] = kends_before[1:] != kends_before[:-1]
        instr_ok &= warp_ordinals(frame.launch, frame.instr_addr,
                                  frame.instr_opcodes, ends)[0] == warp

    def inherited(positions: np.ndarray) -> np.ndarray:
        """The verdict a mem/branch record inherits from the nearest
        preceding instruction of the frame (none -> no match unless
        neither a class nor a warp filter is on).  Under a warp filter
        a kernel-end record in between also breaks the tie."""
        if filt.classes is None and warp is None:
            return np.ones(positions.size, dtype=bool)
        group = np.searchsorted(instr_pos, positions, side="right") - 1
        verdict = np.zeros(positions.size, dtype=bool)
        anchored = np.flatnonzero(group >= 0)
        owner = group[anchored]
        verdict[anchored] = instr_ok[owner]
        if warp is not None:
            verdict[anchored] &= (
                np.searchsorted(kend_pos, positions[anchored])
                == kends_before[owner])
        return verdict

    pos_parts: List[np.ndarray] = []
    kind_parts: List[np.ndarray] = []
    local_parts: List[np.ndarray] = []

    def add(kind: int, positions: np.ndarray, sel: np.ndarray) -> None:
        local = np.flatnonzero(sel)
        if local.size:
            pos_parts.append(positions[local])
            kind_parts.append(np.full(local.size, kind, dtype=np.int64))
            local_parts.append(local)

    if "instr" in filt.kinds and instr_pos.size:
        add(0, instr_pos, instr_ok & in_range(frame.instr_addr))
    if "mem" in filt.kinds:
        mem_pos = np.flatnonzero(tags == TAG_MEM)
        if mem_pos.size:
            sel = inherited(mem_pos)
            if addr_range is not None:
                line_match = in_range(frame.mem_lines)
                seg = np.repeat(np.arange(mem_pos.size), frame.mem_nlines)
                any_line = np.bincount(
                    seg, weights=line_match,
                    minlength=mem_pos.size) > 0
                sel &= in_range(frame.mem_addr) | any_line
            add(1, mem_pos, sel)
    if "branch" in filt.kinds:
        branch_pos = np.flatnonzero(tags == TAG_BRANCH)
        if branch_pos.size:
            add(2, branch_pos,
                inherited(branch_pos) & in_range(frame.branch_addr))
    if not pos_parts:
        return
    order = np.argsort(np.concatenate(pos_parts))
    kinds = np.concatenate(kind_parts)[order].tolist()
    locals_ = np.concatenate(local_parts)[order].tolist()
    line_offsets = np.concatenate(
        ([0], np.cumsum(frame.mem_nlines))).tolist()
    for kind, i in zip(kinds, locals_):
        if kind == 0:
            event: object = InstrEvent(
                ins_addr=int(frame.instr_addr[i]),
                opcode=int(frame.instr_opcodes[i]),
                lanes=int(frame.instr_lanes[i]),
                width=int(frame.instr_widths[i]))
        elif kind == 1:
            lines = frame.mem_lines[line_offsets[i]:
                                    line_offsets[i + 1]]
            event = MemEvent(
                ins_addr=int(frame.mem_addr[i]),
                flags=int(frame.mem_flags[i]),
                width=int(frame.mem_width[i]),
                active_lanes=int(frame.mem_active[i]),
                line_addresses=tuple(lines.tolist()))
        else:
            event = BranchEvent(
                ins_addr=int(frame.branch_addr[i]),
                active=int(frame.branch_active[i]),
                taken=int(frame.branch_taken[i]),
                not_taken=int(frame.branch_not_taken[i]))
        stats.hits += 1
        yield QueryHit(launch=ordinal, kernel=kernel, warp=warp,
                       event=event)


def _entry_can_match(entry: "index_mod.LaunchEntry",
                     filt: QueryFilter) -> bool:
    """Can anything in this frame match, judging by counts alone?"""
    wanted = 0
    if "instr" in filt.kinds:
        wanted += entry.instr
    if "mem" in filt.kinds:
        wanted += entry.mem
    if "branch" in filt.kinds:
        wanted += entry.branch
    if wanted == 0:
        return False
    if filt.classes is not None and entry.instr == 0:
        return False             # nothing for mem/branch to inherit from
    return True


def run_query(trace_path: str, filt: QueryFilter,
              index: Optional["index_mod.TraceIndex"] = None
              ) -> Tuple[Iterator[QueryHit], QueryStats]:
    """Run *filt* over *trace_path*.

    Returns ``(hits, stats)`` — a lazy hit iterator plus a stats object
    that fills in as the iterator is consumed (final once exhausted;
    a truncated consumer sees the stats of what was actually read).
    Uses the ``.rpti`` sidecar to skip launches when one is on disk and
    bound to this trace, else falls back to a full scan
    (``stats.used_index`` says which — a missing sidecar is reported as
    a full scan, never silently rebuilt by a hidden one).  Indexed
    queries decode the visited frames in batched runs; every frame,
    decoded or (when the decoder declines it, or without a sidecar)
    gathered from events, is filtered by :func:`_frame_hits_columns`.
    """
    stats = QueryStats()
    if index is None:
        index = index_mod.sidecar_index(trace_path)
    if index is not None and index.shardable:
        stats.used_index = True
        stats.launches_total = index.launches

        def indexed_hits() -> Iterator[QueryHit]:
            reader = TraceReader(trace_path)
            wanted = [filt.launch_in_range(ordinal)
                      and _entry_can_match(entry, filt)
                      for ordinal, entry in enumerate(index.entries)]
            # visited frames are read and decoded in batched runs
            columns = reader.frame_columns(
                [entry for entry, want in zip(index.entries, wanted)
                 if want])
            for ordinal, entry in enumerate(index.entries):
                if not wanted[ordinal]:
                    stats.launches_skipped += 1
                    continue
                stats.launches_visited += 1
                stats.events_scanned += 1        # the launch record
                _, data, frame = next(columns)
                if frame is None:
                    launch, *events = iter_slice_events(data)
                    frame = FrameColumns.from_events(launch, events)
                yield from _frame_hits_columns(
                    frame, ordinal, entry.kernel, filt, stats)

        return indexed_hits(), stats

    def scanned_hits() -> Iterator[QueryHit]:
        ordinal = -1
        launch: Optional[LaunchEvent] = None
        frame: List[object] = []

        def drain() -> Iterator[QueryHit]:
            if not frame:
                return
            if filt.launch_in_range(ordinal):
                stats.launches_visited += ordinal >= 0
                kernel = launch.kernel if launch is not None else ""
                yield from _frame_hits_columns(
                    FrameColumns.from_events(launch, frame), ordinal,
                    kernel, filt, stats)
            else:
                stats.launches_skipped += 1
                stats.events_scanned += len(frame)
            frame.clear()

        for event in TraceReader(trace_path).events():
            if isinstance(event, LaunchEvent):
                yield from drain()
                ordinal += 1
                launch = event
                stats.launches_total += 1
                stats.events_scanned += 1
            else:
                frame.append(event)
        yield from drain()

    return scanned_hits(), stats
