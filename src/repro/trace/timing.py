"""Trace-driven timing: warp-stream reconstruction + scheduled replay.

The ``timing`` analysis rebuilds per-warp instruction streams from a
recorded event stream and runs them through the cycle-stepped scheduler
in :mod:`repro.sim.scheduler`, entirely off the functional fast path:
the executor's inline accounting stays the flat model, and the
stall-accurate numbers come from replaying a trace (or from tee-ing a
live capture through :class:`TimingSink`, which by construction gives
bit-identical results — events and decoded frames reach the same
columnar :class:`TimingModel` ingestion).

**Warp segmentation.**  Trace events carry no warp IDs (the format is
unchanged), so streams are rebuilt from the executor's deterministic
scheduling contract: CTAs run sequentially; within a CTA, warps run in
index order, each to its next barrier or exit; when every live warp is
parked the barrier releases and the pass restarts at the lowest live
index.  Under that contract each instruction extends the *current*
warp, and only three opcodes can hand off:

* ``BAR`` always parks (the executor parks unconditionally) and will
  resume at the next instruction;
* ``EXIT``/``RET`` are terminal only when the *next* instruction does
  not continue this warp — the lookahead address decides: ``addr + 8``
  means surviving lanes fell through; the computed start address of
  the next schedulable warp means this warp retired; anything else is
  a divergence-stack unwind within the same warp.

The two candidate addresses cannot collide (the entry address precedes
any exit fall-through, and a barrier-resume address equal to the exit
fall-through would need a BAR and an EXIT at the same address), so the
reconstruction is exact for programs the executor can produce.
:func:`warp_ordinals` runs the hand-off rule over the BAR/EXIT/RET
rows only and fills every run between them with one array repeat; the
``timing`` analysis and ``repro trace query --warp`` share it.

**Divergence spans.**  An instruction is divergence-serialized when it
executes with fewer active lanes than the warp's reconverged width;
the width rebases after partial exits and self-heals upward at
reconvergence — a running max of lane counts per warp stream,
restarted after each EXIT/RET.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.isa.opcodes import Opcode
from repro.isa.program import INSTRUCTION_BYTES
from repro.sim.cache import Cache
from repro.sim.scheduler import (
    LaunchSchedule,
    SchedulerConfig,
    StreamTable,
    schedule_launch,
)
from repro.sim.warp import WARP_SIZE
from repro.trace.format import (
    TAG_INSTR,
    TAG_KEND,
    TAG_MEM,
    BranchEvent,
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
)
from repro.trace.io import FrameColumns
from repro.trace.replay import ANALYSES, TraceAnalysis

_BAR = Opcode.BAR.value
_OPCODE_VALUES = [op.value for op in Opcode]
_UNWINDS = (Opcode.EXIT.value, Opcode.RET.value)
#: a next warp that is a fresh CTA's first warp
_NEW_CTA = -1


def launch_geometry(launch: LaunchEvent) -> Tuple[int, int, int]:
    """``(threads per CTA, warps per CTA, CTAs)`` of *launch*."""
    bx, by, bz = launch.block
    gx, gy, gz = launch.grid
    threads = max(1, bx * by * bz)
    return threads, -(-threads // WARP_SIZE), max(1, gx * gy * gz)


def warp_ordinals(launch: LaunchEvent, addr: np.ndarray,
                  opcodes: np.ndarray, ends: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Segment one launch's instructions (in record order) into warps.

    Returns, per instruction, its global warp ordinal ``cta *
    warps_per_cta + warp`` and whether that warp had already retired (a
    desync: the trace outran the model).  ``ends[i]`` marks an
    instruction with no lookahead — the last of the launch, or the
    last before a kernel-end record.  Only BAR/EXIT/RET rows run the
    hand-off rule; everything between two of them stays with the
    current warp.
    """
    n = addr.size
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    _, per_cta, num_ctas = launch_geometry(launch)
    rows = np.flatnonzero((opcodes == _BAR) | np.isin(opcodes, _UNWINDS))
    following = np.minimum(rows + 1, n - 1)
    entry = addr[:1].tolist()[0]
    alive = [True] * per_cta
    parked = [False] * per_cta
    started = [True] + [False] * (per_cta - 1)
    resume = [0] * per_cta
    cta = cur = 0

    def next_warp(skip: int) -> Tuple[Optional[int], object, bool]:
        """``(warp, start address, releases the barrier)`` of what runs
        after the current warp hands off (``None``: the launch ends)."""
        for i in range(cur + 1, per_cta):
            if i != skip and alive[i] and not parked[i]:
                return i, resume[i] if started[i] else entry, False
        for i in range(per_cta):
            if i != skip and alive[i]:
                # end of pass; every survivor is parked at the barrier
                return i, resume[i], True
        if cta + 1 < num_ctas:
            return _NEW_CTA, entry, False
        return None, None, False

    owners: List[int] = []
    dead: List[bool] = []
    for op, at, nxt, last in zip(opcodes[rows].tolist(),
                                 addr[rows].tolist(),
                                 addr[following].tolist(),
                                 ends[rows].tolist()):
        owners.append(cta * per_cta + cur)
        dead.append(not alive[cur])
        if op == _BAR:
            parked[cur] = True
            resume[cur] = at + INSTRUCTION_BYTES
        elif not last:
            if nxt == at + INSTRUCTION_BYTES:
                continue             # surviving lanes fell through
            index, start, _ = next_warp(skip=cur)
            if index is None or nxt != start:
                continue             # divergence-stack unwind
        if op != _BAR:
            alive[cur] = False
        index, _, release = next_warp(skip=-1)
        if index == _NEW_CTA:
            cta += 1
            cur = 0
            alive[:] = [True] * per_cta
            parked[:] = [False] * per_cta
            started[:] = [True] + [False] * (per_cta - 1)
            resume[:] = [0] * per_cta
        elif index is not None:
            if release:
                parked[:] = [False] * per_cta
            cur = index
            started[index] = True
    owners.append(cta * per_cta + cur)
    dead.append(not alive[cur])
    lengths = np.diff(np.concatenate(([0], rows + 1, [n])))
    return np.repeat(owners, lengths), np.repeat(dead, lengths)


def _divergent(ordinals: np.ndarray, opcodes: np.ndarray,
               lanes: np.ndarray, threads: int, per_cta: int
               ) -> np.ndarray:
    """Divergence flags of instructions grouped by warp stream: fewer
    active lanes than the running max of the warp's lane counts, which
    starts at the warp's width and restarts (from 1) after each
    EXIT/RET, where survivors re-base the width."""
    n = ordinals.size
    first = np.ones(n, dtype=bool)
    first[1:] = ordinals[1:] != ordinals[:-1]
    start = first.copy()
    start[1:] |= np.isin(opcodes[:-1], _UNWINDS)
    epoch = np.cumsum(start) - 1
    width = np.minimum(WARP_SIZE,
                       threads - (ordinals % per_cta) * WARP_SIZE)
    floor = np.where(first, width, 1)[start]
    step = int(lanes.max()) + 1 if n else 1
    if step * n >= 1 << 62:          # keys beyond int64: Python ints
        epoch, lanes = epoch.astype(object), lanes.astype(object)
    # one running max over (epoch, lanes) keys restarts at every epoch
    running = np.maximum.accumulate(epoch * step + lanes) - epoch * step
    committed = np.maximum(floor[epoch], running)
    return (lanes > 0) & (lanes < committed)


class LaunchStreams:
    """One launch's instruction columns (address, opcode, lanes and the
    graded memory outcome), segmented into warp streams on demand.

    A launch is *closed* by its kernel-end record, the next launch, or
    :meth:`TimingModel.finish`.  While it is open its last instruction
    still waits for its lookahead, so it and the CTA it opened stay
    out of the streams.
    """

    def __init__(self, event: LaunchEvent):
        self.launch = event
        self.kernel = event.kernel
        self.launch_index = event.launch_index
        self.grid = event.grid
        self.block = event.block
        self.warp_instructions = 0   # from the KernelEndEvent
        self.closed = False
        self.rows = 0
        self._chunks: List[Tuple[np.ndarray, ...]] = []
        self._segments: Optional[Tuple[StreamTable, int, int]] = None

    def extend(self, addr: np.ndarray, opcodes: np.ndarray,
               lanes: np.ndarray, graded: np.ndarray) -> None:
        """Append instructions; ``graded`` holds (transactions, L1
        misses, L2 misses) per instruction, with one extra leading row
        owed to the launch's previous instruction."""
        known = np.isin(opcodes, _OPCODE_VALUES)
        if not known.all():
            Opcode(opcodes[~known].tolist()[0])   # raises ValueError
        if self.rows:
            self._chunks[-1][3][-1] += graded[:, 0]
        if addr.size:
            self._chunks.append((addr, opcodes.astype(np.int64), lanes,
                                 graded[:, 1:].T.copy()))
            self.rows += addr.size
        self._segments = None

    def close(self) -> None:
        self.closed = True
        self._segments = None

    def _segment(self) -> Tuple[StreamTable, int, int]:
        if self._segments is not None:
            return self._segments
        addr, opcodes, lanes = (
            np.concatenate([chunk[k] for chunk in self._chunks])
            if self._chunks else np.zeros(0, dtype=np.int64)
            for k in range(3))
        graded = (np.concatenate([chunk[3] for chunk in self._chunks])
                  if self._chunks else np.zeros((0, 3), dtype=np.int64))
        n = addr.size
        ends = np.zeros(n, dtype=bool)
        ends[-1:] = True
        ordinals, dead = warp_ordinals(self.launch, addr, opcodes, ends)
        threads, per_cta, _ = launch_geometry(self.launch)
        count = n if self.closed else max(n - 1, 0)
        ctas = int(ordinals[-1]) // per_cta + self.closed if n else 0
        kept = int(np.searchsorted(ordinals[:count] // per_cta, ctas))
        # one gather groups the instructions stream by stream
        order = np.argsort(ordinals[:kept], kind="stable")
        streams = ordinals[order]
        rows = graded[order]
        table = StreamTable(
            addr=addr[order], opcode=opcodes[order], lanes=lanes[order],
            transactions=rows[:, 0], l1_misses=rows[:, 1],
            l2_misses=rows[:, 2],
            divergent=_divergent(streams, opcodes[order], lanes[order],
                                 threads, per_cta),
            offsets=np.concatenate(([0], np.cumsum(np.bincount(
                streams, minlength=ctas * per_cta)))),
            cta_streams=[per_cta] * ctas)
        self._segments = (table, count, int(np.count_nonzero(dead[:count])))
        return self._segments

    @property
    def table(self) -> StreamTable:
        return self._segment()[0]

    @property
    def instr_count(self) -> int:
        return self._segment()[1]

    @property
    def desyncs(self) -> int:
        """Instructions assigned after their warp retired."""
        return self._segment()[2]

    @property
    def ctas(self):
        """Per-CTA :class:`~repro.sim.scheduler.WarpStream` lists."""
        return self.table.streams()


@dataclass
class LaunchTiming:
    """One launch's scheduled timing plus its divergence geometry."""

    kernel: str
    launch_index: int
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    ctas: int
    warps: int
    instructions: int
    schedule: LaunchSchedule
    #: (start_addr, length, min_lanes), longest first
    spans: List[Tuple[int, int, int]]

    @property
    def cycles(self) -> int:
        return self.schedule.cycles

    @property
    def bubble_pct(self) -> float:
        cycles = self.schedule.cycles
        return 100.0 * self.schedule.bubble_cycles / cycles if cycles else 0.0


@dataclass
class TimingReport:
    """All launches of one trace under one issue policy."""

    policy: str
    launches: List[LaunchTiming]

    @property
    def total_cycles(self) -> int:
        return sum(launch.cycles for launch in self.launches)

    def kernels(self) -> Dict[str, List[LaunchTiming]]:
        """Launches grouped by kernel, in first-seen order."""
        grouped: Dict[str, List[LaunchTiming]] = {}
        for launch in self.launches:
            grouped.setdefault(launch.kernel, []).append(launch)
        return grouped


class TimingModel:
    """Feed trace events or decoded frames in order; schedule afterwards.

    Decoded frames go straight to the columnar ingestion; events are
    buffered per launch and turned into the same columns, so a live
    capture tee'd through :meth:`feed` and an offline replay of the
    same trace produce bit-identical reports.  The cache hierarchy that
    grades memory latencies is the ``cachesim`` default (16 KiB/4-way
    L1 over 256 KiB/16-way L2), fed in record order.
    """

    def __init__(self, l1_kib: int = 16, l1_ways: int = 4,
                 l2_kib: int = 256, l2_ways: int = 16):
        self.l2 = Cache(l2_kib << 10, ways=l2_ways, name="L2")
        self.l1 = Cache(l1_kib << 10, ways=l1_ways, name="L1",
                        next_level=self.l2)
        self._launches: List[LaunchStreams] = []
        self._open: Optional[LaunchStreams] = None
        self._events: List[object] = []
        self._reports: Dict[str, TimingReport] = {}

    @property
    def launches(self) -> List[LaunchStreams]:
        self._flush_events()
        return self._launches

    # ------------------------------------------------------- feeding

    def feed(self, event) -> None:
        if isinstance(event, LaunchEvent):
            self._begin(event)
        elif self._open is not None:
            self._events.append(event)
        # events before any launch have no warp to join

    def feed_batch(self, events: Iterable) -> None:
        for event in events:
            self.feed(event)

    def feed_frame(self, frame: FrameColumns) -> None:
        """Feed one decoded launch frame — the same model state as
        feeding its events through :meth:`feed`."""
        self._begin(frame.launch)
        self._feed_records(frame)

    def finish(self) -> None:
        """Close a trailing launch that never saw its end event."""
        self._flush_events()
        if self._open is not None:
            self._open.close()
            self._open = None

    def _begin(self, event: LaunchEvent) -> None:
        self.finish()
        # launch-boundary flush: memory latencies are graded against
        # caches that start cold at every kernel launch, making the
        # model launch-local (sharded replay == streaming replay)
        self.l1.invalidate()
        self._open = LaunchStreams(event)
        self._launches.append(self._open)
        self._reports.clear()

    def _flush_events(self) -> None:
        if self._events:
            events, self._events = self._events, []
            self._feed_records(FrameColumns.from_events(None, events))

    def _feed_records(self, frame: FrameColumns) -> None:
        """Append the open launch's next records: its instructions up to
        a kernel-end record, each carrying the transactions and L1/L2
        misses of the memory records that follow it."""
        launch = self._open
        if launch is None:
            return
        self._reports.clear()
        tags = frame.record_tags
        kends = np.flatnonzero(tags == TAG_KEND)
        stop = int(kends[0]) if kends.size else tags.size
        instr_at = np.flatnonzero(tags[:stop] == TAG_INSTR)
        mem_at = np.flatnonzero(tags[:stop] == TAG_MEM)
        n = instr_at.size
        # slot k + 1 collects instruction k's records; slot 0 those
        # before this batch's first instruction (owed to the launch's
        # previous instruction, graded only if there is one)
        slot = np.searchsorted(instr_at, mem_at)
        first = 0 if launch.rows else int(np.searchsorted(slot, 1))
        nlines = frame.mem_nlines[first:mem_at.size]
        graded = np.zeros((3, n + 1), dtype=np.int64)
        if nlines.size:
            line_ends = np.cumsum(frame.mem_nlines[:mem_at.size])
            lo = int(line_ends[first - 1]) if first else 0
            depth = self.l1.miss_depths(
                frame.mem_lines[lo:int(line_ends[-1])])
            owner = np.repeat(slot[first:], nlines)
            for row, weights in enumerate((None, depth >= 1, depth >= 2)):
                graded[row] = np.bincount(
                    owner, weights=weights, minlength=n + 1)
        launch.extend(frame.instr_addr[:n], frame.instr_opcodes[:n],
                      frame.instr_lanes[:n], graded)
        if kends.size:
            launch.warp_instructions = int(frame.kend_counts[0])
            launch.close()
            self._open = None

    # ---------------------------------------------------- scheduling

    def schedule(self, policy: str = "gto") -> TimingReport:
        launches = self.launches
        report = self._reports.get(policy)
        if report is not None:
            return report
        config = SchedulerConfig(policy=policy)
        timings = []
        for launch in launches:
            table = launch.table
            spans = table.spans()
            spans.sort(key=lambda s: (-s[1], s[0], s[2]))
            timings.append(LaunchTiming(
                kernel=launch.kernel,
                launch_index=launch.launch_index,
                grid=launch.grid, block=launch.block,
                ctas=len(table.cta_streams),
                warps=sum(table.cta_streams),
                instructions=launch.instr_count,
                schedule=schedule_launch(table, config), spans=spans))
        report = TimingReport(policy=policy, launches=timings)
        self._reports[policy] = report
        return report


class TimingAnalysis(TraceAnalysis):
    """The replay-side entry point: ``repro replay --analysis=timing``
    and the ``repro trace summary``/``iters`` subcommands."""

    name = "timing"
    mergeable = True
    columnar = True

    def __init__(self, policy: str = "gto"):
        self.policy = policy
        self.model = TimingModel()
        self._merged: List[LaunchTiming] = []

    def feed_columns(self, frame: FrameColumns) -> None:
        self.model.feed_frame(frame)

    def on_launch(self, event: LaunchEvent) -> None:
        self.model.feed(event)

    def on_kernel_end(self, event: KernelEndEvent) -> None:
        self.model.feed(event)

    def on_instr(self, event: InstrEvent) -> None:
        self.model.feed(event)

    def on_mem(self, event: MemEvent) -> None:
        self.model.feed(event)

    def on_branch(self, event: BranchEvent) -> None:
        self.model.feed(event)

    def finish_shard(self) -> List[LaunchTiming]:
        """Schedule in the worker; ship only the compact per-launch
        timings (not the rebuilt warp streams) back to the parent."""
        return self.model.schedule(self.policy).launches

    def merge(self, piece: List[LaunchTiming]) -> None:
        self._merged.extend(piece)

    def _report(self) -> TimingReport:
        if self._merged:
            return TimingReport(policy=self.policy,
                                launches=list(self._merged))
        return self.model.schedule(self.policy)

    def result(self) -> Dict:
        report = self._report()
        return {
            "policy": report.policy,
            "total_cycles": report.total_cycles,
            "launches": [{
                "kernel": launch.kernel,
                "launch_index": launch.launch_index,
                "cycles": launch.cycles,
                "busy_cycles": launch.schedule.busy_cycles,
                "bubble_cycles": launch.schedule.bubble_cycles,
                "issued": launch.schedule.issued,
                "stall_cycles": dict(launch.schedule.stall_cycles),
                "divergent_instrs": launch.schedule.divergent_instrs,
            } for launch in report.launches],
        }

    def report(self) -> str:
        report = self._report()
        busy = sum(l.schedule.busy_cycles for l in report.launches)
        bubbles = sum(l.schedule.bubble_cycles for l in report.launches)
        total = report.total_cycles
        pct = 100.0 * bubbles / total if total else 0.0
        return (f"timing[{report.policy}]: {len(report.launches)} "
                f"launches, {total:,} cycles (busy {busy:,}, "
                f"{bubbles:,} bubble cycles = {pct:.1f}%)")


ANALYSES[TimingAnalysis.name] = TimingAnalysis


# ------------------------------------------------------------ live path

class TimingSink:
    """A ``TraceWriter``-shaped sink feeding a :class:`TimingModel`
    instead of disk — live timing with no trace file."""

    def __init__(self, model: TimingModel):
        self.model = model

    def write(self, event) -> None:
        self.model.feed(event)

    def write_batch(self, events) -> None:
        self.model.feed_batch(events)

    def close(self):
        self.model.finish()
        return None


class TeeWriter:
    """Forward every event to an inner :class:`TraceWriter` *and* a
    :class:`TimingModel` — capture a trace and time it in one run.
    The inner writer sees exactly the calls it would see alone, so the
    trace bytes are unchanged."""

    def __init__(self, inner, model: TimingModel):
        self.inner = inner
        self.model = model

    def write(self, event) -> None:
        self.inner.write(event)
        self.model.feed(event)

    def write_batch(self, events) -> None:
        self.inner.write_batch(events)
        self.model.feed_batch(events)

    def close(self):
        self.model.finish()
        return self.inner.close()


def live_timing(workload_name: str, global_only: bool = True,
                cache=None) -> Tuple[TimingModel, bool]:
    """Run *workload_name* instrumented, feeding a :class:`TimingModel`
    directly (no trace file); returns ``(model, verified)``."""
    from repro.sim import Device
    from repro.trace.capture import TraceRecorder
    from repro.workloads import make

    model = TimingModel()
    workload = make(workload_name)
    device = Device()
    recorder = TraceRecorder(device, TimingSink(model),
                             global_only=global_only)
    kernel = recorder.compile(workload.build_ir(), cache=cache)
    output = workload.execute(device, kernel)
    verified = workload.verify(output)
    model.finish()
    return model, verified


# ------------------------------------------------------------ rendering

def _pct(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0


def render_summary(report: TimingReport, top: int = 5) -> str:
    """The ``repro trace summary`` text: per-kernel cycles, top-N
    hotspot instructions, idle-gap regions, divergence spans."""
    lines = [f"timing summary — policy {report.policy}"]
    for kernel, launches in report.kernels().items():
        cycles = sum(l.cycles for l in launches)
        busy = sum(l.schedule.busy_cycles for l in launches)
        bubbles = cycles - busy
        issued = sum(l.schedule.issued for l in launches)
        lines.append(
            f"kernel {kernel}: {len(launches)} launch"
            f"{'es' if len(launches) != 1 else ''}, {cycles:,} cycles "
            f"(busy {busy:,}, bubbles {bubbles:,} = "
            f"{_pct(bubbles, cycles):.1f}%), {issued:,} warp instrs")
        stalls = {reason: 0 for reason
                  in launches[0].schedule.stall_cycles}
        releases = 0
        for launch in launches:
            for reason, count in launch.schedule.stall_cycles.items():
                stalls[reason] += count
            releases += launch.schedule.barrier_releases
        stall_text = ", ".join(f"{reason} {count:,}"
                               for reason, count in sorted(stalls.items()))
        lines.append(f"  stalls: {stall_text}; "
                     f"barrier releases {releases:,}")
        merged: Dict[int, List] = {}
        for launch in launches:
            for spot in launch.schedule.hotspots.values():
                row = merged.setdefault(
                    spot.addr, [spot.opcode, 0, 0, 0])
                row[1] += spot.issues
                row[2] += spot.issue_cycles
                row[3] += spot.stall_cycles
        ranked = sorted(merged.items(),
                        key=lambda item: (-(item[1][2] + item[1][3]),
                                          item[0]))[:top]
        if ranked:
            lines.append("  hotspots:")
            for addr, (opcode, issues, issue_cycles, stall) in ranked:
                lines.append(f"    0x{addr:08x} {opcode.name:<6} "
                             f"issues {issues:>8,}  "
                             f"issue {issue_cycles:>8,}  "
                             f"stall {stall:>8,}")
        bubble_rows = []
        for launch in launches:
            for bubble in launch.schedule.bubbles:
                bubble_rows.append((bubble, launch.launch_index))
        bubble_rows.sort(key=lambda item: (-item[0].cycles, item[1],
                                           item[0].cta, item[0].start))
        if bubble_rows:
            lines.append("  bubbles:")
            for bubble, launch_index in bubble_rows[:top]:
                lines.append(
                    f"    launch {launch_index} cta {bubble.cta} "
                    f"@ {bubble.start:,}: {bubble.cycles:,} cycles "
                    f"({bubble.reason}) on 0x{bubble.addr:08x} "
                    f"{bubble.opcode.name}")
        span_count = sum(len(l.spans) for l in launches)
        divergent = sum(l.schedule.divergent_instrs for l in launches)
        lines.append(f"  divergence: {span_count:,} serialized spans, "
                     f"{divergent:,} warp instrs "
                     f"({_pct(divergent, issued):.1f}% of issued)")
        if span_count:
            spans = []
            for launch in launches:
                spans.extend(launch.spans)
            spans.sort(key=lambda s: (-s[1], s[0], s[2]))
            for start, length, min_lanes in spans[:top]:
                lines.append(f"    0x{start:08x} x{length:<6,} "
                             f"min lanes {min_lanes}")
    lines.append(f"total: {report.total_cycles:,} cycles across "
                 f"{len(report.launches)} launches")
    return "\n".join(lines)


def render_iters(report: TimingReport) -> str:
    """The ``repro trace iters`` text: per-launch cycles and the
    per-kernel iteration spread (launch-to-launch variance)."""
    lines = [f"timing iters — policy {report.policy}"]
    for launch in report.launches:
        lines.append(f"  #{launch.launch_index:<4} "
                     f"{launch.kernel:<24} {launch.cycles:>12,} cycles  "
                     f"{launch.schedule.issued:>10,} instrs  "
                     f"{launch.bubble_pct:5.1f}% bubble")
    for kernel, launches in report.kernels().items():
        cycles = [launch.cycles for launch in launches]
        low, high = min(cycles), max(cycles)
        mean = sum(cycles) / len(cycles)
        spread = high - low
        lines.append(
            f"kernel {kernel}: {len(cycles)} iters, cycles "
            f"min {low:,} mean {mean:,.1f} max {high:,}, "
            f"spread {spread:,} ({_pct(spread, round(mean)):.1f}% of mean)")
    return "\n".join(lines)
