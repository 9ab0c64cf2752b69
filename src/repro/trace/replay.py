"""Replay engine: run pluggable offline analyses over a recorded trace.

Record once on the (slow) instrumented simulator; every question after
that is answered at replay speed from the trace file.  Each analysis
consumes the event stream through three hooks (``on_instr``/``on_mem``/
``on_branch`` plus launch framing) and produces both a structured
result (``result()``) and a human-readable ``report()``.

The built-in analyses mirror the live instrumentation they replace, and
tests hold them *exactly* equal to the live-instrumented results:

* ``cachesim``   — the ``examples/memtrace_cachesim.py`` hierarchy sweep
* ``divergence`` — Case Study I branch-divergence statistics
* ``memdiv``     — Case Study II memory-address-divergence matrix/PMF
* ``opcodes``    — the Figure 3 dynamic-instruction categorizer

Two replay drivers share the analyses.  :func:`replay` is the serial
pass: when every requested analysis supports the columnar fast path
and a ``.rpti`` sidecar is on disk, it decodes runs of launch frames
in one pass (:func:`~repro.trace.io.decode_frame_run`) into one
:class:`~repro.trace.io.FrameColumns` ndarray batch per frame and
feeds vectorized batch kernels — ``np.bincount``-style reductions
instead of per-event Python dispatch — falling back to the original
event-stream pass otherwise (``columnar=False`` forces it; results are
bit-identical either way).  :func:`replay_sharded` partitions the trace by
kernel-launch frames (using the ``.rpti`` index), replays frames
through a :func:`repro.campaign.engine.run_tasks` process pool, and
folds per-shard results back together in launch order with
``merge()`` — bit-identical to the streaming pass because every
analysis is launch-local: caches flush at launch boundaries
(:meth:`~repro.sim.cache.Cache.invalidate`), so no state crosses a
frame edge.  Shard workers use the same columnar frame decode, so
every shard inherits the vectorized serial core.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.campaign.engine import default_jobs, run_tasks
from repro.isa.opcodes import Opcode, OpClass, OPCODE_CLASSES
from repro.sim.cache import Cache
from repro.telemetry.collector import TELEMETRY, span as telemetry_span
from repro.trace import index as index_mod
from repro.trace.format import (
    BranchEvent,
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
    TraceFormatError,
    iter_slice_events,
)
from repro.trace.io import FrameColumns, TraceReader, decode_frame_columns


class TraceAnalysis:
    """Base class: override the hooks you care about.

    Sharding contract: an analysis that sets ``mergeable = True`` must
    produce, for any launch-frame partition of a trace, the same final
    state from ``merge()``-folding per-shard instances (in launch
    order) as one instance fed the whole stream — i.e. it must be
    launch-local.  ``finish_shard()`` runs in the worker and returns
    the picklable piece shipped back; the default ships the analysis
    itself.  Analyses that additionally set ``columnar = True`` and
    implement ``feed_columns`` opt into the no-event-objects decode
    fast path.
    """

    #: registry key (used by ``repro replay --analysis=...``)
    name = "analysis"
    #: True when merge() reassembles launch-partitioned shards exactly
    mergeable = False
    #: True when feed_columns() can consume FrameColumns directly
    columnar = False

    def on_launch(self, event: LaunchEvent) -> None:
        pass

    def on_kernel_end(self, event: KernelEndEvent) -> None:
        pass

    def on_instr(self, event: InstrEvent) -> None:
        pass

    def on_mem(self, event: MemEvent) -> None:
        pass

    def on_branch(self, event: BranchEvent) -> None:
        pass

    def feed_columns(self, frame: "FrameColumns") -> None:
        raise NotImplementedError(
            f"{self.name} does not implement the columnar fast path")

    def finish_shard(self):
        """Reduce to the picklable per-shard piece (worker side)."""
        return self

    def merge(self, piece) -> None:
        """Fold one shard piece (from ``finish_shard``) into this
        instance; called in launch order on the parent side."""
        raise NotImplementedError(
            f"{self.name} does not support sharded replay")

    def result(self) -> Dict:
        return {}

    def report(self) -> str:
        return f"{self.name}: {self.result()}"


class CacheSimAnalysis(TraceAnalysis):
    """The memory-hierarchy simulator of ``examples/memtrace_cachesim``:
    feed every coalesced line address through an L1/L2 model."""

    name = "cachesim"
    mergeable = True
    columnar = True

    def __init__(self, l1_kib: int = 16, l1_ways: int = 4,
                 l2_kib: int = 256, l2_ways: int = 16):
        self.l2 = Cache(l2_kib << 10, ways=l2_ways, name="L2")
        self.l1 = Cache(l1_kib << 10, ways=l1_ways, name="L1",
                        next_level=self.l2)

    def on_launch(self, event: LaunchEvent) -> None:
        # launch-boundary flush: every kernel starts cold, which both
        # models real per-launch L1 behaviour and makes the analysis
        # launch-local (shard merges exactly equal the streaming pass)
        self.l1.invalidate()

    def on_mem(self, event: MemEvent) -> None:
        access = self.l1.access
        for line in event.line_addresses:
            access(line)

    def feed_columns(self, frame: FrameColumns) -> None:
        self.l1.invalidate()
        # access_lines is stat-identical to the per-line access loop
        self.l1.access_lines(frame.mem_lines)

    def merge(self, piece: "CacheSimAnalysis") -> None:
        for mine, theirs in ((self.l1.stats, piece.l1.stats),
                             (self.l2.stats, piece.l2.stats)):
            mine.accesses += theirs.accesses
            mine.hits += theirs.hits
            mine.misses += theirs.misses
            mine.evictions += theirs.evictions

    def result(self) -> Dict:
        return {
            "l1": {"accesses": self.l1.stats.accesses,
                   "hits": self.l1.stats.hits,
                   "misses": self.l1.stats.misses,
                   "hit_rate": self.l1.stats.hit_rate},
            "l2": {"accesses": self.l2.stats.accesses,
                   "hits": self.l2.stats.hits,
                   "misses": self.l2.stats.misses,
                   "hit_rate": self.l2.stats.hit_rate},
        }

    def report(self) -> str:
        r = self.result()
        return (f"cachesim: L1 {100 * r['l1']['hit_rate']:5.1f}% hit "
                f"({r['l1']['hits']:,}/{r['l1']['accesses']:,}), "
                f"L2 {100 * r['l2']['hit_rate']:5.1f}% hit "
                f"({r['l2']['hits']:,}/{r['l2']['accesses']:,})")


class DivergenceAnalysis(TraceAnalysis):
    """Case Study I offline: per-branch divergence statistics, equal to
    a live :class:`~repro.handlers.branch_profiler.BranchProfiler` run."""

    name = "divergence"
    mergeable = True
    columnar = True

    def __init__(self):
        #: address -> [total, active, taken, not_taken, divergent]
        self.table: Dict[int, List[int]] = {}

    def on_branch(self, event: BranchEvent) -> None:
        row = self.table.get(event.ins_addr)
        if row is None:
            row = self.table[event.ins_addr] = [0, 0, 0, 0, 0]
        row[0] += 1
        row[1] += event.active
        row[2] += event.taken
        row[3] += event.not_taken
        if event.divergent:
            row[4] += 1

    def feed_columns(self, frame: FrameColumns) -> None:
        addr = frame.branch_addr
        if not addr.size:
            return
        active = frame.branch_active
        taken = frame.branch_taken
        not_taken = frame.branch_not_taken
        # one reduction per statistic: group branches by address with
        # np.unique, sum the lane counts per group with bincount.  The
        # float64 weights are exact (lane sums sit far below 2**53).
        uniq, first, inverse = np.unique(addr, return_index=True,
                                         return_inverse=True)
        totals = np.bincount(inverse)
        sum_active = np.bincount(inverse, weights=active)
        sum_taken = np.bincount(inverse, weights=taken)
        sum_not = np.bincount(inverse, weights=not_taken)
        divergent = ((taken != active) & (not_taken != active))
        sum_div = np.bincount(inverse, weights=divergent)
        table = self.table
        # visit groups in first-occurrence order so the dict's insertion
        # order (the stable-sort tie-break in branches()) matches the
        # streaming pass exactly
        for g in np.argsort(first, kind="stable").tolist():
            key = int(uniq[g])
            row = table.get(key)
            if row is None:
                row = table[key] = [0, 0, 0, 0, 0]
            row[0] += int(totals[g])
            row[1] += int(sum_active[g])
            row[2] += int(sum_taken[g])
            row[3] += int(sum_not[g])
            row[4] += int(sum_div[g])

    def merge(self, piece: "DivergenceAnalysis") -> None:
        # folding in launch order preserves global first-occurrence
        # order in the dict, so the stable sort in branches() breaks
        # ties exactly as a streaming pass would
        table = self.table
        for addr, other in piece.table.items():
            row = table.get(addr)
            if row is None:
                table[addr] = list(other)
            else:
                for i in range(5):
                    row[i] += other[i]

    def branches(self):
        from repro.handlers.branch_profiler import BranchStats

        rows = [BranchStats(address=addr, total=row[0],
                            active_threads=row[1], taken_threads=row[2],
                            not_taken_threads=row[3], divergent=row[4])
                for addr, row in self.table.items()]
        return sorted(rows, key=lambda b: -b.total)

    def summary(self):
        from repro.handlers.branch_profiler import DivergenceSummary

        branches = self.branches()
        return DivergenceSummary(
            static_branches=len(branches),
            static_divergent=sum(1 for b in branches if b.divergent),
            dynamic_branches=sum(b.total for b in branches),
            dynamic_divergent=sum(b.divergent for b in branches),
        )

    def result(self) -> Dict:
        summary = self.summary()
        return {
            "static_branches": summary.static_branches,
            "static_divergent": summary.static_divergent,
            "dynamic_branches": summary.dynamic_branches,
            "dynamic_divergent": summary.dynamic_divergent,
        }

    def report(self) -> str:
        s = self.summary()
        return (f"divergence: {s.dynamic_divergent:,} of "
                f"{s.dynamic_branches:,} dynamic branches diverged "
                f"({s.dynamic_pct:.1f}%); {s.static_divergent}/"
                f"{s.static_branches} static branches ever diverged")


class MemoryDivergenceAnalysis(TraceAnalysis):
    """Case Study II offline: the 32×32 occupancy × unique-lines matrix,
    equal to a live :class:`MemoryDivergenceProfiler` run."""

    name = "memdiv"
    mergeable = True
    columnar = True

    def __init__(self):
        self._matrix = np.zeros((32, 32), dtype=np.int64)

    def on_mem(self, event: MemEvent) -> None:
        self._matrix[event.active_lanes - 1,
                     min(event.unique_lines, 32) - 1] += 1

    def feed_columns(self, frame: FrameColumns) -> None:
        active = frame.mem_active
        if not active.size:
            return
        np.add.at(self._matrix,
                  (active - 1, np.minimum(frame.mem_nlines, 32) - 1), 1)

    def merge(self, piece: "MemoryDivergenceAnalysis") -> None:
        self._matrix += piece._matrix

    def matrix(self) -> np.ndarray:
        return self._matrix.copy()

    def pmf(self) -> np.ndarray:
        matrix = self._matrix.astype(np.float64)
        occupancy = np.arange(1, 33, dtype=np.float64)[:, None]
        weighted = matrix * occupancy
        total = weighted.sum()
        if total == 0:
            return np.zeros(32)
        return weighted.sum(axis=0) / total

    def diverged_fraction(self) -> float:
        total = self._matrix.sum()
        return float(self._matrix[:, 1:].sum() / total) if total else 0.0

    def result(self) -> Dict:
        return {
            "warp_accesses": int(self._matrix.sum()),
            "diverged_fraction": self.diverged_fraction(),
            "pmf": [float(p) for p in self.pmf()],
        }

    def report(self) -> str:
        r = self.result()
        return (f"memdiv: {r['warp_accesses']:,} warp accesses, "
                f"{100 * r['diverged_fraction']:.1f}% touched more than "
                "one 32B line")


class OpcodeHistogramAnalysis(TraceAnalysis):
    """The Figure 3 categorizer offline, equal to a live
    :class:`~repro.handlers.opcode_histogram.OpcodeHistogram` run."""

    name = "opcodes"
    mergeable = True
    columnar = True

    def __init__(self):
        from repro.handlers.opcode_histogram import CATEGORIES

        self.categories = CATEGORIES
        self._totals = {name: 0 for name in CATEGORIES}

    def on_instr(self, event: InstrEvent) -> None:
        totals = self._totals
        classes = OPCODE_CLASSES[Opcode(event.opcode)]
        threads = event.lanes
        if classes & OpClass.MEMORY:
            totals["memory"] += threads
            if event.width > 4:
                totals["extended_memory"] += threads
        if classes & OpClass.CONTROL:
            totals["control_xfer"] += threads
        if classes & OpClass.SYNC:
            totals["sync"] += threads
        if classes & OpClass.NUMERIC:
            totals["numeric"] += threads
        if classes & OpClass.TEXTURE:
            totals["texture"] += threads
        totals["total_executed"] += threads

    def feed_columns(self, frame: FrameColumns) -> None:
        opcodes = frame.instr_opcodes
        if not opcodes.size:
            return
        lanes = frame.instr_lanes
        # one mask gather + one masked reduction per category; the
        # lane sums are exact (far below any integer precision edge)
        masks = _class_mask_table()[opcodes]
        totals = self._totals
        memory = (masks & _MASK_MEMORY) != 0
        totals["memory"] += int(lanes[memory].sum())
        totals["extended_memory"] += int(
            lanes[memory & (frame.instr_widths > 4)].sum())
        totals["control_xfer"] += int(
            lanes[(masks & _MASK_CONTROL) != 0].sum())
        totals["sync"] += int(lanes[(masks & _MASK_SYNC) != 0].sum())
        totals["numeric"] += int(
            lanes[(masks & _MASK_NUMERIC) != 0].sum())
        totals["texture"] += int(
            lanes[(masks & _MASK_TEXTURE) != 0].sum())
        totals["total_executed"] += int(lanes.sum())

    def merge(self, piece: "OpcodeHistogramAnalysis") -> None:
        for name, value in piece._totals.items():
            self._totals[name] += value

    def totals(self) -> Dict[str, int]:
        return dict(self._totals)

    def result(self) -> Dict:
        return self.totals()

    def report(self) -> str:
        totals = self._totals
        body = ", ".join(f"{name}={totals[name]:,}"
                         for name in self.categories)
        return f"opcodes: {body}"


# ---------------------------------------------------------------------
# columnar fast path: flat-decoded launch frames
# ---------------------------------------------------------------------

_MASK_MEMORY = 1 << 0
_MASK_CONTROL = 1 << 1
_MASK_SYNC = 1 << 2
_MASK_NUMERIC = 1 << 3
_MASK_TEXTURE = 1 << 4

_mask_table: Optional[np.ndarray] = None


def _class_mask_table() -> np.ndarray:
    """Opcode id -> category bitmask, replacing per-event enum
    construction and Flag intersections with one array gather."""
    global _mask_table
    if _mask_table is None:
        table = np.zeros(max(op.value for op in Opcode) + 1,
                         dtype=np.int64)
        for op in Opcode:
            classes = OPCODE_CLASSES[op]
            mask = 0
            if classes & OpClass.MEMORY:
                mask |= _MASK_MEMORY
            if classes & OpClass.CONTROL:
                mask |= _MASK_CONTROL
            if classes & OpClass.SYNC:
                mask |= _MASK_SYNC
            if classes & OpClass.NUMERIC:
                mask |= _MASK_NUMERIC
            if classes & OpClass.TEXTURE:
                mask |= _MASK_TEXTURE
            table[op.value] = mask
        _mask_table = table
    return _mask_table


#: registry for the CLI's ``--analysis`` flag
ANALYSES: Dict[str, Type[TraceAnalysis]] = {
    CacheSimAnalysis.name: CacheSimAnalysis,
    DivergenceAnalysis.name: DivergenceAnalysis,
    MemoryDivergenceAnalysis.name: MemoryDivergenceAnalysis,
    OpcodeHistogramAnalysis.name: OpcodeHistogramAnalysis,
}


def make_analysis(name: str, **kwargs) -> TraceAnalysis:
    try:
        cls = ANALYSES[name]
    except KeyError:
        raise KeyError(f"unknown analysis {name!r} "
                       f"(choose from {', '.join(sorted(ANALYSES))})")
    return cls(**kwargs)


def replay(trace, analyses: Sequence[TraceAnalysis],
           columnar: bool = True) -> List[TraceAnalysis]:
    """One serial pass over *trace*, feeding every analysis.

    *trace* is a path or a :class:`TraceReader`.  Returns the analyses
    (now holding their results) for convenience.

    When every analysis supports the columnar fast path and a usable
    ``.rpti`` sidecar is on disk, frames are decoded into
    :class:`~repro.trace.io.FrameColumns` batches and fed through
    ``feed_columns`` — bit-identical results, an order of magnitude
    fewer Python-level dispatches.  ``columnar=False`` forces the
    event-stream reference pass.
    """
    reader = trace if isinstance(trace, TraceReader) else TraceReader(trace)
    analyses = list(analyses)
    path = getattr(reader, "path", None)
    if (columnar and analyses and path is not None
            and all(a.columnar for a in analyses)):
        index = index_mod.sidecar_index(path)
        if index is not None and index.shardable:
            return _replay_columnar(reader, index, analyses)
    with telemetry_span("trace.replay",
                        trace=str(getattr(reader, "path", ""))):
        hooks = [(a.on_launch, a.on_kernel_end, a.on_instr, a.on_mem,
                  a.on_branch) for a in analyses]
        events = 0
        for event in reader.events():
            events += 1
            if isinstance(event, InstrEvent):
                for _, _, on_instr, _, _ in hooks:
                    on_instr(event)
            elif isinstance(event, MemEvent):
                for _, _, _, on_mem, _ in hooks:
                    on_mem(event)
            elif isinstance(event, BranchEvent):
                for _, _, _, _, on_branch in hooks:
                    on_branch(event)
            elif isinstance(event, LaunchEvent):
                for on_launch, _, _, _, _ in hooks:
                    on_launch(event)
            elif isinstance(event, KernelEndEvent):
                for _, on_kernel_end, _, _, _ in hooks:
                    on_kernel_end(event)
        if TELEMETRY.enabled:
            TELEMETRY.incr("trace.replay.events", events)
    return analyses


def _replay_columnar(reader: TraceReader, index: "index_mod.TraceIndex",
                     analyses: List[TraceAnalysis]) -> List[TraceAnalysis]:
    """Serial columnar pass: launch frames are read and decoded in
    batched runs (:meth:`TraceReader.frame_columns`) and fed one
    :class:`FrameColumns` batch at a time.  Telemetry splits the whole
    pass between ``decode_ns`` (reading and decoding, timed around each
    step of the frame iterator) and ``analyze_ns`` (the feeds).  Frames
    the vector decoder declines (see :func:`decode_frame_columns`) drop
    to the events-mode feed, so results never depend on which path ran.
    """
    events = 0
    decode_ns = 0
    analyze_ns = 0
    timed = TELEMETRY.enabled
    clock = time.perf_counter_ns
    with telemetry_span("trace.replay", trace=str(reader.path),
                        columnar="true"):
        t0 = clock() if timed else 0
        for entry, data, frame in reader.frame_columns(index.entries):
            t1 = clock() if timed else 0
            decode_ns += t1 - t0
            if frame is None:
                _feed_frame_events(data, analyses)
                events += entry.events
            else:
                for analysis in analyses:
                    analysis.feed_columns(frame)
                events += frame.events
            if timed:
                t0 = clock()
                analyze_ns += t0 - t1
        if timed:
            decode_ns += clock() - t0
            TELEMETRY.incr("trace.replay.events", events)
            TELEMETRY.incr("trace.replay.decode_ns", decode_ns)
            TELEMETRY.incr("trace.replay.analyze_ns", analyze_ns)
    return analyses


# ---------------------------------------------------------------------
# sharded replay
# ---------------------------------------------------------------------

#: an analysis request: a registry name, or (name, constructor kwargs)
AnalysisSpec = Union[str, Tuple[str, Dict]]


def _norm_specs(specs: Iterable[AnalysisSpec]) -> Tuple[Tuple[str, Dict], ...]:
    out = []
    for spec in specs:
        if isinstance(spec, str):
            out.append((spec, {}))
        else:
            name, kwargs = spec
            out.append((name, dict(kwargs)))
    return tuple(out)


def _build(specs: Tuple[Tuple[str, Dict], ...]) -> List[TraceAnalysis]:
    return [make_analysis(name, **kwargs) for name, kwargs in specs]


def _feed_frame_events(data: bytes, analyses: List[TraceAnalysis]) -> None:
    """Events-mode frame feed: same dispatch as the streaming pass."""
    hooks = [(a.on_launch, a.on_kernel_end, a.on_instr, a.on_mem,
              a.on_branch) for a in analyses]
    for event in iter_slice_events(data):
        if isinstance(event, InstrEvent):
            for _, _, on_instr, _, _ in hooks:
                on_instr(event)
        elif isinstance(event, MemEvent):
            for _, _, _, on_mem, _ in hooks:
                on_mem(event)
        elif isinstance(event, BranchEvent):
            for _, _, _, _, on_branch in hooks:
                on_branch(event)
        elif isinstance(event, LaunchEvent):
            for on_launch, _, _, _, _ in hooks:
                on_launch(event)
        elif isinstance(event, KernelEndEvent):
            for _, on_kernel_end, _, _, _ in hooks:
                on_kernel_end(event)


def _replay_shard(task):
    """Worker: replay one launch frame through fresh analyses.

    Module-level so it pickles under both fork and forkserver starts.
    """
    path, entry, specs = task
    analyses = _build(specs)
    data = TraceReader(path).read_frame(entry)
    frame = (decode_frame_columns(data)
             if all(a.columnar for a in analyses) else None)
    if frame is not None:
        for analysis in analyses:
            analysis.feed_columns(frame)
        events = frame.events
    else:
        _feed_frame_events(data, analyses)
        events = entry.events
    if TELEMETRY.enabled:
        TELEMETRY.incr("trace.replay.events", events)
    return [analysis.finish_shard() for analysis in analyses]


def replay_sharded(trace, specs: Iterable[AnalysisSpec],
                   jobs: Optional[int] = None,
                   index: Optional["index_mod.TraceIndex"] = None,
                   pool=None) -> List[TraceAnalysis]:
    """Replay *trace* partitioned by kernel-launch frames.

    *specs* name the analyses (registry names or ``(name, kwargs)``
    pairs) — workers must construct their own instances, so live
    objects are not accepted here.  One task per launch frame is run
    through :func:`repro.campaign.engine.run_tasks` (honoring
    ``REPRO_JOBS`` when *jobs* is ``None``), and the per-shard pieces
    are merged in launch order.  The partition is identical at every
    job count, and every stock analysis is launch-local, so the merged
    results are bit-identical to :func:`replay` — the differential
    suite pins this.

    Falls back to the streaming pass (still honoring the analysis
    list) when the trace has no usable frame index, when any requested
    analysis is not mergeable, or for frameless traces.

    Pass a :func:`repro.campaign.engine.task_pool` as *pool* to amortize
    worker startup across many sharded replays (*jobs* then only sizes
    the chunking, not the pool).
    """
    path = trace.path if isinstance(trace, TraceReader) else os.fspath(trace)
    specs = _norm_specs(specs)
    analyses = _build(specs)
    if index is None:
        index = index_mod.ensure_index(path)
    if (index is None or not index.shardable
            or not all(a.mergeable for a in analyses)):
        return replay(path, analyses)
    if jobs is None:
        jobs = default_jobs()
    tasks = [(path, entry, specs) for entry in index.entries]
    with telemetry_span("trace.replay", trace=str(path),
                        sharded="true", jobs=str(jobs)):
        chunksize = max(1, len(tasks) // (max(1, jobs) * 4))
        pieces = run_tasks(_replay_shard, tasks, jobs=jobs,
                           chunksize=chunksize, pool=pool)
    for shard in pieces:
        for analysis, piece in zip(analyses, shard):
            analysis.merge(piece)
    return analyses
