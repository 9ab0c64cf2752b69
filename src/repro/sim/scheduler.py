"""Cycle-stepped warp scheduler: the stall-accurate timing model.

The flat model in :mod:`repro.sim.costmodel` answers *how many* issue
slots a kernel consumed; this module answers *where the time went*.  It
replays per-warp instruction streams (rebuilt from a recorded trace by
:mod:`repro.trace.timing`) through a single-issue scheduler in the
fixed-latency stall-count + scoreboard-barrier style of SASSI-era
hardware models:

* every opcode has an explicit :class:`LatencyEntry` — issue-port
  occupancy (identical to the flat model's cost, so Table 3 ratios are
  unchanged), a stall count before the same warp may issue again, and a
  result latency;
* variable-latency producers (memory, MUFU, atomics) allocate one of
  ``scoreboard_slots`` wait barriers; the warp's instruction
  ``dep_distance`` slots later waits on it (the compiler-scheduled
  consumer-distance approximation), and running out of slots is a
  structural stall;
* memory latency is graded by the coalescer/cache accounting carried on
  each :class:`WarpInstr` — L1 hit, L2 hit, or DRAM — and extra
  coalesced transactions serialize through the issue port exactly as
  the flat model charged them;
* the issue policy is configurable: ``gto`` (greedy-then-oldest) or
  ``lrr`` (loose round-robin).

Whenever the issue port sits idle because no warp is ready, the gap is
recorded as a :class:`Bubble` classified by the binding constraint of
the earliest-ready warp (``mem_dep``, ``exec_dep``, or ``scoreboard``)
and attributed to the producing instruction — the raw material for the
``repro trace summary`` hotspot and idle-gap reports.

A launch arrives as one :class:`StreamTable` of columns, its warp
streams contiguous row ranges.  Latencies come from one table gather
per launch, and everything that does not depend on the schedule
(issue and busy totals, per-address issue counts, divergent
instructions, divergence spans) is an array reduction; the issue loop
itself keeps one ready cycle per warp.

Everything is integer arithmetic over deterministic orderings, so a
schedule is bit-reproducible across runs and platforms, and
``cycles == busy_cycles + bubble cycles`` holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.opcodes import OpClass, OPCODE_CLASSES, Opcode

#: issue-port cycles per coalesced memory transaction beyond the first
#: (kept equal to the flat model's ``TRANSACTION_COST``)
TRANSACTION_CYCLES = 2

#: graded global-memory result latencies (cycles), selected by the
#: cache outcome recorded on the instruction
L1_HIT_LATENCY = 36
L2_HIT_LATENCY = 120
DRAM_LATENCY = 350

#: scheduler-wide defaults
SCOREBOARD_SLOTS = 6
DEP_DISTANCE = 2

#: issue policies understood by :class:`SchedulerConfig`
POLICIES = ("gto", "lrr")

#: bubble / stall classification
REASON_EXEC = "exec_dep"      # fixed-latency producer still in flight
REASON_MEM = "mem_dep"        # scoreboard barrier set by a memory op
REASON_SCOREBOARD = "scoreboard"  # all wait-barrier slots busy
REASONS = (REASON_EXEC, REASON_MEM, REASON_SCOREBOARD)


@dataclass(frozen=True)
class LatencyEntry:
    """Timing of one opcode.

    ``issue``   — issue-port occupancy (the flat model's cost).
    ``stall``   — min cycles before the same warp issues again (the
                  SASS control-word stall count).
    ``latency`` — result latency; only waited on (via a scoreboard
                  barrier) when ``barrier`` is set.
    """

    issue: int
    stall: int
    latency: int
    barrier: bool = False


_MOVE = LatencyEntry(1, 2, 2)
_IALU = LatencyEntry(1, 4, 4)
_ISLOW = LatencyEntry(1, 5, 5)
_FALU = LatencyEntry(1, 5, 5)
_CTRL = LatencyEntry(1, 2, 2)
_NOPL = LatencyEntry(1, 1, 1)
_GMEM = LatencyEntry(1, 2, L1_HIT_LATENCY, barrier=True)

#: Exhaustive per-opcode timing table.  Every :class:`Opcode` member
#: MUST have an entry (``missing_entries`` + a unit test enforce it,
#: and :mod:`repro.sim.costmodel` fails at import otherwise).  The
#: ``issue`` fields reproduce the retired flat ``_EXTRA_ISSUE`` costs
#: exactly so golden cycle counts and Table 3 ratios are unchanged.
LATENCY_TABLE: Dict[Opcode, LatencyEntry] = {
    # moves / selections / special registers
    Opcode.MOV: _MOVE,
    Opcode.MOV32I: _MOVE,
    Opcode.SEL: _MOVE,
    Opcode.S2R: _MOVE,
    Opcode.P2R: _MOVE,
    Opcode.R2P: _MOVE,
    Opcode.PSETP: _MOVE,
    # integer arithmetic and logic
    Opcode.IADD: _IALU,
    Opcode.IADD32I: _IALU,
    Opcode.IMUL: LatencyEntry(2, 5, 5),
    Opcode.IMAD: LatencyEntry(2, 5, 5),
    Opcode.ISCADD: _IALU,
    Opcode.ISETP: _IALU,
    Opcode.IMNMX: _IALU,
    Opcode.LOP: _IALU,
    Opcode.LOP32I: _IALU,
    Opcode.SHL: _IALU,
    Opcode.SHR: _IALU,
    Opcode.POPC: _ISLOW,
    Opcode.FLO: _ISLOW,
    Opcode.BFE: _IALU,
    Opcode.BFI: _IALU,
    Opcode.IABS: _IALU,
    # floating point
    Opcode.FADD: _FALU,
    Opcode.FMUL: _FALU,
    Opcode.FFMA: _FALU,
    Opcode.FSETP: _FALU,
    Opcode.FMNMX: _FALU,
    Opcode.MUFU: LatencyEntry(4, 4, 18, barrier=True),
    Opcode.F2I: _FALU,
    Opcode.I2F: _FALU,
    Opcode.F2F: _FALU,
    # memory (global latencies are graded by the cache outcome)
    Opcode.LD: _GMEM,
    Opcode.ST: _GMEM,
    Opcode.LDG: _GMEM,
    Opcode.STG: _GMEM,
    Opcode.LDS: LatencyEntry(1, 2, 28, barrier=True),
    Opcode.STS: LatencyEntry(1, 2, 28, barrier=True),
    Opcode.LDL: LatencyEntry(1, 2, L1_HIT_LATENCY, barrier=True),
    Opcode.STL: LatencyEntry(1, 2, L1_HIT_LATENCY, barrier=True),
    Opcode.LDC: LatencyEntry(1, 2, 20, barrier=True),
    Opcode.ATOM: LatencyEntry(5, 2, 330, barrier=True),
    Opcode.ATOMS: LatencyEntry(3, 2, 60, barrier=True),
    Opcode.RED: LatencyEntry(5, 2, 330, barrier=True),
    Opcode.TLD: LatencyEntry(1, 2, 60, barrier=True),
    Opcode.MEMBAR: LatencyEntry(1, 6, 6),
    # control flow
    Opcode.BRA: _CTRL,
    Opcode.JCAL: _CTRL,
    Opcode.CAL: _CTRL,
    Opcode.RET: _CTRL,
    Opcode.EXIT: _NOPL,
    Opcode.SSY: _NOPL,
    Opcode.SYNC: _CTRL,
    Opcode.BAR: LatencyEntry(3, 1, 1),
    Opcode.BPT: _NOPL,
    Opcode.NOP: _NOPL,
    Opcode.PBK: _NOPL,
    Opcode.BRK: _CTRL,
    # warp-wide
    Opcode.VOTE: _IALU,
    Opcode.SHFL: _IALU,
}


def missing_entries(table: Optional[Dict[Opcode, LatencyEntry]] = None
                    ) -> List[Opcode]:
    """Opcodes lacking a timing entry (must be empty; tested)."""
    if table is None:
        table = LATENCY_TABLE
    return [op for op in Opcode if op not in table]


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the cycle-stepped scheduler."""

    policy: str = "gto"
    scoreboard_slots: int = SCOREBOARD_SLOTS
    dep_distance: int = DEP_DISTANCE

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown issue policy {self.policy!r} "
                             f"(choose from {', '.join(POLICIES)})")


@dataclass(slots=True)
class WarpInstr:
    """One dynamic warp instruction of a rebuilt stream.

    ``transactions``/``l1_misses``/``l2_misses`` carry the coalescer
    and cache outcome of a recorded memory access (zero when the
    instruction made none); ``divergent`` marks instructions executed
    with fewer active lanes than the warp's reconverged width.
    """

    addr: int
    opcode: Opcode
    lanes: int
    transactions: int = 0
    l1_misses: int = 0
    l2_misses: int = 0
    divergent: bool = False


@dataclass
class WarpStream:
    """The in-order instruction stream of one warp within one CTA."""

    warp: int
    instrs: List[WarpInstr] = field(default_factory=list)


@dataclass
class Bubble:
    """An idle-gap region: the issue port had nothing to do."""

    cta: int
    start: int        # launch-relative cycle the port went idle
    cycles: int
    reason: str       # one of REASONS
    addr: int         # producing instruction the gap waited on
    opcode: Opcode


@dataclass
class Hotspot:
    """Per-static-instruction issue and blame accounting."""

    addr: int
    opcode: Opcode
    issues: int = 0
    issue_cycles: int = 0
    stall_cycles: int = 0

    @property
    def cost(self) -> int:
        return self.issue_cycles + self.stall_cycles


@dataclass
class LaunchSchedule:
    """The scheduled timing of one kernel launch (CTAs sequential)."""

    policy: str
    cycles: int = 0
    busy_cycles: int = 0
    issued: int = 0
    barrier_releases: int = 0
    divergent_instrs: int = 0
    stall_cycles: Dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in REASONS})
    bubbles: List[Bubble] = field(default_factory=list)
    hotspots: Dict[int, Hotspot] = field(default_factory=dict)

    @property
    def bubble_cycles(self) -> int:
        return self.cycles - self.busy_cycles

    def top_hotspots(self, n: int = 5) -> List[Hotspot]:
        rows = sorted(self.hotspots.values(),
                      key=lambda h: (-h.cost, h.addr))
        return rows[:n]

    def top_bubbles(self, n: int = 5) -> List[Bubble]:
        rows = sorted(self.bubbles,
                      key=lambda b: (-b.cycles, b.cta, b.start))
        return rows[:n]


#: opcode id -> Opcode member, skipping the Enum __call__
_OPCODES_BY_VALUE = {op.value: op for op in Opcode}

#: per-opcode timing columns indexed by opcode *value* — one gather
#: replaces a LATENCY_TABLE dict probe per instruction
_op_columns: Optional[Tuple[np.ndarray, ...]] = None


def _opcode_columns() -> Tuple[np.ndarray, ...]:
    global _op_columns
    if _op_columns is None:
        n = max(op.value for op in Opcode) + 1
        issue = np.zeros(n, dtype=np.int64)
        stall = np.zeros(n, dtype=np.int64)
        latency = np.zeros(n, dtype=np.int64)
        barrier = np.zeros(n, dtype=bool)
        ismem = np.zeros(n, dtype=bool)
        for op, entry in LATENCY_TABLE.items():
            issue[op.value] = entry.issue
            stall[op.value] = entry.stall
            latency[op.value] = entry.latency
            barrier[op.value] = entry.barrier
            ismem[op.value] = bool(OPCODE_CLASSES[op] & OpClass.MEMORY)
        _op_columns = (issue, stall, latency, barrier, ismem)
    return _op_columns


@dataclass
class StreamTable:
    """One launch's warp streams as columns.

    Rows are grouped stream by stream, CTA-major: stream *s* is rows
    ``offsets[s]:offsets[s + 1]``, and CTA *c* owns the next
    ``cta_streams[c]`` streams.  ``addr`` and ``lanes`` may be object
    arrays (values beyond int64); the other columns are int64 or bool.
    """

    addr: np.ndarray
    opcode: np.ndarray
    lanes: np.ndarray
    transactions: np.ndarray
    l1_misses: np.ndarray
    l2_misses: np.ndarray
    divergent: np.ndarray
    offsets: np.ndarray
    cta_streams: List[int]

    @classmethod
    def from_streams(cls, ctas: Sequence[Sequence[WarpStream]]
                     ) -> "StreamTable":
        instrs = [i for streams in ctas for s in streams for i in s.instrs]

        def column(values, dtype=np.int64) -> np.ndarray:
            try:
                return np.array(values, dtype=dtype)
            except OverflowError:
                return np.array(values, dtype=object)

        lengths = [len(s.instrs) for streams in ctas for s in streams]
        return cls(addr=column([i.addr for i in instrs]),
                   opcode=column([i.opcode.value for i in instrs]),
                   lanes=column([i.lanes for i in instrs]),
                   transactions=column([i.transactions for i in instrs]),
                   l1_misses=column([i.l1_misses for i in instrs]),
                   l2_misses=column([i.l2_misses for i in instrs]),
                   divergent=column([i.divergent for i in instrs], bool),
                   offsets=np.cumsum([0] + lengths),
                   cta_streams=[len(streams) for streams in ctas])

    def streams(self) -> List[List[WarpStream]]:
        """The table as per-CTA :class:`WarpStream` lists."""
        rows = [WarpInstr(addr=addr, opcode=_OPCODES_BY_VALUE[op],
                          lanes=lanes, transactions=tx, l1_misses=l1,
                          l2_misses=l2, divergent=div)
                for addr, op, lanes, tx, l1, l2, div in zip(
                    self.addr.tolist(), self.opcode.tolist(),
                    self.lanes.tolist(), self.transactions.tolist(),
                    self.l1_misses.tolist(), self.l2_misses.tolist(),
                    self.divergent.tolist())]
        offsets = self.offsets.tolist()
        ctas, s = [], 0
        for count in self.cta_streams:
            ctas.append([WarpStream(warp=w, instrs=rows[offsets[s + w]:
                                                       offsets[s + w + 1]])
                         for w in range(count)])
            s += count
        return ctas

    def spans(self) -> List[Tuple[int, int, int]]:
        """Maximal runs of divergence-serialized instructions within
        each stream, in row order, as ``(start_addr, length,
        min_lanes)`` tuples."""
        rows = np.flatnonzero(self.divergent)
        if not rows.size:
            return []
        stream_start = np.zeros(self.divergent.size + 1, dtype=bool)
        stream_start[self.offsets] = True
        follows = np.zeros(rows.size, dtype=bool)
        follows[1:] = (rows[1:] == rows[:-1] + 1) & ~stream_start[rows[1:]]
        starts = np.flatnonzero(~follows)
        lengths = np.diff(np.append(starts, rows.size))
        min_lanes = np.minimum.reduceat(self.lanes[rows], starts)
        return list(zip(self.addr[rows[starts]].tolist(), lengths.tolist(),
                        min_lanes.tolist()))


_INF = float("inf")


def _schedule_cta(starts: List[int], ends: List[int], cols: tuple,
                  config: SchedulerConfig, cta: int, base: int,
                  bubbles: list, issued_at: List[int]) -> Tuple[int, int]:
    """Step the warps whose streams are rows ``starts[w]:ends[w]``
    through the issue port; returns ``(cycles, barrier releases)``.

    ``ready[w]`` is warp *w*'s earliest next-issue cycle (infinite once
    it is parked or done); it only changes when *w* issues, so each
    step is one ``min`` over it.  A stall appends ``(cta, start,
    cycles, reason, producer row)`` to *bubbles*; every issue stores its
    launch-relative cycle in *issued_at*.  Issue order, bubbles and
    blame are those of a full scan of the ready warps: the earliest
    (cycle, warp) names the blocker, GTO keeps the last warp while it
    is ready and otherwise takes the lowest ready index, LRR takes the
    next ready index after the last warp, wrapping.
    """
    occ, rdelta, lat, ismem, sets_barrier, is_bar = cols
    slots = config.scoreboard_slots
    dep_distance = config.dep_distance
    n = len(starts)
    pos = list(starts)
    resume = [0] * n
    #: outstanding scoreboard barriers per warp: (row, completion,
    #: is_memory) in allocation order
    barriers: List[list] = [[] for _ in range(n)]
    last = [-1] * n
    parked = [False] * n
    ready = [0 if s < e else _INF for s, e in zip(starts, ends)]
    live = n - ready.count(_INF)

    def wait(w: int) -> Tuple[int, str, int]:
        """``(cycle, reason, producer row)``: when warp *w* can issue
        next and, if it must wait, the instruction to blame."""
        p = pos[w]
        when, reason, producer = resume[w], REASON_EXEC, last[w]
        held = barriers[w]
        if held:
            limit = p - dep_distance
            for row, completion, mem in held:
                if row <= limit and completion > when:
                    when, producer = completion, row
                    reason = REASON_MEM if mem else REASON_EXEC
        if sets_barrier[p] and len(held) >= slots:
            # a free slot appears when the k-th oldest completion
            # passes; expiry-before-allocate keeps at most `slots`
            # entries, where the k-th oldest is the minimum
            oldest = min(held, key=lambda b: b[1])
            if len(held) == slots:
                freed = oldest[1]
            else:
                freed = sorted(b[1] for b in held)[len(held) - slots]
            if freed > when:
                when, reason, producer = freed, REASON_SCOREBOARD, oldest[0]
        return when, reason, producer

    greedy = config.policy == "gto"
    port = cur = releases = 0
    while live:
        earliest = min(ready)
        if earliest == _INF:
            # every live warp is parked at the CTA barrier: release
            releases += 1
            for w in range(n):
                if parked[w]:
                    parked[w] = False
                    ready[w] = wait(w)[0]
            continue
        if greedy and ready[cur] <= port:
            w, at = cur, port        # greedy: stick with the last warp
        else:
            at = port
            if earliest > port:
                _, reason, producer = wait(ready.index(earliest))
                bubbles.append((cta, base + port, earliest - port,
                                reason, producer))
                at = earliest
            if greedy:
                w = cur
                if ready[cur] > at:
                    w = 0
                    while ready[w] > at:    # then oldest
                        w += 1
            else:
                for w in range(cur + 1, n):
                    if ready[w] <= at:
                        break
                else:
                    w = 0
                    while ready[w] > at:
                        w += 1
            cur = w
        p = pos[w]
        held = barriers[w]
        if held:
            held = barriers[w] = [b for b in held if b[1] > at]
        if sets_barrier[p]:
            held.append((p, at + lat[p], ismem[p]))
        resume[w] = when = at + rdelta[p]
        last[w] = p
        issued_at[p] = base + at
        port = at + occ[p]
        p += 1
        pos[w] = p
        if p == ends[w]:
            ready[w] = _INF
            live -= 1
        elif is_bar[p - 1]:
            parked[w] = True
            ready[w] = _INF
        elif held or sets_barrier[p]:
            ready[w] = wait(w)[0]
        else:
            ready[w] = when
    return port, releases


def schedule_launch(ctas, config: Optional[SchedulerConfig] = None
                    ) -> LaunchSchedule:
    """Schedule one launch: CTAs run back to back (the executor is
    sequential across CTAs), warps within a CTA compete for the single
    issue port under ``config.policy``.

    *ctas* is a :class:`StreamTable` or per-CTA lists of
    :class:`WarpStream`.  The timing columns come from one table gather
    per launch, and everything that does not depend on the schedule —
    issue and busy totals, per-address issue counts, divergent
    instructions — is an array reduction outside the issue loop.
    """
    config = config or SchedulerConfig()
    table = (ctas if isinstance(ctas, StreamTable)
             else StreamTable.from_streams(ctas))
    op_issue, op_stall, op_lat, op_barrier, op_ismem = _opcode_columns()
    ops = table.opcode
    tx, l1m, l2m = table.transactions, table.l1_misses, table.l2_misses
    occ = op_issue[ops] + np.where(tx > 1, TRANSACTION_CYCLES * (tx - 1), 0)
    base_lat = op_lat[ops]
    graded = np.where(l2m > 0, DRAM_LATENCY,
                      np.where(l1m > 0, L2_HIT_LATENCY,
                               np.where(tx > 0, L1_HIT_LATENCY, base_lat)))
    ismem = op_ismem[ops]
    lat = np.where(ismem, np.maximum(graded, base_lat), base_lat)
    cols = (occ.tolist(), np.maximum(op_stall[ops], occ).tolist(),
            lat.tolist(), ismem.tolist(), op_barrier[ops].tolist(),
            (ops == Opcode.BAR.value).tolist())
    n = ops.size
    issued_at = [0] * n
    bubble_rows: List[tuple] = []
    offsets = table.offsets.tolist()
    acc = LaunchSchedule(policy=config.policy)
    cycle = s = 0
    for cta, count in enumerate(table.cta_streams):
        cycles, releases = _schedule_cta(
            offsets[s:s + count], offsets[s + 1:s + count + 1], cols,
            config, cta, cycle, bubble_rows, issued_at)
        acc.barrier_releases += releases
        cycle += cycles
        s += count
    acc.cycles = cycle
    acc.issued = n
    acc.busy_cycles = int(occ.sum())
    acc.divergent_instrs = int(np.count_nonzero(table.divergent))
    if n:
        # every bubble waits on an issued instruction (a warp that has
        # not issued is ready at cycle 0), so its producer is a row
        addrs, inverse = np.unique(table.addr, return_inverse=True)
        cta_of, start_of, cycles_of, reason_of, producer_of = (
            zip(*bubble_rows) if bubble_rows else ((),) * 5)
        row_addr, row_op = table.addr.tolist(), ops.tolist()
        acc.bubbles = list(map(
            Bubble, cta_of, start_of, cycles_of, reason_of,
            [row_addr[p] for p in producer_of],
            [_OPCODES_BY_VALUE[row_op[p]] for p in producer_of]))
        for cycles, reason in zip(cycles_of, reason_of):
            acc.stall_cycles[reason] += cycles
        stalls = np.bincount(inverse[list(producer_of)], weights=cycles_of,
                             minlength=addrs.size).astype(np.int64)
        issues = np.bincount(inverse, minlength=addrs.size)
        issue_cycles = np.bincount(inverse, weights=occ,
                                   minlength=addrs.size).astype(np.int64)
        # hotspots in first-issue order, as an issue-time walk makes them
        by_time = np.argsort(np.array(issued_at))
        _, first = np.unique(inverse[by_time], return_index=True)
        order = np.argsort(first)
        acc.hotspots = {
            addr: Hotspot(addr, _OPCODES_BY_VALUE[row_op[row]], *counts)
            for addr, row, *counts in zip(
                addrs[order].tolist(), by_time[first[order]].tolist(),
                issues[order].tolist(), issue_cycles[order].tolist(),
                stalls[order].tolist())}
    return acc


def divergence_spans(stream: WarpStream
                     ) -> List[Tuple[int, int, int]]:
    """Maximal runs of divergence-serialized instructions in *stream*
    as ``(start_addr, length, min_lanes)`` tuples."""
    return StreamTable.from_streams([[stream]]).spans()
