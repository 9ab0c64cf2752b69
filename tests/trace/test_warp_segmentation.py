"""Columnar warp segmentation against the scalar oracle.

The timing model and ``repro trace query --warp`` rebuild warp streams
with one vectorized segmentation (:func:`repro.trace.timing.warp_ordinals`
plus the divergence and cache-grading passes of
:class:`repro.trace.timing.TimingModel`).  The per-event state machine
they replaced lives in ``tests/trace/warp_oracle.py``; this suite holds
the two equal on

* per-CTA warp streams (address, opcode, lanes, graded memory outcome,
  divergence flag), ``instr_count``, ``desyncs`` and the kernel-end
  count — fed as events and as decoded frames, closed and still open;
* warp-filtered query hits and :class:`QueryStats`, for every warp
  ordinal of each corpus kernel, with the ``.rpti`` sidecar and
  without it;

over the six pipebench kernels, named synthetic traces (a barrier
park, EXIT fall-through against hand-off against divergence-stack
unwind, partial exits with rebase, a trailing launch with no kernel-end
record, a desync after launch end, a frame the decoder declines) and a
Hypothesis generator.  CI runs this file under a no-skip rule.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.opcodes import Opcode
from repro.isa.program import INSTRUCTION_BYTES as B
from repro.sim.scheduler import WarpInstr
from repro.trace.capture import capture_workload
from repro.trace.format import (
    TAG_INSTR,
    TAG_KEND,
    BranchEvent,
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
)
from repro.trace.index import index_path_for, sidecar_index
from repro.trace.io import FrameColumns, TraceReader, TraceWriter
from repro.trace.query import QueryFilter, _frame_hits_columns, run_query
from repro.trace.query import QueryStats
from repro.trace.replay import replay
from repro.trace.timing import TimingAnalysis, TimingModel, warp_ordinals

from tests.trace.warp_oracle import (
    ScalarLaunchBuilder,
    ScalarTimingModel,
    _frame_hits,
    walk_query,
)

KERNELS = [
    "rodinia/pathfinder",
    "rodinia/nw",
    "rodinia/hotspot",
    "parboil/spmv(small)",
    "parboil/sgemm(small)",
    "rodinia/nn",
]


# ---------------------------------------------------------------- helpers

def _instr(addr, opcode, lanes=32):
    return InstrEvent(ins_addr=addr, opcode=opcode.value, lanes=lanes,
                      width=4)


def _launch(threads, ctas=1, index=0):
    return LaunchEvent(kernel="k", grid=(ctas, 1, 1),
                       block=(threads, 1, 1), launch_index=index)


def _frames(events):
    """Split an event list into (launch, records) frames."""
    frames = []
    for event in events:
        if isinstance(event, LaunchEvent):
            frames.append((event, []))
        elif frames:
            frames[-1][1].append(event)
    return frames


def _oracle(events, finish):
    model = ScalarTimingModel()
    for event in events:
        model.feed(event)
    if finish:
        model.finish()
    return model


def _by_events(events, finish):
    model = TimingModel()
    model.feed_batch(events)
    if finish:
        model.finish()
    return model


def _by_frames(events, finish):
    model = TimingModel()
    for launch, records in _frames(events):
        model.feed_frame(FrameColumns.from_events(launch, records))
    if finish:
        model.finish()
    return model


def assert_models_agree(got: TimingModel, want: ScalarTimingModel):
    assert len(got.launches) == len(want.launches)
    for mine, ref in zip(got.launches, want.launches):
        assert mine.ctas == ref.ctas
        assert mine.instr_count == ref.instr_count
        assert mine.desyncs == ref.desyncs
        assert mine.warp_instructions == ref.warp_instructions


def assert_segmentation_agrees(events):
    for finish in (True, False):
        want = _oracle(events, finish)
        assert_models_agree(_by_events(events, finish), want)
        assert_models_agree(_by_frames(events, finish), want)


def _ends(columns):
    """Instructions whose lookahead stops at a kernel-end record or at
    the frame end (the query's segmentation rule)."""
    ends, cut = [], True
    for tag in columns.record_tags.tolist():
        if tag == TAG_KEND:
            cut = True
        elif tag == TAG_INSTR:
            if not cut:
                ends[-1] = False
            ends.append(True)
            cut = False
    return np.array(ends, dtype=bool)


def _oracle_ordinals(launch, records):
    """Per instruction, the warp ordinal the scalar builder assigns and
    whether its warp had retired, under the query's lookahead rule."""
    builder = ScalarLaunchBuilder(launch)
    ordinals, dead = [], []
    pending = None

    def flush(next_addr):
        nonlocal pending
        if pending is not None:
            ordinals.append(builder.ordinal)
            before = builder.desyncs
            builder.add(WarpInstr(addr=pending.ins_addr,
                                  opcode=Opcode(pending.opcode),
                                  lanes=pending.lanes), next_addr)
            dead.append(builder.desyncs > before)
        pending = None

    for event in records:
        if isinstance(event, InstrEvent):
            flush(event.ins_addr)
            pending = event
        elif isinstance(event, KernelEndEvent):
            flush(None)
    flush(None)
    return ordinals, dead


def assert_frame_queries_agree(events, **filters):
    """Segmentation under the query's lookahead rule matches the oracle,
    and the columnar frame filter equals the event walk for every warp
    ordinal a frame can name (and one past it)."""
    for ordinal, (launch, records) in enumerate(_frames(events)):
        columns = FrameColumns.from_events(launch, records)
        ordinals, dead = warp_ordinals(launch, columns.instr_addr,
                                       columns.instr_opcodes,
                                       _ends(columns))
        assert (ordinals.tolist(), dead.tolist()) == \
            _oracle_ordinals(launch, records)
        threads = launch.block[0] * launch.block[1] * launch.block[2]
        ordinals = -(-max(1, threads) // 32) * launch.grid[0]
        for warp in range(ordinals + 1):
            filt = QueryFilter(warp=warp, **filters)
            got_stats, want_stats = QueryStats(), QueryStats()
            got = list(_frame_hits_columns(columns, ordinal, "k", filt,
                                           got_stats))
            want = list(_frame_hits(records, ordinal, "k", filt,
                                    want_stats, launch))
            assert got == want, (warp, filters)
            assert got_stats == want_stats


# ------------------------------------------------------------- synthetic

BAR_PARK = [
    _launch(96),
    # pass 1: warps 0 and 2 park, warp 1 retires before the barrier
    _instr(0, Opcode.IADD), _instr(B, Opcode.BAR),
    _instr(0, Opcode.IADD), _instr(B, Opcode.EXIT),
    _instr(0, Opcode.IADD), _instr(B, Opcode.BAR),
    # release: the pass restarts at the lowest live warp
    _instr(2 * B, Opcode.FMUL), _instr(3 * B, Opcode.EXIT),
    _instr(2 * B, Opcode.FMUL), _instr(3 * B, Opcode.EXIT),
    KernelEndEvent(warp_instructions=10),
]

EXIT_PATHS = [
    _launch(64),
    _instr(0, Opcode.IADD),
    _instr(B, Opcode.EXIT, lanes=32),       # fall-through: addr + 8
    _instr(2 * B, Opcode.IADD, lanes=7),
    _instr(3 * B, Opcode.EXIT, lanes=7),    # unwind: neither candidate
    _instr(6 * B, Opcode.IADD, lanes=25),
    _instr(7 * B, Opcode.RET, lanes=25),    # hand-off: warp 1's entry
    _instr(0, Opcode.IADD),
    _instr(B, Opcode.EXIT),                 # no lookahead: retires
    KernelEndEvent(warp_instructions=8),
]

REBASE = [
    _launch(32, ctas=2),
    _instr(0, Opcode.IADD, lanes=32),
    _instr(B, Opcode.IADD, lanes=12),       # divergent
    _instr(2 * B, Opcode.EXIT, lanes=32),   # most lanes exit
    _instr(3 * B, Opcode.IADD, lanes=4),    # survivors re-base to 4
    _instr(4 * B, Opcode.IADD, lanes=6),    # self-heal upward
    _instr(5 * B, Opcode.IADD, lanes=3),    # divergent again
    _instr(6 * B, Opcode.EXIT, lanes=6),
    _instr(0, Opcode.IADD, lanes=0),        # CTA 1: no active lanes
    _instr(B, Opcode.IADD, lanes=31),       # one lane short of 32
    _instr(2 * B, Opcode.EXIT, lanes=31),
    KernelEndEvent(warp_instructions=10),
]

TRAILING = [
    _launch(32, index=0),
    _instr(0, Opcode.IADD), _instr(B, Opcode.EXIT),
    KernelEndEvent(warp_instructions=2),
    _launch(64, ctas=2, index=1),
    MemEvent(ins_addr=0, flags=1, width=4, active_lanes=32,
             line_addresses=(1 << 20,)),    # no instruction: not graded
    _instr(0, Opcode.LDG),
    MemEvent(ins_addr=0, flags=1, width=4, active_lanes=32,
             line_addresses=(1 << 20, (1 << 20) + 32)),
    _instr(B, Opcode.EXIT),
    _instr(0, Opcode.IADD), _instr(B, Opcode.EXIT),
    _instr(0, Opcode.IADD),                 # CTA 1, no kernel end
]

DESYNC = [
    MemEvent(ins_addr=0, flags=1, width=4, active_lanes=1,
             line_addresses=(64,)),         # before any launch
    _launch(32, ctas=2),
    _instr(0, Opcode.IADD),
    _instr(B, Opcode.EXIT),                 # hands off to CTA 1
    _instr(0, Opcode.IADD),
    _instr(B, Opcode.STG),
    MemEvent(ins_addr=B, flags=2, width=4, active_lanes=32,
             line_addresses=(4096,)),
    BranchEvent(ins_addr=B, active=32, taken=3, not_taken=29),
    _instr(2 * B, Opcode.EXIT),             # no lookahead: the end...
    KernelEndEvent(warp_instructions=5),
    BranchEvent(ins_addr=2 * B, active=1, taken=1, not_taken=0),
    _instr(3 * B, Opcode.IADD),             # ...but the trace goes on
    MemEvent(ins_addr=3 * B, flags=1, width=4, active_lanes=32,
             line_addresses=(8192,)),
]

EMPTY_CTA = [
    _launch(32, ctas=3),
    _instr(0, Opcode.IADD), _instr(B, Opcode.EXIT),
    _instr(0, Opcode.IADD), _instr(B, Opcode.EXIT),  # enters CTA 2...
    KernelEndEvent(warp_instructions=4),             # ...which stays empty
]

SYNTHETIC = {"bar_park": BAR_PARK, "exit_paths": EXIT_PATHS,
             "rebase": REBASE, "trailing": TRAILING, "desync": DESYNC,
             "empty_cta": EMPTY_CTA}


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_synthetic_segmentation(name):
    assert_segmentation_agrees(SYNTHETIC[name])


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_synthetic_warp_queries(name):
    assert_frame_queries_agree(SYNTHETIC[name])
    assert_frame_queries_agree(SYNTHETIC[name], kinds=("mem", "branch"))


def test_named_shapes():
    """Spot checks that the oracle agreement is about the right thing."""
    (launch,) = _by_events(BAR_PARK, True).launches
    assert [len(s.instrs) for s in launch.ctas[0]] == [4, 2, 4]
    (launch,) = _by_events(EXIT_PATHS, True).launches
    assert [len(s.instrs) for s in launch.ctas[0]] == [6, 2]
    (launch,) = _by_events(REBASE, True).launches
    assert [[i.divergent for i in s.instrs] for (s,) in launch.ctas] == [
        [False, True, False, False, False, True, False],
        [False, True, True]]
    first, second = _by_events(TRAILING, False).launches
    assert (second.instr_count, len(second.ctas)) == (4, 1)
    # timing drops what follows the kernel end; the query's
    # segmentation keeps it on the retired warp, as a desync
    (launch,) = _by_events(DESYNC, True).launches
    assert (launch.instr_count, launch.desyncs) == (5, 0)
    (launch, records), = _frames(DESYNC)
    columns = FrameColumns.from_events(launch, records)
    _, dead = warp_ordinals(launch, columns.instr_addr,
                            columns.instr_opcodes, _ends(columns))
    assert dead.tolist() == [False] * 5 + [True]
    hits = list(_frame_hits_columns(columns, 0, "k", QueryFilter(warp=1),
                                    QueryStats()))
    assert [hit.event.ins_addr for hit in hits] == [0, B, B, B, 2 * B,
                                                    3 * B, 3 * B]
    (launch,) = _by_events(EMPTY_CTA, True).launches
    assert len(launch.ctas) == 2


# ------------------------------------------------------------ Hypothesis

#: line numbers that share L1 sets (stride 128), so hits and evictions
#: both occur
_LINES = st.sampled_from([0, 1, 2, 128, 256, 384, 512, 640, 768])
_OPS = (Opcode.IADD, Opcode.IADD, Opcode.FMUL, Opcode.LDG, Opcode.BAR,
        Opcode.EXIT, Opcode.EXIT, Opcode.RET)


@st.composite
def launches(draw):
    events = []
    for index in range(draw(st.integers(1, 3))):
        events.append(_launch(draw(st.integers(1, 100)),
                              ctas=draw(st.integers(1, 3)), index=index))
        if draw(st.booleans()):
            events.append(MemEvent(ins_addr=0, flags=1, width=4,
                                   active_lanes=1,
                                   line_addresses=(32 * draw(_LINES),)))
        for _ in range(draw(st.integers(0, 40))):
            op = draw(st.sampled_from(_OPS))
            addr = draw(st.integers(0, 6)) * B
            lanes = draw(st.integers(0, 32))
            events.append(_instr(addr, op, lanes))
            if op is Opcode.LDG and draw(st.booleans()):
                lines = draw(st.lists(_LINES, max_size=4))
                events.append(MemEvent(
                    ins_addr=addr, flags=1, width=4, active_lanes=lanes,
                    line_addresses=tuple(32 * line for line in lines)))
            if draw(st.integers(0, 9)) == 0:
                events.append(BranchEvent(ins_addr=addr, active=lanes,
                                          taken=0, not_taken=lanes))
            if draw(st.integers(0, 29)) == 0:
                events.append(KernelEndEvent(warp_instructions=1))
                if draw(st.booleans()):     # belongs to no instruction
                    events.append(BranchEvent(ins_addr=addr, active=1,
                                              taken=1, not_taken=0))
        if draw(st.booleans()):
            events.append(KernelEndEvent(warp_instructions=len(events)))
    return events


@settings(max_examples=120, deadline=None)
@given(events=launches())
def test_generated_segmentation(events):
    assert_segmentation_agrees(events)


@settings(max_examples=60, deadline=None)
@given(events=launches())
def test_generated_warp_queries(events):
    assert_frame_queries_agree(events)


# ---------------------------------------------------------------- corpus

@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("segcorpus")
    paths = []
    for kernel in KERNELS:
        path = str(root / (kernel.replace("/", "_") + ".rptrace"))
        _, verified, _ = capture_workload(kernel, path)
        assert verified
        paths.append(path)
    return paths


def test_corpus_segmentation(corpus):
    for path in corpus:
        events = list(TraceReader(path).events())
        want = _oracle(events, finish=False)
        (analysis,) = replay(path, [TimingAnalysis()])
        assert_models_agree(analysis.model, want)
        assert_models_agree(_by_events(events, finish=False), want)
        for launch in want.launches:
            assert launch.desyncs == 0
            assert launch.instr_count == sum(
                len(s.instrs) for streams in launch.ctas for s in streams)


def _warp_count(path):
    index = sidecar_index(path)
    reader = TraceReader(path)
    most = 0
    for _, _, frame in reader.frame_columns(index.entries):
        block, grid = frame.launch.block, frame.launch.grid
        warps = -(-(block[0] * block[1] * block[2]) // 32)
        most = max(most, warps * grid[0] * grid[1] * grid[2])
    return most


@pytest.mark.parametrize("sidecar", [True, False],
                         ids=["sidecar", "scan"])
def test_corpus_warp_queries(corpus, tmp_path, sidecar):
    for path in corpus:
        warps = _warp_count(path)
        if not sidecar:
            copy = str(tmp_path / os.path.basename(path))
            with open(path, "rb") as src, open(copy, "wb") as dst:
                dst.write(src.read())
            path = copy
            assert not os.path.exists(index_path_for(path))
        for warp in range(warps + 1):
            filt = QueryFilter(warp=warp)
            hits, stats = run_query(path, filt)
            hits = list(hits)
            assert (hits, stats) == walk_query(path, filt), (path, warp)
            assert stats.used_index is sidecar
        # a warp filter joined with launch, class and address filters
        filt = QueryFilter.parse(launches="0:2", classes="memory,control",
                                 addr="0x10000000:", warp=1)
        hits, stats = run_query(path, filt)
        assert (list(hits), stats) == walk_query(path, filt)


# ------------------------------------------------------- declined frames

def test_declined_frame(tmp_path):
    """Values beyond int64 make the decoder decline the frame: timing
    and the warp query then go through the event-fed columns."""
    path = str(tmp_path / "huge.rptrace")
    huge = 2 ** 64 - 1 - 8 * B
    events = [
        _launch(64),
        _instr(huge, Opcode.IADD), _instr(huge + B, Opcode.LDG),
        MemEvent(ins_addr=huge + B, flags=1, width=4, active_lanes=32,
                 line_addresses=(2 ** 64 - 32, 64)),
        _instr(huge + 2 * B, Opcode.EXIT, lanes=9),
        _instr(huge + 5 * B, Opcode.IADD, lanes=23),
        _instr(huge + 6 * B, Opcode.EXIT, lanes=23),
        _instr(huge, Opcode.IADD), _instr(huge + B, Opcode.EXIT),
        KernelEndEvent(warp_instructions=7),
    ]
    with TraceWriter(path) as writer:
        for event in events:
            writer.write(event)
    assert sidecar_index(path) is not None
    (analysis,) = replay(path, [TimingAnalysis()])
    assert_models_agree(analysis.model, _oracle(events, finish=False))
    assert analysis.result()["launches"][0]["issued"] == 7
    for warp in range(3):
        filt = QueryFilter(warp=warp)
        hits, stats = run_query(path, filt)
        assert (list(hits), stats) == walk_query(path, filt)
