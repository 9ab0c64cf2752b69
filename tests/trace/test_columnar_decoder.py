"""Hypothesis differential suite for the vectorized frame decoder.

The contract: :func:`repro.trace.io.decode_frame_columns` is a drop-in
for the scalar event decoder over one ``LAUNCH .. KEND`` frame slice —
same columns to the bit whenever the vector path runs, the scalar
walk's canonical :class:`TraceFormatError` on corrupt input, and an
``None`` (events-mode) fallback only for values that exceed int64.
:func:`repro.trace.io.decode_frame_run` decodes many frames in one
pass and must equal decoding them one at a time, fallbacks and errors
included.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.trace.format import (
    EncoderState,
    BranchEvent,
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
    TraceFormatError,
    decode_varint,
    decode_varint_stream,
    encode_event,
)
import repro.trace.io as io_mod
from repro.trace.io import (
    FrameColumns,
    TraceReader,
    TraceWriter,
    _columns_run,
    _columns_scalar,
    _varint_values,
    decode_frame_columns,
    decode_frame_run,
)
from repro.trace.index import ensure_index

U32_MAX = 2**32 - 1
U64_MAX = 2**64 - 1
I64_SAFE = 2**40          # far inside the vector decoder's comfort zone

lane = st.integers(min_value=0, max_value=32)
dim3 = st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))


def launch_events(addr_max):
    return st.builds(LaunchEvent, kernel=st.text(min_size=0, max_size=12),
                     grid=dim3, block=dim3,
                     launch_index=st.integers(0, U32_MAX))


def record_events(addr_max):
    addr = st.integers(min_value=0, max_value=addr_max)
    return st.one_of(
        st.builds(InstrEvent, ins_addr=addr,
                  opcode=st.integers(0, 200), lanes=lane,
                  width=st.integers(0, 16)),
        st.builds(MemEvent, ins_addr=addr,
                  flags=st.integers(0, 7), width=st.integers(0, 16),
                  active_lanes=st.integers(1, 32),
                  line_addresses=st.lists(addr, min_size=0,
                                          max_size=8).map(tuple)),
        st.builds(BranchEvent, ins_addr=addr, active=lane, taken=lane,
                  not_taken=lane),
        st.builds(KernelEndEvent,
                  warp_instructions=st.integers(0, U32_MAX)),
    )


def frame_bytes(launch, records) -> bytes:
    state = EncoderState()
    blob = encode_event(launch, state)
    for event in records:
        blob += encode_event(event, state)
    return blob


def reference_columns(launch, records):
    """Per-kind columns straight from the event objects (ground truth
    independent of both decoder implementations)."""
    cols = {"tags": [], "kend": [], "ia": [], "iop": [], "il": [],
            "iw": [], "ma": [], "mf": [], "mw": [], "mact": [],
            "mn": [], "ml": [], "ba": [], "bact": [], "bt": [], "bn": []}
    for ev in records:
        cols["tags"].append(ev.tag)
        if isinstance(ev, InstrEvent):
            cols["ia"].append(ev.ins_addr)
            cols["iop"].append(ev.opcode)
            cols["il"].append(ev.lanes)
            cols["iw"].append(ev.width)
        elif isinstance(ev, MemEvent):
            cols["ma"].append(ev.ins_addr)
            cols["mf"].append(ev.flags)
            cols["mw"].append(ev.width)
            cols["mact"].append(ev.active_lanes)
            cols["mn"].append(len(ev.line_addresses))
            cols["ml"].extend(ev.line_addresses)
        elif isinstance(ev, BranchEvent):
            cols["ba"].append(ev.ins_addr)
            cols["bact"].append(ev.active)
            cols["bt"].append(ev.taken)
            cols["bn"].append(ev.not_taken)
        else:
            cols["kend"].append(ev.warp_instructions)
    return cols


def assert_frame_matches(frame, launch, records):
    ref = reference_columns(launch, records)
    assert frame.launch == launch
    assert frame.events == len(records) + 1
    got = {"tags": frame.record_tags, "kend": frame.kend_counts,
           "ia": frame.instr_addr, "iop": frame.instr_opcodes,
           "il": frame.instr_lanes, "iw": frame.instr_widths,
           "ma": frame.mem_addr, "mf": frame.mem_flags,
           "mw": frame.mem_width, "mact": frame.mem_active,
           "mn": frame.mem_nlines, "ml": frame.mem_lines,
           "ba": frame.branch_addr, "bact": frame.branch_active,
           "bt": frame.branch_taken, "bn": frame.branch_not_taken}
    for key, expected in ref.items():
        column = got[key]
        assert column.dtype == np.int64, key
        assert column.tolist() == expected, key


@given(launch_events(I64_SAFE), st.lists(record_events(I64_SAFE),
                                         max_size=50))
@settings(max_examples=80)
def test_frame_columns_match_event_ground_truth(launch, records):
    frame = decode_frame_columns(frame_bytes(launch, records))
    assert frame is not None
    assert_frame_matches(frame, launch, records)


@given(launch_events(I64_SAFE), st.lists(record_events(I64_SAFE),
                                         max_size=50))
@settings(max_examples=80)
def test_vector_walk_matches_scalar_walk(launch, records):
    """The two decoder cores agree column-for-column on every
    well-formed frame (and both varint passes agree token-for-token)."""
    blob = frame_bytes(launch, records)
    pos = 0
    tag, pos = decode_varint(blob, pos)
    from repro.trace.format import decode_event

    _, pos = decode_event(tag, blob, pos, EncoderState())
    tokens = decode_varint_stream(blob, pos)
    decoded = _varint_values(np.frombuffer(blob, dtype=np.uint8,
                                           offset=pos))
    assert decoded is not None
    tok, _ = decoded
    assert tok.tolist() == tokens
    (vec,) = _columns_run(tok, np.array([0, tok.size]))
    scal = _columns_scalar(tokens)
    assert scal is not None
    for v, s in zip(vec, scal):
        assert v.tolist() == s.tolist()


@given(st.lists(st.tuples(launch_events(I64_SAFE),
                          st.lists(record_events(I64_SAFE), max_size=12)),
                min_size=2, max_size=4))
@settings(max_examples=30)
def test_delta_chains_reset_at_launch_boundaries(frames):
    """Writer-side address deltas chain across the whole stream but
    reset at LAUNCH, so every frame slice decodes standalone — the
    columns of frame *n* never depend on frames before it."""
    buf = io.BytesIO()
    all_events = []
    with TraceWriter(buf) as writer:
        for launch, records in frames:
            # a KEND closes each frame so the index can slice them
            closed = list(records) + [KernelEndEvent(warp_instructions=0)]
            writer.write(launch)
            for event in closed:
                writer.write(event)
            all_events.append((launch, closed))
    blob = buf.getvalue()
    path_reader = TraceReader(io.BytesIO(blob))
    assert list(path_reader.events())  # container is well-formed
    # slice frames exactly as the index does: LAUNCH..next LAUNCH
    from repro.trace.format import TAG_LAUNCH
    import repro.trace.index as index_mod

    starts = []
    data = blob[index_mod._TRACE_HEADER_SIZE:]
    pos = 0
    state = EncoderState()
    from repro.trace.format import TAG_END, decode_event

    while True:
        at = pos
        tag, pos = decode_varint(data, pos)
        if tag == TAG_END:
            starts.append(at)
            break
        if tag == TAG_LAUNCH:
            starts.append(at)
        _, pos = decode_event(tag, data, pos, state)
    for i, (launch, records) in enumerate(all_events):
        frame = decode_frame_columns(data[starts[i]:starts[i + 1]])
        assert frame is not None
        assert_frame_matches(frame, launch, records)


@given(launch_events(I64_SAFE),
       st.lists(record_events(I64_SAFE), min_size=1, max_size=20),
       st.data())
@settings(max_examples=80)
def test_truncation_matches_scalar_reference(launch, records, data):
    """Any truncation either raises the scalar walk's canonical
    TraceFormatError or decodes an exact record-prefix of the frame —
    never a raw traceback, never divergent vector/scalar behaviour."""
    blob = frame_bytes(launch, records)
    header = frame_bytes(launch, [])
    cut = data.draw(st.integers(min_value=len(header),
                                max_value=len(blob) - 1))
    try:
        frame = decode_frame_columns(blob[:cut])
    except TraceFormatError:
        return
    assert frame is not None
    assert frame.events <= len(records) + 1
    # a successful decode must be a record-prefix of the full frame
    full = decode_frame_columns(blob)
    n = frame.record_tags.size
    assert frame.record_tags.tolist() == full.record_tags.tolist()[:n]


@given(launch_events(I64_SAFE),
       st.lists(record_events(I64_SAFE), min_size=1, max_size=20),
       st.data())
@settings(max_examples=80)
def test_bit_flip_never_tracebacks(launch, records, data):
    blob = bytearray(frame_bytes(launch, records))
    index = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    blob[index] ^= data.draw(st.integers(min_value=1, max_value=255))
    try:
        frame = decode_frame_columns(bytes(blob))
    except TraceFormatError:
        return
    assert frame is None or frame.events >= 1


@given(launch_events(U64_MAX),
       st.lists(record_events(U64_MAX), max_size=30))
@settings(max_examples=60)
@example(LaunchEvent(kernel="k", grid=(1, 1, 1), block=(1, 1, 1),
                     launch_index=0),
         [InstrEvent(ins_addr=U64_MAX, opcode=1, lanes=32, width=0),
          InstrEvent(ins_addr=0, opcode=1, lanes=32, width=0)])
def test_full_u64_addresses_decode_exactly_or_fall_back(launch, records):
    """Addresses anywhere in u64: either the columns are still exact,
    or the decoder declines (returns None) so the caller replays the
    frame in events mode — it must never return wrong values."""
    frame = decode_frame_columns(frame_bytes(launch, records))
    if frame is None:
        # legal only when some value really is outside int64
        biggest = max((e.ins_addr for e in records
                       if not isinstance(e, KernelEndEvent)),
                      default=0)
        lines = max((max(e.line_addresses, default=0) for e in records
                     if isinstance(e, MemEvent)), default=0)
        assert max(biggest, lines) >= 2**62
        return
    assert_frame_matches(frame, launch, records)


def test_non_launch_frame_slice_is_rejected():
    blob = frame_bytes(LaunchEvent(kernel="k", grid=(1, 1, 1),
                                   block=(1, 1, 1), launch_index=0),
                       [InstrEvent(ins_addr=8, opcode=1, lanes=32,
                                   width=0)])
    # chop off the leading launch record: the slice starts mid-frame
    state = EncoderState()
    launch_len = len(encode_event(LaunchEvent(kernel="k", grid=(1, 1, 1),
                                              block=(1, 1, 1),
                                              launch_index=0), state))
    with pytest.raises(TraceFormatError, match="launch"):
        decode_frame_columns(blob[launch_len:])


def test_corrupt_frame_bytes_fail_crc_before_decode(tmp_path):
    """The read path (``TraceReader.frames``) rejects flipped frame
    bytes via the index CRC before the columnar decoder ever runs."""
    path = str(tmp_path / "t.rptrace")
    with TraceWriter(path) as writer:
        writer.write(LaunchEvent(kernel="k", grid=(2, 1, 1),
                                 block=(32, 1, 1), launch_index=0))
        for i in range(8):
            writer.write(InstrEvent(ins_addr=8 * i, opcode=1, lanes=32,
                                    width=0))
        writer.write(KernelEndEvent(warp_instructions=8))
    index = ensure_index(path)
    assert index is not None and index.entries
    entry = index.entries[0]
    with open(path, "r+b") as handle:
        handle.seek(entry.offset + entry.length // 2)
        byte = handle.read(1)
        handle.seek(entry.offset + entry.length // 2)
        handle.write(bytes([byte[0] ^ 0xFF]))
    reader = TraceReader(path)
    with pytest.raises(TraceFormatError, match="checksum"):
        list(reader.frames(index))


# ------------------------------------------------------ batched decoding

def assert_same_columns(got, want):
    """Two decodes of one frame agree column for column."""
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got.launch == want.launch
    assert got.events == want.events
    assert got.warp_instructions == want.warp_instructions
    for name in FrameColumns.__slots__[3:]:
        column = getattr(got, name)
        assert column.dtype == np.int64, name
        assert column.tolist() == getattr(want, name).tolist(), name


def decode_outcome(decode, frames):
    """The decoded frames, or the error message decoding raised."""
    try:
        return decode(frames), None
    except TraceFormatError as exc:
        return None, str(exc)


def frame_by_frame(frames):
    return [decode_frame_columns(data) for data in frames]


many_frames = st.lists(
    st.tuples(launch_events(I64_SAFE),
              st.lists(record_events(I64_SAFE), max_size=8)),
    min_size=32, max_size=40)


@given(many_frames)
@settings(max_examples=25, deadline=None)
def test_run_of_many_frames_matches_frame_by_frame(frames):
    """A run of 32+ frames decodes in one pass to exactly the columns of
    per-frame decoding: the delta chains restart at every frame."""
    blobs = [frame_bytes(launch, records) for launch, records in frames]
    batched = decode_frame_run(blobs)
    assert len(batched) == len(blobs)
    for got, want, (launch, records) in zip(batched, frame_by_frame(blobs),
                                            frames):
        assert_same_columns(got, want)
        assert_frame_matches(got, launch, records)


@given(many_frames, st.data())
@settings(max_examples=15, deadline=None)
def test_run_with_a_declined_frame_falls_back_like_frame_by_frame(frames,
                                                                  data):
    """One frame with a value beyond int64 makes the vector path decline
    the run; the result still matches frame by frame — ``None`` for that
    frame, exact columns for the rest."""
    at = data.draw(st.integers(0, len(frames) - 1))
    launch, records = frames[at]
    frames = list(frames)
    frames[at] = (launch, list(records) + [
        InstrEvent(ins_addr=U64_MAX, opcode=1, lanes=32, width=0)])
    blobs = [frame_bytes(launch, records) for launch, records in frames]
    batched = decode_frame_run(blobs)
    assert batched[at] is None
    for got, want in zip(batched, frame_by_frame(blobs)):
        assert_same_columns(got, want)


@given(many_frames, st.data())
@settings(max_examples=40, deadline=None)
def test_run_with_a_corrupt_frame_fails_like_frame_by_frame(frames, data):
    """Truncating or flipping bytes of any frames in a run raises the
    same TraceFormatError as decoding the frames one at a time (the
    first bad frame's, in run order), or decodes to the same columns."""
    blobs = [frame_bytes(launch, records) for launch, records in frames]
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(blobs) - 1))
        blob = bytearray(blobs[at])
        if data.draw(st.booleans()):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
        else:
            index = data.draw(st.integers(0, len(blob) - 1))
            blob[index] ^= data.draw(st.integers(1, 255))
        blobs[at] = bytes(blob)
    batched, batched_error = decode_outcome(decode_frame_run, blobs)
    single, single_error = decode_outcome(frame_by_frame, blobs)
    assert batched_error == single_error
    if single is not None:
        for got, want in zip(batched, single):
            assert_same_columns(got, want)


def test_no_frame_in_a_run_borrows_from_the_next():
    """Corruption that only parses across a frame edge must fail as it
    does frame by frame: a record cut short whose tail the next frame's
    tokens would complete, and an unterminated last varint that a
    corrupt next frame's first byte would terminate."""
    launch = LaunchEvent(kernel="k", grid=(1, 1, 1), block=(32, 1, 1),
                         launch_index=0)
    # KEND without its count; the follower's tokens 3,2,2,2,2,2,2 read
    # on from the second one as three whole KEND records
    cut_record = frame_bytes(launch, [
        InstrEvent(ins_addr=8, opcode=1, lanes=32, width=0),
        KernelEndEvent(warp_instructions=9)])[:-1]
    follower = frame_bytes(launch, [
        InstrEvent(ins_addr=1, opcode=2, lanes=2, width=2),
        KernelEndEvent(warp_instructions=2)])
    # 0x82 continues into the next frame, where 0x00 ends it as tag 2
    cut_varint = frame_bytes(launch, [
        KernelEndEvent(warp_instructions=5)]) + b"\x82"
    completer = frame_bytes(launch, []) + b"\x00\x07"
    for frames in ([cut_record, follower], [cut_varint, completer]):
        outcome = decode_outcome(decode_frame_run, frames)
        assert outcome[1] is not None
        assert outcome == decode_outcome(frame_by_frame, frames)


def test_frame_runs_respect_the_byte_budget(tmp_path, monkeypatch):
    """Runs hold frames that sit back to back in the file, at most
    RUN_BYTES long unless a single frame is larger, and cover the
    requested entries in order."""
    path = str(tmp_path / "t.rptrace")
    with TraceWriter(path) as writer:
        for n in range(40):
            writer.write(LaunchEvent(kernel="k", grid=(1, 1, 1),
                                     block=(32, 1, 1), launch_index=n))
            for i in range(n % 7):
                writer.write(InstrEvent(ins_addr=8 * i, opcode=1, lanes=32,
                                        width=0))
            writer.write(KernelEndEvent(warp_instructions=n % 7))
    index = ensure_index(path)
    monkeypatch.setattr(io_mod, "RUN_BYTES", 64)
    reader = TraceReader(path)
    wanted = [e for n, e in enumerate(index.entries) if n % 5 != 2]
    runs = list(reader.frame_runs(wanted))
    assert [entry for run in runs for entry, _ in run] == wanted
    assert 1 < len(runs) < len(wanted)
    for run in runs:
        first, last = run[0][0], run[-1][0]
        assert (len(run) == 1
                or last.offset + last.length - first.offset <= 64)
        for (entry, data), (following, _) in zip(run, run[1:]):
            assert following.offset == entry.offset + entry.length
        for entry, data in run:
            assert data == reader.read_frame(entry)
    decoded = list(reader.frame_columns(wanted))
    for (entry, data, frame), want in zip(decoded, wanted):
        assert entry == want
        assert_same_columns(frame, decode_frame_columns(data))
