"""Streaming trace I/O: bounded-memory writer, lazy reader, and the
columnar frame decoder.

:class:`TraceWriter` appends events to a file (or file object) through a
bounded byte buffer — host-side memory stays O(buffer), never O(trace),
no matter how many events the instrumented run produces.  Closing the
writer publishes the manifest footer; a file without a valid footer is
reported as torn by :class:`TraceReader`, which streams events lazily
and verifies the CRC as it goes.

Path-target writers also maintain a columnar index
(:mod:`repro.trace.index`) as they go and publish it to the ``.rpti``
sidecar at close — :meth:`TraceReader.open_launch` then seeks straight
to launch *n* instead of scanning the whole stream.

:class:`FrameColumns` is the replay stack's batch currency: one
``LAUNCH .. KEND`` frame decoded into ndarray columns.
:func:`decode_frame_run` decodes a run of consecutive frames in a few
numpy passes (continuation-bit segmentation, masked shift-accumulate,
a pointer-doubled record walk, and delta chains undone by a cumsum
segmented at every frame), with the scalar token walk kept as the
bit-exact reference and fallback; :func:`decode_frame_columns` is its
one-frame case.  :meth:`TraceReader.frame_columns` reads an index's
frames in runs of at most :data:`RUN_BYTES` and decodes each run in one
pass; serial columnar replay, ``repro trace query`` and ``repro
trace-diff`` all read through it, and sharded replay workers decode
their one frame with :func:`decode_frame_columns`.
"""

from __future__ import annotations

import io
import os
from typing import IO, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.telemetry.collector import TELEMETRY
from repro.trace import index as index_mod
from repro.trace.format import (
    BranchEvent,
    EncoderState,
    InstrEvent,
    KIND_NAMES,
    KernelEndEvent,
    MAGIC,
    MemEvent,
    TAG_BRANCH,
    TAG_END,
    TAG_INSTR,
    TAG_KEND,
    TAG_LAUNCH,
    TAG_MEM,
    TRAILER_MAGIC,
    TRAILER_SIZE,
    TraceFormatError,
    TraceManifest,
    VERSION,
    crc32,
    decode_event,
    decode_footer,
    decode_varint,
    decode_varint_stream,
    encode_event,
    encode_footer,
    encode_varint,
    iter_slice_events,
    unzigzag,
)

#: flush the host-side buffer once it holds this many bytes
DEFAULT_BUFFER_BYTES = 256 << 10
#: reader chunk size
READ_CHUNK = 256 << 10


class TraceWriter:
    """Writes a ``.rptrace`` stream with bounded host-side memory.

    Accepts a path (the file is created/truncated and closed with the
    writer) or a seekable binary file object (left open after
    :meth:`close` so callers can read it back).  Usable as a context
    manager; the footer is written exactly once, by ``close``.
    """

    def __init__(self, target: Union[str, os.PathLike, IO[bytes]],
                 buffer_bytes: int = DEFAULT_BUFFER_BYTES):
        if hasattr(target, "write"):
            self._file: IO[bytes] = target
            self._owns_file = False
            self.path: Optional[str] = getattr(target, "name", None)
        else:
            self.path = os.fspath(target)
            self._file = open(self.path, "wb")
            self._owns_file = True
        self._buffer = bytearray()
        self._buffer_bytes = max(1, buffer_bytes)
        self._state = EncoderState()
        self._counts: dict = {}
        self._total = 0
        self._crc = 0
        self._closed = False
        self.bytes_written = 0
        # index only path targets: a sidecar next to a borrowed file
        # object would be a surprise, and the backfill command covers it
        self._index: Optional["index_mod.IndexBuilder"] = (
            index_mod.IndexBuilder() if self._owns_file else None)
        self._header_size = len(MAGIC) + 1
        self._file.write(MAGIC + bytes([VERSION]))

    # ------------------------------------------------------------ write

    def write(self, event) -> None:
        if self._closed:
            raise ValueError("trace writer already closed")
        encoded = encode_event(event, self._state)
        if self._index is not None:
            self._index.observe(
                event.tag, event,
                self._header_size + self.bytes_written + len(self._buffer),
                encoded)
        self._buffer += encoded
        self._crc = crc32(encoded, self._crc)
        tag = event.tag
        self._counts[tag] = self._counts.get(tag, 0) + 1
        self._total += 1
        if TELEMETRY.enabled:
            TELEMETRY.incr("trace.events")
            TELEMETRY.incr(f"trace.events.{KIND_NAMES[tag]}")
        if len(self._buffer) >= self._buffer_bytes:
            self.flush()

    def write_batch(self, events) -> None:
        """Append several events in order with one buffer/telemetry pass.

        Byte- and counter-identical to calling :meth:`write` per event:
        the stateful encoder still sees the events sequentially, and the
        telemetry counters receive the same totals in one ``incr`` each.
        """
        if self._closed:
            raise ValueError("trace writer already closed")
        if not events:
            return
        batch_counts: dict = {}
        index = self._index
        for event in events:
            encoded = encode_event(event, self._state)
            if index is not None:
                index.observe(
                    event.tag, event,
                    self._header_size + self.bytes_written
                    + len(self._buffer),
                    encoded)
            self._buffer += encoded
            self._crc = crc32(encoded, self._crc)
            tag = event.tag
            batch_counts[tag] = batch_counts.get(tag, 0) + 1
        for tag, count in batch_counts.items():
            self._counts[tag] = self._counts.get(tag, 0) + count
            self._total += count
        if TELEMETRY.enabled:
            TELEMETRY.incr("trace.events", sum(batch_counts.values()))
            for tag, count in batch_counts.items():
                TELEMETRY.incr(f"trace.events.{KIND_NAMES[tag]}", count)
        if len(self._buffer) >= self._buffer_bytes:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            self._file.write(self._buffer)
            self.bytes_written += len(self._buffer)
            self._buffer.clear()

    @property
    def total_events(self) -> int:
        return self._total

    # ------------------------------------------------------------ close

    def close(self) -> TraceManifest:
        """Flush, publish the footer, and (for path targets) close the
        file.  Idempotent."""
        if self._closed:
            return self._manifest()
        end = encode_varint(TAG_END)
        self._buffer += end
        self._crc = crc32(end, self._crc)
        manifest = self._manifest()
        self._buffer += encode_footer(manifest)
        self.flush()
        self._file.flush()
        if self._owns_file:
            self._file.close()
        self._closed = True
        if self._index is not None and self.path is not None:
            index_mod.write_index(self._index.finish(manifest),
                                  index_mod.index_path_for(self.path))
        if TELEMETRY.enabled:
            TELEMETRY.incr("trace.bytes_written", self.bytes_written)
        return manifest

    def _manifest(self) -> TraceManifest:
        return TraceManifest(
            version=VERSION, total_events=self._total,
            counts=tuple(sorted(self._counts.items())), checksum=self._crc)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceReader:
    """Lazy event iteration over a ``.rptrace`` file.

    ``for event in reader`` decodes one event at a time from buffered
    chunks; the whole trace is never resident.  The CRC accumulated
    while streaming is checked against the footer when the end marker is
    reached — a torn or bit-rotted file raises
    :class:`~repro.trace.format.TraceFormatError` mid-iteration instead
    of yielding silently wrong events.

    Accepts a path (opened per iteration) or a seekable binary file
    object (rewound per iteration, left open).
    """

    def __init__(self, target: Union[str, os.PathLike, IO[bytes]]):
        if hasattr(target, "read"):
            self._fileobj: Optional[IO[bytes]] = target
            self.path = getattr(target, "name", None)
        else:
            self._fileobj = None
            self.path = os.fspath(target)

    def _open(self) -> IO[bytes]:
        if self._fileobj is not None:
            self._fileobj.seek(0)
            return self._fileobj
        try:
            return open(self.path, "rb")
        except OSError as exc:
            raise TraceFormatError(
                f"cannot open trace {self.path}: {exc.strerror or exc}")

    def _check_header(self, handle: IO[bytes]) -> int:
        header = handle.read(len(MAGIC) + 1)
        if len(header) < len(MAGIC) + 1 or header[:len(MAGIC)] != MAGIC:
            raise TraceFormatError(
                f"{self._name()} is not a trace (bad magic)")
        version = header[len(MAGIC)]
        if version != VERSION:
            raise TraceFormatError(
                f"{self._name()}: unsupported trace version {version} "
                f"(this reader speaks version {VERSION})")
        return version

    def _name(self) -> str:
        return self.path or "<trace stream>"

    # ---------------------------------------------------------- iterate

    def __iter__(self) -> Iterator[object]:
        return self.events()

    def events(self) -> Iterator[object]:
        """Yield events lazily; validates the footer checksum at EOF."""
        handle = self._open()
        owns = self._fileobj is None
        try:
            version = self._check_header(handle)
            state = EncoderState()
            buf = b""
            pos = 0
            crc = 0
            total = 0
            while True:
                # top up the buffer so one maximal record always fits
                if len(buf) - pos < READ_CHUNK // 2:
                    chunk = handle.read(READ_CHUNK)
                    if chunk:
                        buf = buf[pos:] + chunk
                        pos = 0
                if pos >= len(buf):
                    raise TraceFormatError(
                        f"{self._name()}: truncated trace (no end "
                        "marker — torn write?)")
                start = pos
                tag, pos = decode_varint(buf, pos)
                if tag == TAG_END:
                    crc = crc32(buf[start:pos], crc)
                    footer = buf[pos:] + handle.read()
                    self._check_footer(footer, version, crc, total)
                    return
                try:
                    event, pos = decode_event(tag, buf, pos, state)
                except TraceFormatError:
                    # the record may just straddle the buffer boundary;
                    # pull the rest of the file once, then re-raise
                    rest = handle.read()
                    if not rest:
                        raise
                    buf = buf + rest
                    pos = start
                    tag, pos = decode_varint(buf, pos)
                    event, pos = decode_event(tag, buf, pos, state)
                crc = crc32(buf[start:pos], crc)
                total += 1
                yield event
        finally:
            if owns:
                handle.close()

    def _check_footer(self, footer: bytes, version: int, crc: int,
                      total: int) -> None:
        manifest = _parse_footer_block(footer, version, self._name())
        if manifest.checksum != crc:
            raise TraceFormatError(
                f"{self._name()}: checksum mismatch (trace corrupt: "
                f"footer says {manifest.checksum:#010x}, stream is "
                f"{crc:#010x})")
        if manifest.total_events != total:
            raise TraceFormatError(
                f"{self._name()}: event count mismatch (footer says "
                f"{manifest.total_events}, stream held {total})")

    # ------------------------------------------------------------- seek

    def open_launch(self, n: int,
                    index: Optional["index_mod.TraceIndex"] = None
                    ) -> Iterator[object]:
        """Decode exactly launch frame *n* — O(frame), not O(trace).

        Yields the :class:`~repro.trace.format.LaunchEvent`, the frame's
        events in stream order, and the closing
        :class:`~repro.trace.format.KernelEndEvent`.  Uses the ``.rpti``
        sidecar when *index* is not given (building one in memory if the
        sidecar is missing or stale).  The frame bytes are validated
        against the index's per-frame CRC before any event is yielded.
        """
        if index is None:
            if self.path is None:
                raise TraceFormatError(
                    "open_launch on a trace stream needs an explicit "
                    "index (no path to find the sidecar by)")
            index = index_mod.ensure_index(self.path)
            if index is None:
                raise TraceFormatError(
                    f"{self._name()} is not a readable trace")
        entry = index.entry(n)
        data = self.read_frame(entry)
        return iter_slice_events(data)

    def read_frame(self, entry: "index_mod.LaunchEntry") -> bytes:
        """The raw, CRC-validated bytes of one indexed launch frame."""
        handle = self._open()
        owns = self._fileobj is None
        try:
            handle.seek(entry.offset)
            data = handle.read(entry.length)
        finally:
            if owns:
                handle.close()
        if len(data) != entry.length:
            raise TraceFormatError(
                f"{self._name()}: indexed frame at {entry.offset} runs "
                "past the end of the trace (stale index?)")
        if crc32(data) != entry.checksum:
            raise TraceFormatError(
                f"{self._name()}: frame checksum mismatch at launch "
                f"{entry.launch_index} (stale index or corrupt trace)")
        return data

    def frames(self, index: "index_mod.TraceIndex"
               ) -> Iterator[Tuple["index_mod.LaunchEntry", bytes]]:
        """Yield ``(entry, frame_bytes)`` for every indexed launch frame
        through a single file handle — the sequential-batch counterpart
        of :meth:`read_frame` (which reopens the trace per call).  Each
        frame is validated against the index's per-frame CRC before it
        is yielded."""
        for run in self.frame_runs(index.entries):
            yield from run

    def frame_runs(self, entries: Sequence["index_mod.LaunchEntry"]
                   ) -> Iterator[List[Tuple["index_mod.LaunchEntry",
                                            bytes]]]:
        """Yield *entries*' frames as runs of ``(entry, frame_bytes)``.

        A run is a stretch of frames that sit back to back in the file,
        at most :data:`RUN_BYTES` long (a larger frame is a run of its
        own); it is read with one seek and one read, and each frame is
        validated against the index's per-frame CRC before the run is
        yielded.
        """
        handle = self._open()
        owns = self._fileobj is None
        try:
            run: List["index_mod.LaunchEntry"] = []
            for entry in entries:
                if run and (entry.offset != run[-1].offset + run[-1].length
                            or entry.offset + entry.length - run[0].offset
                            > RUN_BYTES):
                    yield self._read_run(handle, run)
                    run = []
                run.append(entry)
            if run:
                yield self._read_run(handle, run)
        finally:
            if owns:
                handle.close()

    def _read_run(self, handle: IO[bytes],
                  run: List["index_mod.LaunchEntry"]
                  ) -> List[Tuple["index_mod.LaunchEntry", bytes]]:
        first = run[0].offset
        handle.seek(first)
        blob = handle.read(run[-1].offset + run[-1].length - first)
        out = []
        for entry in run:
            data = blob[entry.offset - first:
                        entry.offset - first + entry.length]
            if len(data) != entry.length:
                raise TraceFormatError(
                    f"{self._name()}: indexed frame at {entry.offset}"
                    " runs past the end of the trace (stale index?)")
            if crc32(data) != entry.checksum:
                raise TraceFormatError(
                    f"{self._name()}: frame checksum mismatch at "
                    f"launch {entry.launch_index} (stale index or "
                    "corrupt trace)")
            out.append((entry, data))
        return out

    def frame_columns(self, entries: Sequence["index_mod.LaunchEntry"]
                      ) -> Iterator[Tuple["index_mod.LaunchEntry", bytes,
                                          Optional["FrameColumns"]]]:
        """Yield ``(entry, frame_bytes, columns)`` for *entries* in
        order, decoding each run of :meth:`frame_runs` in one
        :func:`decode_frame_run` pass.  ``columns`` is ``None`` for a
        frame the vector decoder declines (replay it in events mode)."""
        for run in self.frame_runs(entries):
            decoded = decode_frame_run([data for _, data in run])
            for (entry, data), frame in zip(run, decoded):
                yield entry, data, frame

    # ---------------------------------------------------------- summary

    def manifest(self) -> TraceManifest:
        """Read the footer without scanning events (uses the trailer)."""
        handle = self._open()
        owns = self._fileobj is None
        try:
            version = self._check_header(handle)
            handle.seek(0, io.SEEK_END)
            size = handle.tell()
            if size < len(MAGIC) + 1 + TRAILER_SIZE:
                raise TraceFormatError(
                    f"{self._name()}: truncated trace (no footer — "
                    "torn write?)")
            handle.seek(size - TRAILER_SIZE)
            trailer = handle.read(TRAILER_SIZE)
            if trailer[4:] != TRAILER_MAGIC:
                raise TraceFormatError(
                    f"{self._name()}: missing footer trailer (torn "
                    "write?)")
            footer_len = int.from_bytes(trailer[:4], "little")
            footer_at = size - TRAILER_SIZE - footer_len
            if footer_len > size or footer_at < len(MAGIC) + 1:
                raise TraceFormatError(
                    f"{self._name()}: implausible footer length "
                    f"{footer_len} (corrupt trace)")
            handle.seek(footer_at)
            return decode_footer(handle.read(footer_len), version)
        finally:
            if owns:
                handle.close()


def _parse_footer_block(footer: bytes, version: int,
                        name: str) -> TraceManifest:
    """Parse ``footer body + trailer`` bytes read off the event stream."""
    if len(footer) < TRAILER_SIZE:
        raise TraceFormatError(f"{name}: truncated footer (torn write?)")
    trailer = footer[-TRAILER_SIZE:]
    if trailer[4:] != TRAILER_MAGIC:
        raise TraceFormatError(f"{name}: missing footer trailer "
                               "(torn write?)")
    footer_len = int.from_bytes(trailer[:4], "little")
    body = footer[:-TRAILER_SIZE]
    if footer_len != len(body):
        raise TraceFormatError(f"{name}: footer length mismatch "
                               "(corrupt trace)")
    return decode_footer(body, version)


# ---------------------------------------------------------------------
# columnar frame decode: one launch frame -> int64 ndarray columns
# ---------------------------------------------------------------------

#: longest varint the vectorized decoder accepts: 9 bytes carry 63
#: payload bits, so every decoded value fits int64 without overflow.
#: Longer (still wire-legal) varints punt to the scalar reference.
_VECTOR_VARINT_MAX = 9

#: ceiling on the summed |delta| of a decode run's delta chains: below
#: it no partial sum can reach 2**63, so the int64 cumsum is exact (the
#: float64 sum's relative error is far inside the 2x margin)
_ADDR_SAFE_LIMIT = float(2 ** 62)

#: byte budget of one batched decode run: consecutive frames are read
#: and decoded together until the next one would pass it (a larger
#: frame is a run of its own), so the run's token arrays stay a few MiB
#: however long the trace is
RUN_BYTES = 256 << 10


def _varint_values(buf: np.ndarray
                   ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Every varint in the byte array *buf* as one int64 ndarray, with
    the index of each varint's last byte.

    The vectorized core of the columnar decoder: terminator bytes
    (``< 0x80``) segment the stream, and one masked shift-accumulate
    per varint-length step assembles all values at once.  Returns
    ``None`` when the stream needs the scalar reference decoder — a
    truncated trailing varint (the scalar path raises the canonical
    error) or a varint longer than 9 bytes (could overflow int64).
    """
    if buf.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if buf[-1] >= 0x80:
        return None
    ends = np.flatnonzero(buf < 0x80)
    lengths = np.diff(ends, prepend=-1)
    max_len = int(lengths.max())
    if max_len > _VECTOR_VARINT_MAX:
        return None
    starts = ends - lengths + 1
    payload = (buf & 0x7F).astype(np.int64)
    values = payload[starts]
    for k in range(1, max_len):
        more = lengths > k
        values[more] |= payload[starts[more] + k] << (7 * k)
    return values, ends


def _record_starts(tok: np.ndarray) -> Optional[np.ndarray]:
    """Start position of every record in the flat token stream *tok*.

    Record lengths are data-dependent (MEM records embed a line count),
    so the boundaries form a linked list ``i -> i + len(record at i)``
    over the tokens that could be tags.  Pointer doubling walks it in
    O(log n) array passes instead of one Python step per record.
    Returns ``None`` on any structural anomaly — unknown tag, nested
    launch, a record overrunning the stream — so the scalar walk can
    raise its canonical error.
    """
    n = int(tok.size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    cand = np.flatnonzero((tok >= TAG_KEND) & (tok <= TAG_BRANCH))
    m = int(cand.size)
    if m == 0 or cand[0] != 0:
        return None               # the stream must open with a tag
    kinds = tok[cand]
    step = np.full(m, 5, dtype=np.int64)
    step[kinds == TAG_KEND] = 2
    mem = np.flatnonzero(kinds == TAG_MEM)
    counted = mem[cand[mem] + 5 < n]
    counts = tok[cand[counted] + 5]
    step[mem] = n + 1             # a MEM record cut off before its count
    sane = counts <= n            # larger can never fit; avoids overflow
    step[counted[sane]] = 6 + counts[sane]
    targets = np.minimum(cand + step, n + 1)
    # candidate ordinal of every position: m is the clean end, m + 1
    # an anomaly (a record ending on a non-tag or past the stream)
    ordinal = np.full(n + 2, m + 1, dtype=np.int64)
    ordinal[cand] = np.arange(m, dtype=np.int64)
    ordinal[n] = m
    jump = np.empty(m + 2, dtype=np.int64)
    jump[:m] = ordinal[targets]
    jump[m] = m                   # clean end: absorbing
    jump[m + 1] = m + 1           # anomaly: absorbing
    starts = np.zeros(1, dtype=np.int64)
    reached = 1
    while reached <= m:
        starts = np.concatenate([starts, jump[starts]])
        jump = jump[jump]
        reached *= 2
    seen = np.zeros(m + 2, dtype=bool)
    seen[starts] = True
    if not seen[m]:               # walk hit a bad tag or fell off
        return None
    return cand[seen[:m]]


def _segmented_cumsum(raw: np.ndarray,
                      bounds: np.ndarray) -> Optional[np.ndarray]:
    """Undo zigzag and the delta chains in a few array ops.

    ``raw[bounds[i]:bounds[i + 1]]`` is one chain restarting from 0 (a
    frame: the codec resets its delta state at every launch).  Returns
    ``None`` when a reconstructed value might not fit int64.
    """
    deltas = (raw >> 1) ^ -(raw & 1)
    if not deltas.size:
        return deltas
    if float(np.abs(deltas.astype(np.float64)).sum()) >= _ADDR_SAFE_LIMIT:
        return None
    total = np.cumsum(deltas)
    if len(bounds) == 2:
        return total
    base = np.concatenate(([0], total))[bounds[:-1]]
    return total - np.repeat(base, bounds[1:] - bounds[:-1])


#: which per-frame edge list slices each :class:`FrameColumns` column:
#: 0 records, 1 KEND, 2 INSTR, 3 MEM, 4 memory lines, 5 BRANCH
_COLUMN_GROUPS = (0, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 5, 5, 5, 5)


def _columns_run(tok: np.ndarray, bounds: np.ndarray) -> Optional[list]:
    """The vectorized column extraction for a run of frames.

    *tok* holds the record tokens of consecutive frames back to back;
    frame *i* owns ``tok[bounds[i]:bounds[i + 1]]``.  One record walk
    and one segmented cumsum per delta chain cover the whole run, and
    each frame's columns are slices of the run-wide arrays.  Returns
    one column tuple per frame, or ``None`` to punt to the scalar
    reference: a structural anomaly (including a record that crosses a
    frame edge) or an int64-overflow risk.
    """
    n = int(tok.size)
    rec = _record_starts(tok)
    if rec is None:
        return None
    rec_bounds = np.searchsorted(rec, bounds)
    if not np.array_equal(np.append(rec, n)[rec_bounds], bounds):
        return None               # a record runs across a frame edge
    tags = tok[rec]
    instr_at = rec[tags == TAG_INSTR]
    mem_at = rec[tags == TAG_MEM]
    branch_at = rec[tags == TAG_BRANCH]
    kend_at = rec[tags == TAG_KEND]
    has_addr = tags != TAG_KEND
    addr_at = rec[has_addr]
    addrs = _segmented_cumsum(tok[addr_at + 1],
                              np.searchsorted(addr_at, bounds))
    if addrs is None:
        return None
    addr_tags = tags[has_addr]
    mem_bounds = np.searchsorted(mem_at, bounds)
    nlines = tok[mem_at + 5]
    cum = np.concatenate(([0], np.cumsum(nlines)))
    line_bounds = cum[mem_bounds]
    total = int(cum[-1])
    flat = (np.repeat(mem_at + 6 - cum[:-1], nlines)
            + np.arange(total, dtype=np.int64))
    lines = _segmented_cumsum(tok[flat], line_bounds)
    if lines is None:
        return None
    columns = (tags, tok[kend_at + 1],
               addrs[addr_tags == TAG_INSTR], tok[instr_at + 2],
               tok[instr_at + 3], tok[instr_at + 4],
               addrs[addr_tags == TAG_MEM], tok[mem_at + 2],
               tok[mem_at + 3], tok[mem_at + 4], nlines, lines,
               addrs[addr_tags == TAG_BRANCH], tok[branch_at + 2],
               tok[branch_at + 3], tok[branch_at + 4])
    edges = [edge.tolist() for edge in (
        rec_bounds, np.searchsorted(kend_at, bounds),
        np.searchsorted(instr_at, bounds), mem_bounds, line_bounds,
        np.searchsorted(branch_at, bounds))]
    return [tuple(column[edges[group][i]:edges[group][i + 1]]
                  for column, group in zip(columns, _COLUMN_GROUPS))
            for i in range(len(bounds) - 1)]


def _columns_scalar(tokens: List[int]) -> Optional[tuple]:
    """The bit-exact reference walk over a frame's flat token list.

    Mirrors the event decoder record by record and raises the canonical
    :class:`TraceFormatError` where the stream is structurally bad.
    Returns ``None`` when a decoded value exceeds int64 — the caller
    then replays the frame in events mode, which handles
    arbitrary-precision values.
    """
    record_tags: List[int] = []
    kend_counts: List[int] = []
    instr_addr: List[int] = []
    instr_opcodes: List[int] = []
    instr_lanes: List[int] = []
    instr_widths: List[int] = []
    mem_addr: List[int] = []
    mem_flags: List[int] = []
    mem_width: List[int] = []
    mem_active: List[int] = []
    mem_nlines: List[int] = []
    mem_lines: List[int] = []
    branch_addr: List[int] = []
    branch_active: List[int] = []
    branch_taken: List[int] = []
    branch_not_taken: List[int] = []
    prev_addr = 0
    prev_line = 0
    i = 0
    n = len(tokens)
    while i < n:
        tag = tokens[i]
        if tag == TAG_INSTR:
            if i + 5 > n:
                raise TraceFormatError("truncated record (corrupt trace)")
            prev_addr += unzigzag(tokens[i + 1])
            instr_addr.append(prev_addr)
            instr_opcodes.append(tokens[i + 2])
            instr_lanes.append(tokens[i + 3])
            instr_widths.append(tokens[i + 4])
            i += 5
        elif tag == TAG_MEM:
            if i + 6 > n:
                raise TraceFormatError("truncated record (corrupt trace)")
            prev_addr += unzigzag(tokens[i + 1])
            mem_addr.append(prev_addr)
            mem_flags.append(tokens[i + 2])
            mem_width.append(tokens[i + 3])
            mem_active.append(tokens[i + 4])
            count = tokens[i + 5]
            mem_nlines.append(count)
            i += 6
            if i + count > n:
                raise TraceFormatError("truncated record (corrupt trace)")
            for raw in tokens[i:i + count]:
                prev_line += unzigzag(raw)
                mem_lines.append(prev_line)
            i += count
        elif tag == TAG_BRANCH:
            if i + 5 > n:
                raise TraceFormatError("truncated record (corrupt trace)")
            prev_addr += unzigzag(tokens[i + 1])
            branch_addr.append(prev_addr)
            branch_active.append(tokens[i + 2])
            branch_taken.append(tokens[i + 3])
            branch_not_taken.append(tokens[i + 4])
            i += 5
        elif tag == TAG_KEND:
            if i + 2 > n:
                raise TraceFormatError("truncated record (corrupt trace)")
            kend_counts.append(tokens[i + 1])
            i += 2
        elif tag == TAG_LAUNCH:
            raise TraceFormatError(
                "nested launch record inside a frame slice")
        else:
            raise TraceFormatError(f"unknown event tag {tag}")
        record_tags.append(tag)
    try:
        return tuple(np.asarray(column, dtype=np.int64)
                     for column in (
                         record_tags, kend_counts,
                         instr_addr, instr_opcodes, instr_lanes,
                         instr_widths,
                         mem_addr, mem_flags, mem_width, mem_active,
                         mem_nlines, mem_lines,
                         branch_addr, branch_active, branch_taken,
                         branch_not_taken))
    except OverflowError:
        return None


class FrameColumns:
    """One ``LAUNCH .. KEND`` frame decoded into int64 ndarray columns.

    The replay stack's batch currency: built by
    :func:`decode_frame_columns` in a few whole-frame array passes (no
    per-event objects, no per-varint calls) and consumed by the
    columnar analyses, the sharded replay workers, and the indexed
    query path.  ``record_tags`` preserves the frame's full record
    order; the per-kind columns are in stream order, so kind-local
    index *k* is the *k*-th record of that kind.
    """

    __slots__ = ("launch", "events", "warp_instructions",
                 "record_tags", "kend_counts",
                 "instr_addr", "instr_opcodes", "instr_lanes",
                 "instr_widths",
                 "mem_addr", "mem_flags", "mem_width", "mem_active",
                 "mem_nlines", "mem_lines",
                 "branch_addr", "branch_active", "branch_taken",
                 "branch_not_taken")

    def __init__(self, launch, columns: tuple):
        (self.record_tags, self.kend_counts,
         self.instr_addr, self.instr_opcodes, self.instr_lanes,
         self.instr_widths,
         self.mem_addr, self.mem_flags, self.mem_width, self.mem_active,
         self.mem_nlines, self.mem_lines,
         self.branch_addr, self.branch_active, self.branch_taken,
         self.branch_not_taken) = columns
        self.launch = launch
        self.events = int(self.record_tags.size) + 1
        self.warp_instructions = (int(self.kend_counts[-1])
                                  if self.kend_counts.size else 0)

    @classmethod
    def from_frame(cls, data: bytes) -> Optional["FrameColumns"]:
        return decode_frame_columns(data)

    @classmethod
    def from_events(cls, launch, events: Sequence[object]
                    ) -> "FrameColumns":
        """The columns of *events* (the records after *launch*, which
        may be ``None``), for the event-fed consumers.  A column whose
        values exceed int64 (a frame the vector decoder declines) is
        kept as an object array of Python ints."""
        tag_of = {InstrEvent: TAG_INSTR, MemEvent: TAG_MEM,
                  BranchEvent: TAG_BRANCH, KernelEndEvent: TAG_KEND}
        tags = [tag_of[type(event)] for event in events]
        instrs = [e for e in events if type(e) is InstrEvent]
        mems = [e for e in events if type(e) is MemEvent]
        branches = [e for e in events if type(e) is BranchEvent]

        def column(values) -> np.ndarray:
            try:
                return np.array(values, dtype=np.int64)
            except OverflowError:
                return np.array(values, dtype=object)

        return cls(launch, tuple(column(values) for values in (
            tags,
            [e.warp_instructions for e in events
             if type(e) is KernelEndEvent],
            [e.ins_addr for e in instrs], [e.opcode for e in instrs],
            [e.lanes for e in instrs], [e.width for e in instrs],
            [e.ins_addr for e in mems], [e.flags for e in mems],
            [e.width for e in mems], [e.active_lanes for e in mems],
            [len(e.line_addresses) for e in mems],
            [line for e in mems for line in e.line_addresses],
            [e.ins_addr for e in branches], [e.active for e in branches],
            [e.taken for e in branches],
            [e.not_taken for e in branches])))


def _launch_header(data: bytes) -> Tuple[object, int]:
    """A frame slice's launch event and the offset just past it."""
    tag, pos = decode_varint(data, 0)
    if tag != TAG_LAUNCH:
        raise TraceFormatError(
            "frame slice does not start at a launch record")
    return decode_event(tag, data, pos, EncoderState())


def _decode_run(frames: Sequence[bytes]) -> Optional[List[FrameColumns]]:
    """The vector path over a run; ``None`` when any frame in it needs
    the scalar reference (so the caller can go frame by frame and keep
    the frame-by-frame error order)."""
    try:
        headers = [_launch_header(data) for data in frames]
    except TraceFormatError:
        return None
    body = b"".join(data[pos:] for data, (_, pos) in zip(frames, headers))
    sizes = np.array([len(data) - pos
                      for data, (_, pos) in zip(frames, headers)],
                     dtype=np.int64)
    byte_bounds = np.concatenate(([0], np.cumsum(sizes)))
    buf = np.frombuffer(body, dtype=np.uint8)
    decoded = _varint_values(buf)
    if decoded is None:
        return None
    tok, ends = decoded
    # a frame whose last varint is unterminated would borrow bytes from
    # the next frame: only a terminator may end a non-empty frame
    closing = byte_bounds[1:][byte_bounds[1:] > byte_bounds[:-1]] - 1
    if (buf[closing] >= 0x80).any():
        return None
    columns = _columns_run(tok, np.searchsorted(ends, byte_bounds))
    if columns is None:
        return None
    return [FrameColumns(launch, cols)
            for (launch, _), cols in zip(headers, columns)]


def decode_frame_run(frames: Sequence[bytes]) -> List[Optional[FrameColumns]]:
    """Decode consecutive frame slices in one vectorized pass.

    One varint pass and one record walk cover the whole run; the
    address and line delta chains restart at every frame through a
    segmented cumsum, and each frame's :class:`FrameColumns` holds
    slices of the run-wide arrays.  Element *i* of the result is
    exactly ``decode_frame_columns(frames[i])``: a run the vector path
    declines is decoded frame by frame, so a frame that needs the
    scalar reference gets its ``None`` or raises its canonical
    :class:`TraceFormatError` just as it would alone.
    """
    decoded = _decode_run(frames)
    if decoded is not None:
        return decoded
    if len(frames) != 1:
        return [decode_frame_columns(data) for data in frames]
    launch, pos = _launch_header(frames[0])
    columns = _columns_scalar(decode_varint_stream(frames[0], pos))
    return [None if columns is None else FrameColumns(launch, columns)]


def decode_frame_columns(data: bytes) -> Optional[FrameColumns]:
    """Decode one frame slice into :class:`FrameColumns`.

    The one-frame case of :func:`decode_frame_run`: the vectorized
    pipeline handles well-formed frames in a few array passes; any
    anomaly (over-long varints, truncation, bad tags) falls back to the
    scalar reference walk, which raises the canonical
    :class:`TraceFormatError` for corrupt input — so the error
    behaviour is bit-identical to the streaming decoder.  Returns
    ``None`` only when a decoded value exceeds int64; callers then
    replay the frame in events mode (arbitrary-precision Python ints).
    """
    return decode_frame_run([data])[0]
