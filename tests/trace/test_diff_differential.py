"""Differential suite: the columnar trace diff equals the event walk.

``diff_traces`` answers from columns when both traces carry a bound,
shardable ``.rpti`` sidecar, and walks the two event streams otherwise.
Every case here diffs the same pair twice: once with the sidecars in
place (the event walk is patched to fail, so the columnar path must
answer) and once with the sidecars deleted (which forces the walk).
Both must return equal :class:`TraceDiff` fields and the same
``report()`` text.  Covered: every ordered pair of a small captured
corpus (one many-launch trace plus perturbed copies of it), Hypothesis
perturbations of synthetic traces (one changed field, inserted or
dropped events, differing launch headers, changed memory-line counts,
``max_deltas`` cut-offs) at several window and decode-run sizes, and
a frame the vector decoder declines.  CI runs this file under a
no-skip gate.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.trace.diff as diff_mod
import repro.trace.io as io_mod
from repro.trace import TraceReader, TraceWriter, capture_workload, \
    diff_traces
from repro.trace.format import (
    BranchEvent,
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
)
from repro.trace.index import index_path_for, sidecar_index
from repro.trace.io import decode_frame_columns

#: captured corpus: one-launch, few-launch and many-launch (95) traces
WORKLOADS = ("rodinia/nn", "rodinia/pathfinder", "rodinia/nw")
MAX_DELTAS = (1, 50, 100_000)


def _write(path, events) -> None:
    with TraceWriter(path) as writer:
        writer.write_batch(list(events))


def _walk_copy(path, directory) -> str:
    """A copy of *path* and its sidecar, with the sidecar then deleted:
    the copy diffs by walking."""
    copy = os.path.join(directory, os.path.basename(path))
    if not os.path.exists(copy):
        shutil.copy(path, copy)
        shutil.copy(index_path_for(path), index_path_for(copy))
        os.remove(index_path_for(copy))
    return copy


def _no_walk(*args):
    raise AssertionError("columnar diff fell back to the event walk")


def assert_paths_agree(a, b, walk_dir, max_deltas=100_000):
    for path in (a, b):
        index = sidecar_index(path)
        assert index is not None and index.shardable, path
    with mock.patch.object(diff_mod, "_diff_events", _no_walk):
        columnar = diff_traces(a, b, max_deltas=max_deltas)
    walk_a = _walk_copy(a, walk_dir)
    walk_b = _walk_copy(b, walk_dir) if b != a else walk_a
    walked = diff_traces(walk_a, walk_b, max_deltas=max_deltas)
    assert columnar == walked
    assert columnar.report() == walked.report()
    return columnar


# ------------------------------------------------------- captured corpus

def _perturbed(source, path, edit) -> str:
    events = list(TraceReader(source).events())
    _write(path, edit(events))
    return path


def _launch_positions(events):
    return [i for i, event in enumerate(events)
            if isinstance(event, LaunchEvent)]


def _drop_instr_in_launch(n):
    """Drop the first instruction event of launch frame *n*."""
    def edit(events):
        start = _launch_positions(events)[n]
        at = next(i for i in range(start, len(events))
                  if isinstance(events[i], InstrEvent))
        return events[:at] + events[at + 1:]
    return edit


def _shift_line_in_launch(n):
    """Move one line address of the first memory event of frame *n*."""
    def edit(events):
        start = _launch_positions(events)[n]
        at = next(i for i in range(start, len(events))
                  if isinstance(events[i], MemEvent)
                  and events[i].line_addresses)
        mem = events[at]
        lines = (mem.line_addresses[0] + 32,) + mem.line_addresses[1:]
        return (events[:at]
                + [dataclasses.replace(mem, line_addresses=lines)]
                + events[at + 1:])
    return edit


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("diffcorpus")
    paths = []
    for workload in WORKLOADS:
        path = str(root / (workload.replace("/", "_") + ".rptrace"))
        _, verified, _ = capture_workload(workload, path)
        assert verified
        paths.append(path)
    many = paths[-1]
    assert sidecar_index(many).launches > 32
    paths.append(_perturbed(many, str(root / "nw_dropped.rptrace"),
                            _drop_instr_in_launch(40)))
    paths.append(_perturbed(many, str(root / "nw_line.rptrace"),
                            _shift_line_in_launch(60)))
    return paths


@pytest.fixture(scope="module")
def walk_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("walk"))


@pytest.mark.parametrize("max_deltas", MAX_DELTAS)
def test_corpus_pairs_agree(corpus, walk_dir, max_deltas):
    diffs = [assert_paths_agree(a, b, walk_dir, max_deltas)
             for a in corpus for b in corpus]
    identical = sum(diff.identical for diff in diffs)
    assert identical == len(corpus)
    # the perturbed copies diverge mid-trace, inside the many-launch run
    assert any(diff.first_divergence and diff.kernel_frame[1] > 0
               for diff in diffs)


def test_corpus_pairs_agree_across_windows(corpus, walk_dir):
    """Windows far smaller than a frame and decode runs of a frame or
    two: every window and run edge lands somewhere inside the traces."""
    with mock.patch.object(diff_mod, "WINDOW_SLOTS", 97), \
            mock.patch.object(io_mod, "RUN_BYTES", 600):
        for a in corpus[2:]:
            for b in corpus[2:]:
                assert_paths_agree(a, b, walk_dir)


# ----------------------------------------------- hypothesis perturbations

ADDR_MAX = 2 ** 40
lane = st.integers(0, 32)
addr = st.integers(0, ADDR_MAX)

records = st.one_of(
    st.builds(InstrEvent, ins_addr=addr, opcode=st.integers(0, 200),
              lanes=lane, width=st.integers(0, 16)),
    st.builds(MemEvent, ins_addr=addr, flags=st.integers(0, 7),
              width=st.integers(0, 16), active_lanes=st.integers(1, 32),
              line_addresses=st.lists(addr, max_size=6).map(tuple)),
    st.builds(BranchEvent, ins_addr=addr, active=lane, taken=lane,
              not_taken=lane),
)
launches = st.builds(
    LaunchEvent, kernel=st.sampled_from(["k", "kk", "other"]),
    grid=st.tuples(st.integers(1, 3), st.just(1), st.just(1)),
    block=st.tuples(st.sampled_from([32, 64]), st.just(1), st.just(1)),
    launch_index=st.integers(0, 3))
frames = st.lists(st.tuples(launches, st.lists(records, max_size=12)),
                  min_size=1, max_size=5)

PERTURBATIONS = ("field", "insert", "drop", "launch", "lines", "frame")


def _events(trace):
    out = []
    for launch, body in trace:
        out.append(launch)
        out.extend(body)
        out.append(KernelEndEvent(warp_instructions=len(body)))
    return out


def _bump(value, data):
    return value + data.draw(st.integers(1, 5))


def _perturb(trace, data):
    trace = [(launch, list(body)) for launch, body in trace]
    kind = data.draw(st.sampled_from(PERTURBATIONS))
    f = data.draw(st.integers(0, len(trace) - 1))
    launch, body = trace[f]
    if kind == "launch":
        name = data.draw(st.sampled_from(
            ["kernel", "grid", "block", "launch_index"]))
        if name == "kernel":
            launch = dataclasses.replace(launch, kernel=launch.kernel + "x")
        elif name == "launch_index":
            launch = dataclasses.replace(
                launch, launch_index=_bump(launch.launch_index, data))
        else:
            dims = getattr(launch, name)
            launch = dataclasses.replace(
                launch, **{name: (_bump(dims[0], data),) + dims[1:]})
    elif kind == "insert":
        body.insert(data.draw(st.integers(0, len(body))),
                    data.draw(records))
    elif kind == "drop" and body:
        del body[data.draw(st.integers(0, len(body) - 1))]
    elif kind == "field" and body:
        at = data.draw(st.integers(0, len(body) - 1))
        event = body[at]
        names = [field.name for field in dataclasses.fields(event)
                 if field.name != "line_addresses"]
        name = data.draw(st.sampled_from(names))
        body[at] = dataclasses.replace(
            event, **{name: _bump(getattr(event, name), data)})
    elif kind == "lines":
        mems = [i for i, event in enumerate(body)
                if isinstance(event, MemEvent)]
        if mems:
            at = data.draw(st.sampled_from(mems))
            lines = body[at].line_addresses
            if lines and data.draw(st.booleans()):
                lines = lines[:-1]
            else:
                lines = lines + (data.draw(addr),)
            body[at] = dataclasses.replace(body[at], line_addresses=lines)
    elif kind == "frame":
        if len(trace) > 1 and data.draw(st.booleans()):
            del trace[f]
            return trace
        trace.insert(f, (launch, list(body)))
    trace[f] = (launch, body)
    return trace


@given(frames, st.data())
@settings(max_examples=150, deadline=None)
def test_perturbed_traces_agree(trace, data):
    other = trace
    for _ in range(data.draw(st.integers(1, 3))):
        other = _perturb(other, data)
    max_deltas = data.draw(st.sampled_from([1, 2, 3, 5, 100_000]))
    window = data.draw(st.sampled_from([1, 3, 16, diff_mod.WINDOW_SLOTS]))
    run_bytes = data.draw(st.sampled_from([1, 64, io_mod.RUN_BYTES]))
    with tempfile.TemporaryDirectory() as directory:
        a = os.path.join(directory, "a.rptrace")
        b = os.path.join(directory, "b.rptrace")
        _write(a, _events(trace))
        _write(b, _events(other))
        walk_dir = os.path.join(directory, "walk")
        os.mkdir(walk_dir)
        with mock.patch.object(diff_mod, "WINDOW_SLOTS", window), \
                mock.patch.object(io_mod, "RUN_BYTES", run_bytes):
            assert_paths_agree(a, b, walk_dir, max_deltas)
            assert_paths_agree(b, a, walk_dir, max_deltas)


# ----------------------------------------------------- decoder declines

def test_declined_frame_falls_back_to_the_walk(tmp_path):
    """A frame whose values exceed int64 is declined by the vector
    decoder; the diff then walks the events and still agrees with the
    sidecar-free walk."""
    launch = LaunchEvent(kernel="k", grid=(1, 1, 1), block=(32, 1, 1),
                         launch_index=0)
    huge = [launch, InstrEvent(ins_addr=2 ** 64 - 1, opcode=1, lanes=32,
                               width=0),
            KernelEndEvent(warp_instructions=1)]
    plain = [launch, InstrEvent(ins_addr=8, opcode=1, lanes=32, width=0),
             KernelEndEvent(warp_instructions=1)]
    a, b = str(tmp_path / "huge.rptrace"), str(tmp_path / "plain.rptrace")
    _write(a, huge)
    _write(b, plain)
    index = sidecar_index(a)
    assert index is not None and index.shardable
    (entry,) = index.entries
    assert decode_frame_columns(TraceReader(a).read_frame(entry)) is None
    walk_dir = str(tmp_path / "walk")
    os.mkdir(walk_dir)
    diff = diff_traces(a, b)
    walked = diff_traces(_walk_copy(a, walk_dir), _walk_copy(b, walk_dir))
    assert diff == walked
    assert diff.report() == walked.report()
    assert diff.first_divergence == 1
    assert diff.divergent_pair[0].ins_addr == 2 ** 64 - 1
