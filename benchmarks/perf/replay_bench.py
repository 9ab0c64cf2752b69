#!/usr/bin/env python
"""Replay, decode, and indexed-seek throughput, in BENCH_replay.json.

Three measurements on one deterministic multi-launch corpus:

* **decode** — events/second of the vectorized frame decoder alone
  (:func:`decode_frame_columns` over every frame, no analyses), the
  ceiling any replay configuration is chasing.
* **replay** — events/second of the event-at-a-time streaming replay
  versus the serial columnar fast path versus :func:`replay_sharded`
  at 4 shards (frame-partitioned, columnar decode in each worker,
  merged in launch order).  The shard pool comes from
  :func:`task_pool` and is warmed before the timed window, so the
  number records steady-state replay cost, not process startup.
* **seek** — wall time of a last-launch ``trace query`` answered via
  the ``.rpti`` sidecar (O(1) seek to the final frame) versus the same
  query forced down the full-scan path.
* **timing** — informational, not gated: events/second of a serial
  replay of the ``timing`` analysis including the schedule, and the
  wall time of one warp-filtered ``trace query`` (``--launches LAST
  --warp 1``).

The first three are gated as ratios measured on one machine in one run
(columnar vs streaming, sharded vs streaming, indexed vs scan), so the
CI gate (``--check``) is machine-independent: the committed ratios must
clear the acceptance floors — >= 3x serial columnar replay, >= 2x
sharded replay, >= 10x indexed seek — and a fresh measurement must stay
within tolerance of the committed ones.

Usage::

    PYTHONPATH=src python benchmarks/perf/replay_bench.py
    PYTHONPATH=src python benchmarks/perf/replay_bench.py --check
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time

SCHEMA = "bench_replay/v2"
DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "BENCH_replay.json")

#: corpus shape: enough launches to shard meaningfully, frames fat
#: enough that the columnar decode (not per-task overhead) dominates
CORPUS_LAUNCHES = 32
CORPUS_BODY = 1000

#: the acceptance floors the committed file must clear
COLUMNAR_FLOOR = 3.0
SHARDED_FLOOR = 2.0
SEEK_FLOOR = 10.0

ANALYSES = ["cachesim", "divergence", "memdiv", "opcodes"]


def build_corpus(path: str, launches: int = CORPUS_LAUNCHES,
                 body: int = CORPUS_BODY) -> int:
    """Write a deterministic framed trace: *launches* kernel frames of
    *body* instructions with a load/store every third and a branch
    every eighth.  Returns the event count."""
    from repro.isa.opcodes import Opcode
    from repro.trace.format import (BranchEvent, InstrEvent,
                                    KernelEndEvent, LaunchEvent,
                                    MemEvent, MEM_FLAG_LOAD,
                                    MEM_FLAG_STORE)
    from repro.trace.io import TraceWriter

    opcodes = [op.value for op in Opcode]
    with TraceWriter(path) as writer:
        for n in range(launches):
            writer.write(LaunchEvent(kernel="bench", grid=(4, 1, 1),
                                     block=(128, 1, 1), launch_index=n))
            for i in range(body):
                addr = 0x1000 + 8 * i
                writer.write(InstrEvent(
                    ins_addr=addr, opcode=opcodes[i % len(opcodes)],
                    lanes=32, width=4))
                if i % 3 == 0:
                    writer.write(MemEvent(
                        ins_addr=addr,
                        flags=MEM_FLAG_LOAD if i % 2 else MEM_FLAG_STORE,
                        width=4, active_lanes=32,
                        line_addresses=tuple(
                            0x10000000 + 32 * ((n * body + i + j) % 512)
                            for j in range(4))))
                if i % 8 == 0:
                    writer.write(BranchEvent(
                        ins_addr=addr, active=32, taken=10 + i % 22,
                        not_taken=22 - i % 22))
            writer.write(KernelEndEvent(warp_instructions=body))
    return writer.close().total_events


def measure_decode(path: str, events: int, repeats: int) -> dict:
    """Pure decoder throughput: columns out of every frame, nothing
    consuming them."""
    from repro.trace.index import ensure_index
    from repro.trace.io import TraceReader, decode_frame_columns

    index = ensure_index(path)
    reader = TraceReader(path)
    frames = [data for _, data in reader.frames(index)]
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        decoded = 0
        for data in frames:
            frame = decode_frame_columns(data)
            decoded += frame.events
        best = min(best, time.perf_counter() - t0)
    if decoded != events:
        raise SystemExit(f"decode bench lost events: {decoded} decoded "
                         f"vs {events} written")
    return {
        "frames": len(frames),
        "decode_events_per_sec": round(events / best, 1),
    }


def measure_replay(path: str, events: int, shards: int,
                   repeats: int) -> dict:
    """Best-of-N events/second: streaming (events mode) vs the serial
    columnar fast path vs sharded columnar on a warm pool."""
    from repro.campaign.engine import task_pool
    from repro.trace.replay import make_analysis, replay, replay_sharded

    streaming = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        replay(path, [make_analysis(name) for name in ANALYSES],
               columnar=False)
        streaming = min(streaming, time.perf_counter() - t0)

    serial = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        replay(path, [make_analysis(name) for name in ANALYSES])
        serial = min(serial, time.perf_counter() - t0)

    sharded = float("inf")
    with task_pool(jobs=shards) as pool:
        replay_sharded(path, ANALYSES, pool=pool)     # warm the pool
        for _ in range(repeats):
            t0 = time.perf_counter()
            replay_sharded(path, ANALYSES, pool=pool)
            sharded = min(sharded, time.perf_counter() - t0)

    return {
        "shards": shards,
        "streaming_events_per_sec": round(events / streaming, 1),
        "serial_events_per_sec": round(events / serial, 1),
        "sharded_events_per_sec": round(events / sharded, 1),
        "columnar_speedup": round(streaming / serial, 2),
        "sharded_speedup": round(streaming / sharded, 2),
    }


def measure_seek(path: str, repeats: int) -> dict:
    """Last-launch query latency: indexed seek vs forced full scan."""
    from repro.trace.index import index_path_for, read_index
    from repro.trace.query import QueryFilter, run_query

    index = read_index(index_path_for(path))
    last = index.launches - 1
    filt = QueryFilter.parse(launches=f"{last}:")
    # an index that covers nothing forces run_query's scan fallback
    scan_only = dataclasses.replace(
        index, entries=(), stray_events=index.trace_total_events)

    def consume(idx):
        t0 = time.perf_counter()
        hits, stats = run_query(path, filt, index=idx)
        count = sum(1 for _ in hits)
        return time.perf_counter() - t0, count, stats

    indexed = scanned = float("inf")
    for _ in range(repeats):
        elapsed, hits_indexed, stats_indexed = consume(index)
        indexed = min(indexed, elapsed)
    for _ in range(repeats):
        elapsed, hits_scanned, stats_scanned = consume(scan_only)
        scanned = min(scanned, elapsed)
    if hits_indexed != hits_scanned:
        raise SystemExit(f"seek bench disagrees with itself: "
                         f"{hits_indexed} indexed vs "
                         f"{hits_scanned} scanned hits")

    return {
        "query": f"--launches {last}:",
        "hits": hits_indexed,
        "events_scanned_indexed": stats_indexed.events_scanned,
        "events_scanned_scan": stats_scanned.events_scanned,
        "indexed_ms": round(indexed * 1000, 3),
        "scan_ms": round(scanned * 1000, 3),
        "speedup": round(scanned / indexed, 1),
    }


def measure_timing(path: str, events: int, repeats: int) -> dict:
    """Best-of-N timing replay (segmentation, cache grading and the
    schedule) and warp-filtered query latency.  Recorded, not gated."""
    import repro.trace.timing  # noqa: F401  (registers "timing")
    from repro.trace.index import index_path_for, read_index
    from repro.trace.query import QueryFilter, run_query
    from repro.trace.replay import make_analysis, replay

    replayed = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        (analysis,) = replay(path, [make_analysis("timing")])
        analysis.result()
        replayed = min(replayed, time.perf_counter() - t0)

    last = read_index(index_path_for(path)).launches - 1
    filt = QueryFilter.parse(launches=str(last), warp=1)
    query = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        hits, _ = run_query(path, filt)
        count = sum(1 for _ in hits)
        query = min(query, time.perf_counter() - t0)

    return {
        "gated": False,
        "events_per_sec": round(events / replayed, 1),
        "warp_query": f"--launches {last} --warp 1",
        "warp_query_hits": count,
        "warp_query_ms": round(query * 1000, 3),
    }


def run_bench(shards: int, repeats: int) -> dict:
    from repro.trace.index import index_path_for

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.rptrace")
        events = build_corpus(path)
        decode = measure_decode(path, events, repeats)
        results = {
            "schema": SCHEMA,
            "corpus": {
                "launches": CORPUS_LAUNCHES,
                "body_instructions": CORPUS_BODY,
                "events": events,
                "trace_bytes": os.path.getsize(path),
                "index_bytes": os.path.getsize(index_path_for(path)),
            },
            "decode": decode,
            "replay": measure_replay(path, events, shards, repeats),
            "seek": measure_seek(path, repeats),
            "timing": measure_timing(path, events, repeats),
        }
    return results


#: (section, ratio key, floor) triples the committed file must clear
GATES = [
    ("replay", "columnar_speedup", COLUMNAR_FLOOR),
    ("replay", "sharded_speedup", SHARDED_FLOOR),
    ("seek", "speedup", SEEK_FLOOR),
]


def check(committed_path: str, shards: int, repeats: int,
          tolerance: float) -> int:
    """CI gate: the committed ratios must clear the acceptance floors,
    and a fresh measurement must stay within *tolerance* of them.
    Ratios compare two timings from the same run on the same machine,
    so machine speed cancels out."""
    with open(committed_path) as handle:
        committed = json.load(handle)
    failures = []

    if committed.get("schema") != SCHEMA:
        failures.append(f"committed schema {committed.get('schema')!r} "
                        f"is not {SCHEMA!r} — regenerate the file")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1

    for section, key, floor in GATES:
        ratio = committed[section][key]
        if ratio < floor:
            failures.append(f"committed {section}.{key} {ratio:.2f}x "
                            f"is below the {floor:.0f}x floor")

    measured = run_bench(shards, repeats)
    for section, key, floor in GATES:
        want = committed[section][key]
        got = measured[section][key]
        limit = max(want * (1.0 - tolerance), floor * (1.0 - tolerance))
        status = "ok" if got >= limit else "FAIL"
        print(f"{section}.{key}: committed {want:.2f}x, "
              f"measured {got:.2f}x, floor {limit:.2f}x ... {status}")
        if got < limit:
            failures.append(
                f"{section}.{key} regressed: measured {got:.2f}x "
                f"vs committed {want:.2f}x (tolerance {tolerance:.0%})")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="result file (default: repo root)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--check", action="store_true",
                        help="gate a fresh measurement against the "
                             "committed --output file instead of "
                             "rewriting it")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed relative slack in --check mode")
    args = parser.parse_args(argv)

    if args.check:
        return check(args.output, args.shards, args.repeats,
                     args.tolerance)

    results = run_bench(args.shards, args.repeats)
    decode = results["decode"]
    replay, seek = results["replay"], results["seek"]
    timing = results["timing"]
    print(f"decode: {decode['decode_events_per_sec']:,.0f} ev/s over "
          f"{decode['frames']} frames (no analyses)")
    print(f"replay: streaming {replay['streaming_events_per_sec']:,.0f} "
          f"ev/s, columnar {replay['serial_events_per_sec']:,.0f} ev/s "
          f"({replay['columnar_speedup']:.2f}x), "
          f"{args.shards} shards "
          f"{replay['sharded_events_per_sec']:,.0f} ev/s "
          f"({replay['sharded_speedup']:.2f}x)")
    print(f"seek:   indexed {seek['indexed_ms']:.2f} ms, "
          f"scan {seek['scan_ms']:.2f} ms ({seek['speedup']:.1f}x), "
          f"{seek['events_scanned_indexed']:,} of "
          f"{seek['events_scanned_scan']:,} events read")
    print(f"timing: {timing['events_per_sec']:,.0f} ev/s with the "
          f"schedule; warp query {timing['warp_query_ms']:.2f} ms "
          f"(informational)")
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
