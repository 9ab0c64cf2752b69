#!/usr/bin/env python
"""Trace read-side throughput: frame decode and trace diff.

Captures a six-kernel corpus (the pipeline benchmark's: one-launch
traces, a seven-launch one, and ``rodinia/nw`` with 95 launches), then
reports best-of-N figures:

* **decode**, per trace: events/second of decoding every frame one at
  a time with :func:`decode_frame_columns` (frame bytes read up front),
  and of reading and decoding the frames in batched runs with
  :meth:`TraceReader.frame_columns`;
* **diff**: events/second (``events_a + events_b`` summed over all 36
  ordered pairs, over the time the 36 diffs take) of
  :func:`diff_traces` on the columnar path, and on the event walk it
  falls back to (copies of the traces without their sidecars).

Nothing is gated; the output is one JSON object on stdout.

Usage::

    PYTHONPATH=src python benchmarks/perf/trace_read_bench.py
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import time

KERNELS = ["rodinia/pathfinder", "rodinia/nw", "rodinia/hotspot",
           "parboil/spmv(small)", "parboil/sgemm(small)", "rodinia/nn"]


def best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def capture_corpus(directory: str) -> dict:
    from repro.trace.capture import capture_workload

    corpus = {}
    for kernel in KERNELS:
        name = kernel.replace("/", "_").replace("(", "_").rstrip(")")
        path = os.path.join(directory, name + ".rptrace")
        _, verified, _ = capture_workload(kernel, path)
        if not verified:
            raise SystemExit(f"capture of {kernel} did not verify")
        corpus[kernel] = path
    return corpus


def measure_decode(path: str, repeats: int) -> dict:
    from repro.trace.index import sidecar_index
    from repro.trace.io import TraceReader, decode_frame_columns

    index = sidecar_index(path)
    reader = TraceReader(path)
    frames = [data for _, data in reader.frames(index)]
    events = index.trace_total_events
    one = best_of(repeats, lambda: [decode_frame_columns(data)
                                    for data in frames])
    runs = best_of(repeats,
                   lambda: list(reader.frame_columns(index.entries)))
    return {"launches": index.launches, "events": events,
            "frame_by_frame_events_per_sec": round(events / one),
            "batched_events_per_sec": round(events / runs)}


def measure_diff(paths, repeats: int) -> float:
    from repro.trace.diff import diff_traces

    events = sum(diff.events_a + diff.events_b
                 for diff in (diff_traces(a, b) for a in paths
                              for b in paths))
    seconds = best_of(repeats, lambda: [diff_traces(a, b) for a in paths
                                        for b in paths])
    return round(events / seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as directory:
        corpus = capture_corpus(directory)
        walk_dir = os.path.join(directory, "walk")
        os.mkdir(walk_dir)
        walk_paths = []
        for path in corpus.values():
            copy = os.path.join(walk_dir, os.path.basename(path))
            shutil.copy(path, copy)       # the trace alone, no sidecar
            walk_paths.append(copy)
        results = {
            "decode": {kernel: measure_decode(path, args.repeats)
                       for kernel, path in corpus.items()},
            "diff": {
                "columnar_events_per_sec": measure_diff(
                    list(corpus.values()), args.repeats),
                "walk_events_per_sec": measure_diff(walk_paths,
                                                    args.repeats),
            },
        }
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
