#!/usr/bin/env python
"""Whole-workload executor throughput, recorded in BENCH_executor.json.

Measures warp-instructions per second of uninstrumented application
runs (compile excluded, launch + execute included).  Each measurement
is best-of-N over fresh ``Device``/workload instances so allocator and
cache state cannot leak between repetitions.

The script deliberately sticks to API that exists in every revision of
the repo (``make`` / ``ptxas`` / ``Device`` / ``execute``), so the same
file can be pointed at an old checkout via ``PYTHONPATH`` to produce
honest "before" numbers:

    PYTHONPATH=<seed>/src python benchmarks/perf/run.py --label before
    PYTHONPATH=src        python benchmarks/perf/run.py --label after

Results merge into ``BENCH_executor.json``::

    {"schema": "bench_executor/v1",
     "unit": "warp_instrs_per_sec",
     "workloads": {"rodinia/nn": {"before": ..., "after": ...,
                                  "speedup": ...}}}
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time

DEFAULT_WORKLOADS = [
    "rodinia/nn",
    "rodinia/pathfinder",
    "rodinia/hotspot",
    "parboil/sgemm(small)",
    "parboil/spmv(small)",
]

#: the five stock handlers of the instrumented-run benches, and trace
#: capture (``TraceRecorder`` into an in-memory trace)
INSTRUMENTED_HANDLERS = [
    "branch_profiler",
    "memory_divergence",
    "opcode_histogram",
    "value_profiler",
    "memtrace",
    "capture",
]

DEFAULT_INSTRUMENTED_WORKLOADS = ["rodinia/nn", "rodinia/pathfinder"]

SCHEMA = "bench_executor/v1"


def slow_config():
    """The de-optimized executor config (per-instruction dispatch,
    scalar per-lane memory) — the in-tree calibration reference the CI
    gate normalizes against.  Returns None on revisions that predate
    the knobs."""
    from repro.sim.executor import SimConfig

    try:
        return SimConfig(fuse_blocks=False, vector_memory=False)
    except TypeError:
        return None


def measure(name: str, repeats: int = 3, config=None) -> float:
    """Best-of-N warp-instructions/second for one workload.

    Only time spent inside ``Device.launch`` counts — host-side input
    generation and result verification are identical in every revision
    and would otherwise dilute the executor's throughput."""
    from repro.backend import ptxas
    from repro.sim import Device
    from repro.workloads import make

    kernel = ptxas(make(name).build_ir())   # compile outside the timer
    best = 0.0
    for _ in range(repeats + 1):            # first rep doubles as warmup
        workload = make(name)
        device = Device(config=config)
        launch_seconds = [0.0]
        real_launch = device.launch

        def timed_launch(*args, **kwargs):
            t0 = time.perf_counter()
            result = real_launch(*args, **kwargs)
            launch_seconds[0] += time.perf_counter() - t0
            return result

        device.launch = timed_launch
        workload.execute(device, kernel)
        rate = workload.last_trace.warp_instructions / launch_seconds[0]
        best = max(best, rate)
    return best


def instrumented_scalar_config():
    """The fully de-vectorized instrumented config: per-instruction
    dispatch, scalar memory, and no fused site plans.  Returns None on
    revisions that predate the knobs."""
    from repro.sim.executor import SimConfig

    try:
        return SimConfig(fuse_blocks=False, vector_memory=False,
                         fuse_handler_calls=False)
    except TypeError:
        return None


def make_profiler(handler: str, device, vectorized: bool = True):
    """Construct one of the five stock profilers, or a trace recorder,
    on *device*."""
    if handler == "branch_profiler":
        from repro.handlers.branch_profiler import BranchProfiler
        return BranchProfiler(device, vectorized=vectorized)
    if handler == "memory_divergence":
        from repro.handlers.memory_divergence import MemoryDivergenceProfiler
        return MemoryDivergenceProfiler(device, vectorized=vectorized)
    if handler == "opcode_histogram":
        from repro.handlers.opcode_histogram import OpcodeHistogram
        return OpcodeHistogram(device, vectorized=vectorized)
    if handler == "value_profiler":
        from repro.handlers.value_profiler import ValueProfiler
        return ValueProfiler(device, vectorized=vectorized)
    if handler == "memtrace":
        from repro.handlers.memtrace import MemoryTracer
        return MemoryTracer(device, vectorized=vectorized)
    if handler == "capture":
        from repro.trace.capture import TraceRecorder
        from repro.trace.io import TraceWriter
        return TraceRecorder(device, TraceWriter(io.BytesIO()),
                             vectorized=vectorized)
    raise KeyError(f"unknown handler {handler!r}")


def measure_instrumented(name: str, handler: str, repeats: int = 3,
                         scalar: bool = False) -> float:
    """Best-of-N warp-instructions/second for one instrumented run.

    ``scalar=True`` measures the full per-lane reference path (no site
    plans, scalar contexts, scalar handler bodies) — the honest
    "before" for the instrumented speedup and the calibration reference
    for the CI ratio gate."""
    from repro.sim import Device
    from repro.workloads import make

    config = instrumented_scalar_config() if scalar else None
    best = 0.0
    for _ in range(repeats + 1):            # first rep doubles as warmup
        workload = make(name)
        device = Device(config=config)
        profiler = make_profiler(handler, device, vectorized=not scalar)
        if scalar:
            profiler.runtime.vectorize_contexts = False
        kernel = profiler.compile(workload.build_ir())
        launch_seconds = [0.0]
        real_launch = device.launch

        def timed_launch(*args, **kwargs):
            t0 = time.perf_counter()
            result = real_launch(*args, **kwargs)
            launch_seconds[0] += time.perf_counter() - t0
            return result

        device.launch = timed_launch
        workload.execute(device, kernel)
        rate = workload.last_trace.warp_instructions / launch_seconds[0]
        if hasattr(profiler, "close"):
            profiler.close()
        best = max(best, rate)
    return best


def measure_sampled(name: str, handler: str, n: int,
                    repeats: int = 3) -> float:
    """Best-of-N warp-instructions/second for an instrumented run
    sampled at rate 1/*n* (every-Nth site firing; rate 1 is the exact
    instrumented path through the same controller).  Returns 0.0 on
    revisions that predate the adaptive runtime.

    Unlike the other benches, the numerator is the *application's own*
    (baseline) warp instructions: the injected instructions executed
    shrink with the sampling rate, so total-instruction throughput
    would fall as sampling gets cheaper.  Application instructions per
    wall second rises as sampling sheds handler overhead — the curve
    the EXPERIMENTS entry plots."""
    from repro.sim import Device
    from repro.workloads import make

    try:
        from repro.sassi.runtime import AdaptiveController, EveryNth
    except ImportError:
        return 0.0
    best = 0.0
    for _ in range(repeats + 1):            # first rep doubles as warmup
        workload = make(name)
        device = Device()
        controller = AdaptiveController(sampling=EveryNth(n))
        controller.install(device)
        profiler = make_profiler(handler, device)
        kernel = profiler.compile(workload.build_ir())
        launch_seconds = [0.0]
        real_launch = device.launch

        def timed_launch(*args, **kwargs):
            t0 = time.perf_counter()
            result = real_launch(*args, **kwargs)
            launch_seconds[0] += time.perf_counter() - t0
            return result

        device.launch = timed_launch
        workload.execute(device, kernel)
        trace = workload.last_trace
        baseline = sum(getattr(stats, "baseline_warp_instructions", 0)
                       for stats in trace.launches)
        numerator = baseline or trace.warp_instructions
        rate = numerator / launch_seconds[0]
        if hasattr(profiler, "close"):
            profiler.close()
        best = max(best, rate)
    return best


def instrumented_key(handler: str, name: str) -> str:
    return f"instrumented/{handler}/{name}"


def sampled_key(handler: str, name: str, n: int) -> str:
    return f"sampled/{handler}/{name}@1/{n}"


#: every-Nth rates swept by ``--sampled-sweep``
SAMPLED_RATES = (1, 4, 16)


def load_results(path: str) -> dict:
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
        if data.get("schema") == SCHEMA:
            return data
    return {"schema": SCHEMA, "unit": "warp_instrs_per_sec",
            "workloads": {}}


def merge(data: dict, name: str, label: str, rate: float,
          keep_best: bool = False) -> None:
    entry = data["workloads"].setdefault(name, {})
    if keep_best and entry.get(label):
        rate = max(rate, entry[label])
    entry[label] = round(rate, 1)
    if entry.get("before") and entry.get("after"):
        entry["speedup"] = round(entry["after"] / entry["before"], 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=DEFAULT_WORKLOADS)
    parser.add_argument("--label", choices=("before", "after"),
                        default="after")
    parser.add_argument("--keep-best", action="store_true",
                        help="merge by max with any existing number — "
                             "for interleaved before/after sessions "
                             "(alternate the two labels over several "
                             "rounds so both sides sample the same "
                             "machine conditions)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--instrumented", action="store_true",
                        help="also measure the five stock handlers "
                             "and trace capture (fast vs per-lane scalar "
                             "path) on the instrumented workloads")
    parser.add_argument("--instrumented-workloads", nargs="*",
                        default=DEFAULT_INSTRUMENTED_WORKLOADS)
    parser.add_argument("--handlers", nargs="*",
                        default=INSTRUMENTED_HANDLERS)
    parser.add_argument("--sampled-sweep", action="store_true",
                        help="measure opcode_histogram throughput at "
                             "sampling rates 1/1, 1/4, 1/16 over the "
                             "bench workloads (overhead vs rate)")
    parser.add_argument("--sampled-handler", default="opcode_histogram")
    parser.add_argument("--output", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))), "BENCH_executor.json"))
    args = parser.parse_args(argv)

    data = load_results(args.output)
    if args.instrumented:
        if instrumented_scalar_config() is None:
            print("instrumented benches SKIP: no scalar-config knobs")
        else:
            for handler in args.handlers:
                for name in args.instrumented_workloads:
                    key = instrumented_key(handler, name)
                    fast = measure_instrumented(name, handler,
                                                args.repeats)
                    scalar = measure_instrumented(name, handler,
                                                  args.repeats,
                                                  scalar=True)
                    merge(data, key, "after", fast, args.keep_best)
                    merge(data, key, "before", scalar, args.keep_best)
                    merge(data, key, "calibration", scalar,
                          args.keep_best)
                    entry = data["workloads"][key]
                    print(f"{key:44s} after: {fast:12,.0f} wi/s  "
                          f"(speedup {entry.get('speedup')}x)")
    if args.sampled_sweep:
        handler = args.sampled_handler
        for name in args.workloads:
            exact = None
            for n in SAMPLED_RATES:
                key = sampled_key(handler, name, n)
                rate = measure_sampled(name, handler, n, args.repeats)
                if rate == 0.0:
                    print(f"{key:44s} SKIP: no adaptive runtime")
                    continue
                merge(data, key, "after", rate, args.keep_best)
                if n == 1:
                    exact = rate
                entry = data["workloads"][key]
                if exact:
                    entry["speedup_vs_exact"] = round(rate / exact, 2)
                print(f"{key:44s} after: {rate:12,.0f} wi/s  "
                      f"({entry.get('speedup_vs_exact', 1.0)}x vs exact)")
    for name in args.workloads:
        rate = measure(name, args.repeats)
        merge(data, name, args.label, rate, args.keep_best)
        if args.label == "after" and slow_config() is not None:
            # same-window slow-path rate: the machine-speed calibration
            # reference for benchmarks/perf/check.py's ratio gate
            calibration = measure(name, args.repeats,
                                  config=slow_config())
            merge(data, name, "calibration", calibration, args.keep_best)
        entry = data["workloads"][name]
        speedup = entry.get("speedup")
        extra = f"  (speedup {speedup}x)" if speedup else ""
        print(f"{name:28s} {args.label}: {rate:12,.0f} wi/s{extra}")
    with open(args.output, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
