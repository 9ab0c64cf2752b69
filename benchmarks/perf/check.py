#!/usr/bin/env python
"""CI perf smoke: fail when executor throughput regresses.

Re-measures a small set of workloads and compares against the
committed numbers in ``BENCH_executor.json``.  Raw warp-instrs/sec
do not transfer between machines (CI runners vary wildly), so the
gate normalizes by machine speed: both the optimized executor and the
de-optimized config (``fuse_blocks=False, vector_memory=False``) are
timed in the same window, and the *ratio* is compared against the
committed ``after / calibration`` ratio.  A drop of more than the
tolerance (default 30%) fails the job — that is exactly what
falling off the fused/vectorized fast path looks like (the ratio
collapses to ~1), while absolute machine speed cancels out.

    PYTHONPATH=src python benchmarks/perf/check.py \
        --workloads rodinia/nn rodinia/pathfinder
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import (  # noqa: E402
    instrumented_key,
    instrumented_scalar_config,
    load_results,
    measure,
    measure_instrumented,
    slow_config,
)

SMOKE_WORKLOADS = ["rodinia/nn", "rodinia/pathfinder"]

#: instrumented smoke: (handler, workload) pairs for the ratio gate
INSTRUMENTED_SMOKE = [
    ("branch_profiler", "rodinia/nn"),
    ("opcode_histogram", "rodinia/nn"),
    ("capture", "rodinia/nn"),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=SMOKE_WORKLOADS)
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional drop of the fast/slow "
                             "ratio vs the committed baseline ratio")
    parser.add_argument("--baseline", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))), "BENCH_executor.json"))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    reference = slow_config()
    if reference is None:
        print("perf smoke SKIP: this revision has no slow-config knobs")
        return 0
    data = load_results(args.baseline)
    failures = []
    for name in args.workloads:
        entry = data["workloads"].get(name, {})
        committed_after = entry.get("after")
        committed_calibration = entry.get("calibration")
        if not committed_after or not committed_calibration:
            print(f"{name:28s} SKIP (no committed baseline)")
            continue
        committed_ratio = committed_after / committed_calibration
        fast = measure(name, args.repeats)
        slow = measure(name, args.repeats, config=reference)
        ratio = fast / slow
        floor = committed_ratio * (1.0 - args.tolerance)
        verdict = "ok" if ratio >= floor else "REGRESSION"
        print(f"{name:28s} fast {fast:10,.0f} wi/s  slow {slow:10,.0f} "
              f"wi/s  ratio {ratio:.2f}x  (committed {committed_ratio:.2f}x,"
              f" floor {floor:.2f}x) {verdict}")
        if ratio < floor:
            failures.append(name)
    if instrumented_scalar_config() is not None:
        # instrumented ratio gate: the warp-wide handler fast lanes vs
        # the per-lane scalar path, normalized the same way (machine
        # speed cancels; falling off the site-plan path collapses the
        # ratio toward 1)
        for handler, name in INSTRUMENTED_SMOKE:
            key = instrumented_key(handler, name)
            entry = data["workloads"].get(key, {})
            committed_after = entry.get("after")
            committed_calibration = entry.get("calibration")
            if not committed_after or not committed_calibration:
                print(f"{key:44s} SKIP (no committed baseline)")
                continue
            committed_ratio = committed_after / committed_calibration
            fast = measure_instrumented(name, handler, args.repeats)
            slow = measure_instrumented(name, handler, args.repeats,
                                        scalar=True)
            ratio = fast / slow
            floor = committed_ratio * (1.0 - args.tolerance)
            verdict = "ok" if ratio >= floor else "REGRESSION"
            print(f"{key:44s} fast {fast:10,.0f} wi/s  slow "
                  f"{slow:10,.0f} wi/s  ratio {ratio:.2f}x  "
                  f"(committed {committed_ratio:.2f}x, floor "
                  f"{floor:.2f}x) {verdict}")
            if ratio < floor:
                failures.append(key)
    if failures:
        print(f"perf smoke FAILED: {', '.join(failures)} fast/slow ratio "
              f"below {(1 - args.tolerance) * 100:.0f}% of baseline")
        return 1
    print("perf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
