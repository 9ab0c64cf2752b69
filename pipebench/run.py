#!/usr/bin/env python3
"""The pipeline benchmark: end-to-end and per-layer host time of repro.

Usage, from the root of a checkout::

    python3 pipebench/run.py --workload live-profile --seed 1 \\
        --seconds 16 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes a
separate traced run that attributes each operation's host time to the
layers below it and prints the per-layer metrics.  Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``pipebench/README.md``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import atexit  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import deque  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".pipebench")
DIGESTS = os.path.join(HERE, "digests.json")

from spans import (COUNT_PREFIX, LAYER_METRICS, TIMER_PREFIX,  # noqa: E402
                   Recorder, install, self_times)
from stats import (Calibrator, in_tree, median, peak_rss_mb,  # noqa: E402
                   run_digest, tail)
from workloads import WORKLOADS  # noqa: E402

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPS = 3
#: calibration-kernel samples taken right after set-up
SETUP_CALIBRATIONS = 5
#: calibration-kernel samples taken after every round
ROUND_CALIBRATIONS = 3
#: no new operation starts after this many seconds of a timed loop
DEADLINE_S = 110.0
#: the seed whose operation digests are committed in digests.json
COMMITTED_SEED = 1

#: end-to-end metrics: name -> unit
E2E_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics that are not span self times: name -> unit
COUNT_UNITS = {
    "sim.warp_instrs": "count",
    "sim.launches": "count",
    "sassi.handler_calls": "count",
    "sassi.abi_instrs": "count",
    "trace.capture_events_per_s": "1/s",
    "trace.bytes_per_event": "B",
    "trace.decode_events_per_s": "1/s",
    "trace.query_events_scanned": "count",
    "trace.query_index_ratio": "ratio",
    "campaign.trial_s": "s",
    "campaign.compile_cache_hit_ratio": "ratio",
    "server.rejections": "count",
    "cli.startup_s": "s",
    "op_s": "s",
    "telemetry.overhead_ratio": "ratio",
}

LAYER_UNITS = dict({metric: "s" for metric in LAYER_METRICS.values()},
                   **COUNT_UNITS)

#: telemetry counters of the injected SASSI ABI sequences
ABI_COUNTERS = ("sassi.spill", "sassi.fill", "sassi.save_restore",
                "sassi.param_marshal")

#: ROADMAP item 1's starting points, re-measured by every traced run
CLAIMS = {
    "capture_events_per_s": (2.1e3, 2.1e3),
    "columnar_replay_events_per_s": (500e3, 700e3),
    "trace_info_s": (0.57, 0.57),
}


@dataclass
class Sample:
    op: Any
    op_id: int
    seconds: float = 0.0
    t0: float = 0.0
    t1: float = 0.0
    product: Any = None
    error: Optional[str] = None
    counters: Dict[str, float] = field(default_factory=dict)
    work: Dict[str, float] = field(default_factory=dict)


@dataclass
class Loop:
    samples: List[Sample]
    unstarted: int

    def calibrated(self, calibrator: Calibrator) -> List[float]:
        """The latency of each op that ran, in calibrated seconds."""
        return [s.seconds * calibrator.factor(s.t0, s.t1)
                for s in self.samples if s.t1]


# --------------------------------------------------------------- set-up

def bootstrap(work_dir: str) -> None:
    """Import repro from this checkout's ``src`` and keep every file the
    run writes inside *work_dir*."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"pipebench: no repro sources under {SRC}; "
                         "run from the root of a repro checkout")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    for var in ("REPRO_CACHE_DIR", "REPRO_JOBS"):
        os.environ.pop(var, None)
    tmp = os.path.join(work_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    import repro

    if not in_tree(repro.__file__, SRC):
        raise SystemExit(f"pipebench: imported repro from "
                         f"{repro.__file__}, not from {SRC}")


def become_subreaper() -> None:
    """Make orphaned descendants (a server worker whose forkserver has
    gone) children of this process, so :func:`stop_children` reaps them."""
    import ctypes

    pr_set_child_subreaper = 36
    try:
        ctypes.CDLL(None).prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (AttributeError, OSError):
        pass  # not Linux: direct children are still reaped


def child_pids() -> List[int]:
    """The pids of this process's children, from ``/proc``."""
    pids = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the fields after the command name, which may hold spaces
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == os.getpid():
            pids.append(int(entry))
    return pids


def reap(pids: List[int], grace_s: float) -> None:
    """Terminate *pids* and wait for each; kill any still alive after
    *grace_s* seconds."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    done, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid
                if done:
                    pids.remove(pid)
            time.sleep(0.01)
        if not pids:
            return


def stop_children() -> None:
    """Stop multiprocessing's forkserver and resource tracker, and end
    and reap every other child, so that no process outlives the run.

    Runs at exit after multiprocessing's own exit handler, whose
    finalizers can start the resource tracker again."""
    forkserver = sys.modules.get("multiprocessing.forkserver")
    if forkserver is not None:
        try:
            forkserver._forkserver._stop()
        except FileNotFoundError:
            pass  # reaped; its socket went with multiprocessing's temp dir
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    # workers still alive would keep the tracker's pipe open
    reap([pid for pid in child_pids() if pid != tracker_pid], grace_s=5.0)
    if tracker is not None:
        tracker._stop()
    reap(child_pids(), grace_s=5.0)


def setup_in_subprocess(args) -> Tuple[float, float]:
    """One more complete set-up, from a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"set-up run failed: {out.stderr.strip()}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["raw_s"]


# ---------------------------------------------------------- timed loops

def build_rounds(workload, seed: int, rounds: int) -> list:
    import numpy as np

    rng = np.random.default_rng(seed)
    return [workload.round_ops(rng, index) for index in range(rounds)]


def run_loop(workload, rounds, calibrator: Calibrator,
             recorder: Optional[Recorder] = None) -> Loop:
    """Closed loop with one client: each queue item starts as soon as
    the one before it has finished.  The calibration kernel runs
    between items every ``calibrator.interval`` and after each round."""
    telemetry = None
    if recorder is not None and workload.in_process:
        from repro.telemetry.collector import TELEMETRY as telemetry
    samples: List[Sample] = []
    ids = itertools.count()
    items = deque(item for one_round in rounds for item in one_round)
    round_ends = set(itertools.accumulate(len(r) for r in rounds))
    start = time.perf_counter()
    done = 0
    while items and time.perf_counter() - start < DEADLINE_S:
        item = items.popleft()
        if calibrator.due():
            # earlier ops' garbage is not the next op's pause
            gc.collect()
            calibrator.sample()
        previous = None
        for position, op in enumerate(item):
            sample = Sample(op, next(ids))
            if position and previous is None:
                sample.error = "skipped: the op before it failed"
            else:
                run_op(workload, sample, previous, recorder, telemetry)
            samples.append(sample)
            previous = sample.product if sample.error is None else None
        done += 1
        if done in round_ends:
            for _ in range(ROUND_CALIBRATIONS):
                calibrator.sample()
    return Loop(samples, len(items))


def run_op(workload, sample: Sample, previous, recorder, telemetry) -> None:
    span = mark = None
    if recorder is not None:
        span = recorder.begin("op", op=sample.op_id)
    if telemetry is not None:
        mark = telemetry.mark()
    sample.t0 = time.perf_counter()
    try:
        sample.product = workload.run(sample.op, previous)
    except Exception as exc:  # a failed op is counted, not fatal
        sample.error = f"{type(exc).__name__}: {exc}"
    sample.t1 = time.perf_counter()
    sample.seconds = sample.t1 - sample.t0
    if span is not None:
        recorder.end(span)
    if mark is not None:
        delta = telemetry.delta_since(mark)
        del telemetry.roots[mark.root_count:]
        sample.counters = dict(delta.counters)
    if recorder is not None and not workload.in_process \
            and sample.error is None:
        attach_worker_spans(recorder, sample)


def attach_worker_spans(recorder: Recorder, sample: Sample) -> None:
    """Hang a served job's worker-side layer times under the op's
    ``server.wait`` span: ``server.job`` lasts the job's own
    ``wall_seconds`` and holds each layer's self time in the worker."""
    record = sample.product
    wait_id = next(sid for sid, name, _t0, _t1, _parent, op
                   in reversed(recorder.spans)
                   if name == "server.wait" and op == sample.op_id)
    job_id = recorder.add("server.job", float(record["wall_seconds"]),
                          wait_id, sample.op_id)
    for key, value in record["telemetry"]["timers"].items():
        if key.startswith(COUNT_PREFIX):
            recorder.count(key[len(COUNT_PREFIX):], value, op=sample.op_id)
        elif key.startswith(TIMER_PREFIX):
            recorder.add(key[len(TIMER_PREFIX):], value, job_id,
                         sample.op_id)
    sample.counters = dict(record["telemetry"]["counters"])


# ----------------------------------------------------------- correctness

def load_digests() -> Dict[str, Any]:
    with open(DIGESTS) as handle:
        return json.load(handle)


def check_all(workload, loop: Loop, seen: Dict[str, str],
              committed: Dict[str, str]) -> List[str]:
    """Check every product; returns the error lines.  A product fails
    when its check raises or fails, when its digest differs from the
    committed one, or from an earlier run of the same op."""
    errors = []
    for sample in loop.samples:
        if sample.error is None:
            try:
                checked = workload.check(sample.op, sample.product)
            except Exception as exc:  # a failed check is a failed op
                sample.error = f"check raised {type(exc).__name__}: {exc}"
            else:
                sample.work = checked.work
                sample.error = checked.error
                key, digest = sample.op.key, checked.digest
                if sample.error is None and key in committed \
                        and committed[key] != digest:
                    sample.error = (f"digest {digest} differs from the "
                                    f"committed {committed[key]}")
                elif sample.error is None and key in seen \
                        and seen[key] != digest:
                    sample.error = (f"digest {digest} differs from "
                                    f"{seen[key]} earlier in this run")
                seen.setdefault(key, digest)
        sample.product = None
        if sample.error is not None:
            errors.append(f"{sample.op.key}: {sample.error}")
    return errors


# --------------------------------------------------------------- metrics

def e2e_metrics(loop: Loop, calibrator: Calibrator, setup_s: float,
                rss_mb: float) -> Dict[str, float]:
    """End-to-end metrics; times and rates in calibrated seconds."""
    seconds = loop.calibrated(calibrator)
    done = [s for s in loop.samples if s.error is None]
    work = sum(s.work.get("sim_warp_instrs", 0.0)
               + s.work.get("replay_events", 0.0) for s in done)
    busy = sum(seconds)
    tail_value, _, _ = tail(seconds)
    return {
        "setup_s": setup_s,
        "op_p50_s": median(seconds),
        "op_tail_s": tail_value,
        "ops_per_s": len(done) / busy,
        "work_per_s": work / busy,
        "peak_rss_mb": rss_mb,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload, plain: Loop, traced: Loop, recorder: Recorder,
                  calibrator: Calibrator) -> Dict[str, float]:
    """Per-op means of span self times and counts from the traced loop,
    plus rates taken from the untraced loop's products."""
    ops = [s.op_id for s in traced.samples]
    n = len(ops)
    selfs = self_times(recorder.spans)
    metrics = {metric: sum(selfs[op].get(name, 0.0) for op in ops) / n
               for name, metric in LAYER_METRICS.items()}
    counts = recorder.counts

    def per_op(key):
        return sum(counts[op].get(key, 0.0) for op in ops) / n

    def total(samples, key, source="work"):
        return sum(getattr(s, source).get(key, 0.0) for s in samples)

    capture_ops = [s for s in plain.samples if "capture_events" in s.work]
    if workload.name == "trace-analytics":
        events, size = workload.capture_events, workload.capture_bytes
        capture_s = workload.capture_seconds
    else:
        events = total(capture_ops, "capture_events")
        size = total(capture_ops, "capture_bytes")
        capture_s = (total(capture_ops, "capture_seconds")
                     if workload.name == "served-campaign"
                     else sum(s.seconds for s in capture_ops))
    queries = [s for s in traced.samples if "query_indexed" in s.work]
    hits = total(traced.samples, "compile_cache.hits", "counters")
    misses = total(traced.samples, "compile_cache.misses", "counters")
    decode_s = sum(selfs[op].get("trace.decode", 0.0) for op in ops)
    metrics.update({
        "sim.warp_instrs": per_op("sim.warp_instrs"),
        "sim.launches": per_op("sim.launches"),
        "sassi.handler_calls": per_op("sassi.handler_calls"),
        "sassi.abi_instrs": sum(total(traced.samples, key, "counters")
                                for key in ABI_COUNTERS) / n,
        "trace.capture_events_per_s": _ratio(events, capture_s),
        "trace.bytes_per_event": _ratio(size, events),
        "trace.decode_events_per_s": _ratio(
            per_op("trace.decoded_events") * n, decode_s),
        "trace.query_events_scanned": _ratio(
            total(queries, "query_events_scanned"), len(queries)),
        "trace.query_index_ratio": _ratio(
            total(queries, "query_indexed"), len(queries)),
        "campaign.trial_s": _ratio(total(plain.samples, "job_seconds"),
                                   total(plain.samples, "trials")),
        "campaign.compile_cache_hit_ratio": _ratio(hits, hits + misses),
        "server.rejections": float(workload.rejections),
        "op_s": sum(selfs[op].get(name, 0.0) for op in ops
                    for name in selfs[op]) / n,
        "telemetry.overhead_ratio": _ratio(
            statistics.fmean(traced.calibrated(calibrator)),
            statistics.fmean(plain.calibrated(calibrator))),
    })
    return metrics


def cli_startup(path: Optional[str]) -> float:
    """Median wall time of ``repro trace info`` on *path*, 3 runs."""
    if path is None:
        raise RuntimeError("no trace to time `repro trace info` on")
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "repro.cli", "trace", "info", path],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if out.returncode != 0:
            raise RuntimeError(f"repro trace info failed: "
                               f"{out.stderr.strip()}")
    return median(times)


# ---------------------------------------------------------------- output

def print_metrics(title: str, metrics: Dict[str, float],
                  units: Dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")


def print_time_table(workload_name: str, metrics: Dict[str, float]) -> None:
    """Where the time goes: self seconds per op by layer, summing to the
    traced op time."""
    op_s = metrics["op_s"]
    rows = sorted(((metrics[m], m) for m in LAYER_METRICS.values()),
                  reverse=True)
    print(f"where the time goes ({workload_name}, traced, per op)")
    print(f"  {'layer (self time)':34s} {'seconds':>12s} {'share':>8s}")
    for value, name in rows:
        if value:
            print(f"  {name:34s} {value:12.6f} {100 * value / op_s:7.2f}%")
    total = sum(value for value, _ in rows)
    print(f"  {'sum of self times':34s} {total:12.6f}")
    print(f"  {'op time':34s} {op_s:12.6f}  (difference "
          f"{total - op_s:+.2e} s)")


def print_claims(workload, traced: Loop, plain: Loop, recorder: Recorder,
                 cli_s: float) -> None:
    """Re-measure ROADMAP item 1's starting points and say where this
    machine disagrees with them."""
    found = {"trace_info_s": cli_s}
    for sample in plain.samples:
        if sample.op.key == "live:rodinia/pathfinder:capture" \
                and sample.error is None:
            found["capture_events_per_s"] = \
                sample.work["capture_events"] / sample.seconds
    if workload.name == "trace-analytics":
        selfs = self_times(recorder.spans)
        events = seconds = 0.0
        layers = ("trace.open", "trace.decode", "trace.analysis.cachesim",
                  "trace.analysis.divergence", "trace.analysis.memdiv",
                  "trace.analysis.opcodes")
        for sample in traced.samples:
            if sample.op.key.endswith(":all") and sample.error is None:
                events += sample.work["replay_events"]
                seconds += sum(selfs[sample.op_id].get(layer, 0.0)
                               for layer in layers)
        found["columnar_replay_events_per_s"] = _ratio(events, seconds)
    print("ROADMAP item 1 starting points, re-measured")
    for name, value in found.items():
        low, high = CLAIMS[name]
        agrees = 0.75 * low <= value <= 1.25 * high
        claim = f"{low:g}" if low == high else f"{low:g}-{high:g}"
        print(f"  {name:34s} {value:12.6g} (claimed {claim}): "
              f"{'agrees' if agrees else 'DISAGREES'}")
    if workload.name == "trace-analytics":
        print("  (columnar replay: events over open + decode + the four "
              "non-timing analyses' self time in all-analysis replays)")


def print_result(correct: bool, attempted: int, failed: int,
                 metrics: Dict[str, float], units: Dict[str, str]) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))


def report_checks(loops: List[Loop], errors: List[str],
                  seen: Dict[str, str], committed: Dict[str, str],
                  seed: int, check_s: float) -> None:
    checked = sum(1 for key in seen if key in committed)
    print(f"correctness: {len(seen)} distinct ops, {checked} checked "
          f"against committed digests, {len(seen) - checked} for "
          f"repeatability only (checks took {check_s:.2f} s, untimed)")
    print(f"run digest (seed {seed}): "
          f"{run_digest(seen.items())}")
    for loop in loops:
        if loop.unstarted:
            print(f"warning: {loop.unstarted} queue items not started "
                  f"within {DEADLINE_S:g} s")
    for line in errors[:20]:
        print(f"FAILED {line}")


# ------------------------------------------------------------------ main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=COMMITTED_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up time, exit")
    parser.add_argument("--record-digests", action="store_true",
                        help="write this seed's op digests to "
                             "digests.json instead of checking them")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    # both registered before multiprocessing is imported, so they run
    # after multiprocessing's own exit handler (atexit runs last-in
    # first-out): the helpers are stopped, then the work files removed
    atexit.register(shutil.rmtree, work_dir, ignore_errors=True)
    atexit.register(stop_children)
    become_subreaper()
    bootstrap(work_dir)
    return measure(args, work_dir)


def measure(args, work_dir: str) -> int:
    workload = WORKLOADS[args.workload](work_dir)
    if args.trace:
        flag = os.path.join(work_dir, "trace-on")
        os.environ["PIPEBENCH_TRACE_FLAG"] = flag
        if not workload.in_process:
            import multiprocessing

            multiprocessing.set_forkserver_preload(
                ["__main__", "worker_hook"])
    workload.setup()
    setup_end = time.perf_counter()
    calibrator = Calibrator()
    for _ in range(SETUP_CALIBRATIONS):
        calibrator.sample()
    setup_raw = setup_end - T_START
    setup_s = setup_raw * calibrator.factor(setup_end, setup_end)
    if args.setup_only:
        workload.teardown()
        print(json.dumps({"setup_s": setup_s, "raw_s": setup_raw}))
        return 0

    table = load_digests()
    # an op key names its simulated result completely, so a committed
    # digest applies on every seed that runs the op
    committed = {} if args.record_digests \
        else table["digests"].get(workload.name, {})
    seen: Dict[str, str] = {}
    try:
        if args.trace:
            rounds = max(1, round(args.seconds / 2 / workload.round_seconds))
            loops = [run_loop(workload, build_rounds(workload, args.seed, 1),
                              calibrator)
                     for _ in range(workload.warm_rounds)]
            plain = run_loop(workload, build_rounds(workload, args.seed,
                                                   rounds), calibrator)
            recorder = Recorder()
            patches = install(recorder)
            open(flag, "w").close()
            if workload.in_process:
                from repro.telemetry.collector import TELEMETRY

                TELEMETRY.enable()
            recorder.active = True
            try:
                traced = run_loop(workload, build_rounds(
                    workload, args.seed, rounds), calibrator, recorder)
            finally:
                recorder.active = False
                os.remove(flag)
                patches.undo()
            loops += [plain, traced]
        else:
            rounds = max(1, round(args.seconds / workload.round_seconds))
            loops = [run_loop(workload, build_rounds(workload, args.seed,
                                                    rounds), calibrator)]
        rss_mb = peak_rss_mb(workload.worker_pids())
        errors = []
        check_start = time.perf_counter()
        for loop in loops:
            errors += check_all(workload, loop, seen, committed)
        check_s = time.perf_counter() - check_start
        cli_s = cli_startup(workload.cli_trace()) if args.trace else 0.0
    finally:
        workload.teardown()

    if args.record_digests:
        if errors:
            raise SystemExit("not recording digests: " + "; ".join(errors))
        table["seed"] = args.seed
        table["digests"][workload.name] = dict(sorted(seen.items()))
        with open(DIGESTS, "w") as handle:
            json.dump(table, handle, indent=1, sort_keys=True)
            handle.write("\n")

    attempted = sum(len(loop.samples) for loop in loops)
    failed = len(errors)
    print(f"workload {workload.name}: seed {args.seed}, one closed-loop "
          f"client, {len(loops[-1].samples)} ops")
    report_checks(loops, errors, seen, committed, args.seed, check_s)
    print(f"failed_ops_ratio {failed / attempted:.6g} "
          f"({failed} of {attempted} ops)")
    if args.trace:
        recorder.dump(os.path.join(
            WORK_ROOT, f"spans-{workload.name}-seed{args.seed}.jsonl"))
        metrics = layer_metrics(workload, plain, traced, recorder,
                                calibrator)
        metrics["cli.startup_s"] = cli_s
        print_time_table(workload.name, metrics)
        print_claims(workload, traced, plain, recorder, cli_s)
        print_metrics("per-layer metrics (traced run, per op, host "
                      "seconds)", metrics, LAYER_UNITS)
        units = LAYER_UNITS
    else:
        setups = [(setup_s, setup_raw)] + [
            setup_in_subprocess(args) for _ in range(SETUP_REPS - 1)]
        loop = loops[0]
        metrics = e2e_metrics(loop, calibrator,
                              median([c for c, _ in setups]), rss_mb)
        _, percentile, count = tail(loop.calibrated(calibrator))
        print(f"op_tail_s is p{percentile:.4g} of {count} ops")
        print(f"set-ups: {', '.join(f'{c:.3f}' for c, _ in setups)} s "
              f"calibrated, {', '.join(f'{r:.3f}' for _, r in setups)} s "
              f"raw")
        raw = [s.seconds for s in loop.samples if s.t1]
        kernel = median([k for _, k in calibrator.samples])
        print(f"uncalibrated: op_p50 {median(raw):.6g} s, op_tail "
              f"{tail(raw)[0]:.6g} s, ops/s "
              f"{len(raw) / sum(raw):.6g}; calibration "
              f"kernel median {1000 * kernel:.3f} ms over "
              f"{len(calibrator.samples)} samples")
        print_metrics("end-to-end metrics (tracing off, calibrated "
                      "seconds)", metrics, E2E_UNITS)
        units = E2E_UNITS
    print_result(failed == 0, attempted, failed, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
