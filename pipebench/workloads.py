"""The benchmark's three workloads.

Each workload sets itself up, hands out its operations one *round* at a
time (every round holds the same mix of operation kinds, in an order and
with parameters drawn from the run's seed), runs one operation, and
checks the product of an operation once the timed loop is over.  An
operation's product is what a user of the tool asks for — a profiler
report, a replay result, a query's hits, a finished job record — so
computing it is part of the operation; verifying and digesting it is
not.

* ``live-profile`` — case studies 1-3 and the Table 3 baseline: compile
  a kernel and run it plain, under a stock profiler or under trace
  capture, in process.
* ``trace-analytics`` — capture once, ask many: replay analyses, queries
  and diffs over a corpus captured during set-up.
* ``served-campaign`` — case study 4 as a service user runs it: small
  error-injection campaigns, plus capture-then-replay jobs, submitted to
  an in-process ``repro.server`` over one connection.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from stats import digest, pick

#: the kernels of live-profile and of the trace-analytics corpus
KERNELS = [
    "rodinia/pathfinder",      # regular, 7 launches
    "rodinia/nw",              # divergent, 95 launches
    "rodinia/hotspot",         # shared memory and barriers
    "parboil/spmv(small)",     # irregular memory
    "parboil/sgemm(small)",    # compute, regular
    "rodinia/nn",              # short
]

#: live-profile configurations: uninstrumented, four stock profilers,
#: and trace capture
CONFIGS = ["plain", "branch_profiler", "memory_divergence",
           "value_profiler", "opcode_histogram", "capture"]

PROFILERS = {
    "branch_profiler": ("repro.handlers.branch_profiler", "BranchProfiler"),
    "memory_divergence": ("repro.handlers.memory_divergence",
                          "MemoryDivergenceProfiler"),
    "value_profiler": ("repro.handlers.value_profiler", "ValueProfiler"),
    "opcode_histogram": ("repro.handlers.opcode_histogram",
                         "OpcodeHistogram"),
}

ANALYSES = ["cachesim", "divergence", "memdiv", "opcodes", "timing"]

#: opcode classes a trace-analytics query may filter on
QUERY_CLASSES = ["memory", "control", "integer", "float", "move",
                 "predicate_out"]

#: address-window sizes (from the start of global memory) for queries
QUERY_WINDOWS = [0x1000, 0x10000, 0x100000]

#: served-campaign: workloads of the small campaign jobs, jobs of each
#: per round, and injections per job
CAMPAIGN_WORKLOADS = ["rodinia/nn", "vectoradd", "rodinia/pathfinder"]
CAMPAIGN_JOBS = 3
CAMPAIGN_INJECTIONS = 2
#: round r's campaign jobs use injection seeds r * stride + 0, 1, 2
CAMPAIGN_SEED_STRIDE = 1000
SERVED_CAPTURE = "rodinia/nn"

#: 429 retries before a submission counts as failed
MAX_RETRIES = 20


@dataclass
class Op:
    key: str                     # names the simulated result it yields
    kind: str
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Checked:
    digest: Optional[str] = None
    error: Optional[str] = None
    #: work done, summed into rates: sim_warp_instrs, replay_events,
    #: capture_events, capture_bytes, capture_seconds, ...
    work: Dict[str, float] = field(default_factory=dict)


def _safe(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def _kernel_stats(launches) -> List[Dict[str, Any]]:
    return [{"warp_instructions": s.warp_instructions,
             "thread_instructions": s.thread_instructions,
             "sassi_warp_instructions": s.sassi_warp_instructions,
             "opcode_counts": dict(s.opcode_counts),
             "global_mem_instructions": s.global_mem_instructions,
             "global_transactions": s.global_transactions,
             "handler_calls": s.handler_calls,
             "barriers": s.barriers, "cycles": s.cycles}
            for s in launches]


class Workload:
    name = ""
    #: seconds one round takes on a 2-core x86 container; the run makes
    #: round(--seconds / this) whole rounds, so every run sees the same
    #: mix of operations
    round_seconds = 1.0
    #: False when operations run in another process (a server worker)
    in_process = True
    #: untimed rounds a traced run makes first, so that its untraced
    #: and traced halves both start warm
    warm_rounds = 0

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.rejections = 0

    def setup(self) -> None:
        raise NotImplementedError

    def round_ops(self, rng, index: int) -> List[List[Op]]:
        """Round *index*'s queue items; the client runs each item's ops
        back to back, handing each op the product of the one before."""
        raise NotImplementedError

    def run(self, op: Op, previous: Any = None) -> Any:
        raise NotImplementedError

    def check(self, op: Op, product: Any) -> Checked:
        raise NotImplementedError

    def cli_trace(self) -> Optional[str]:
        """A trace file for timing ``repro trace info``."""
        return None

    def worker_pids(self) -> List[int]:
        return []

    def teardown(self) -> None:
        pass


# ---------------------------------------------------------- live-profile

class LiveProfile(Workload):
    name = "live-profile"
    round_seconds = 21.0

    def setup(self) -> None:
        import importlib

        import repro.backend  # noqa: F401
        import repro.sim  # noqa: F401
        import repro.trace.capture  # noqa: F401
        import repro.workloads  # noqa: F401
        for module, _cls in PROFILERS.values():
            importlib.import_module(module)

    def round_ops(self, rng, index: int) -> List[List[Op]]:
        items = [[Op(f"live:{kernel}:{config}", config,
                     {"kernel": kernel})]
                 for kernel in KERNELS for config in CONFIGS]
        rng.shuffle(items)
        return items

    def _capture_path(self, kernel: str) -> str:
        return os.path.join(self.work_dir, f"live-{_safe(kernel)}.rptrace")

    def run(self, op: Op, previous: Any = None) -> Any:
        import importlib

        from repro.backend import ptxas
        from repro.sim import Device
        from repro.workloads import make

        kernel_name = op.args["kernel"]
        workload = make(kernel_name)
        device = Device()
        ir = workload.build_ir()
        manifest = report = None
        if op.kind == "plain":
            output = workload.execute(device, ptxas(ir))
        elif op.kind == "capture":
            from repro.trace.capture import TraceRecorder
            from repro.trace.io import TraceWriter

            with TraceWriter(self._capture_path(kernel_name)) as writer:
                recorder = TraceRecorder(device, writer)
                output = workload.execute(device, recorder.compile(ir))
            manifest = writer.close()
        else:
            module, cls_name = PROFILERS[op.kind]
            profiler = getattr(importlib.import_module(module),
                               cls_name)(device)
            output = workload.execute(device, profiler.compile(ir))
            report = _profiler_report(op.kind, profiler)
        return workload, output, report, manifest

    def check(self, op: Op, product: Any) -> Checked:
        workload, output, report, manifest = product
        launches = workload.last_trace.launches
        work = {"sim_warp_instrs": float(sum(
            s.baseline_warp_instructions for s in launches))}
        if manifest is not None:
            path = self._capture_path(op.args["kernel"])
            work["capture_events"] = float(manifest.total_events)
            work["capture_bytes"] = float(os.path.getsize(path))
        result = {"launches": _kernel_stats(launches), "output": output,
                  "report": report, "manifest": manifest}
        error = None if workload.verify(output) else "verify failed"
        return Checked(digest(result), error, work)

    def cli_trace(self) -> Optional[str]:
        path = self._capture_path("rodinia/nn")
        return path if os.path.exists(path) else None


def _profiler_report(config: str, profiler) -> Any:
    if config == "branch_profiler":
        return {"branches": profiler.branches(),
                "summary": profiler.summary()}
    if config == "memory_divergence":
        return {"matrix": profiler.matrix()}
    if config == "value_profiler":
        return {"profiles": profiler.profiles(),
                "summary": profiler.summary()}
    return {"totals": profiler.totals()}


# ------------------------------------------------------- trace-analytics

class TraceAnalytics(Workload):
    name = "trace-analytics"
    round_seconds = 1.3

    def setup(self) -> None:
        import repro.trace.timing  # noqa: F401  (registers "timing")
        from repro.trace.capture import capture_workload
        from repro.trace.index import sidecar_index

        self.corpus: Dict[str, str] = {}
        self.events: Dict[str, int] = {}
        self.launches: Dict[str, int] = {}
        self.capture_events = 0
        self.capture_bytes = 0
        self.capture_seconds = 0.0
        for kernel in KERNELS:
            path = os.path.join(self.work_dir,
                                f"corpus-{_safe(kernel)}.rptrace")
            manifest, verified, wall = capture_workload(kernel, path)
            if not verified:
                raise RuntimeError(f"corpus capture of {kernel} did not "
                                   "verify")
            index = sidecar_index(path)
            if index is None:
                raise RuntimeError(f"corpus capture of {kernel} wrote no "
                                   "index sidecar")
            self.corpus[kernel] = path
            self.events[kernel] = manifest.total_events
            self.launches[kernel] = index.launches
            self.capture_events += manifest.total_events
            self.capture_bytes += os.path.getsize(path)
            self.capture_seconds += wall

    def round_ops(self, rng, index: int) -> List[List[Op]]:
        from repro.sim.memory import GLOBAL_BASE

        items = []
        for kernel in KERNELS:
            for analysis in ANALYSES:
                items.append([Op(f"replay:{kernel}:{analysis}", "replay",
                                 {"kernel": kernel,
                                  "analyses": [analysis]})])
            items.append([Op(f"replay:{kernel}:all", "replay",
                             {"kernel": kernel, "analyses": ANALYSES})])
            launches = self.launches[kernel]
            width = (launches + 1) // 2
            lo = int(rng.integers(0, launches - width + 1))
            range_filter = {"launches": f"{lo}:{lo + width}",
                            "classes": pick(rng, QUERY_CLASSES)}
            at = int(rng.integers(0, launches))
            window = pick(rng, QUERY_WINDOWS)
            warp_filter = {"launches": str(at),
                           "warp": int(rng.integers(0, 2)),
                           "addr": f"{GLOBAL_BASE:#x}:"
                                   f"{GLOBAL_BASE + window:#x}"}
            for filt in (range_filter, warp_filter):
                key = ",".join(f"{k}={v}" for k, v in sorted(filt.items()))
                items.append([Op(f"query:{kernel}:{key}", "query",
                                 {"kernel": kernel, "filter": filt})])
        order = rng.permutation(len(KERNELS))
        for kernel, other in zip(KERNELS, order):
            other = KERNELS[int(other)]
            items.append([Op(f"diff:{kernel}:{other}", "diff",
                             {"kernel": kernel, "other": other})])
        rng.shuffle(items)
        return items

    def run(self, op: Op, previous: Any = None) -> Any:
        path = self.corpus[op.args["kernel"]]
        if op.kind == "replay":
            from repro.trace.replay import make_analysis, replay

            analyses = replay(path, [make_analysis(name)
                                     for name in op.args["analyses"]])
            return [analysis.result() for analysis in analyses]
        if op.kind == "query":
            from repro.trace.query import QueryFilter, run_query

            hits, stats = run_query(path,
                                    QueryFilter.parse(**op.args["filter"]))
            return list(hits), stats
        from repro.trace.diff import diff_traces

        return diff_traces(path, self.corpus[op.args["other"]])

    def check(self, op: Op, product: Any) -> Checked:
        work: Dict[str, float] = {}
        if op.kind == "replay":
            work["replay_events"] = float(self.events[op.args["kernel"]])
            result = product
        elif op.kind == "query":
            hits, stats = product
            work["query_events_scanned"] = float(stats.events_scanned)
            work["query_indexed"] = float(stats.used_index)
            per_launch: Dict[int, int] = {}
            for hit in hits:
                per_launch[hit.launch] = per_launch.get(hit.launch, 0) + 1
            result = {"hits": len(hits), "per_launch": per_launch,
                      "launches_visited": stats.launches_visited,
                      "events_scanned": stats.events_scanned}
        else:
            diff = product
            result = {"events_a": diff.events_a, "events_b": diff.events_b,
                      "first_divergence": diff.first_divergence,
                      "deltas": diff.deltas,
                      "identical": diff.identical}
            if (op.args["kernel"] == op.args["other"]) != diff.identical:
                return Checked(digest(result), "diff disagrees with "
                               "whether the traces are the same", work)
        return Checked(digest(result), None, work)

    def cli_trace(self) -> Optional[str]:
        return self.corpus.get("rodinia/nn")


# ------------------------------------------------------- served-campaign

class ServedCampaign(Workload):
    name = "served-campaign"
    round_seconds = 6.0
    in_process = False
    warm_rounds = 1

    def setup(self) -> None:
        from repro.server.client import ServerClient
        from repro.server.service import ServerConfig, start_in_thread

        artifacts = os.path.join(self.work_dir, "artifacts")
        os.makedirs(artifacts, exist_ok=True)
        self.handle = start_in_thread(ServerConfig(
            shards=1, workers=1, artifact_dir=artifacts))
        host, port = self.handle.address
        self.client = ServerClient(host, port)
        # the server is not up until its worker pool is: one no-op job
        self.client.submit_and_wait("bench", {"spin_ms": 0})
        self.artifact_path: Optional[str] = None

    def round_ops(self, rng, index: int) -> List[List[Op]]:
        items = []
        for workload in CAMPAIGN_WORKLOADS:
            for job in range(CAMPAIGN_JOBS):
                # not drawn from the run's seed: a trial's outcome changes
                # its cost up to 4x, so drawn injection seeds made op
                # latency spread 16-23% across run seeds (2-core x86 VM)
                seed = CAMPAIGN_SEED_STRIDE * index + job
                payload = {"workload": workload, "seed": seed,
                           "injections": CAMPAIGN_INJECTIONS}
                items.append([Op(f"campaign:{workload}:{seed}:"
                                 f"{CAMPAIGN_INJECTIONS}", "campaign",
                                 payload)])
        items.append([
            Op(f"capture:{SERVED_CAPTURE}", "capture",
               {"workload": SERVED_CAPTURE}),
            Op(f"replay:{SERVED_CAPTURE}:all", "replay",
               {"analyses": ANALYSES})])
        rng.shuffle(items)
        return items

    def run(self, op: Op, previous: Any = None) -> Any:
        import time

        from repro.server.client import AdmissionRejected

        payload = dict(op.args)
        if op.kind == "replay":
            payload["artifact"] = previous["job_id"]
        for attempt in range(MAX_RETRIES + 1):
            try:
                job_id = self.client.submit(op.kind, payload)
                break
            except AdmissionRejected as exc:
                self.rejections += 1
                if attempt == MAX_RETRIES:
                    raise
                time.sleep(exc.retry_after)
        return self.client.wait(job_id)

    def check(self, op: Op, product: Any) -> Checked:
        record = product
        result = dict(record["result"])
        # timings recorded as counters are not results
        result["counters"] = {k: v for k, v in result["counters"].items()
                              if not k.endswith("_ns")}
        work: Dict[str, float] = {}
        error = None
        if record.get("state") != "done":
            error = f"job ended {record.get('state')!r}"
        if op.kind == "campaign":
            stats = result["kernel_stats"]
            work["sim_warp_instrs"] = float(
                stats["warp_instructions"]
                - stats["sassi_warp_instructions"])
            work["trials"] = float(result["injections"])
            work["job_seconds"] = float(record["wall_seconds"])
        elif op.kind == "capture":
            self.artifact_path = record["artifact_path"]
            work["capture_events"] = float(result["total_events"])
            work["capture_bytes"] = float(
                os.path.getsize(record["artifact_path"]))
            work["capture_seconds"] = float(record["capture_wall_seconds"])
            if not result["verified"]:
                error = "verify failed"
        else:
            work["replay_events"] = float(sum(
                int(v) for k, v in record["telemetry"]["counters"].items()
                if k == "trace.replay.events"))
        return Checked(digest(result), error, work)

    def cli_trace(self) -> Optional[str]:
        return self.artifact_path

    def worker_pids(self) -> List[int]:
        pids: List[int] = []
        for pool in self.handle.server._pools:
            pids.extend((getattr(pool, "_processes", None) or {}).keys())
        return pids

    def teardown(self) -> None:
        # the forkserver helper outlives the pools; run.stop_children
        # stops and reaps it at exit
        self.handle.stop()
        if self.handle.thread.is_alive():
            raise RuntimeError("server thread did not stop")


WORKLOADS = {cls.name: cls for cls in
             (LiveProfile, TraceAnalytics, ServedCampaign)}
