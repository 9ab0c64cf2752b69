"""Span wrappers inside the server's worker processes (traced runs only).

A traced ``served-campaign`` run names this module as a forkserver
preload, so it is imported once in the forkserver helper and inherited
by every worker forked from it.  It wraps the layer boundaries with
:func:`spans.install` and wraps ``repro.server.jobs.run_job_task`` — the
function each task is sent to the worker by — so that, while the flag
file named by ``PIPEBENCH_TRACE_FLAG`` exists, each task runs in a
``campaign.task`` span and ships its per-layer self times back in the
task's telemetry *timers*.  Timers are not part of a job's canonical
result bytes, so results are unchanged.
"""

from __future__ import annotations

import os

from spans import COUNT_PREFIX, TIMER_PREFIX, Recorder, install, self_times


def _install() -> None:
    import repro.server.jobs as jobs

    flag = os.environ.get("PIPEBENCH_TRACE_FLAG", "")
    recorder = Recorder()
    install(recorder)
    original = jobs.run_job_task

    def run_job_task(task):
        if not (flag and os.path.exists(flag)):
            return original(task)
        recorder.clear()
        recorder.active = True
        span = recorder.begin("campaign.task", op=0)
        try:
            piece, telemetry = original(task)
        finally:
            recorder.end(span)
            recorder.active = False
        timers = telemetry["timers"]
        for name, seconds in self_times(recorder.spans)[0].items():
            timers[TIMER_PREFIX + name] = seconds
        for key, amount in recorder.counts[0].items():
            timers[COUNT_PREFIX + key] = amount
        recorder.clear()
        return piece, telemetry

    jobs.run_job_task = run_job_task


_install()
