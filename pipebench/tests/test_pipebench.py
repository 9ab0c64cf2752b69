"""Tests of the pipeline benchmark itself.

Run from the root of a checkout::

    python -m pytest pipebench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

import run
import spans
from stats import tail
from workloads import LiveProfile, Op


# ------------------------------------------------------------ self time

def test_self_times_sum_to_the_op_span():
    # op [0, 10) holds a [1, 6) which holds b [2, 3) and c [3, 5)
    recorded = [
        (1, "op", 0.0, 10.0, None, 7),
        (2, "a", 1.0, 6.0, 1, 7),
        (3, "b", 2.0, 3.0, 2, 7),
        (4, "c", 3.0, 5.0, 2, 7),
    ]
    selfs = spans.self_times(recorded)[7]
    assert selfs == {"op": 5.0, "a": 2.0, "b": 1.0, "c": 2.0}
    assert sum(selfs.values()) == 10.0


def test_self_times_group_repeated_spans_per_op():
    recorded = [
        (1, "op", 0.0, 4.0, None, 1),
        (2, "x", 0.5, 1.0, 1, 1),
        (3, "x", 2.0, 3.5, 1, 1),
        (4, "op", 10.0, 11.0, None, 2),
    ]
    selfs = spans.self_times(recorded)
    assert selfs[1] == {"op": 2.0, "x": 2.0}
    assert selfs[2] == {"op": 1.0}


def test_recorder_nests_spans_and_inherits_the_op():
    recorder = spans.Recorder()
    op = recorder.begin("op", op=3)
    inner = recorder.begin("inner")
    recorder.count("things", 2)
    recorder.end(inner)
    recorder.end(op)
    (_, _, _, _, parent, inner_op), = [s for s in recorder.spans
                                       if s[1] == "inner"]
    assert parent == op[0] and inner_op == 3
    assert recorder.counts[3]["things"] == 2
    op_wall = next(t1 - t0 for _s, name, t0, t1, _p, _o in recorder.spans
                   if name == "op")
    selfs = spans.self_times(recorder.spans)[3]
    assert sum(selfs.values()) == pytest.approx(op_wall, rel=1e-12)


def test_worker_self_times_leave_the_wait_overhead():
    recorded = [
        (1, "op", 0.0, 5.0, None, 0),
        (2, "server.wait", 1.0, 5.0, 1, 0),
        (3, "server.job", 0.0, 3.0, 2, 0),    # the job's wall_seconds
        (4, "campaign.task", 0.0, 0.5, 3, 0),
        (5, "sim.launch", 0.0, 2.0, 3, 0),
    ]
    selfs = spans.self_times(recorded)[0]
    assert selfs["server.wait"] == 1.0        # round trip minus the job
    assert selfs["server.job"] == 0.5         # dispatch outside tasks
    assert sum(selfs.values()) == 5.0


def test_spans_closed_out_of_order_are_refused():
    recorder = spans.Recorder()
    outer = recorder.begin("outer")
    recorder.begin("inner")
    with pytest.raises(RuntimeError):
        recorder.end(outer)


# ----------------------------------------------------------------- tail

@pytest.mark.parametrize("n, percentile", [(20, 50.0), (36, 100 * 26 / 36),
                                           (100, 90.0), (1000, 99.0)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(
        n, percentile):
    samples = [float(i) for i in range(n, 0, -1)]   # n .. 1, unsorted
    value, got, count = tail(samples)
    assert count == n
    assert got == pytest.approx(percentile)
    assert sum(1 for s in samples if s > value) == 10
    assert sum(1 for s in samples if s >= value) == 11


@pytest.mark.parametrize("n", [1, 5, 19])
def test_tail_falls_back_to_the_median_below_twenty_samples(n):
    samples = [float(i) for i in range(n)]
    value, percentile, count = tail(samples)
    assert percentile == 50.0 and count == n
    assert value == run.median(samples)


# ---------------------------------------------------------- correctness

def _checked(workload, op, product, committed):
    sample = run.Sample(op, 0, product=product)
    loop = run.Loop([sample], 0)
    errors = run.check_all(workload, loop, {}, committed)
    return errors, sample


@pytest.fixture
def live(tmp_path):
    workload = LiveProfile(str(tmp_path))
    workload.setup()
    op = Op("live:rodinia/nn:plain", "plain", {"kernel": "rodinia/nn"})
    return workload, op


def test_clean_result_passes_and_matches_the_committed_digest(live):
    workload, op = live
    committed = run.load_digests()["digests"]["live-profile"]
    errors, sample = _checked(workload, op, workload.run(op), committed)
    assert errors == []
    assert sample.error is None


def test_corrupted_output_counts_as_a_failed_op(live):
    workload, op = live
    wl, output, report, manifest = workload.run(op)
    output = output.copy()
    output.flat[0] += 1
    errors, sample = _checked(workload, op, (wl, output, report, manifest),
                              {})
    assert sample.error == "verify failed"
    assert len(errors) == 1


def test_corrupted_statistics_count_as_a_failed_op(live):
    workload, op = live
    clean = workload.check(op, workload.run(op)).digest
    product = workload.run(op)
    product[0].last_trace.launches[0].cycles += 1    # output still right
    errors, sample = _checked(workload, op, product, {op.key: clean})
    assert "differs from the committed" in sample.error
    assert len(errors) == 1


def test_a_result_that_changes_between_repeats_fails(live):
    workload, op = live
    first, second = run.Sample(op, 0, product=workload.run(op)), \
        run.Sample(op, 1, product=workload.run(op))
    second.product[0].last_trace.launches[0].warp_instructions += 1
    loop = run.Loop([first, second], 0)
    errors = run.check_all(workload, loop, {}, {})
    assert first.error is None
    assert "earlier in this run" in second.error
    assert len(errors) == 1


# ------------------------------------------------------------- contract

def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_names_match_the_metrics_printed():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == \
        list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.LAYER_UNITS
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(BENCH, "layer_map.json")) as handle:
        layer_map = json.load(handle)
    assert set(layer_map["layers"]) == \
        {m["name"] for m in _benchmark()["per_layer"]}
    assert set(layer_map["workloads"]) == set(run.WORKLOADS)


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "pipebench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", ["live-profile", "trace-analytics",
                                      "served-campaign"])
def test_each_workload_completes_at_minimal_length(workload):
    out = _run(["--workload", workload, "--seed", "2", "--seconds", "1",
                "--trace", "0"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    out = _run(["--workload", "trace-analytics", "--seed", "2",
                "--seconds", "1", "--trace", "1"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == set(run.LAYER_UNITS)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["sim.launch_self_s"] == 0.0
    layer_sum = sum(metrics[m] for m in spans.LAYER_METRICS.values())
    assert layer_sum == pytest.approx(metrics["op_s"], rel=1e-9)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "live-profile", "--seed", "1", "--seconds",
                "1", "--trace", "0"], cwd=str(tmp_path), timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
