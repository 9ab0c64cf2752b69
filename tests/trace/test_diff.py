"""Trace diff: self-diff is empty, synthetic divergences are located
exactly, and error-injection sidecars from different seeds diverge."""

from __future__ import annotations

import os

import pytest

import repro.trace.diff as diff_mod
from repro.telemetry import TELEMETRY
from repro.trace import TraceWriter, capture_workload, diff_traces
from repro.trace.index import index_path_for
from repro.trace.format import (
    BranchEvent,
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
)


def _write(path, events):
    with TraceWriter(str(path)) as writer:
        for event in events:
            writer.write(event)


BASE = [
    LaunchEvent(kernel="k", grid=(1, 1, 1), block=(32, 1, 1),
                launch_index=0),
    InstrEvent(ins_addr=0x100, opcode=1, lanes=32, width=0),
    BranchEvent(ins_addr=0x110, active=32, taken=4, not_taken=28),
    InstrEvent(ins_addr=0x120, opcode=2, lanes=32, width=0),
    KernelEndEvent(warp_instructions=3),
]


class TestSyntheticDiff:
    def test_self_diff_is_identical(self, tmp_path):
        a = tmp_path / "a.rptrace"
        _write(a, BASE)
        diff = diff_traces(str(a), str(a))
        assert diff.identical
        assert diff.first_divergence is None
        assert diff.deltas == 0
        assert "identical" in diff.report()
        assert "0 deltas" in diff.report()

    def test_first_divergence_index_exact(self, tmp_path):
        a, b = tmp_path / "a.rptrace", tmp_path / "b.rptrace"
        _write(a, BASE)
        changed = list(BASE)
        changed[2] = BranchEvent(ins_addr=0x110, active=32, taken=5,
                                 not_taken=27)
        _write(b, changed)
        diff = diff_traces(str(a), str(b))
        assert not diff.identical
        assert diff.first_divergence == 2
        assert diff.deltas == 1
        assert diff.kernel_frame == ("k", 0)
        assert diff.divergent_pair == (BASE[2], changed[2])
        assert "first divergence at event 2" in diff.report()

    def test_length_mismatch_diverges_at_tail(self, tmp_path):
        a, b = tmp_path / "a.rptrace", tmp_path / "b.rptrace"
        _write(a, BASE)
        _write(b, BASE + [InstrEvent(ins_addr=0x130, opcode=3, lanes=32,
                                     width=0)])
        diff = diff_traces(str(a), str(b))
        assert diff.first_divergence == len(BASE)
        assert diff.events_a == len(BASE)
        assert diff.events_b == len(BASE) + 1
        assert diff.divergent_pair[0] is None

    def test_max_deltas_truncates_count(self, tmp_path):
        a, b = tmp_path / "a.rptrace", tmp_path / "b.rptrace"
        many = [InstrEvent(ins_addr=0x100 + 16 * i, opcode=1, lanes=32,
                           width=0) for i in range(50)]
        other = [InstrEvent(ins_addr=0x100 + 16 * i, opcode=2, lanes=32,
                            width=0) for i in range(50)]
        _write(a, many)
        _write(b, other)
        diff = diff_traces(str(a), str(b), max_deltas=10)
        assert diff.deltas == 10
        assert diff.deltas_truncated
        assert diff.first_divergence == 0
        # totals still reflect the full traces
        assert diff.events_a == diff.events_b == 50
        assert "10+" in diff.report()


def _framed(opcodes):
    """One launch frame holding one instruction per opcode."""
    return ([BASE[0]]
            + [InstrEvent(ins_addr=0x100 + 16 * i, opcode=op, lanes=32,
                          width=0) for i, op in enumerate(opcodes)]
            + [KernelEndEvent(warp_instructions=len(opcodes))])


def _pair(tmp_path, differing, columnar, monkeypatch):
    """Two 20-instruction traces whose first *differing* instructions
    differ.  With *columnar* the sidecars stay and the event walk is
    made to fail, so the columnar path must answer; without it the
    sidecars are deleted, which forces the walk."""
    a, b = str(tmp_path / "a.rptrace"), str(tmp_path / "b.rptrace")
    _write(a, _framed([1] * 20))
    _write(b, _framed([2] * differing + [1] * (20 - differing)))
    if columnar:
        def no_walk(*args):
            raise AssertionError("columnar diff fell back to the walk")
        monkeypatch.setattr(diff_mod, "_diff_events", no_walk)
    else:
        os.remove(index_path_for(a))
        os.remove(index_path_for(b))
    return a, b


@pytest.mark.parametrize("columnar", [True, False],
                         ids=["columnar", "walk"])
class TestDeltaTruncation:
    def test_exactly_max_deltas_is_not_truncated(self, tmp_path,
                                                 monkeypatch, columnar):
        a, b = _pair(tmp_path, 10, columnar, monkeypatch)
        diff = diff_traces(a, b, max_deltas=10)
        assert diff.deltas == 10
        assert not diff.deltas_truncated
        assert "10 differing events" in diff.report()
        assert "10+" not in diff.report()

    def test_one_past_max_deltas_is_truncated(self, tmp_path, monkeypatch,
                                              columnar):
        a, b = _pair(tmp_path, 11, columnar, monkeypatch)
        diff = diff_traces(a, b, max_deltas=10)
        assert diff.deltas == 10
        assert diff.deltas_truncated
        assert "10+ differing events" in diff.report()
        assert diff.events_a == diff.events_b == 22

    def test_telemetry_span_and_event_count(self, tmp_path, monkeypatch,
                                            columnar):
        a, b = _pair(tmp_path, 3, columnar, monkeypatch)
        TELEMETRY.enable(reset=True)
        try:
            diff = diff_traces(a, b)
            counters = dict(TELEMETRY.counters)
            roots = [root.name for root in TELEMETRY.roots]
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert "trace.diff" in roots
        assert counters["trace.diff.events"] == \
            diff.events_a + diff.events_b == 44


@pytest.mark.parametrize("bad", [0, -5])
def test_max_deltas_below_one_rejected(tmp_path, bad):
    a = str(tmp_path / "a.rptrace")
    _write(a, BASE)
    with pytest.raises(ValueError, match="at least 1"):
        diff_traces(a, a, max_deltas=bad)


class TestCapturedDiff:
    def test_capture_self_diff(self, tmp_path):
        path = str(tmp_path / "v.rptrace")
        capture_workload("vectoradd", path)
        diff = diff_traces(path, path)
        assert diff.identical
        assert diff.events_a > 0

    def test_injection_seeds_diverge(self, tmp_path):
        """Sidecar traces from two different campaign seeds must show a
        nonzero first-divergence point for at least one trial."""
        from repro.handlers.error_injection import ErrorInjectionCampaign
        from repro.workloads import make

        campaigns = {}
        for seed in (7, 8):
            campaign = ErrorInjectionCampaign(
                make("vectoradd"), seed=seed,
                trace_dir=str(tmp_path / f"seed{seed}"))
            campaign.golden_run()
            campaign.profile()
            (tmp_path / f"seed{seed}").mkdir(exist_ok=True)
            for index in range(3):
                campaign.trial(index)
            campaigns[seed] = campaign

        divergences = []
        for index in range(3):
            diff = diff_traces(
                campaigns[7].trial_trace_path(index),
                campaigns[8].trial_trace_path(index))
            if not diff.identical:
                divergences.append(diff)
        assert divergences, \
            "no sidecar divergence across 3 trials of seeds 7 vs 8"
        assert any(d.first_divergence > 0 for d in divergences)
        assert all(d.kernel_frame is not None for d in divergences)
