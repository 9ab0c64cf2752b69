"""Plan-level differential suite: every compiled SASSI site plan must
leave exactly the state its per-record walk leaves.

The site plans come from the six pipeline-benchmark kernels compiled
under the five stock handler specs and the trace-capture spec.  Each
distinct plan shape runs twice from identical copies of warp and CTA
state — once through ``SiteSequencePlan.execute`` (via the executor's
``_site_body``, so the stats and telemetry accounting are the real
ones), once as the per-instruction walk of ``plan.records`` — under
full, 1-lane, 31-lane and random active masks.  Registers,
predicates, carry, the local block, ``warp.pc``, the ``KernelStats``
and cycle deltas, the telemetry counters (including the partial-
dispatch count) and everything the handler observed must match.

The handler is a recording stand-in registered under each profiler's
handler symbol: it logs what its context shows (site fields, lanes,
parameter rows) and rewrites frame slots the restores read back, so
fills, ``R2P`` and the carry restore see handler-modified state.
"""

from __future__ import annotations

import io
from dataclasses import replace

import numpy as np
import pytest

from repro.handlers.branch_profiler import BranchProfiler
from repro.handlers.memory_divergence import MemoryDivergenceProfiler
from repro.handlers.memtrace import MemoryTracer
from repro.handlers.opcode_histogram import OpcodeHistogram
from repro.handlers.value_profiler import ValueProfiler
from repro.isa.instruction import Imm
from repro.isa.opcodes import Opcode
from repro.isa.program import SassProgram
from repro.sassi import SassiRuntime
from repro.sassi import params as P
from repro.sassi.abi import CALLER_SAVED, SiteSequencePlan, compile_site_plan
from repro.sassi.handlers import POISON
from repro.sim import Device
from repro.sim.costmodel import CycleCounter
from repro.sim.executor import (
    LOCAL_PHYS_BYTES,
    CTAContext,
    Executor,
    KernelStats,
    _Decoded,
    decode_kernel,
)
from repro.sim.warp import WARP_SIZE, Warp
from repro.telemetry.collector import TELEMETRY
from repro.trace.capture import TraceRecorder
from repro.trace.io import TraceWriter
from repro.workloads import make

KERNELS = [
    "rodinia/pathfinder",
    "rodinia/nw",
    "rodinia/hotspot",
    "parboil/spmv(small)",
    "parboil/sgemm(small)",
    "rodinia/nn",
]


SPECS = {
    "branch_profiler": BranchProfiler,
    "memory_divergence": MemoryDivergenceProfiler,
    "value_profiler": ValueProfiler,
    "opcode_histogram": OpcodeHistogram,
    "memtrace": lambda device: MemoryTracer(device),
    "capture": lambda device: TraceRecorder(
        device, TraceWriter(io.BytesIO())),
}

MASKS = {
    "full": np.ones(WARP_SIZE, dtype=bool),
    "one_lane": np.arange(WARP_SIZE) == 5,
    "31_lanes": np.arange(WARP_SIZE) != 17,
    "random": np.random.default_rng(7).random(WARP_SIZE) < 0.5,
}

#: the CTA's thread count: two warps, the plan runs on the second
NUM_THREADS = 2 * WARP_SIZE


class _Recorder:
    """Warp handler that logs its context and rewrites restore slots."""

    def __init__(self):
        self.log = []

    def __call__(self, ctx):
        bp = ctx.bp
        entry = [bp.GetID(), bp.GetFnAddr(), bp.GetInsOffset(),
                 bp.GetInsEncoding(), tuple(ctx.lanes()), ctx.num_active,
                 ctx.active_mask(), bp.GetInstrWillExecute().tolist()]
        if ctx.mp is not None:
            entry += [ctx.mp.GetAddress().tolist(), ctx.mp.GetWidth()]
        if ctx.brp is not None:
            entry += [ctx.brp.GetDirection().tolist(),
                      ctx.brp.GetTakenOffset()]
        if ctx.rp is not None:
            count = ctx.rp.GetNumGPRDsts()
            entry += [count] + [ctx.rp.GetRegValue(i).tolist()
                                for i in range(count)]
            if count:
                ctx.rp.SetRegValue(0, ctx.leader(), 0x5EED)
        lane = ctx.leader()
        # the frame itself, behind any values the plan handed over
        entry += [bp._read_lane(lane, offset) for offset in
                  (P.BP_ID, P.BP_FN_ADDR, P.BP_INS_OFFSET,
                   P.BP_INS_ENCODING)]
        self.log.append(entry)
        bp._write_lane(lane, P.BP_PR_SPILL, 0x2B)
        bp._write_lane(lane, P.BP_CC_SPILL, 1)
        bp._write_lane(lane, P.BP_GPR_SPILL + 4 * 3, 0xC0FFEE)


def _shape(plan):
    """A plan's shape: its records without the site's immediates."""
    return tuple(
        (rec.opcode, rec.mods, rec.pred_index, rec.negated,
         tuple(repr(op) if not isinstance(op, Imm) else "imm"
               for op in (*rec.dsts, *rec.srcs)))
        for rec in plan.records)


class _Corpus:
    """Every distinct plan shape: ``(label, device, kernel, plan,
    recorder)`` with the recorder bound under the plan's handler."""

    def __init__(self):
        self.cases = []
        seen = set()
        for spec_name, factory in SPECS.items():
            for name in KERNELS:
                device = Device()
                profiler = factory(device)
                kernel = profiler.compile(make(name).build_ir())
                recorder = _Recorder()
                runtime = profiler.runtime
                for registration in list(runtime._registrations.values()):
                    runtime.register_handler(registration.name, recorder)
                for plan in decode_kernel(kernel).blocks_for(True):
                    if not isinstance(plan, SiteSequencePlan):
                        continue
                    shape = _shape(plan)
                    if shape in seen:
                        continue
                    seen.add(shape)
                    self.cases.append((f"{spec_name}:{name}@{plan.start}",
                                       device, kernel, plan, recorder))


@pytest.fixture(scope="module")
def corpus():
    return _Corpus()


def _state(kernel, plan, mask, seed, r1=LOCAL_PHYS_BYTES - 0x40):
    rng = np.random.default_rng(seed)
    cta = CTAContext((0, 0, 0), 0, num_threads=NUM_THREADS)
    block = cta.local_block()
    block[:] = rng.integers(0, 256, block.shape, dtype=np.uint8)
    warp = Warp(1, max(kernel.num_regs, 8), WARP_SIZE,
                np.arange(WARP_SIZE, 2 * WARP_SIZE, dtype=np.int64))
    warp.regs[:] = rng.integers(0, 1 << 32, warp.regs.shape,
                                dtype=np.uint32)
    warp.regs[1] = r1
    warp.preds[:7] = rng.random((7, WARP_SIZE)) < 0.5
    warp.carry[:] = rng.random(WARP_SIZE) < 0.5
    warp.active = mask.copy()
    warp.pc = plan.start
    return warp, cta


def _snapshot(warp, cta):
    return (warp.regs.copy(), warp.preds.copy(), warp.carry.copy(),
            cta.local_block().copy(), warp.pc)


class _Spy:
    """Forwards to a plan, recording what ``execute`` returned."""

    def __init__(self, plan):
        self._plan = plan
        self.results = []

    def __getattr__(self, name):
        return getattr(self._plan, name)

    def execute(self, *args):
        result = self._plan.execute(*args)
        self.results.append(result)
        return result


def _run(device, kernel, plan, recorder, mask, seed, fused,
         r1=LOCAL_PHYS_BYTES - 0x40):
    warp, cta = _state(kernel, plan, mask, seed, r1)
    executor = Executor(device)
    executor._kernel = kernel
    executor._decoded = decode_kernel(kernel)
    executor._targets = executor._decoded.targets
    executor.stats = KernelStats(kernel=kernel.name)
    counter = CycleCounter()
    recorder.log = []
    spy = _Spy(plan)
    TELEMETRY.enable(reset=True)
    try:
        if fused:
            executor._site_body(spy, warp, cta, counter)
        else:
            end = plan.start + plan.length
            while warp.pc < end:
                executor._execute(plan.records[warp.pc - plan.start],
                                  warp, cta, counter)
        counters = dict(TELEMETRY.counters)
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    return (_snapshot(warp, cta), executor.stats, counter.cycles, counters,
            list(recorder.log), spy.results)


def _assert_same(case, mask_name, seed=0):
    label, device, kernel, plan, recorder = case
    mask = MASKS[mask_name]
    fused = _run(device, kernel, plan, recorder, mask, seed, True)
    walked = _run(device, kernel, plan, recorder, mask, seed, False)
    what = f"{label} [{mask_name}]"
    (f_state, f_stats, f_cycles, f_counters, f_log, f_results) = fused
    (w_state, w_stats, w_cycles, w_counters, w_log, _) = walked
    assert len(f_results) == 1 and f_results[0] is not None, \
        f"{what}: the plan declined"
    for name, a, b in zip(("regs", "preds", "carry", "local block", "pc"),
                          f_state, w_state):
        assert np.array_equal(a, b), f"{what}: {name} differ"
    assert f_stats == w_stats, f"{what}: KernelStats differ"
    assert f_cycles == w_cycles, f"{what}: cycles differ"
    assert f_counters == w_counters, f"{what}: telemetry counters differ"
    assert f_results[0] == w_counters.get("divergence.partial_dispatch", 0), \
        f"{what}: partial-dispatch count differs"
    assert f_log == w_log, f"{what}: the handler saw different contexts"


def _pick(corpus, predicate, what, limit=8):
    """Up to *limit* corpus plans with a named shape (the full sweep,
    ``test_every_plan_matches_its_record_walk``, runs every one)."""
    found = [case for case in corpus.cases if predicate(case[3])]
    assert found, f"no compiled site plan has {what}"
    return found[:limit]


# ------------------------------------------------------- plan shapes


def _post_call(plan):
    return plan.records[plan.jcal_index - plan.start + 1:]


def _refilled_around_r2p(plan) -> bool:
    """One register filled twice, with an ``R2P`` between the fills."""
    filled = {}
    for index, rec in enumerate(_post_call(plan)):
        if rec.opcode is Opcode.LDL:
            reg = rec.dsts[0].index
            if reg in filled and any(
                    r.opcode is Opcode.R2P
                    for r in _post_call(plan)[filled[reg]:index]):
                return True
            filled[reg] = index
    return False


def _half_folded_st64(plan):
    """The index (within ``plan.records``) of the immediate an
    ``STL.64`` is half-folded against — one half of the stored pair was
    last set to an immediate, the other computed — or None."""
    constant = {}
    for index, rec in enumerate(plan.records[:plan.jcal_index - plan.start]):
        if rec.opcode is Opcode.STL and rec.mods == ("64",):
            lo = rec.srcs[1].index
            halves = [constant.get(lo), constant.get(lo + 1)]
            if None not in halves and (halves[0] is False) != \
                    (halves[1] is False):
                return halves[0] or halves[1]
            continue
        if index and rec.dsts and not rec.dsts[0].is_zero:
            folds = rec.opcode is Opcode.MOV32I or (
                rec.opcode is Opcode.IADD and not rec.mods
                and rec.srcs[0].is_zero)
            constant[rec.dsts[0].index] = index if folds else False
    return None


def _with_immediate(plan, index, value):
    """*plan* recompiled with record *index*'s immediate set to *value*
    (the injector's half-folded immediates are all zero, which a frame
    image that forgot them would still match)."""
    records = list(plan.records)
    rec = records[index]
    records[index] = _Decoded(
        replace(rec.instr, srcs=(rec.srcs[0], Imm(value))), rec.target)
    variant = compile_site_plan(records, 0, SassProgram.HANDLER_BASE)
    assert variant is not None
    return variant


# ------------------------------------------------------------- tests


@pytest.mark.parametrize("mask_name", list(MASKS))
def test_every_plan_matches_its_record_walk(corpus, mask_name):
    assert len(corpus.cases) > 20
    for seed, case in enumerate(corpus.cases):
        _assert_same(case, mask_name, seed)


def test_register_filled_twice_around_r2p(corpus):
    for case in _pick(corpus, _refilled_around_r2p,
                      "a register filled twice around an R2P"):
        for mask_name in MASKS:
            _assert_same(case, mask_name)


def test_st64_half_folded_against_an_imm(corpus):
    found = _pick(corpus, lambda plan: _half_folded_st64(plan) is not None,
                  "an STL.64 half-folded against an immediate")
    for label, device, kernel, plan, recorder in found:
        variant = _with_immediate(plan, _half_folded_st64(plan), 0x1234)
        for case in ((label, device, kernel, plan, recorder),
                     (label + "+imm", device, kernel, variant, recorder)):
            for mask_name in MASKS:
                _assert_same(case, mask_name)


def test_guard_pairs(corpus):
    for case in _pick(corpus, lambda plan: plan.n_pairs > 0,
                      "a guard-flag pair"):
        for mask_name in MASKS:
            _assert_same(case, mask_name)


def test_every_plan_hands_over_its_frame_constants(corpus):
    """Every corpus plan hands the binding all four constant fields (the
    handler log, compared against the record walk, proves the values)."""
    fields = {(offset, 4) for offset in (P.BP_ID, P.BP_FN_ADDR,
                                         P.BP_INS_OFFSET, P.BP_INS_ENCODING)}
    for label, _, _, plan, _ in corpus.cases:
        assert set(plan.frame_constants) == fields, label


STACK_POINTERS = {
    "below the frame": lambda plan: plan.frame - 4,
    "per-lane": lambda plan: LOCAL_PHYS_BYTES - 0x40
    - 4 * np.arange(WARP_SIZE, dtype=np.uint32),
    "unaligned": lambda plan: LOCAL_PHYS_BYTES - 0x42,
}


@pytest.mark.parametrize("where", list(STACK_POINTERS))
def test_declining_plan_changes_no_state(corpus, where):
    """With the frame outside the local block, or not at one aligned
    offset across the warp, ``execute`` declines before touching
    anything, and the executor's walk of the records takes over."""
    for seed, (label, device, kernel, plan, recorder) in \
            enumerate(corpus.cases):
        r1 = STACK_POINTERS[where](plan)
        warp, cta = _state(kernel, plan, MASKS["full"], seed, r1)
        before = _snapshot(warp, cta)
        executor = Executor(device)
        executor.stats = KernelStats(kernel=kernel.name)
        counter = CycleCounter()
        g = warp.active
        result = plan.execute(executor, warp, cta, g, np.nonzero(g)[0],
                              counter)
        assert result is None, label
        for a, b in zip(before, _snapshot(warp, cta)):
            assert np.array_equal(a, b), label
        assert executor.stats == KernelStats(kernel=kernel.name), label
        assert counter.cycles == 0 and executor._site_hint is None, label
        if where != "below the frame":
            fused = _run(device, kernel, plan, recorder, MASKS["full"],
                         seed, True, r1)
            walked = _run(device, kernel, plan, recorder, MASKS["full"],
                          seed, False, r1)
            assert fused[4] == walked[4], label
            for a, b in zip(fused[0], walked[0]):
                assert np.array_equal(a, b), label


@pytest.mark.parametrize("mask_name", list(MASKS))
def test_poison_covers_exactly_the_calling_lanes(mask_name):
    runtime = SassiRuntime(Device())
    warp = Warp(0, 24, WARP_SIZE, np.arange(WARP_SIZE, dtype=np.int64))
    warp.regs[:] = 7
    lanes = np.nonzero(MASKS[mask_name])[0]
    runtime._poison(warp, lanes)
    expected = np.full_like(warp.regs, 7)
    for reg in CALLER_SAVED:
        expected[reg, lanes] = POISON
    assert np.array_equal(warp.regs, expected)
