"""ABI-compliant call-sequence generation (the paper's Figure 2).

For each instrumentation site the injector emits, in order:

1. stack allocation (``IADD R1, R1, -frame``);
2. spills of live caller-saved GPRs into ``bp.GPRSpill`` (slot = register
   number), the predicate file via ``P2R``/``STL``, and the carry flag
   (read with ``IADD.X R2, RZ, RZ``);
3. initialization of the ``SASSIBeforeParams`` fields (site id, fnAddr,
   insOffset, insEncoding, per-thread ``instrWillExecute`` computed with
   the guarded ``@P IADD R4, RZ, 0x1 / @!P IADD R4, RZ, 0x0`` pair exactly
   as in Figure 2);
4. marshaling of the requested extra parameter objects (memory address
   pair + properties/width/domain; branch direction; destination-register
   numbers and values);
5. the generic-pointer arguments: ``LOP.OR R4, R1, c[0x0][0x24]`` /
   ``IADD R5, RZ, 0x0`` for ``bp`` and the same plus ``+0x60`` in
   ``R6/R7`` for the extra object, per the compute ABI;
6. ``JCAL <handler>``;
7. restores (predicates, carry, spilled GPRs, optional register
   write-back) and stack release.

Every emitted instruction carries ``tag="sassi"`` so it is never itself
instrumented and so the simulator can attribute overhead precisely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.isa.instruction import (
    ConstRef,
    Imm,
    Instruction,
    MemRef,
    MemSpace,
    PredGuard,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import STACK_BASE_OFFSET
from repro.isa.registers import GPR, PT, RZ, Pred
from repro.sassi import params as P
from repro.sassi.spec import InstrumentationSpec, What, Where
from repro.sim.costmodel import block_issue_cycles
from repro.sim.memory import SHARED_BASE
from repro.telemetry.classify import SAVE_RESTORE_KEYS, block_dispatch_counts

#: Caller-saved registers a ≤16-register handler may clobber (R1 is the
#: stack pointer and is callee-preserved by construction).
CALLER_SAVED = frozenset(r for r in range(16) if r != 1)

#: Branch-target offsets are patched after the whole kernel is rebuilt;
#: until then they are encoded as PATCH_TARGET_BASE + original index.
PATCH_TARGET_BASE = 0x7E000000


@dataclass(frozen=True)
class SiteRequest:
    """Everything the sequence generator needs for one site."""

    instr: Instruction
    site_id: int
    where: Where
    fn_addr: int
    encoding_low: int
    live_gprs: Tuple[int, ...]        # live register numbers at the site
    handler_addr: int
    spec: InstrumentationSpec
    original_target_index: Optional[int] = None  # for branch sites
    already_spilled: frozenset = frozenset()


def _sassi(opcode, dsts=(), srcs=(), mods=(), guard=PredGuard()):
    return Instruction(opcode=opcode, dsts=tuple(dsts), srcs=tuple(srcs),
                       mods=tuple(mods), guard=guard, tag="sassi")


def _stl(offset: int, reg: GPR, wide: bool = False) -> Instruction:
    mods = ("64",) if wide else ()
    return _sassi(Opcode.STL, (),
                  (MemRef(MemSpace.LOCAL, GPR(1), offset), reg), mods)


def _ldl(reg: GPR, offset: int) -> Instruction:
    return _sassi(Opcode.LDL, (reg,),
                  (MemRef(MemSpace.LOCAL, GPR(1), offset),))


def _mov_imm(reg: GPR, value: int) -> Instruction:
    value &= 0xFFFFFFFF
    if value >= 1 << 31:
        value -= 1 << 32
    if -(1 << 19) < value < (1 << 19):
        return _sassi(Opcode.IADD, (reg,), (RZ, Imm(value)))
    return _sassi(Opcode.MOV32I, (reg,), (Imm(value),))


def memory_properties(instr: Instruction) -> int:
    bits = 0
    if instr.is_mem_read:
        bits |= P.PROP_IS_LOAD
    if instr.is_mem_write:
        bits |= P.PROP_IS_STORE
    if instr.is_atomic:
        bits |= P.PROP_IS_ATOMIC
    return bits


def frame_parts(spec: InstrumentationSpec, instr: Instruction, where: Where):
    """Which extra parameter objects this site marshals, and the frame."""
    with_memory = What.MEMORY in spec.what and instr.is_memory \
        and instr.mem_ref is not None
    with_branch = What.COND_BRANCH in spec.what and instr.is_cond_control_xfer
    with_regs = What.REGISTERS in spec.what and (
        bool(instr.gpr_defs()) or where is Where.AFTER)
    return P.frame_layout(with_memory, with_branch, with_regs), \
        with_memory, with_branch, with_regs


def _site_registers(instr: Instruction, with_memory: bool,
                    with_regs: bool) -> frozenset:
    """Registers whose *original* values the marshaling code must read."""
    regs = set()
    if with_regs:
        regs.update(_dst_regs(instr))
    if with_memory and instr.mem_ref is not None \
            and not instr.mem_ref.base.is_zero:
        base = instr.mem_ref.base.index
        regs.add(base)
        if instr.mem_ref.space in (MemSpace.GLOBAL, MemSpace.TEXTURE,
                                   MemSpace.GENERIC):
            regs.add(base + 1)
    return frozenset(regs)


def _pick_scratch(forbidden: frozenset, preferred: Sequence[int]) -> int:
    for reg in preferred:
        if reg not in forbidden:
            return reg
    raise AssertionError("no scratch register available")


def build_call_sequence(request: SiteRequest) -> List[Instruction]:
    """The full injected sequence for one site.

    Ordering constraint: everything that reads *original* architectural
    state (register-value captures, the memory-address pair, predicate
    and carry spills, the guard-dependent fields) is emitted before the
    scratch registers it would clobber are reused, and the carry flag is
    saved before the address computation's ``IADD.CC`` destroys it.
    """
    spec = request.spec
    instr = request.instr
    (memory_at, branch_at, regs_at, frame), with_memory, with_branch, \
        with_regs = frame_parts(spec, instr, request.where)

    site_regs = _site_registers(instr, with_memory, with_regs)
    pred_scratch = GPR(_pick_scratch(site_regs, (3, 0, 2, 9, 11, 13, 15)))
    cc_scratch = GPR(_pick_scratch(site_regs | {pred_scratch.index},
                                   (2, 0, 3, 9, 11, 13, 15)))

    seq: List[Instruction] = []
    emit = seq.append

    # (1) stack allocation
    emit(_sassi(Opcode.IADD, (GPR(1),), (GPR(1), Imm(-frame))))

    # (2) spills of live caller-saved registers
    spill_set = sorted(r for r in request.live_gprs if r in CALLER_SAVED)
    stored = [r for r in spill_set if r not in request.already_spilled]
    for reg in stored:
        emit(_stl(P.BP_GPR_SPILL + 4 * reg, GPR(reg)))

    # (2b) capture destination-register values while still intact
    if with_regs:
        for index, reg in enumerate(_dst_regs(instr)):
            emit(_stl(regs_at + P.RP_VALUES + 4 * index, GPR(reg)))

    # (2c) predicate and carry spills (carry before any IADD.CC below)
    emit(_sassi(Opcode.P2R, (pred_scratch,), (Imm(0x7F),)))
    emit(_stl(P.BP_PR_SPILL, pred_scratch))
    emit(_sassi(Opcode.IADD, (cc_scratch,), (RZ, RZ), mods=("X",)))
    emit(_stl(P.BP_CC_SPILL, cc_scratch))

    # (2d) the memory operand's effective address (may use IADD.CC)
    if with_memory:
        _emit_memory_address(seq, instr, memory_at)

    # (3) SASSIBeforeParams fields
    emit(_mov_imm(GPR(4), request.site_id))
    emit(_stl(P.BP_ID, GPR(4)))
    emit(_mov_imm(GPR(5), request.fn_addr))
    emit(_stl(P.BP_FN_ADDR, GPR(5)))
    emit(_mov_imm(GPR(4), 0))          # insOffset patched by the injector
    seq[-1] = _offset_placeholder(seq[-1], request.where)
    emit(_stl(P.BP_INS_OFFSET, GPR(4)))
    emit(_mov_imm(GPR(5), request.encoding_low))
    emit(_stl(P.BP_INS_ENCODING, GPR(5)))
    _emit_guard_flag(seq, instr.guard, GPR(4))
    emit(_stl(P.BP_WILL_EXECUTE, GPR(4)))

    # (4) remaining extra-parameter fields (immediates only)
    if with_memory:
        _emit_memory_static_fields(seq, instr, memory_at)
    if with_branch:
        _emit_branch_params(seq, instr, branch_at, request)
    if with_regs:
        _emit_register_metadata(seq, instr, regs_at)

    # (5) argument pointers per the ABI
    emit(_sassi(Opcode.LOP, (GPR(4),),
                (GPR(1), ConstRef(0, STACK_BASE_OFFSET)), mods=("OR",)))
    emit(_sassi(Opcode.IADD, (GPR(5),), (RZ, Imm(0))))
    if with_memory or with_branch or with_regs:
        emit(_sassi(Opcode.LOP, (GPR(6),),
                    (GPR(1), ConstRef(0, STACK_BASE_OFFSET)), mods=("OR",)))
        emit(_sassi(Opcode.IADD, (GPR(6),), (GPR(6), Imm(P.BP_SIZE))))
        emit(_sassi(Opcode.IADD, (GPR(7),), (RZ, Imm(0))))

    # (6) the call
    emit(_sassi(Opcode.JCAL, (), (Imm(request.handler_addr),)))

    # (7) restores
    emit(_ldl(GPR(3), P.BP_PR_SPILL))
    emit(_sassi(Opcode.R2P, (), (GPR(3), Imm(0x7F))))
    emit(_ldl(GPR(2), P.BP_CC_SPILL))
    emit(_sassi(Opcode.IADD, (RZ,), (GPR(2), Imm(-1)), mods=("CC",)))
    for reg in reversed(spill_set):
        emit(_ldl(GPR(reg), P.BP_GPR_SPILL + 4 * reg))
    if with_regs and spec.writeback_registers \
            and request.where is Where.AFTER:
        for index, reg in enumerate(_dst_regs(instr)):
            emit(_ldl(GPR(reg), P.RP_VALUES + regs_at + 4 * index))
    emit(_sassi(Opcode.IADD, (GPR(1),), (GPR(1), Imm(frame))))
    return seq


def _offset_placeholder(instruction: Instruction,
                        where: Where) -> Instruction:
    """Mark the insOffset immediate for post-assembly patching.

    ``PATCH_TARGET_BASE - 1`` resolves to the next original instruction
    (before-sites); ``- 2`` to the previous one (after-sites).
    """
    from dataclasses import replace

    sentinel = PATCH_TARGET_BASE - (1 if where is Where.BEFORE else 2)
    return replace(instruction, srcs=(RZ, Imm(sentinel)))


def _emit_guard_flag(seq: List[Instruction], guard: PredGuard,
                     reg: GPR) -> None:
    """``reg = 1`` iff the original instruction's guard passes — the
    Figure 2 ``@P0 IADD R4, RZ, 0x1 / @!P0 IADD R4, RZ, 0x0`` pair."""
    if guard.is_unconditional:
        seq.append(_sassi(Opcode.IADD, (reg,), (RZ, Imm(1))))
        return
    seq.append(_sassi(Opcode.IADD, (reg,), (RZ, Imm(1)),
                      guard=PredGuard(guard.pred, guard.negated)))
    seq.append(_sassi(Opcode.IADD, (reg,), (RZ, Imm(0)),
                      guard=PredGuard(guard.pred, not guard.negated)))


def _emit_memory_address(seq: List[Instruction], instr: Instruction,
                         base: int) -> None:
    """Compute the effective address into R6/R7 and store it (the
    Figure 2 ``IADD R6.CC, R10, 0x0 / IADD.X R7, R11, RZ / STL.64``)."""
    ref = instr.mem_ref
    emit = seq.append
    if ref.base.is_zero:
        emit(_mov_imm(GPR(6), ref.offset))
        emit(_sassi(Opcode.IADD, (GPR(7),), (RZ, Imm(0))))
    elif ref.space in (MemSpace.GLOBAL, MemSpace.TEXTURE, MemSpace.GENERIC):
        emit(_sassi(Opcode.IADD, (GPR(6),),
                    (GPR(ref.base.index), Imm(ref.offset)), mods=("CC",)))
        emit(_sassi(Opcode.IADD, (GPR(7),),
                    (GPR(ref.base.index + 1), RZ), mods=("X",)))
    elif ref.space is MemSpace.SHARED:
        emit(_sassi(Opcode.IADD, (GPR(6),),
                    (GPR(ref.base.index), Imm(ref.offset))))
        emit(_sassi(Opcode.LOP32I, (GPR(6),),
                    (GPR(6), Imm(SHARED_BASE)), mods=("OR",)))
        emit(_sassi(Opcode.IADD, (GPR(7),), (RZ, Imm(0))))
    else:  # LOCAL / CONST: form the generic local-window address
        emit(_sassi(Opcode.IADD, (GPR(6),),
                    (GPR(ref.base.index), Imm(ref.offset))))
        emit(_sassi(Opcode.LOP, (GPR(6),),
                    (GPR(6), ConstRef(0, STACK_BASE_OFFSET)), mods=("OR",)))
        emit(_sassi(Opcode.IADD, (GPR(7),), (RZ, Imm(0))))
    emit(_stl(base + P.MP_ADDRESS, GPR(6), wide=True))


def _emit_memory_static_fields(seq: List[Instruction], instr: Instruction,
                               base: int) -> None:
    emit = seq.append
    emit(_mov_imm(GPR(6), memory_properties(instr)))
    emit(_stl(base + P.MP_PROPERTIES, GPR(6)))
    emit(_mov_imm(GPR(6), instr.mem_width))
    emit(_stl(base + P.MP_WIDTH, GPR(6)))
    space = instr.mem_space or MemSpace.GENERIC
    emit(_mov_imm(GPR(6), space.value))
    emit(_stl(base + P.MP_DOMAIN, GPR(6)))


def _emit_branch_params(seq: List[Instruction], instr: Instruction,
                        base: int, request: SiteRequest) -> None:
    emit = seq.append
    _emit_guard_flag(seq, instr.guard, GPR(6))
    emit(_stl(base + P.BRP_DIRECTION, GPR(6)))
    if request.original_target_index is not None:
        emit(_mov_imm(GPR(6),
                      PATCH_TARGET_BASE + request.original_target_index))
    else:
        emit(_mov_imm(GPR(6), 0xFFFFFFFF))
    emit(_stl(base + P.BRP_TAKEN_OFFSET, GPR(6)))
    flags = P.BRP_FLAG_IS_BREAK if instr.opcode is Opcode.BRK else 0
    emit(_mov_imm(GPR(6), flags))
    emit(_stl(base + P.BRP_FLAGS, GPR(6)))


def _dst_regs(instr: Instruction) -> List[int]:
    regs = [r.index for r in instr.gpr_defs()]
    return regs[:P.MAX_REG_DSTS]


def _emit_register_metadata(seq: List[Instruction], instr: Instruction,
                            base: int) -> None:
    """Destination count and register numbers (the values themselves were
    captured earlier, before any scratch register was clobbered)."""
    emit = seq.append
    dsts = _dst_regs(instr)
    emit(_mov_imm(GPR(6), len(dsts)))
    emit(_stl(base + P.RP_NUM_DSTS, GPR(6)))
    for index, reg in enumerate(dsts):
        emit(_mov_imm(GPR(6), reg))
        emit(_stl(base + P.RP_REG_NUMS + 4 * index, GPR(6)))


# ---------------------------------------------------------------------
# batched site execution: one array-op replay of a whole call sequence
# ---------------------------------------------------------------------
#
# The injected sequences above are rigid by construction: straight-line
# spills, immediate field initializers, one address computation, one
# JCAL, and the mirrored restores.  ``compile_site_plan`` pattern-matches
# a decoded instruction run back into that shape at decode time, and
# ``SiteSequencePlan`` splits it statically, so that a firing of a
# 23-56 instruction sequence costs about thirty array operations:
#
# * every spill or field store of a register the sequence has not yet
#   rewritten joins one row gather (``regs[rows]``) into the frame
#   image;
# * every store of an immediate folds into the image's static words,
#   and the final immediate register writes become one constant-row
#   store;
# * only the value-computing ops stay in a per-op loop — argument
#   pointers, address arithmetic, the carry chain, guard-flag pairs and
#   ``P2R`` (one weighted sum): three to seven per site — and each
#   writes its result straight into its image row;
# * one word scatter writes the image for every lane, and after the
#   handler one word gather reads every fill slot back: the fills
#   become one row store (the last fill of a register wins), each
#   ``R2P`` one broadcast store and each carry restore one compare,
#   reading their input from the fill slot just before them.
#
# A full-warp firing indexes whole rows, with no lane gather at all.
# The per-site stats/telemetry cost splits (spill / fill / save_restore
# / param_marshal) are precomputed too, identical to per-record
# ``sassi_key`` classification (tests enforce it).
#
# Anything that does not match — predicated original sites beyond the
# Figure 2 guard-flag pair, exotic register indices or unaligned frame
# offsets; at run time, stack pointers that differ across the warp,
# are unaligned or put the frame outside the local window — falls back
# to the per-instruction path, which stays authoritative.


def _gpr_index(operand) -> Optional[int]:
    """Register index of a non-RZ GPR operand (None otherwise)."""
    if isinstance(operand, GPR) and not operand.is_zero:
        return operand.index
    return None


def _is_rz(operand) -> bool:
    return isinstance(operand, GPR) and operand.is_zero


def _local_ref(operand) -> Optional[MemRef]:
    """The ``[R1 + offset]`` local reference of an injected STL/LDL."""
    if isinstance(operand, MemRef) and operand.space is MemSpace.LOCAL \
            and isinstance(operand.base, GPR) and not operand.base.is_zero \
            and operand.base.index == 1 and operand.offset >= 0:
        return operand
    return None


#: ``P2R`` packs P0..P6 as one weighted sum over the predicate rows
_P2R_WEIGHTS = np.uint32(1) << np.arange(7, dtype=np.uint32)

#: the ``SASSIBeforeParams`` fields a site's frame image holds as
#: constants, handed to the handler binding so it need not read them
#: back from simulated memory
_FRAME_CONSTANT_FIELDS = (P.BP_ID, P.BP_FN_ADDR, P.BP_INS_OFFSET,
                          P.BP_INS_ENCODING)


def _rows(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


class SiteSequencePlan:
    """One instrumentation site's call sequence, compiled to array ops.

    ``execute`` replays the whole sequence for the active lanes with
    about thirty array operations and invokes the handler binding
    exactly as ``JCAL`` would.  It returns the number of
    ``divergence.partial_dispatch`` telemetry increments the per-record
    path would have made (guard-flag pairs at predicated sites), or
    ``None`` when a run-time precondition fails and the caller must
    fall back to per-instruction execution *before any state changed*.

    While the binding runs, ``ex._site_hint`` holds the firing's
    active-lane indices and :attr:`frame_constants`, so the handler
    context skips recomputing the lanes and reading the site key back
    from the frame.
    """

    __slots__ = ("start", "records", "frame", "jcal_addr", "jcal_index",
                 "template", "store_words", "gather_rows", "gather_pos",
                 "value_ops", "const_rows", "const_values", "fill_words",
                 "fill_rows", "fill_reads", "frame_constants", "max_touch",
                 "max_reg", "length", "n_pairs", "thread_weight",
                 "opcode_counts", "issue_cycles", "telemetry_counts",
                 "site_id")

    def __init__(self, start, records, frame, jcal_addr, jcal_index, ops,
                 post_ops, template, store_cols, fill_cols, max_reg,
                 n_pairs, site_id=None):
        self.start = start
        #: the injector's stable site id (the original instruction index,
        #: recovered from the ``bp.id`` constant baked into the frame
        #: template); None when the sequence carried no recognizable id.
        self.site_id = site_id
        self.records = records
        self.frame = frame
        self.jcal_addr = jcal_addr
        self.jcal_index = jcal_index
        # the frame as words: every injected STL/LDL is word-aligned
        self.store_words = store_cols[::4] // 4
        self._split_pre_call(ops, template)
        self._split_post_call(post_ops, fill_cols[::4] // 4)
        touched = np.concatenate([self.store_words, self.fill_words])
        self.max_touch = 4 * (int(touched.max()) + 1) if touched.size else 0
        self.max_reg = max_reg
        self.length = len(records)
        self.n_pairs = n_pairs
        # --- once-per-site cost accounting (stats + telemetry) -------
        # A guard-flag pair's two complementary records together touch
        # each active lane exactly once, so per-thread counts collapse
        # to (length - n_pairs) * active_lanes.
        self.thread_weight = self.length - n_pairs
        counts: dict = {}
        for dec in records:
            counts[dec.opcode] = counts.get(dec.opcode, 0) + 1
        self.opcode_counts = counts
        self.issue_cycles = block_issue_cycles(dec.opcode for dec in records)
        self.telemetry_counts = block_dispatch_counts(records)

    # ----------------------------------------------------- static split

    def _split_pre_call(self, ops, template: bytearray) -> None:
        """Sort the pre-call ops by where each stored word comes from:
        the original register file (one gather), an immediate (the
        frame image's static bytes), or a value op's result."""
        last: dict = {}          # reg -> ("const", value) | ("val", op#)
        gather_rows: List[int] = []
        gather_pos: List[int] = []
        stored: List[Tuple[int, int]] = []        # (word, value op#)
        value_ops: list = []
        for op in ops:
            kind = op[0]
            if kind in ("st", "st64"):
                _, pos, reg = op
                for word, src in enumerate((reg, reg + 1) if kind == "st64"
                                           else (reg,)):
                    word += pos // 4
                    source = last.get(src)
                    if source is None:
                        gather_rows.append(src)
                        gather_pos.append(word)
                    elif source[0] == "const":
                        template[4 * word:4 * word + 4] = \
                            source[1].to_bytes(4, "little")
                    else:
                        stored.append((word, source[1]))
            elif kind == "imm":
                last[op[1]] = ("const", op[2])
            else:
                if op[1] is not None:
                    last[op[1]] = ("val", len(value_ops))
                value_ops.append(op)
        # each value op carries the image words its result is stored to
        stores_of: dict = {}
        for word, op_index in stored:
            stores_of.setdefault(op_index, []).append(word)
        self.value_ops = [op + (tuple(stores_of.get(index, ())),)
                          for index, op in enumerate(value_ops)]
        self.gather_rows = _rows(gather_rows)
        self.gather_pos = _rows(gather_pos)
        final_consts = sorted((reg, source[1]) for reg, source in last.items()
                              if source[0] == "const")
        self.const_rows = _rows([reg for reg, _ in final_consts])
        self.const_values = np.asarray(
            [[value] for _, value in final_consts], dtype=np.uint32)
        words = np.frombuffer(bytes(template), dtype="<u4")
        self.template = words[:, None]
        computed = set(gather_pos) | {word for word, _ in stored}
        constants = {}
        for offset in _FRAME_CONSTANT_FIELDS:
            hits = np.nonzero(self.store_words == offset // 4)[0]
            if hits.size and int(hits[0]) not in computed:
                constants[(offset, 4)] = int(words[hits[0]])
        #: ``{(frame offset, 4): value}`` of the before-params fields
        #: the image holds as constants (the views' static-read keys)
        self.frame_constants = constants

    def _split_post_call(self, post_ops, fill_words: np.ndarray) -> None:
        """Reduce the restores to one fill gather, one row store (the
        last fill of each register wins) and the ``R2P``/carry restores,
        each reading the fill slot just before it (or, with none, the
        register as the handler left it)."""
        latest: dict = {}        # reg -> fill slot, as of this point
        reads: list = []         # (kind, source slot or None, src, arg)
        for op in post_ops:
            kind = op[0]
            if kind == "fill":
                latest[op[1]] = op[2]
            elif kind == "r2p":
                _, src, maskval = op
                bits = _rows([i for i in range(7) if maskval & (1 << i)])
                reads.append(("r2p", latest.get(src), src, bits))
            else:  # "ccres"
                reads.append(("ccres", latest.get(op[1]), op[1], None))
        # keep only the slots something reads, final fills first
        fill_rows = sorted(latest)
        slots = [latest[reg] for reg in fill_rows]
        for _, slot, _, _ in reads:
            if slot is not None and slot not in slots:
                slots.append(slot)
        new_slot = {slot: index for index, slot in enumerate(slots)}
        self.fill_rows = _rows(fill_rows)
        self.fill_reads = [
            (kind, None if slot is None else new_slot[slot], src,
             arg, None if arg is None else arg[:, None].astype(np.uint32))
            for kind, slot, src, arg in reads]
        self.fill_words = fill_words[_rows(slots)]

    def sassi_cost_split(self) -> dict:
        """The site's injected-overhead split by telemetry bucket."""
        return {key: value for key, value in self.telemetry_counts.items()
                if key.startswith("sassi.")}

    @property
    def save_restore_instructions(self) -> int:
        return sum(self.telemetry_counts.get(key, 0)
                   for key in SAVE_RESTORE_KEYS)

    # ----------------------------------------------------------- replay

    def execute(self, ex, warp, cta, g, g_idx, counter) -> Optional[int]:
        n = g_idx.size
        if n == 0 or self.max_reg >= warp.num_regs \
                or self.jcal_addr not in ex.device.handler_bindings:
            return None
        regs = warp.regs
        full = n == regs.shape[1]
        # ``sel`` indexes a lane row: whole rows on full-warp firings
        sel = slice(None) if full else g_idx
        r1 = regs[1, sel].copy()
        # the image moves as whole words, so every lane's frame must sit
        # at one aligned offset (R1 is warp-uniform in practice)
        sp = int(r1.min()) - self.frame
        block = cta.local_block()
        if sp < 0 or sp & 3 or int(r1.max()) - self.frame != sp \
                or sp + self.max_touch > block.shape[1] \
                or block.shape[1] & 3:
            return None
        image = block.view("<u4")
        lanes = warp.lane_rows if full \
            else warp.lane_thread_ids[g_idx][:, None]
        # the opening IADD lowers R1 for the rest of the sequence
        regs[1, sel] = r1 - np.uint32(self.frame)
        # the frame image, one row per word
        words = np.empty((self.template.size, n), dtype="<u4")
        words[:] = self.template
        if self.gather_rows.size:
            words[self.gather_pos] = regs[self.gather_rows] if full \
                else regs[self.gather_rows[:, None], g_idx]

        carry = warp.carry
        preds = warp.preds
        partial = 0
        for op in self.value_ops:
            kind = op[0]
            if kind == "orc":
                _, dst, src, cref, stores = op
                value = regs[src, sel] | ex._read(warp, cref)
            elif kind == "add":
                _, dst, src, imm, stores = op
                value = regs[src, sel] + np.uint32(imm)
            elif kind == "addcc":
                _, dst, src, imm, stores = op
                a = regs[src, sel] if src is not None \
                    else np.zeros(n, dtype=np.uint32)
                value = a + np.uint32(imm)
                carry[sel] = value < a
            elif kind == "addx":
                _, dst, src, stores = op
                value = carry[sel].astype(np.uint32)
                if src is not None:
                    value += regs[src, sel]
            elif kind == "guard":
                _, dst, pred_index, negated, v_pass, v_fail, stores = op
                row = preds[pred_index, sel]
                if negated:
                    row = ~row
                passing = int(np.count_nonzero(row))
                if passing < n:
                    partial += 1
                if passing > 0:
                    partial += 1
                value = np.where(row, np.uint32(v_pass), np.uint32(v_fail))
            elif kind == "p2r":
                _, dst, maskval, stores = op
                value = (_P2R_WEIGHTS @ preds[:7, sel]) & np.uint32(maskval)
            else:  # "ori"
                _, dst, src, imm, stores = op
                value = regs[src, sel] | np.uint32(imm)
            if dst is not None:
                regs[dst, sel] = value
            for word in stores:
                words[word] = value
        if self.const_rows.size:
            if full:
                regs[self.const_rows] = self.const_values
            else:
                regs[self.const_rows[:, None], g_idx] = self.const_values

        # one scatter writes the whole frame image for every lane
        image[lanes, (sp >> 2) + self.store_words] = words.T

        ex.stats.handler_calls += 1
        warp.pc = self.jcal_index
        ex._site_hint = (g_idx, self.frame_constants)
        try:
            ex.device.handler_bindings[self.jcal_addr](ex, warp, cta, g)
        finally:
            ex._site_hint = None

        # restores: gather every fill slot back in one pass (the handler
        # may have rewritten the frame — SetRegValue / write-back)
        if self.fill_words.size:
            filled = image[lanes, (sp >> 2) + self.fill_words]
        for kind, slot, src, bits, shifts in self.fill_reads:
            value = filled[:, slot] if slot is not None else regs[src, sel]
            if kind == "r2p":
                flags = ((value >> shifts) & 1).astype(bool)
                if full:
                    preds[bits] = flags
                else:
                    preds[bits[:, None], g_idx] = flags
            else:  # "ccres": IADD RZ, Rcc, -1 (CC) — carry = value != 0
                carry[sel] = value != 0
        if self.fill_rows.size:
            rows = filled[:, :self.fill_rows.size].T
            if full:
                regs[self.fill_rows] = rows
            else:
                regs[self.fill_rows[:, None], g_idx] = rows
        regs[1, sel] = r1
        warp.pc = self.start + self.length
        return partial


def compile_site_plan(records, start: int, handler_base: int):
    """Compile the injected run beginning at ``records[start]`` into a
    :class:`SiteSequencePlan`, or return None when the run does not
    match the shapes :func:`build_call_sequence` emits (the caller then
    leaves those records on the per-instruction path)."""
    limit = len(records)
    first = records[start]
    frame = _frame_alloc(first)
    if frame is None:
        return None

    ops: list = []
    post_ops: list = []
    template = bytearray()
    store_cols: List[int] = []
    covered: Set[int] = set()
    fill_cols: List[int] = []
    consts: dict = {}
    max_reg = 1
    n_pairs = 0
    jcal_addr = None
    jcal_index = None
    site_id = None
    index = start + 1

    def track(reg):
        nonlocal max_reg
        if reg is not None and reg > max_reg:
            max_reg = reg

    def add_store(offset, width):
        nonlocal template, store_cols
        span = range(offset, offset + width)
        if offset % 4 or covered.intersection(span) \
                or offset + width > frame:
            return None
        covered.update(span)
        pos = len(store_cols)
        store_cols.extend(span)
        template.extend(b"\x00" * width)
        return pos

    while index < limit:
        dec = records[index]
        if dec.tag != "sassi":
            return None
        opcode = dec.opcode
        if jcal_index is None:
            # ---------------- pre-call: spills, fields, arguments ----
            if not dec.uncond:
                pair = _match_guard_pair(records, index, limit)
                if pair is None:
                    return None
                dst, pred_index, negated, v_pass, v_fail = pair
                track(dst)
                consts.pop(dst, None)
                ops.append(("guard", dst, pred_index, negated,
                            v_pass, v_fail))
                n_pairs += 1
                index += 2
                continue
            if opcode is Opcode.JCAL:
                target = dec.srcs[0] if dec.srcs else None
                if not isinstance(target, Imm):
                    return None
                address = target.value & 0xFFFFFFFF
                if address < handler_base:
                    return None
                jcal_addr = address
                jcal_index = index
                index += 1
                continue
            if opcode is Opcode.STL:
                ref = _local_ref(dec.srcs[0]) if dec.srcs else None
                data = _gpr_index(dec.srcs[1]) if len(dec.srcs) > 1 else None
                wide = "64" in dec.mods
                if ref is None or data is None \
                        or (dec.mods and dec.mods != ("64",)):
                    return None
                track(data + 1 if wide else data)
                width = 8 if wide else 4
                pos = add_store(ref.offset, width)
                if pos is None:
                    return None
                if not wide and data in consts:
                    template[pos:pos + 4] = \
                        int(consts[data]).to_bytes(4, "little")
                    if ref.offset == P.BP_ID:
                        site_id = consts[data]
                elif wide and data in consts and data + 1 in consts:
                    template[pos:pos + 4] = \
                        int(consts[data]).to_bytes(4, "little")
                    template[pos + 4:pos + 8] = \
                        int(consts[data + 1]).to_bytes(4, "little")
                elif wide:
                    ops.append(("st64", pos, data))
                else:
                    ops.append(("st", pos, data))
            elif opcode in (Opcode.IADD, Opcode.IADD32I):
                op = _match_iadd(dec, consts, track)
                if op is None:
                    return None
                if op[0] != "nop":
                    ops.append(op)
            elif opcode is Opcode.MOV32I:
                dst = _gpr_index(dec.dsts[0]) if dec.dsts else None
                value = dec.srcs[0] if dec.srcs else None
                if dst is None or not isinstance(value, Imm) or dec.mods:
                    return None
                track(dst)
                consts[dst] = value.value & 0xFFFFFFFF
                ops.append(("imm", dst, consts[dst]))
            elif opcode is Opcode.P2R:
                dst = _gpr_index(dec.dsts[0]) if dec.dsts else None
                maskop = dec.srcs[-1] if dec.srcs else None
                if dst is None or not isinstance(maskop, Imm) or dec.mods:
                    return None
                track(dst)
                consts.pop(dst, None)
                ops.append(("p2r", dst, maskop.value & 0xFFFFFFFF))
            elif opcode in (Opcode.LOP, Opcode.LOP32I):
                if dec.mods != ("OR",) or len(dec.srcs) != 2 or not dec.dsts:
                    return None
                dst = _gpr_index(dec.dsts[0])
                src = _gpr_index(dec.srcs[0])
                other = dec.srcs[1]
                if dst is None or src is None or src in consts:
                    return None
                track(dst)
                track(src)
                consts.pop(dst, None)
                if isinstance(other, ConstRef):
                    ops.append(("orc", dst, src, other))
                elif isinstance(other, Imm):
                    ops.append(("ori", dst, src, other.value & 0xFFFFFFFF))
                else:
                    return None
            else:
                return None
        else:
            # ---------------- post-call: restores, stack release -----
            if not dec.uncond:
                return None
            if opcode is Opcode.LDL:
                dst = _gpr_index(dec.dsts[0]) if dec.dsts else None
                ref = _local_ref(dec.srcs[0]) if dec.srcs else None
                if dst is None or ref is None or dec.mods \
                        or ref.offset % 4 or ref.offset + 4 > frame:
                    return None
                track(dst)
                slot = len(fill_cols) // 4
                fill_cols.extend(range(ref.offset, ref.offset + 4))
                post_ops.append(("fill", dst, slot))
            elif opcode is Opcode.R2P:
                src = _gpr_index(dec.srcs[0]) if dec.srcs else None
                maskop = dec.srcs[1] if len(dec.srcs) > 1 else None
                if src is None or not isinstance(maskop, Imm) or dec.mods:
                    return None
                track(src)
                post_ops.append(("r2p", src, maskop.value & 0xFFFFFFFF))
            elif opcode in (Opcode.IADD, Opcode.IADD32I):
                dst = dec.dsts[0] if dec.dsts else None
                a = dec.srcs[0] if dec.srcs else None
                b = dec.srcs[1] if len(dec.srcs) > 1 else None
                if dec.mods == ("CC",) and _is_rz(dst) \
                        and _gpr_index(a) is not None \
                        and isinstance(b, Imm) and b.value == -1:
                    track(a.index)
                    post_ops.append(("ccres", a.index))
                elif not dec.mods and isinstance(dst, GPR) \
                        and not dst.is_zero and dst.index == 1 \
                        and _gpr_index(a) == 1 and isinstance(b, Imm) \
                        and b.value == frame:
                    # stack release: the sequence is complete
                    plan_records = records[start:index + 1]
                    if any(not rec.sassi for rec in plan_records):
                        return None
                    # every [R1 + offset] of the sequence is relative to
                    # the one stack pointer the opening IADD set up
                    if any(op[0] not in ("st", "st64") and op[1] == 1
                           for op in ops + post_ops):
                        return None
                    return SiteSequencePlan(
                        start, plan_records, frame, jcal_addr,
                        jcal_index, ops, post_ops, template,
                        np.asarray(store_cols, dtype=np.int64),
                        np.asarray(fill_cols, dtype=np.int64),
                        max_reg, n_pairs, site_id)
                else:
                    return None
            else:
                return None
        index += 1
    return None


def _frame_alloc(dec) -> Optional[int]:
    """The frame size of an opening ``IADD R1, R1, -frame`` (or None)."""
    if dec.tag != "sassi" or not dec.uncond or dec.mods \
            or dec.opcode not in (Opcode.IADD, Opcode.IADD32I):
        return None
    dst = dec.dsts[0] if dec.dsts else None
    a = dec.srcs[0] if dec.srcs else None
    b = dec.srcs[1] if len(dec.srcs) > 1 else None
    if isinstance(dst, GPR) and not dst.is_zero and dst.index == 1 \
            and _gpr_index(a) == 1 and isinstance(b, Imm) and b.value < 0:
        return -b.value
    return None


def _match_guard_pair(records, index: int, limit: int):
    """The Figure 2 ``@P IADD Rd, RZ, 1 / @!P IADD Rd, RZ, 0`` pair."""
    if index + 1 >= limit:
        return None
    first, second = records[index], records[index + 1]
    for dec in (first, second):
        if dec.tag != "sassi" or dec.mods \
                or dec.opcode not in (Opcode.IADD, Opcode.IADD32I) \
                or not dec.dsts or _gpr_index(dec.dsts[0]) is None \
                or len(dec.srcs) != 2 or not _is_rz(dec.srcs[0]) \
                or not isinstance(dec.srcs[1], Imm):
            return None
    dst = first.dsts[0].index
    if second.dsts[0].index != dst:
        return None
    if first.pred_index != second.pred_index \
            or first.negated == second.negated or first.pred_index == 7:
        return None
    return (dst, first.pred_index, first.negated,
            first.srcs[1].value & 0xFFFFFFFF,
            second.srcs[1].value & 0xFFFFFFFF)


def _match_iadd(dec, consts: dict, track):
    """Compile one pre-call IADD form (see :func:`build_call_sequence`).

    Returns an op tuple, ``("nop",)`` for a fully folded constant, or
    None when the form is not one the injector emits.
    """
    dst_op = dec.dsts[0] if dec.dsts else None
    a = dec.srcs[0] if dec.srcs else None
    b = dec.srcs[1] if len(dec.srcs) > 1 else None
    dst = _gpr_index(dst_op)
    mods = dec.mods
    if mods == ("X",):
        # IADD.X d, a, RZ — consume the carry produced just above (or
        # the architectural carry for the save-side RZ,RZ read)
        if not _is_rz(b) or dst is None:
            return None
        src = _gpr_index(a)
        if src is None and not _is_rz(a):
            return None
        if src is not None and src in consts:
            return None
        track(dst)
        track(src)
        consts.pop(dst, None)
        return ("addx", dst, src)
    if mods == ("CC",):
        if not isinstance(b, Imm):
            return None
        src = _gpr_index(a)
        if src is None and not _is_rz(a):
            return None
        if src is not None and src in consts:
            return None
        if dst is None and not _is_rz(dst_op):
            return None
        track(dst)
        track(src)
        if dst is not None:
            consts.pop(dst, None)
        return ("addcc", dst, src, b.value & 0xFFFFFFFF)
    if mods:
        return None
    if dst is None or dst == 1 or not isinstance(b, Imm):
        return None
    track(dst)
    if _is_rz(a):
        consts[dst] = b.value & 0xFFFFFFFF
        return ("imm", dst, consts[dst])
    src = _gpr_index(a)
    if src is None:
        return None
    track(src)
    if src in consts:
        consts[dst] = (consts[src] + b.value) & 0xFFFFFFFF
        return ("imm", dst, consts[dst])
    consts.pop(dst, None)
    return ("add", dst, src, b.value & 0xFFFFFFFF)
