"""Warp state: registers, predicates, and the divergence token stack.

The token stack implements Kepler-style divergence control:

* ``SSY L`` pushes a *sync* token carrying the current active mask and the
  reconvergence point ``L``.
* a divergent predicated branch pushes a *div* token carrying the
  fall-through PC and the not-taken mask, then runs the taken side.
* ``SYNC`` (sitting at the reconvergence point) pops: a div token resumes
  the other side; a sync token restores the region-entry mask.
* ``PBK L`` pushes a *brk* token (the loop-break point); ``BRK`` parks the
  breaking lanes in that token **and scrubs them from every token above
  it**, so that popping an inner sync token can never resurrect a lane
  that has left the loop.
* ``EXIT`` retires lanes from the warp and from every token.

Whenever the active mask empties, the stack unwinds: empty tokens are
discarded, div tokens resume the deferred side, brk tokens release the
accumulated breakers at the loop exit.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.sim.errors import DeviceFault

WARP_SIZE = 32


def mask_to_u32(mask: np.ndarray) -> int:
    """Pack a 32-lane boolean mask into its ballot integer (lane 0 =
    bit 0) with one vectorized pass."""
    return int(np.packbits(mask[::-1]).view(">u4")[0])


class TokenKind(enum.Enum):
    SYNC = "sync"   # pushed by SSY
    DIV = "div"     # pushed by a divergent branch
    BRK = "brk"     # pushed by PBK


@dataclass
class Token:
    kind: TokenKind
    pc: int                    # resume PC (reconv / fallthrough / break)
    mask: np.ndarray           # lanes parked in (or owned by) this token

    def __repr__(self) -> str:
        bits = mask_to_u32(self.mask) if len(self.mask) == 32 else -1
        return f"<{self.kind.value} pc={self.pc} mask={bits:#010x}>"


class Warp:
    """One warp's architectural state."""

    def __init__(self, warp_id: int, num_regs: int, num_lanes: int,
                 lane_thread_ids: np.ndarray):
        self.warp_id = warp_id
        self.num_regs = max(num_regs, 2)
        #: 32-bit register file, one row per architectural register.
        self.regs = np.zeros((self.num_regs, WARP_SIZE), dtype=np.uint32)
        #: predicate file P0..P6 + PT (index 7, pinned true).
        self.preds = np.zeros((8, WARP_SIZE), dtype=bool)
        self.preds[7, :] = True
        #: carry flag (set by IADD.CC, consumed by IADD.X).
        self.carry = np.zeros(WARP_SIZE, dtype=bool)
        self.pc = 0
        self.active = np.zeros(WARP_SIZE, dtype=bool)
        self.active[:num_lanes] = True
        #: lanes that belong to the launch (vs padding of a partial warp).
        self.valid = self.active.copy()
        self.stack: List[Token] = []
        self.call_stack: List[int] = []
        self.done = False
        self.at_barrier = False
        #: global linear thread id per lane (for local-window addressing).
        self.lane_thread_ids = lane_thread_ids
        #: CTA-relative linear thread id of lane 0.
        self.base_tid = int(lane_thread_ids[0]) if len(lane_thread_ids) else 0

    @functools.cached_property
    def lane_rows(self):
        """The lanes' rows of the CTA's local block: a slice when they
        own consecutive thread ids (as every executor warp does), else
        an index column."""
        ids = np.asarray(self.lane_thread_ids)
        if np.array_equal(ids, self.base_tid + np.arange(ids.size)):
            return slice(self.base_tid, self.base_tid + ids.size)
        return ids[:, None]

    # ------------------------------------------------------------ masks

    def guard_mask(self, pred_row: Optional[np.ndarray],
                   negated: bool) -> np.ndarray:
        """Lanes that are active *and* pass the instruction's guard."""
        if pred_row is None:
            return self.active.copy()
        passed = ~pred_row if negated else pred_row
        return self.active & passed

    # ------------------------------------------------------ stack ops

    def push_sync(self, reconv_pc: int) -> None:
        self.stack.append(Token(TokenKind.SYNC, reconv_pc, self.active.copy()))

    def push_brk(self, break_pc: int) -> None:
        self.stack.append(Token(TokenKind.BRK, break_pc,
                                np.zeros(WARP_SIZE, dtype=bool)))

    def branch(self, taken: np.ndarray, target_pc: int) -> None:
        """Resolve a predicated branch: *taken* lanes jump to
        *target_pc*, the rest fall through to ``pc+1``."""
        not_taken = self.active & ~taken
        if not taken.any():
            self.pc += 1
            return
        if not not_taken.any():
            self.pc = target_pc
            return
        self.stack.append(Token(TokenKind.DIV, self.pc + 1, not_taken))
        self.active = taken.copy()
        self.pc = target_pc

    def sync(self) -> None:
        """Execute SYNC at a reconvergence point."""
        while True:
            if not self.stack:
                raise DeviceFault(f"warp {self.warp_id}: SYNC on empty stack")
            token = self.stack.pop()
            if not token.mask.any():
                continue
            if token.kind is TokenKind.DIV:
                self.active = token.mask
                self.pc = token.pc
                return
            if token.kind is TokenKind.SYNC:
                self.active = token.mask
                self.pc += 1
                return
            raise DeviceFault(
                f"warp {self.warp_id}: SYNC popped a {token.kind.value} token")

    def brk(self, breaking: np.ndarray) -> None:
        """Park *breaking* lanes at the innermost break point."""
        if not breaking.any():
            self.pc += 1
            return
        brk_index = None
        for index in range(len(self.stack) - 1, -1, -1):
            if self.stack[index].kind is TokenKind.BRK:
                brk_index = index
                break
        if brk_index is None:
            raise DeviceFault(f"warp {self.warp_id}: BRK without PBK")
        self.stack[brk_index].mask |= breaking
        for token in self.stack[brk_index + 1:]:
            token.mask &= ~breaking
        self.active = self.active & ~breaking
        if self.active.any():
            self.pc += 1
        else:
            self._unwind()

    def exit_lanes(self, exiting: np.ndarray) -> None:
        """Retire lanes (EXIT): remove them from the warp entirely."""
        if not exiting.any():
            self.pc += 1
            return
        for token in self.stack:
            token.mask &= ~exiting
        self.valid = self.valid & ~exiting
        self.active = self.active & ~exiting
        if self.active.any():
            self.pc += 1
        else:
            self._unwind()

    def _unwind(self) -> None:
        """Resume the nearest deferred lanes after the active mask
        emptied (all lanes broke, exited, or diverged away)."""
        while self.stack:
            token = self.stack.pop()
            if not token.mask.any():
                continue
            self.active = token.mask
            self.pc = token.pc
            return
        self.done = True

    @property
    def stack_depth(self) -> int:
        return len(self.stack)
