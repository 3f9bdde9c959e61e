"""The in-flight micro-op: one dynamic instance of a static instruction."""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from ..isa.instruction import Instruction


class OpState(enum.Enum):
    """Lifecycle of a micro-op through the back end."""

    FETCHED = "fetched"        # in the fetch buffer, pre-rename
    WAITING = "waiting"        # in the issue queue, sources not all ready
    EXECUTING = "executing"    # issued, execution timer running
    COMPLETED = "completed"    # result written back; may sit in delay buffer
    COMMITTED = "committed"
    SQUASHED = "squashed"


#: Members the per-op paths assign and test, as module globals (no
#: class-attribute walk per op).
_FETCHED = OpState.FETCHED
_WAITING = OpState.WAITING
_COMPLETED = OpState.COMPLETED


class MicroOp:
    """Mutable per-dynamic-instruction state.

    ``uid`` is a core-global monotone sequence number: program order within
    a thread, dispatch order across threads. FaultHound's "preceding
    instructions" are ops with smaller uid.
    """

    __slots__ = (
        "uid", "thread_id", "pc", "inst", "state",
        "phys_dest", "old_phys_dest", "phys_srcs",
        "result", "eff_addr", "store_value",
        "predicted_taken", "actual_taken", "mispredicted",
        "cycle_fetched", "dispatch_ready_at", "cycle_issued",
        "exec_done_at", "cycle_completed", "cycle_committed",
        "exception_addr", "forwarded_from",
        "replay_marked", "in_delay_buffer", "singleton_stall",
        "screen_suppressed", "lsq_checked",
        "is_load", "is_store", "is_mem", "is_branch", "writes_reg",
    )

    def __init__(self, uid: int, thread_id: int, pc: int, inst: Instruction,
                 cycle_fetched: int, dispatch_ready_at: int):
        self.uid = uid
        self.thread_id = thread_id
        self.pc = pc
        self.inst = inst
        self.state = _FETCHED
        # static facts, copied out of the (shared, precomputed)
        # instruction: every stage tests these on every pass over the op
        self.is_load = inst.is_load
        self.is_store = inst.is_store
        self.is_mem = inst.is_mem
        self.is_branch = inst.is_branch
        self.writes_reg = inst.writes_reg and inst.rd != 0

        self.phys_dest: Optional[int] = None
        self.old_phys_dest: Optional[int] = None
        self.phys_srcs: Tuple[int, ...] = ()

        self.result: Optional[int] = None
        self.eff_addr: Optional[int] = None
        self.store_value: Optional[int] = None

        self.predicted_taken: Optional[bool] = None
        self.actual_taken: Optional[bool] = None
        self.mispredicted = False

        self.cycle_fetched = cycle_fetched
        self.dispatch_ready_at = dispatch_ready_at
        self.cycle_issued = -1
        self.exec_done_at = -1
        self.cycle_completed = -1
        self.cycle_committed = -1

        #: Address of an architectural memory fault raised by this op, to
        #: be delivered precisely at commit.
        self.exception_addr: Optional[int] = None
        #: uid of the store this load forwarded from, if any.
        self.forwarded_from: Optional[int] = None

        self.replay_marked = False
        self.in_delay_buffer = False
        #: Remaining stall cycles for a singleton re-execute at commit.
        self.singleton_stall = 0
        #: True when this op re-executes as part of screening recovery and
        #: must not re-trigger checks ("re-computed values deemed final").
        self.screen_suppressed = False
        #: True once the commit-time LSQ check has run for this op.
        self.lsq_checked = False

    def clone(self) -> "MicroOp":
        """An independent copy for core forking (checkpoint protocol).

        Every slot is transferred; ``inst`` and ``phys_srcs`` are shared
        (immutable once built). Callers that clone a whole core must memo
        clones by ``uid`` so an op living in several containers (ROB,
        LSQ, issue queue, delay buffer, executing list) stays one object
        on the cloned side.
        """
        twin = MicroOp.__new__(MicroOp)
        # written out, not a getattr/setattr loop over __slots__ (about six
        # times faster); tests/test_pipeline_components.py checks that
        # every slot is here
        twin.uid = self.uid
        twin.thread_id = self.thread_id
        twin.pc = self.pc
        twin.inst = self.inst
        twin.state = self.state
        twin.phys_dest = self.phys_dest
        twin.old_phys_dest = self.old_phys_dest
        twin.phys_srcs = self.phys_srcs
        twin.result = self.result
        twin.eff_addr = self.eff_addr
        twin.store_value = self.store_value
        twin.predicted_taken = self.predicted_taken
        twin.actual_taken = self.actual_taken
        twin.mispredicted = self.mispredicted
        twin.cycle_fetched = self.cycle_fetched
        twin.dispatch_ready_at = self.dispatch_ready_at
        twin.cycle_issued = self.cycle_issued
        twin.exec_done_at = self.exec_done_at
        twin.cycle_completed = self.cycle_completed
        twin.cycle_committed = self.cycle_committed
        twin.exception_addr = self.exception_addr
        twin.forwarded_from = self.forwarded_from
        twin.replay_marked = self.replay_marked
        twin.in_delay_buffer = self.in_delay_buffer
        twin.singleton_stall = self.singleton_stall
        twin.screen_suppressed = self.screen_suppressed
        twin.lsq_checked = self.lsq_checked
        twin.is_load = self.is_load
        twin.is_store = self.is_store
        twin.is_mem = self.is_mem
        twin.is_branch = self.is_branch
        twin.writes_reg = self.writes_reg
        return twin

    def __setstate__(self, state) -> None:
        # ops pickled before the static facts became slots lack them;
        # re-derive from the instruction (checkpoint compatibility)
        _, slots = state
        for name, value in slots.items():
            setattr(self, name, value)
        if "is_mem" not in slots:
            inst = self.inst
            self.is_load = inst.is_load
            self.is_store = inst.is_store
            self.is_mem = inst.is_mem
            self.is_branch = inst.is_branch
            self.writes_reg = inst.writes_reg and inst.rd != 0

    # -- convenience ------------------------------------------------------
    @property
    def completed(self) -> bool:
        return self.state is _COMPLETED

    def mark_for_replay(self) -> None:
        """Return a completed op to the waiting state for re-execution."""
        self.replay_marked = True
        self.in_delay_buffer = False
        self.state = _WAITING
        self.result = None
        self.eff_addr = None
        self.store_value = None
        self.exec_done_at = -1
        self.forwarded_from = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<uop {self.uid} t{self.thread_id} pc={self.pc} "
                f"{self.inst.opcode.value} {self.state.value}>")


__all__ = ["MicroOp", "OpState"]
