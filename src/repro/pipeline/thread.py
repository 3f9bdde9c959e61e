"""SMT thread context: fetch stream, rename tables, ROB, LSQ, memory."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import HardwareConfig
from ..isa.program import Program
from ..memory.main_memory import MainMemory
from .lsq import LoadStoreQueue
from .rename import RenameTable
from .rob import ReorderBuffer


class ThreadContext:
    """One hardware thread.

    Each context owns its program, data memory, rename tables, ROB and LSQ
    partitions; the issue queue, physical register file and functional
    units are shared with the other contexts of the core.

    ``ideal_memory`` / ``ideal_branch`` implement SRT-iso's trailing-thread
    optimisations; ``max_commits`` lets SRT-iso's partial redundancy stop a
    trailing copy at FaultHound's coverage fraction.
    """

    def __init__(self, thread_id: int, program: Program,
                 hw: HardwareConfig, initial_mapping: List[int],
                 ideal_memory: bool = False, ideal_branch: bool = False,
                 max_commits: Optional[int] = None):
        self.thread_id = thread_id
        self.program = program.ensure_halts()
        self.ideal_memory = ideal_memory
        self.ideal_branch = ideal_branch
        self.max_commits = max_commits

        self.memory = MainMemory.of_words(self.program.memory_words(),
                                          latency=hw.memory_latency)

        # ROB and LSQ capacity is shared dynamically across SMT contexts
        # (the core checks aggregate occupancy at dispatch; the ICOUNT
        # fetch policy keeps the sharing fair), so each thread's ordering
        # structure is sized at the full capacity.
        self.rob = ReorderBuffer(hw.rob_size)
        self.lsq = LoadStoreQueue(hw.lsq_size)
        self.spec_rat = RenameTable(initial_mapping, hw.phys_regs)
        self.committed_rat = RenameTable(initial_mapping, hw.phys_regs)

        #: Next pc the front end will fetch.
        self.fetch_pc = 0
        #: Fetch suspended until this cycle (redirect penalties).
        self.fetch_stalled_until = 0
        #: True once a HALT (or end of program) has been fetched; cleared
        #: by squashes that roll fetch back before it.
        self.fetch_stopped = False
        #: Architectural pc: the pc the next commit will execute at.
        self.arch_pc = 0
        self.halted = False
        self.committed_count = 0
        #: Number of remaining re-executed instructions whose screening
        #: triggers are suppressed after a screening rollback ("re-computed
        #: values are deemed final").
        self.screen_suppress_remaining = 0
        #: (instret, pc, address) records of architectural exceptions.
        self.exceptions: List[Tuple[int, int, int]] = []

    def clone(self, clone_op) -> "ThreadContext":
        """Independent copy for core forking (checkpoint protocol).

        *clone_op* maps each in-flight op to its clone so ROB and LSQ keep
        referencing the same objects as the core's shared containers. The
        program is shared — it is immutable once built (``ensure_halts``
        ran at construction).
        """
        twin = ThreadContext.__new__(ThreadContext)
        twin.thread_id = self.thread_id
        twin.program = self.program
        twin.ideal_memory = self.ideal_memory
        twin.ideal_branch = self.ideal_branch
        twin.max_commits = self.max_commits
        twin.memory = self.memory.clone()
        twin.rob = self.rob.clone(clone_op)
        twin.lsq = self.lsq.clone(clone_op)
        twin.spec_rat = self.spec_rat.clone()
        twin.committed_rat = self.committed_rat.clone()
        twin.fetch_pc = self.fetch_pc
        twin.fetch_stalled_until = self.fetch_stalled_until
        twin.fetch_stopped = self.fetch_stopped
        twin.arch_pc = self.arch_pc
        twin.halted = self.halted
        twin.committed_count = self.committed_count
        twin.screen_suppress_remaining = self.screen_suppress_remaining
        twin.exceptions = list(self.exceptions)
        return twin

    # -- architectural state ---------------------------------------------
    def arch_reg_value(self, logical: int, prf) -> int:
        if logical == 0:
            return 0
        return prf.read(self.committed_rat.get(logical))

    def arch_state_snapshot(self, prf) -> Tuple:
        """Digest comparable with the golden interpreter's snapshot."""
        regs = tuple(self.arch_reg_value(r, prf) for r in range(1, 32))
        return (regs, self.memory.nonzero_snapshot(), self.arch_pc,
                self.halted)

    def output_snapshot(self) -> Tuple:
        """Program-output digest: memory image plus control state.

        The fault classifier compares *this*, not the full register file:
        a flipped bit in a register the program never reads again is not
        silent data corruption — it can never reach the program's output.
        Register corruption that matters shows up here through the store
        stream (or as control-flow divergence via ``arch_pc``). The
        image is the dict of non-zero words, so ``==`` on two snapshots
        is exact.
        """
        return (self.memory.image(), self.arch_pc, self.halted)

    @property
    def fetch_active(self) -> bool:
        return not self.halted and not self.fetch_stopped

    def stop_fetch(self) -> None:
        self.fetch_stopped = True

    def redirect_fetch(self, pc: int, resume_cycle: int) -> None:
        self.fetch_pc = pc
        self.fetch_stalled_until = resume_cycle
        self.fetch_stopped = False


__all__ = ["ThreadContext"]
