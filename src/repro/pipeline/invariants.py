"""Opt-in pipeline invariant sanitizer: structural self-checks for the core.

The tandem classifier (``repro.faults.classifier``) compares a faulty core
against a golden run, so any latent simulator bug is silently folded into
the masking/SDC numbers. This module is the guard against that: a
per-cycle (or per-capture-site) checker that asserts the structural
invariants every stage of :class:`~repro.pipeline.core.PipelineCore`
relies on, and reports violations through the ``invariant`` event type of
:mod:`repro.obs.schema`.

Invariants checked (names as reported in violations):

``rob-order``
    Each thread's ROB (and fetch buffer) holds its own ops in strictly
    increasing uid order — program order per thread.
``lsq-order`` / ``lsq-residency``
    Each thread's LSQ is in age order, holds only memory ops, and every
    LSQ resident is simultaneously resident in that thread's ROB.
``iq-coherence``
    Issue-queue and delay-buffer membership agree with the
    ``in_delay_buffer`` flag; delay-buffered ops are completed and still
    occupy issue-queue slots; completed ops never linger in the queue
    outside the delay buffer; WAITING ops are always schedulable (present
    in the queue); both structures respect their capacities.
``executing-list``
    The core's executing list holds exactly the EXECUTING ops, once each.
``squash-residue``
    Squashed (or committed) ops are absent from every structure.
``prf-ready``
    A physical register is marked pending exactly while an in-flight
    WAITING/EXECUTING op is its writer, and no register has two in-flight
    writers.
``freelist-disjoint``
    The free list is disjoint from every live rename mapping
    (speculative and committed tables) and from every in-flight op's
    source/destination tags, and holds no duplicates.

Relaxation: rename-fault injection deliberately corrupts mappings so that
commit frees *wrong* (live) registers — the double-free tolerance
documented on :class:`~repro.pipeline.regfile.FreeList`. Injecting a
rename fault (``PipelineCore.inject_rat_bit``) therefore flips
:attr:`InvariantSanitizer.relax_rename`, which disables the ``prf-ready``
and ``freelist-disjoint`` checks; the purely structural invariants stay
armed because they hold even under the paper's fault model.

Cost: nothing is imported or consulted on the default path —
``PipelineCore.step`` is only shadowed on the *instance* that opted in
(see :meth:`PipelineCore.enable_sanitizer`), so un-sanitized cores pay
zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..errors import SimulationError
from .uops import OpState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import PipelineCore


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, observed at the end of one cycle."""

    cycle: int
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"cycle {self.cycle}: {self.invariant}: {self.detail}"


class InvariantError(SimulationError):
    """Raised by a sanitizer in raise mode on the first dirty check."""

    def __init__(self, violations: List[InvariantViolation]):
        first = violations[0]
        extra = f" (+{len(violations) - 1} more)" if len(violations) > 1 \
            else ""
        super().__init__(f"{first}{extra}")
        self.violations = violations


class InvariantSanitizer:
    """Structural invariant checker for one :class:`PipelineCore`.

    ``raise_on_violation`` (default) makes the first dirty check raise an
    :class:`InvariantError`; otherwise violations accumulate in
    :attr:`violations` for the caller to inspect. ``events`` is an
    optional :class:`repro.obs.events.EventLog`-like sink; each violation
    is emitted as one ``invariant`` event (merged with :attr:`context`,
    e.g. the fuzz seed). The sink is dropped on pickling — a checkpointed
    golden core carries its sanitizer but not an open log handle.
    """

    def __init__(self, raise_on_violation: bool = True,
                 relax_rename: bool = False,
                 events: Any = None,
                 max_recorded: int = 256):
        self.raise_on_violation = raise_on_violation
        self.relax_rename = relax_rename
        self.events = events
        self.max_recorded = max_recorded
        self.context: Dict[str, Any] = {}
        self.violations: List[InvariantViolation] = []
        self.checks_run = 0

    def __getstate__(self):
        state = self.__dict__.copy()
        state["events"] = None    # log handles never survive pickling
        return state

    def relax_for_rename_fault(self) -> None:
        """Disable the rename-liveness invariants: a rename fault makes
        wrong frees (and the resulting reallocation clobbers) part of the
        fault model, not simulator errors."""
        self.relax_rename = True

    # ------------------------------------------------------------------
    def check(self, core: "PipelineCore") -> List[InvariantViolation]:
        """Run every invariant against *core*; returns (and records) the
        violations found by this check."""
        self.checks_run += 1
        cycle = core.cycle
        found: List[InvariantViolation] = []

        def fail(invariant: str, detail: str) -> None:
            found.append(InvariantViolation(cycle, invariant, detail))

        WAITING = OpState.WAITING
        EXECUTING = OpState.EXECUTING
        COMPLETED = OpState.COMPLETED
        live_states = (WAITING, EXECUTING, COMPLETED)

        # -- per-thread ROB / LSQ ordering and residency ----------------
        all_rob_ops = []
        rob_sets = {}
        for thread in core.threads:
            tid = thread.thread_id
            rob_ops = list(thread.rob)
            rob_set = set(rob_ops)
            rob_sets[tid] = rob_set
            all_rob_ops.extend(rob_ops)
            if thread.halted and (rob_ops or len(thread.lsq)):
                fail("squash-residue",
                     f"thread {tid} halted with ops still in ROB/LSQ")
            prev = -1
            for op in rob_ops:
                if op.thread_id != tid:
                    fail("rob-order", f"t{tid} ROB holds uop {op.uid} "
                                      f"of thread {op.thread_id}")
                if op.uid <= prev:
                    fail("rob-order", f"t{tid} ROB order broken at uop "
                                      f"{op.uid} (previous {prev})")
                prev = op.uid
                if op.state not in live_states:
                    fail("squash-residue", f"t{tid} ROB holds uop {op.uid} "
                                           f"in state {op.state.value}")
            prev = -1
            for op in thread.lsq:
                if op.uid <= prev:
                    fail("lsq-order", f"t{tid} LSQ age order broken at uop "
                                      f"{op.uid} (previous {prev})")
                prev = op.uid
                if not op.is_mem:
                    fail("lsq-residency",
                         f"t{tid} LSQ holds non-memory uop {op.uid}")
                if op not in rob_set:
                    fail("lsq-residency", f"t{tid} LSQ uop {op.uid} is not "
                                          f"resident in its ROB")

        # -- fetch buffers ----------------------------------------------
        fetch_ops = []
        for buffer in core._fetch_buffers:
            prev = -1
            for op in buffer:
                fetch_ops.append(op)
                if op.state is not OpState.FETCHED:
                    fail("squash-residue",
                         f"fetch buffer holds uop {op.uid} in state "
                         f"{op.state.value}")
                if op.uid <= prev:
                    fail("rob-order", f"fetch buffer order broken at uop "
                                      f"{op.uid} (previous {prev})")
                prev = op.uid
                if op.in_delay_buffer:
                    fail("iq-coherence", f"pre-dispatch uop {op.uid} flagged "
                                         f"in_delay_buffer")

        # -- issue queue / delay buffer coherence -----------------------
        iq_ops = list(core.iq)
        db_ops = list(core.iq.delay_buffer)
        iq_set = set(iq_ops)
        db_set = set(db_ops)
        rob_union = set(all_rob_ops)
        if len(iq_ops) > core.iq.capacity:
            fail("iq-coherence", f"issue queue holds {len(iq_ops)} ops, "
                                 f"capacity {core.iq.capacity}")
        if len(db_ops) > core.iq.delay_buffer.capacity:
            fail("iq-coherence", f"delay buffer holds {len(db_ops)} ops, "
                                 f"capacity {core.iq.delay_buffer.capacity}")
        for op in db_ops:
            if not op.in_delay_buffer:
                fail("iq-coherence", f"uop {op.uid} buffered but its "
                                     f"in_delay_buffer flag is clear")
            if op not in iq_set:
                fail("iq-coherence", f"delay-buffered uop {op.uid} vacated "
                                     f"its issue-queue slot")
            if op.state is not COMPLETED:
                fail("iq-coherence", f"delay buffer holds uop {op.uid} in "
                                     f"state {op.state.value}")
        for op in iq_ops:
            if op.in_delay_buffer and op not in db_set:
                fail("iq-coherence", f"uop {op.uid} flagged in_delay_buffer "
                                     f"but absent from the deque")
            if op not in rob_union:
                fail("iq-coherence", f"issue-queue uop {op.uid} is not "
                                     f"resident in any ROB")
            if op.state is COMPLETED and op not in db_set:
                fail("iq-coherence", f"completed uop {op.uid} lingers in "
                                     f"the issue queue outside the delay "
                                     f"buffer")
            elif op.state not in live_states:
                fail("squash-residue", f"issue queue holds uop {op.uid} in "
                                       f"state {op.state.value}")

        # -- executing list ---------------------------------------------
        executing_seen = set()
        for op in core._executing:
            if op in executing_seen:
                fail("executing-list", f"uop {op.uid} listed twice")
            executing_seen.add(op)
            if op.state is not EXECUTING:
                fail("executing-list", f"stale entry: uop {op.uid} is "
                                       f"{op.state.value}")
            if op not in rob_union:
                fail("executing-list", f"executing uop {op.uid} is not in "
                                       f"any ROB")
        for op in all_rob_ops:
            if op.state is EXECUTING and op not in executing_seen:
                fail("executing-list", f"uop {op.uid} EXECUTING but missing "
                                       f"from the executing list")
            elif op.state is WAITING and op not in iq_set:
                fail("iq-coherence", f"uop {op.uid} WAITING but not in the "
                                     f"issue queue (unschedulable)")

        # -- register liveness: relaxed under rename-fault injection ----
        if not self.relax_rename:
            self._check_registers(core, all_rob_ops, fail)

        return self._record(found)

    def _check_registers(self, core: "PipelineCore", all_rob_ops,
                         fail) -> None:
        free_tags = core.free_list.tag_set()
        duplicates = core.free_list.duplicates()
        for tag in duplicates[:8]:
            fail("freelist-disjoint", f"tag p{tag} freed more than once")
        live = set()
        for thread in core.threads:
            live.update(thread.committed_rat.map)
            if not thread.halted:
                # a halting squash deliberately leaves the speculative
                # table stale (the thread never renames again)
                live.update(thread.spec_rat.map)
        ready = core.prf.ready
        pending_writers: Dict[int, Any] = {}
        for op in all_rob_ops:
            dest = op.phys_dest
            if dest is not None:
                live.add(dest)
                if op.state is OpState.WAITING \
                        or op.state is OpState.EXECUTING:
                    other = pending_writers.get(dest)
                    if other is not None:
                        fail("prf-ready", f"uops {other.uid} and {op.uid} "
                                          f"both in flight to p{dest}")
                    pending_writers[dest] = op
                    if ready[dest]:
                        fail("prf-ready", f"p{dest} ready while its writer "
                                          f"uop {op.uid} is "
                                          f"{op.state.value}")
            live.update(op.phys_srcs)
        overlap = free_tags & live
        for tag in sorted(overlap)[:8]:
            fail("freelist-disjoint", f"free tag p{tag} is still live "
                                      f"(rename mapping or in-flight op)")
        # Pending scan: the ready list is O(phys_regs) and the set of
        # pending registers is tiny, so one comprehension collects them
        # before the (rare) membership checks.
        pending = [reg for reg, ok in enumerate(ready) if not ok]
        for reg in pending:
            if reg not in pending_writers and reg not in free_tags:
                fail("prf-ready", f"p{reg} marked pending with no in-flight "
                                  f"writer and not on the free list")

    # ------------------------------------------------------------------
    def _record(self,
                found: List[InvariantViolation]) -> List[InvariantViolation]:
        if not found:
            return found
        room = self.max_recorded - len(self.violations)
        if room > 0:
            self.violations.extend(found[:room])
        if self.events is not None:
            for violation in found[:16]:
                self.events.emit("invariant",
                                 invariant=violation.invariant,
                                 cycle=violation.cycle,
                                 detail=violation.detail,
                                 **self.context)
        if self.raise_on_violation:
            raise InvariantError(found)
        return found


def check_core(core: "PipelineCore") -> List[InvariantViolation]:
    """One-shot convenience: check *core* without arming anything."""
    return InvariantSanitizer(raise_on_violation=False).check(core)


__all__ = ["InvariantError", "InvariantSanitizer", "InvariantViolation",
           "check_core"]
