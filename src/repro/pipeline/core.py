"""The out-of-order SMT pipeline core: cycle loop and recovery actions.

One :class:`PipelineCore` models one of the paper's cores: ``smt_contexts``
threads sharing the issue queue, physical register file, functional units
and data-cache hierarchy, each with private ROB/LSQ partitions and rename
tables. The screening unit (FaultHound, PBFS, or the null baseline) is
consulted at instruction completion and — for FaultHound's LSQ scheme — at
commit, and the core implements the three recovery actions: predecessor
replay out of the delay buffer, full pipeline rollback, and the singleton
re-execute with value comparison.

Stage order within a cycle is commit → complete → issue → dispatch →
fetch, the conventional reverse order that prevents same-cycle
flow-through.
"""

from __future__ import annotations

import weakref
from collections import deque
from operator import attrgetter
from time import perf_counter
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..config import VALUE_MASK, HardwareConfig
from ..core.actions import CheckAction, CheckKind
from ..core.screening import NullScreeningUnit, ScreeningUnit
from ..errors import MemoryFault, SimulationError
from ..isa.interpreter import golden_trace
from ..isa.opcodes import Opcode
from ..isa.program import Program
from ..isa.semantics import check_address, effective_address
from ..memory.hierarchy import MemoryHierarchy
from .branch import BranchPredictor
from .func_units import FunctionalUnits
from .issue_queue import IssueQueue
from .lsq import ForwardStatus
from .regfile import FreeList, PhysicalRegisterFile
from .stats import PipelineStats
from .thread import ThreadContext
from .uops import MicroOp, OpState

#: Fetch-to-dispatch latency in cycles (fetch + decode depth).
FRONTEND_DEPTH = 3
#: Fetch-buffer capacity per thread.
FETCH_BUFFER_CAP = 16

#: Enum members and key functions the per-cycle stages test, as module
#: globals (one dict lookup, not a class attribute walk per use). No
#: per-cycle function names an enum member through its class or keys a
#: dict by one (tests/test_hot_path_enums.py holds the line).
_WAITING = OpState.WAITING
_EXECUTING = OpState.EXECUTING
_COMPLETED = OpState.COMPLETED
_COMMITTED = OpState.COMMITTED
_SQUASHED = OpState.SQUASHED
_HALT = Opcode.HALT
_JMP = Opcode.JMP
_STALL = ForwardStatus.STALL
_HIT = ForwardStatus.HIT
_LOAD_ADDR = CheckKind.LOAD_ADDR
_STORE_ADDR = CheckKind.STORE_ADDR
_STORE_VALUE = CheckKind.STORE_VALUE
_NONE = CheckAction.NONE
_REPLAY = CheckAction.REPLAY
_SQUASH = CheckAction.SQUASH
_SINGLETON = CheckAction.SINGLETON
_UID = attrgetter("uid")

#: Event horizon for :meth:`PipelineCore.quiescent_until`: returned when
#: nothing is pending at all, so a hung window jumps straight to its
#: cycle bound — exactly where cycle-by-cycle stepping would land.
_NO_EVENT = 1 << 62


class PipelineCore:
    """A value-accurate out-of-order core running one program per thread."""

    def __init__(self, programs: Sequence[Program],
                 hw: HardwareConfig | None = None,
                 screening: ScreeningUnit | None = None,
                 thread_options: Optional[Sequence[dict]] = None):
        self.hw = hw or HardwareConfig()
        if not programs:
            raise SimulationError("need at least one program")
        if len(programs) > self.hw.smt_contexts:
            raise SimulationError(
                f"{len(programs)} programs > {self.hw.smt_contexts} contexts")
        self.screening = screening or NullScreeningUnit()
        self.stats = PipelineStats()

        self.prf = PhysicalRegisterFile(self.hw.phys_regs)
        used = len(programs) * 32
        self.free_list = FreeList(range(used, self.hw.phys_regs))

        delay_size = (self.hw.delay_buffer_size
                      if self.screening.wants_delay_buffer else 0)
        self.iq = IssueQueue(self.hw.issue_queue_size, delay_size)

        self.hierarchy = MemoryHierarchy(self.hw)
        self._ideal_hierarchy = MemoryHierarchy(self.hw, ideal=True)

        thread_options = thread_options or [{} for _ in programs]
        self.threads: List[ThreadContext] = []
        self.predictors: List[BranchPredictor] = []
        for tid, (program, opts) in enumerate(zip(programs, thread_options)):
            mapping = list(range(tid * 32, tid * 32 + 32))
            thread = ThreadContext(tid, program, self.hw, mapping,
                                   ideal_memory=opts.get("ideal_memory", False),
                                   ideal_branch=opts.get("ideal_branch", False),
                                   max_commits=opts.get("max_commits"))
            for reg, value in thread.program.initial_regs.items():
                if reg != 0:
                    self.prf.write(mapping[reg], value)
            self.threads.append(thread)
            self.predictors.append(
                BranchPredictor(ideal=thread.ideal_branch))
        self._branch_oracles: Dict[int, Deque[bool]] = {}
        for program, thread in zip(programs, self.threads):
            if thread.ideal_branch:
                self._branch_oracles[thread.thread_id] = deque(
                    self._cached_branch_outcomes(program, thread))
        # every rotation of the round-robin thread priority, prebuilt so
        # the commit, dispatch and fetch stages never allocate per cycle
        self._thread_orders = self._build_thread_orders()

        self.fus = FunctionalUnits(self.hw)
        self.cycle = 0
        self._uid = 0
        self._fetch_buffers: List[Deque[MicroOp]] = [
            deque() for _ in self.threads]
        self._executing: List[MicroOp] = []
        self._replay_pending: set = set()
        # per-cycle aggregate occupancy snapshots (see _dispatch_stage)
        self._rob_total = 0
        self._lsq_total = 0
        #: Issue suspended until this cycle (singleton re-execute).
        self._issue_suspended_until = 0
        #: (cycle, uid, source) records of declared fault detections
        #: (singleton re-execute value mismatches, Section 3.5).
        self.declared_faults: List[Tuple[int, int, str]] = []
        #: Cycle of every screening filter trigger (any non-NONE check
        #: action, including second-level suppressions) — the raw series
        #: behind the audit trail's detection latencies.
        self.screen_trigger_cycles: List[int] = []
        #: Per-stage wall-clock accounting, populated only after
        #: :meth:`enable_stage_profiling` (the default step() path pays
        #: a single attribute test).
        self.stage_seconds: Dict[str, float] = {}
        self._stage_profiling = False
        #: Tandem-classification hooks: when a thread's committed count
        #: reaches its target, its architectural snapshot is captured
        #: exactly at that boundary (see repro.faults.classifier).
        self.snapshot_targets: Dict[int, int] = {}
        self.captured_snapshots: Dict[int, Tuple] = {}
        #: Armed invariant sanitizer, or None (the default — costs one
        #: attribute on the instance, nothing per cycle; see
        #: :meth:`enable_sanitizer` and repro.pipeline.invariants).
        self._sanitizer = None
        self._sanitize_every = 1
        #: Idle-cycle elision (event-skip fast-forward). On by default;
        #: :meth:`enable_fast_forward` turns it off for cycle-by-cycle
        #: reference runs (equivalence tests, before/after benchmarks).
        self.fast_forward = True
        #: Cycles jumped over by :meth:`elide_idle_cycles` (diagnostic).
        self.cycles_elided = 0
        self.stats.bind_cycle_source(self)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _cached_branch_outcomes(self, program: Program,
                                thread: ThreadContext) -> Tuple[bool, ...]:
        """Branch-oracle outcomes for *thread* (SRT-iso's perfect
        trailing-thread branch prediction): the conditional-branch
        outcomes among the first ``(max_commits or 200_000) * 2 + 1000``
        instructions of the golden run.

        They come from the program's one golden interpretation
        (:func:`~repro.isa.interpreter.golden_trace`), memoised per
        program object, so campaigns constructing many fresh cores — and
        SRT's ``dynamic_length`` — interpret each program once. *program*
        is the caller's object (pre-``ensure_halts``; appending a HALT
        never adds branch outcomes, so the recording is keyed on the
        object callers actually share)."""
        limit = (thread.max_commits or 200_000) * 2 + 1000
        return golden_trace(program, limit).branch_outcomes(limit)

    # ------------------------------------------------------------------
    # public driving API
    # ------------------------------------------------------------------
    @property
    def all_halted(self) -> bool:
        for thread in self.threads:
            if not thread.halted:
                return False
        return True

    def step(self) -> None:
        """Advance the core by one cycle."""
        self.cycle += 1
        self.fus.new_cycle()
        if self._stage_profiling:
            self._step_stages_timed()
            return
        self._commit_stage()
        if self._executing:
            self._complete_stage()
        self._issue_stage()
        self._dispatch_stage()
        self._fetch_stage()

    def enable_stage_profiling(self, enabled: bool = True) -> None:
        """Opt into per-stage wall-clock accounting (``stage_seconds``).
        Fast-forward scans and jumps are attributed to the dedicated
        ``"idle-skip"`` bucket."""
        self._stage_profiling = enabled

    def _step_stages_timed(self) -> None:
        accumulate = self.stage_seconds
        for name, stage in self._TIMED_STAGES:
            started = perf_counter()
            # looked up on the instance: a stage shadowed on this core
            # (the classifier's dispatch watch) runs here too
            getattr(self, stage)()
            accumulate[name] = (accumulate.get(name, 0.0)
                                + perf_counter() - started)

    def record_metrics(self, metrics, prefix: str = "core") -> None:
        """Fold this core's cumulative state into a live-telemetry
        registry (repro.obs.metrics). Read-only over the core — called
        once per completed run, never per cycle, so it cannot perturb
        results and costs nothing against :data:`~repro.obs.metrics.
        NULL_METRICS`."""
        if not metrics.enabled:
            return
        stats = self.stats
        metrics.counter(f"{prefix}_cycles_total").inc(self.cycle)
        metrics.counter(f"{prefix}_cycles_elided_total").inc(
            self.cycles_elided)
        metrics.counter(f"{prefix}_commits_total").inc(stats.committed)
        metrics.counter(f"{prefix}_replay_events_total").inc(
            stats.replay_events)
        metrics.counter(f"{prefix}_rollback_events_total").inc(
            stats.rollback_events)
        metrics.counter(f"{prefix}_singleton_reexecs_total").inc(
            stats.singleton_reexecs)
        metrics.counter(f"{prefix}_branch_mispredicts_total").inc(
            stats.branch_mispredicts)
        metrics.gauge(f"{prefix}_ipc").set(stats.ipc)
        metrics.gauge(f"{prefix}_rob_occupancy").set(self._rob_total)
        metrics.gauge(f"{prefix}_lsq_occupancy").set(self._lsq_total)
        for stage, seconds in self.stage_seconds.items():
            metrics.counter(
                f"{prefix}_stage_{stage.replace('-', '_')}_seconds"
            ).inc(seconds)

    # ------------------------------------------------------------------
    # invariant sanitizer (repro.pipeline.invariants)
    # ------------------------------------------------------------------
    def enable_sanitizer(self, sanitizer=None, every: int = 1):
        """Arm an invariant sanitizer on this core; returns it.

        ``every=N`` checks after every Nth cycle by shadowing ``step``
        with a checking wrapper *on this instance only* — the class-level
        ``step`` is untouched, so cores that never opt in pay nothing.
        The wrapper holds the core weakly, so arming makes no reference
        cycle.
        ``every=0`` arms the sanitizer for explicit
        :meth:`check_invariants` calls only (the tandem classifier's
        capture-site mode).
        """
        from .invariants import InvariantSanitizer
        if sanitizer is None:
            sanitizer = InvariantSanitizer()
        self._sanitizer = sanitizer
        # record the mode: 0 (explicit-check) imposes no per-cycle
        # cadence, so idle-cycle elision stays unrestricted; N >= 1 makes
        # elide_idle_cycles stop short of every Nth cycle so the periodic
        # checks run at exactly the legacy cycles
        self._sanitize_every = every
        if every:
            self.step = _SanitizedStep(self)
        else:
            self.__dict__.pop("step", None)
        return sanitizer

    def disable_sanitizer(self) -> None:
        """Disarm: restores the un-instrumented class-level ``step``."""
        self._sanitizer = None
        self.__dict__.pop("step", None)

    def check_invariants(self):
        """Run the armed sanitizer once against the current state; a
        no-op (empty list) when no sanitizer is armed. ``getattr`` guards
        against cores unpickled from pre-sanitizer checkpoints."""
        sanitizer = getattr(self, "_sanitizer", None)
        if sanitizer is None:
            return []
        return sanitizer.check(self)

    def inflight_ops(self):
        """Every micro-op currently tracked by the core: fetch buffers
        (pre-dispatch) then each thread's ROB. The supported iteration
        surface for tracers and debuggers — the underlying containers
        are private."""
        for buffer in self._fetch_buffers:
            yield from buffer
        for thread in self.threads:
            yield from thread.rob

    # ------------------------------------------------------------------
    # checkpoint protocol
    # ------------------------------------------------------------------
    def clone(self) -> "PipelineCore":
        """A fully independent copy of this core, mid-flight.

        Purpose-built replacement for ``copy.deepcopy`` in the tandem
        classifier's hot loop: every mutable structure is copied through
        its own ``clone()``, immutable state (hardware config, programs,
        instructions) is shared, and micro-op identity is preserved — an
        op resident in several containers at once (ROB, LSQ, issue
        queue, delay buffer, executing list) maps to exactly one clone,
        keyed by its core-global ``uid``.
        """
        twin = object.__new__(type(self))
        twin.hw = self.hw                     # frozen config, shared
        twin.screening = self.screening.clone()
        twin.stats = self.stats.clone()
        twin.prf = self.prf.clone()
        twin.free_list = self.free_list.clone()
        twin.hierarchy = self.hierarchy.clone()
        twin._ideal_hierarchy = self._ideal_hierarchy.clone()

        memo: Dict[int, MicroOp] = {}

        def clone_op(op: MicroOp) -> MicroOp:
            copy_ = memo.get(op.uid)
            if copy_ is None:
                copy_ = op.clone()
                memo[op.uid] = copy_
            return copy_

        twin.threads = [t.clone(clone_op) for t in self.threads]
        twin.predictors = [p.clone() for p in self.predictors]
        twin._branch_oracles = {tid: deque(oracle) for tid, oracle
                                in self._branch_oracles.items()}
        twin.iq = self.iq.clone(clone_op)
        twin.fus = self.fus.clone()
        twin.cycle = self.cycle
        twin._uid = self._uid
        twin._fetch_buffers = [deque(clone_op(op) for op in buffer)
                               for buffer in self._fetch_buffers]
        twin._executing = [clone_op(op) for op in self._executing]
        twin._replay_pending = set(self._replay_pending)
        twin._rob_total = self._rob_total
        twin._lsq_total = self._lsq_total
        twin._issue_suspended_until = self._issue_suspended_until
        twin.declared_faults = list(self.declared_faults)
        twin.screen_trigger_cycles = list(self.screen_trigger_cycles)
        twin.stage_seconds = dict(self.stage_seconds)
        twin._stage_profiling = self._stage_profiling
        twin.snapshot_targets = dict(self.snapshot_targets)
        twin.captured_snapshots = dict(self.captured_snapshots)
        # forks start unsanitized: the classifier's faulty copies *will*
        # break rename invariants by design, and the golden core re-arms
        # explicitly (clone never copies the instance-level step shadow)
        twin._sanitizer = None
        twin._sanitize_every = 1
        twin.fast_forward = self.fast_forward
        twin.cycles_elided = self.cycles_elided
        twin._thread_orders = twin._build_thread_orders()
        twin.stats.bind_cycle_source(twin)
        return twin

    def __setstate__(self, state):
        self.__dict__.update(state)
        # cores pickled before fast-forward existed restore with defaults
        self.__dict__.setdefault("fast_forward", True)
        self.__dict__.setdefault("cycles_elided", 0)
        if "_thread_orders" not in self.__dict__:
            self._thread_orders = self._build_thread_orders()
        stats = self.__dict__.get("stats")
        if stats is not None:
            stats.bind_cycle_source(self)

    def __del__(self):
        # the stats may outlive this core (``run()`` returns them) and
        # bind it weakly: hand them the final count
        stats = self.__dict__.get("stats")
        if stats is not None:
            stats._cycles = self.__dict__.get("cycle", 0)

    # ------------------------------------------------------------------
    # event-skip fast-forward
    # ------------------------------------------------------------------
    def enable_fast_forward(self, enabled: bool = True) -> None:
        """Toggle idle-cycle elision in the run drivers. Disabling forces
        the cycle-by-cycle reference behaviour (the fast path is bit-for-
        bit equivalent; the toggle exists for before/after measurement
        and equivalence testing)."""
        self.fast_forward = enabled

    def activity_signature(self) -> int:
        """Cheap digest of the event counters that any state-changing
        cycle bumps in practice. Run drivers consult the (more expensive)
        :meth:`quiescent_until` scan only after a step that left this
        unchanged; the scan alone is authoritative, so a counter missed
        here costs one wasted scan, never correctness."""
        stats = self.stats
        return (stats.fetched + stats.dispatched + stats.issued
                + stats.completed + stats.committed + stats.squashed
                + stats.exceptions + stats.replay_events
                + stats.branch_mispredicts)

    def quiescent_until(self) -> int:
        """The earliest cycle > ``self.cycle`` at which any stage can
        change state, aggregated from every structure's
        ``next_event_cycle()`` contract.

        Conservative by construction: an event may be reported early
        (the core just steps normally through it) but never late, so
        jumping to ``quiescent_until() - 1`` is always safe. Returns
        ``cycle + 1`` when the core may be busy next cycle and the
        :data:`_NO_EVENT` horizon when nothing is pending at all (a
        deadlocked window then jumps straight to its cycle bound).
        """
        now = self.cycle
        horizon = now + 1

        # commit: acts exactly on a COMPLETED head (retire, exception,
        # singleton_stall decrement) — an event every cycle while true
        for thread in self.threads:
            if thread.rob.next_event_cycle(now) is not None:
                return horizon

        nxt = _NO_EVENT

        # complete: the earliest in-flight execution finish
        executing = self._executing
        if executing:
            done = min(op.exec_done_at for op in executing)
            if done <= horizon:
                return horizon
            if done < nxt:
                nxt = done

        # issue: a ready WAITING op issues next cycle (or once a
        # singleton suspension lifts); loads whose forwarding probe
        # stalls retry every cycle without changing anything
        event = self.iq.next_event_cycle(now, self.prf.ready,
                                         self._issue_blocked)
        if event is not None:
            event = max(event, self._issue_suspended_until)
            if event <= horizon:
                return horizon
            if event < nxt:
                nxt = event

        # frontend: fetch-buffer dispatch readiness and fetch eligibility
        event = self._frontend_next_event(now)
        if event is not None:
            if event <= horizon:
                return horizon
            if event < nxt:
                nxt = event

        # structures with no autonomous events today honour the contract
        # anyway, so future subclasses participate without core changes
        for source in (self.fus, self.screening, self.hierarchy,
                       self._ideal_hierarchy):
            event = source.next_event_cycle(now)
            if event is not None:
                if event <= horizon:
                    return horizon
                if event < nxt:
                    nxt = event
        for thread in self.threads:
            event = thread.lsq.next_event_cycle(now)
            if event is not None:
                if event <= horizon:
                    return horizon
                if event < nxt:
                    nxt = event
        return nxt

    def _issue_blocked(self, op: MicroOp) -> bool:
        """True when a ready WAITING op still cannot leave the issue
        stage: a valid-address load whose store-to-load forwarding probe
        stalls (it retries every cycle with no effect until the blocking
        store's value resolves — a completion event). Pure: mirrors the
        issue stage's own side-effect-free probe."""
        if not op.is_load:
            return False
        base = self.prf.read(op.phys_srcs[0])
        address = effective_address(base, op.inst.imm)
        if not check_address(address):
            return False    # would issue and resolve as an exception
        status, _value, _uid = self.threads[op.thread_id].lsq.forward_value(
            op, address)
        return status is _STALL

    def _frontend_next_event(self, now: int) -> Optional[int]:
        """Dispatch/fetch events: the earliest cycle either front-end
        stage can act, or None when both are blocked on events tracked
        elsewhere (every resource that gates dispatch — ROB/IQ/LSQ slots,
        free-list tags — frees only in commit/complete/squash paths)."""
        nxt = None
        buffers = self._fetch_buffers
        threads = self.threads
        rob_total = -1
        for thread in threads:
            buffer = buffers[thread.thread_id]
            if not buffer:
                continue
            op = buffer[0]
            ready_at = op.dispatch_ready_at
            if ready_at > now:
                if nxt is None or ready_at < nxt:
                    nxt = ready_at
                continue
            # mirror _dispatch_stage's resource gates without mutating
            if rob_total < 0:
                rob_total = sum(len(t.rob) for t in threads)
                lsq_total = sum(len(t.lsq) for t in threads)
            if rob_total >= self.hw.rob_size or thread.rob.full \
                    or not self.iq.can_accept():
                continue
            if op.is_mem and (thread.lsq.full
                              or lsq_total >= self.hw.lsq_size):
                continue
            if op.writes_reg and self.free_list.empty:
                continue
            return now + 1    # dispatchable as soon as the stage runs
        for thread in threads:
            # program exhaustion still counts: the stage must run once to
            # latch stop_fetch, which feeds the ICOUNT fairness timing
            if (not thread.fetch_active
                    or len(buffers[thread.thread_id]) >= FETCH_BUFFER_CAP):
                continue
            event = thread.fetch_stalled_until
            if event <= now:
                return now + 1
            if nxt is None or event < nxt:
                nxt = event
        return nxt

    def elide_idle_cycles(self, bound: int) -> bool:
        """Jump ``self.cycle`` to one cycle before the next event (clamped
        to *bound*) when the core is provably idle; True when at least one
        cycle was elided. Safe to call at any time — the jump happens only
        when :meth:`quiescent_until` proves the skipped cycles are no-ops.
        A periodic sanitizer caps the jump so its checks still run at the
        legacy cycles; under stage profiling the scan/jump cost lands in
        the ``"idle-skip"`` bucket of ``stage_seconds``."""
        if not self.fast_forward:
            return False
        profiling = self._stage_profiling
        if profiling:
            started = perf_counter()
        landing = self.quiescent_until() - 1
        if landing > bound:
            landing = bound
        if self._sanitizer is not None and self._sanitize_every:
            every = self._sanitize_every
            next_check = (self.cycle // every + 1) * every
            if landing >= next_check:
                landing = next_check - 1
        elided = landing - self.cycle
        if elided > 0:
            self.cycle = landing
            self.cycles_elided += elided
        if profiling:
            self.stage_seconds["idle-skip"] = (
                self.stage_seconds.get("idle-skip", 0.0)
                + perf_counter() - started)
        return elided > 0

    # ------------------------------------------------------------------
    # run drivers
    # ------------------------------------------------------------------
    def _drive(self, bound: int, total_commits: int = _NO_EVENT,
               capture: bool = False) -> None:
        """Step until cycle *bound*, every thread halts, the all-thread
        committed count reaches *total_commits*, or — with *capture* —
        every armed snapshot target is captured, eliding provably idle
        stretches. The loop of every run driver below.

        It tests ``all_halted`` and compares ``activity_signature()``
        inline, not through the property and the method, because it runs
        once per stepped cycle."""
        step = self.step
        threads = self.threads
        stats = self.stats
        captured = self.captured_snapshots
        wanted = len(self.snapshot_targets) if capture else _NO_EVENT
        signature = -1
        while self.cycle < bound:
            if stats.committed >= total_commits or len(captured) >= wanted:
                return
            for thread in threads:
                if not thread.halted:
                    break
            else:
                return
            current = (stats.fetched + stats.dispatched + stats.issued
                       + stats.completed + stats.committed + stats.squashed
                       + stats.exceptions + stats.replay_events
                       + stats.branch_mispredicts)
            if (current == signature and self.elide_idle_cycles(bound)
                    and self.cycle >= bound):
                return
            signature = current
            step()

    def step_until(self, target_cycle: int) -> None:
        """Advance to *target_cycle* (or until every thread halts),
        eliding provably idle stretches."""
        self._drive(target_cycle)

    def run(self, max_cycles: int = 2_000_000) -> PipelineStats:
        """Run until every thread halts, or *max_cycles* more cycles."""
        self.step_until(self.cycle + max_cycles)
        return self.stats

    def run_to_commit(self, total_commits: int,
                      max_cycles: int = 2_000_000) -> bool:
        """Run until the all-thread committed count reaches the absolute
        coordinate *total_commits*; True when reached, False when every
        thread halted or the cycle budget ran out first."""
        self._drive(self.cycle + max_cycles, total_commits=total_commits)
        return self.stats.committed >= total_commits

    def run_until_commits(self, total_commits: int,
                          max_cycles: int = 2_000_000) -> int:
        """Run until *total_commits* more instructions commit (across all
        threads); returns the number actually committed (may be fewer if
        every thread halts first)."""
        before = self.stats.committed
        self.run_to_commit(before + total_commits, max_cycles)
        return self.stats.committed - before

    def run_to_capture(self, max_cycles: int) -> None:
        """Run until every armed snapshot target is captured or every
        thread halts, bounded by *max_cycles* more cycles (the tandem
        classifier's window driver)."""
        self._drive(self.cycle + max_cycles, capture=True)

    def arch_snapshot(self) -> Tuple:
        """Digest of every thread's architectural state, registers too."""
        return tuple(t.arch_state_snapshot(self.prf) for t in self.threads)

    # ------------------------------------------------------------------
    # fault-injection hooks (used by repro.faults.injector)
    # ------------------------------------------------------------------
    def inject_prf_bit(self, reg: int, bit: int) -> None:
        """Flip one bit of a physical register (back-end datapath fault)."""
        self.prf.flip_bit(reg % self.prf.num_regs, bit)

    def inject_rat_bit(self, thread_id: int, logical: int, bit: int) -> None:
        """Flip one bit of a speculative rename mapping (front-end fault)."""
        self.threads[thread_id].spec_rat.flip_bit(logical, bit)
        sanitizer = getattr(self, "_sanitizer", None)
        if sanitizer is not None:
            # wrong frees / reallocation clobbers are now part of the
            # fault model on this core, not simulator errors
            sanitizer.relax_for_rename_fault()

    def inject_lsq_bit(self, thread_id: int, entry_index: int,
                       field: str, bit: int) -> bool:
        """Flip one bit of an executed LSQ entry's address or store value.

        Returns False when the LSQ holds no executed entry to corrupt.
        """
        entries = self.threads[thread_id].lsq.executed_entries()
        if not entries:
            return False
        op = entries[entry_index % len(entries)]
        if field == "value" and op.is_store and op.store_value is not None:
            op.store_value ^= 1 << bit
        else:
            op.eff_addr ^= 1 << bit
        return True

    # ------------------------------------------------------------------
    # commit stage
    # ------------------------------------------------------------------
    def _commit_stage(self) -> None:
        # gate: commit acts only on a COMPLETED head; every other head
        # state (and an empty ROB) is a stall this stage cannot clear
        completed = _COMPLETED
        for thread in self.threads:
            rob = thread.rob._ops
            if rob and rob[0].state is completed:
                break
        else:
            return
        budget = self.hw.commit_width
        commit_checks = self.screening.wants_commit_checks
        orders = self._thread_orders
        for thread in orders[self.cycle % len(orders)]:
            rob = thread.rob._ops
            while budget > 0 and rob:
                op = rob[0]
                if op.state is not completed:
                    break
                if op.exception_addr is not None:
                    self._deliver_exception(thread, op)
                    budget -= 1
                    break
                if op.singleton_stall > 0:
                    op.singleton_stall -= 1
                    break
                if commit_checks and op.is_mem and not op.lsq_checked:
                    if self._commit_check(thread, op):
                        break  # singleton re-execute stalls this commit
                budget -= 1
                if not self._commit_op(thread, op):
                    break
            if budget <= 0:
                break

    def _commit_check(self, thread: ThreadContext, op: MicroOp) -> bool:
        """Run the commit-time LSQ check; True when commit must stall for a
        singleton re-execute."""
        op.lsq_checked = True
        suppress = (thread.screen_suppress_remaining > 0
                    or op.screen_suppressed)
        action = self._screen(op, at_commit=True, suppress=suppress)
        if action is not _SINGLETON:
            return False
        self.stats.singleton_reexecs += 1
        op.singleton_stall = self.hw.singleton_reexec_cycles
        self._issue_suspended_until = max(
            self._issue_suspended_until,
            self.cycle + self.hw.singleton_reexec_cycles)
        self._singleton_reexecute(thread, op)
        return True

    def _singleton_reexecute(self, thread: ThreadContext, op: MicroOp) -> None:
        """Re-execute a single load/store from register-file values and
        compare with the LSQ copy (Section 3.5): a mismatch means a fault
        in the register file or the LSQ and is *declared* (detection)."""
        base = self.prf.read(op.phys_srcs[0])
        new_addr = effective_address(base, op.inst.imm)
        self.stats.regfile_reads += 1
        mismatch = new_addr != op.eff_addr
        new_value = None
        if op.is_store:
            new_value = self.prf.read(op.phys_srcs[1])
            self.stats.regfile_reads += 1
            mismatch = mismatch or new_value != op.store_value
        if mismatch:
            self.stats.singleton_mismatch_detections += 1
            self.declared_faults.append((self.cycle, op.uid, "lsq-compare"))
        # The re-executed values are adopted (recovery for LSQ faults).
        op.eff_addr = new_addr
        if op.is_store:
            op.store_value = new_value
        if not check_address(new_addr):
            op.exception_addr = new_addr

    def _commit_op(self, thread: ThreadContext, op: MicroOp) -> bool:
        """Architecturally retire the ROB head; False on a late exception."""
        stats = self.stats
        inst = op.inst
        if op.is_mem:
            if op.is_store:
                try:
                    thread.memory.write(op.eff_addr, op.store_value)
                except MemoryFault:
                    op.exception_addr = op.eff_addr
                    self._deliver_exception(thread, op)
                    return False
                stats.committed_stores += 1
            else:
                stats.committed_loads += 1
            # the ROB head is its thread's oldest memory op, and the LSQ
            # holds a thread's memory ops in program order
            del thread.lsq._ops[0]

        if op.writes_reg:
            # Free the physical register holding the previous committed
            # value of this logical register. A corrupted rename mapping
            # makes this free the *wrong* (live) register — the uncovered
            # rename-fault corruption of Section 5.5.
            if op.old_phys_dest is not None:
                self.free_list._tags.append(op.old_phys_dest)
            thread.committed_rat.map[inst.rd] = op.phys_dest

        # leave the issue queue (IssueQueue.remove, without the call
        # when the op no longer lingers in the delay buffer)
        iq = self.iq
        if op.in_delay_buffer:
            iq.delay_buffer.remove(op)
        iq._ops.pop(op, None)
        pc = op.pc
        thread.arch_pc = (inst.imm if op.is_branch and op.actual_taken
                          else pc + 1)

        op.state = _COMMITTED
        op.cycle_committed = self.cycle
        thread.rob._ops.popleft()
        count = thread.committed_count = thread.committed_count + 1
        tid = thread.thread_id
        stats.committed += 1
        per_thread = stats.per_thread_committed
        per_thread[tid] = per_thread.get(tid, 0) + 1
        stats.recent_commits.append((tid, pc))
        if self.snapshot_targets:
            self._maybe_capture(thread)
        if thread.screen_suppress_remaining > 0:
            thread.screen_suppress_remaining -= 1

        if inst.opcode is _HALT or (thread.max_commits is not None
                                    and count >= thread.max_commits):
            self._halt_thread(thread)
        return True

    def _maybe_capture(self, thread: ThreadContext) -> None:
        tid = thread.thread_id
        target = self.snapshot_targets.get(tid)
        if (target is not None and thread.committed_count >= target
                and tid not in self.captured_snapshots):
            self.captured_snapshots[tid] = thread.output_snapshot()

    @property
    def all_snapshots_captured(self) -> bool:
        """Every armed thread has its snapshot. A length compare: only
        target thread ids are ever keys of ``captured_snapshots``."""
        return len(self.captured_snapshots) >= len(self.snapshot_targets)

    def set_snapshot_targets(self, targets: Dict[int, int]) -> None:
        """Arm per-thread snapshot capture at the given committed counts.

        A thread already at or past its target (or halted) is captured
        immediately.
        """
        self.snapshot_targets = dict(targets)
        self.captured_snapshots = {}
        for thread in self.threads:
            target = self.snapshot_targets.get(thread.thread_id)
            if target is not None and (thread.committed_count >= target
                                       or thread.halted):
                self.captured_snapshots[thread.thread_id] = \
                    thread.output_snapshot()

    def _halt_thread(self, thread: ThreadContext) -> None:
        thread.halted = True
        thread.stop_fetch()
        tid = thread.thread_id
        if (tid in self.snapshot_targets
                and tid not in self.captured_snapshots):
            self.captured_snapshots[tid] = thread.output_snapshot()
        self._squash_ops(thread, thread.rob.drain_all(), restore_walk=False)
        self._fetch_buffers[thread.thread_id].clear()
        thread.lsq.clear()

    def _deliver_exception(self, thread: ThreadContext, op: MicroOp) -> None:
        """Precise architectural exception at commit: record, halt thread
        (the ISA has no trap handlers), squash everything younger."""
        self.stats.exceptions += 1
        thread.exceptions.append(
            (thread.committed_count, op.pc, op.exception_addr))
        thread.arch_pc = op.pc
        op.state = _COMMITTED  # consumed by the exception
        thread.rob.pop_head()
        if op.is_mem:
            thread.lsq.remove(op)
        self.iq.remove(op)
        if op.phys_dest is not None:
            self.free_list._tags.append(op.phys_dest)
        self._halt_thread(thread)

    # ------------------------------------------------------------------
    # complete stage
    # ------------------------------------------------------------------
    def _complete_stage(self) -> None:
        executing = self._executing
        if not executing:
            return    # gate for the profiled path; step() gates inline
        cycle = self.cycle
        finished = [op for op in executing if op.exec_done_at <= cycle]
        if not finished:
            return
        finished.sort(key=_UID)
        running = _EXECUTING
        try_complete = self._try_complete
        completed = 0
        for op in finished:
            # an op squashed earlier this cycle is skipped
            if op.state is running and try_complete(op):
                completed += 1
        self.stats.completed += completed
        # rebuilt once per cycle: completed, bounced and squashed ops all
        # leave. A bounced op is WAITING in the issue queue again, and
        # leaving it here would let it transiently appear twice if
        # re-issued — `_executing` holds exactly the EXECUTING ops, once
        # each, in issue order
        self._executing = [op for op in self._executing
                           if op.state is running]

    def _bounce(self, op: MicroOp) -> None:
        """Return an op whose operands became unready (producer replay) to
        the issue queue — the load-hit-speculation-style retry."""
        op.state = _WAITING
        op.exec_done_at = -1
        if op.is_mem:
            op.eff_addr = None
            op.forwarded_from = None

    def _try_complete(self, op: MicroOp) -> bool:
        """Finish execution of *op*; returns False when it bounced. The
        caller counts completions into ``stats.completed``."""
        prf = self.prf
        srcs = op.phys_srcs
        ready = prf.ready
        for phys in srcs:
            if not ready[phys]:
                self._bounce(op)
                return False
        stats = self.stats
        thread = self.threads[op.thread_id]
        inst = op.inst

        if op.is_load:
            if not self._complete_load(thread, op):
                return False
        elif op.is_store:
            values = prf.values
            op.eff_addr = effective_address(values[srcs[0]], inst.imm)
            op.store_value = values[srcs[1]]
            stats.regfile_reads += 2
            if not check_address(op.eff_addr):
                op.exception_addr = op.eff_addr
            else:
                self._check_order_violation(thread, op)
        elif op.is_branch:
            self._complete_branch(thread, op)
        elif inst.evaluate is not None:    # an ALU op (not NOP/HALT)
            values = prf.values
            count = len(srcs)
            stats.regfile_reads += count
            op.result = inst.evaluate(
                values[srcs[0]] if count else 0,
                values[srcs[1]] if count > 1 else 0, inst.imm)

        dest = op.phys_dest
        if dest is not None:
            result = op.result
            prf.values[dest] = 0 if result is None else result & VALUE_MASK
            ready[dest] = True
            stats.regfile_writes += 1

        op.state = _COMPLETED
        op.cycle_completed = self.cycle
        was_replay = op.replay_marked
        if was_replay:
            op.replay_marked = False
            self._replay_pending.discard(op.uid)
            if not self._replay_pending:
                self.screening.replaying = False
        # Completion enters the delay buffer instead of leaving the issue
        # queue; the op that ages out of it finally vacates its slot (see
        # DelayBuffer). Without a delay buffer the op leaves at once.
        iq = self.iq
        delay = iq.delay_buffer
        if delay.capacity:
            lingering = delay._ops
            op.in_delay_buffer = True
            lingering.append(op)
            if len(lingering) > delay.capacity:
                aged = lingering.popleft()
                aged.in_delay_buffer = False
                iq._ops.pop(aged, None)
        else:
            iq._ops.pop(op, None)

        if op.is_mem and op.exception_addr is None:
            # A re-completing replayed op must not re-trigger: its
            # re-computed value is deemed final (Section 3.3).
            self._screen_completion(thread, op, force_suppress=was_replay)
        return True

    def _complete_load(self, thread: ThreadContext, op: MicroOp) -> bool:
        """Produce a load's value: forward from the newest older resolved
        store to the same address, else read memory (speculatively past
        stores with unresolved *addresses*; a late-resolving store catches
        stale loads via the memory-order violation check). A matching
        store with a resolved address but unresolved *value* bounces the
        load instead — no check would ever revisit that stale read."""
        base = self.prf.read(op.phys_srcs[0])
        self.stats.regfile_reads += 1
        address = effective_address(base, op.inst.imm)
        op.eff_addr = address
        if not check_address(address):
            op.exception_addr = address
            op.result = 0
            return True
        status, value, store_uid = thread.lsq.forward_value(op, address)
        if status is _STALL:
            # the newest matching older store has not produced its value
            # yet: reading memory here would consume a stale value that
            # no later check revisits — bounce and retry instead
            self._bounce(op)
            return False
        if status is _HIT:
            op.result = value
            op.forwarded_from = store_uid
            self.stats.forwarded_loads += 1
        else:
            op.result = thread.memory.read(address)
        return True

    def _complete_branch(self, thread: ThreadContext, op: MicroOp) -> None:
        srcs = op.phys_srcs
        values = self.prf.values
        count = len(srcs)
        self.stats.regfile_reads += count
        inst = op.inst
        taken = op.actual_taken = inst.evaluate(
            values[srcs[0]] if count else 0,
            values[srcs[1]] if count > 1 else 0, inst.imm)
        if inst.opcode is not _JMP:
            mispredicted = op.mispredicted = taken != op.predicted_taken
            self.predictors[op.thread_id].update(op.thread_id, op.pc, taken,
                                                 mispredicted)
            if mispredicted:
                self.stats.branch_mispredicts += 1
                self._recover_from_branch(thread, op)

    # ------------------------------------------------------------------
    # screening hooks
    # ------------------------------------------------------------------
    def _screen(self, op: MicroOp, at_commit: bool,
                suppress: bool) -> CheckAction:
        """Run the load/store checks for *op*; returns the strongest action."""
        unit = self.screening
        saved = unit.replaying
        if suppress:
            unit.replaying = True
        check = unit.check_at_commit if at_commit else unit.check_at_complete
        try:
            if op.is_load:
                # single check: no severity compare needed
                action = check(_LOAD_ADDR, op.eff_addr, op.pc).action
            else:
                addr = check(_STORE_ADDR, op.eff_addr, op.pc).action
                value = check(_STORE_VALUE, op.store_value, op.pc).action
                action = addr if addr.severity >= value.severity else value
        finally:
            unit.replaying = saved
        if action is not _NONE:
            self.screen_trigger_cycles.append(self.cycle)
        return action

    def _screen_completion(self, thread: ThreadContext, op: MicroOp,
                           force_suppress: bool = False) -> None:
        suppress = (force_suppress
                    or thread.screen_suppress_remaining > 0
                    or op.screen_suppressed)
        action = self._screen(op, at_commit=False, suppress=suppress)
        if action is _REPLAY:
            self._initiate_replay(op)
        elif action is _SQUASH:
            self._screening_rollback(thread)

    def _initiate_replay(self, trigger: MicroOp) -> None:
        """Predecessor replay (Section 3.3): the trigger and its delay-
        buffered predecessors return to the issue queue for re-execution."""
        marked = self.iq.mark_predecessors_for_replay(trigger.uid)
        if trigger.in_delay_buffer:
            self.iq.delay_buffer.remove(trigger)
        if trigger in self.iq and trigger.state is _COMPLETED:
            trigger.mark_for_replay()
            marked.append(trigger)
        if not marked:
            return
        for op in marked:
            if op.phys_dest is not None:
                self.prf.mark_pending(op.phys_dest)
            self._replay_pending.add(op.uid)
        self.stats.replay_events += 1
        self.stats.replayed_ops += len(marked)
        self.screening.replaying = True

    def _screening_rollback(self, thread: ThreadContext) -> None:
        """Full pipeline rollback for this thread: squash every uncommitted
        instruction and refetch from the commit point. Recovers rename
        faults because the speculative rename table is restored from the
        committed one."""
        drained = thread.rob.drain_all()
        self._squash_ops(thread, drained, restore_walk=False)
        thread.spec_rat.copy_from(thread.committed_rat)
        thread.lsq.clear()
        self._fetch_buffers[thread.thread_id].clear()
        thread.redirect_fetch(thread.arch_pc,
                              self.cycle + self.hw.rollback_redirect_penalty)
        mem_ops = sum(1 for op in drained if op.is_mem)
        thread.screen_suppress_remaining += mem_ops
        self.stats.rollback_events += 1
        self.stats.rollback_squashed_ops += len(drained)

    # ------------------------------------------------------------------
    # squash machinery
    # ------------------------------------------------------------------
    def _squash_ops(self, thread: ThreadContext, ops: List[MicroOp],
                    restore_walk: bool) -> None:
        """Remove *ops* from every structure. With *restore_walk*, ops must
        be ordered youngest-first and the speculative rename table is
        restored mapping by mapping (branch-mispredict recovery); otherwise
        the caller restores the table wholesale (full rollback) or does not
        need it (halt)."""
        iq_remove = self.iq.remove
        free = self.free_list._tags.append
        replay_pending = self._replay_pending
        squashed = _SQUASHED
        was_executing = False
        for op in ops:
            if op.phys_dest is not None:
                if restore_walk:
                    thread.spec_rat.set(op.inst.rd, op.old_phys_dest)
                free(op.phys_dest)
            iq_remove(op)
            if op.state is _EXECUTING:
                was_executing = True
            replay_pending.discard(op.uid)
            op.state = squashed
        self.stats.squashed += len(ops)
        if was_executing:
            # rebuilt once for the whole squash: the SQUASHED ops drop out
            self._executing = [op for op in self._executing
                               if op.state is _EXECUTING]
        if not replay_pending:
            self.screening.replaying = False

    def _check_order_violation(self, thread: ThreadContext,
                               store: MicroOp) -> None:
        """A resolving store exposes younger completed loads to the same
        address that consumed stale data: squash from the oldest such load
        and refetch (standard memory-order-violation recovery)."""
        violations = thread.lsq.violating_loads(store)
        if not violations:
            return
        oldest = min(violations, key=lambda op: op.uid)
        self.stats.memory_order_violations += 1
        drained = thread.rob.drain_younger_than(oldest.uid - 1)
        self._squash_ops(thread, drained, restore_walk=True)
        thread.lsq.remove_younger_than(oldest.uid - 1)
        self._fetch_buffers[thread.thread_id].clear()
        thread.redirect_fetch(oldest.pc,
                              self.cycle + self.hw.branch_mispredict_penalty)

    def _recover_from_branch(self, thread: ThreadContext,
                             branch: MicroOp) -> None:
        drained = thread.rob.drain_younger_than(branch.uid)
        self._squash_ops(thread, drained, restore_walk=True)
        thread.lsq.remove_younger_than(branch.uid)
        self._fetch_buffers[thread.thread_id].clear()
        target = branch.inst.imm if branch.actual_taken else branch.pc + 1
        thread.redirect_fetch(target,
                              self.cycle + self.hw.branch_mispredict_penalty)
        self.stats.branch_squashed_ops += len(drained)

    # ------------------------------------------------------------------
    # issue stage
    # ------------------------------------------------------------------
    def _issue_stage(self) -> None:
        iq_ops = self.iq._ops
        cycle = self.cycle
        if not iq_ops or cycle < self._issue_suspended_until:
            return
        budget = self.hw.issue_width
        # hot loop: hoist the shared-structure attribute lookups and walk
        # the queue directly (waiting_ops() semantics inlined — dispatch
        # order, WAITING only; issuing flips states but never mutates the
        # queue)
        ready_bits = self.prf.ready
        # functional-unit slots left this cycle, by pool: an op claims
        # one of its pool's by decrementing the count
        free_units = self.fus.free
        issue = self._executing.append
        waiting = _WAITING
        running = _EXECUTING
        issued = 0
        for op in iq_ops:
            if op.state is not waiting:
                continue
            # hot path: inline operand-ready check
            for phys in op.phys_srcs:
                if not ready_bits[phys]:
                    break
            else:
                inst = op.inst
                pool = inst.fu_pool
                if not free_units[pool]:
                    continue
                if op.is_load:
                    latency = self._load_issue_latency(op)
                    if latency is None:
                        continue
                else:
                    latency = inst.latency
                free_units[pool] -= 1
                op.state = running
                op.cycle_issued = cycle
                op.exec_done_at = cycle + latency
                issue(op)
                issued += 1
                if issued == budget:
                    break
        self.stats.issued += issued

    def _load_issue_latency(self, op: MicroOp) -> Optional[int]:
        """The execution latency of a ready load that has a memory port
        free, or None when it cannot issue this cycle. The issue stage
        claims the port when this returns a latency."""
        address = effective_address(self.prf.values[op.phys_srcs[0]],
                                    op.inst.imm)
        if not check_address(address):
            return 1    # exception resolved at completion
        # probe forwarding (side-effect free) before accessing the cache:
        # a STALL must not issue at all, it would either read stale
        # memory or burn the port
        thread = self.threads[op.thread_id]
        status, _value, _uid = thread.lsq.forward_value(op, address)
        if status is _STALL:
            return None
        if status is _HIT:
            return self.hw.l1d_latency
        hierarchy = (self._ideal_hierarchy if thread.ideal_memory
                     else self.hierarchy)
        return hierarchy.access(address, now=self.cycle,
                                space=op.thread_id).latency

    # ------------------------------------------------------------------
    # dispatch stage
    # ------------------------------------------------------------------
    def _dispatch_stage(self) -> None:
        buffers = self._fetch_buffers
        if not any(buffers):
            return    # nothing to dispatch: skip the occupancy sums too
        iq = self.iq
        iq_ops = iq._ops
        iq_cap = iq.capacity
        insert = iq.insert
        delay_buffer = iq.delay_buffer
        # the deque itself: testing the DelayBuffer would call __len__
        lingering = delay_buffer._ops
        if len(iq_ops) >= iq_cap and not lingering:
            return    # dispatch only fills the IQ, so a full queue at
            # stage entry blocks every candidate this cycle
        hw = self.hw
        cycle = self.cycle
        threads = self.threads
        free_tags = self.free_list._tags
        allocate = free_tags.popleft
        ready_bits = self.prf.ready
        # ROB and LSQ are shared dynamically: dispatch checks aggregate
        # occupancy across all SMT contexts, snapshotted once per cycle
        # and kept current below
        rob_size = hw.rob_size
        lsq_size = hw.lsq_size
        rob_total = 0
        lsq_total = 0
        for thread in threads:
            rob_total += len(thread.rob._ops)
            lsq_total += len(thread.lsq._ops)
        budget = hw.decode_width
        orders = self._thread_orders
        for thread in orders[cycle % len(orders)]:
            buffer = buffers[thread.thread_id]
            if not buffer:
                continue
            rob = thread.rob
            rob_ops = rob._ops
            lsq = thread.lsq
            rename = thread.spec_rat.map
            while budget > 0 and buffer:
                op = buffer[0]
                if op.dispatch_ready_at > cycle:
                    break
                # the resource gates; all pure, cheapest first. A full
                # issue queue still accepts by evicting the delay buffer
                if (rob_total >= rob_size or len(rob_ops) >= rob.capacity
                        or (len(iq_ops) >= iq_cap and not lingering)):
                    break
                is_mem = op.is_mem
                if is_mem and (len(lsq._ops) >= lsq.capacity
                               or lsq_total >= lsq_size):
                    break
                # op.writes_reg already folds in the rd != 0 discard rule
                writes_reg = op.writes_reg
                if writes_reg and not free_tags:
                    break

                inst = op.inst
                srcs = inst._source_regs
                if len(srcs) == 2:
                    op.phys_srcs = (rename[srcs[0]], rename[srcs[1]])
                elif srcs:
                    op.phys_srcs = (rename[srcs[0]],)
                if writes_reg:
                    rd = inst.rd
                    new_phys = allocate()
                    op.old_phys_dest = rename[rd]
                    op.phys_dest = new_phys
                    ready_bits[new_phys] = False
                    rename[rd] = new_phys
                insert(op)
                buffer.popleft()
                rob_ops.append(op)
                rob_total += 1
                if is_mem:
                    lsq._ops.append(op)
                    lsq_total += 1
                budget -= 1
            if budget <= 0:
                break
        self._rob_total = rob_total
        self._lsq_total = lsq_total
        dispatched = hw.decode_width - budget
        if dispatched:
            stats = self.stats
            stats.dispatched += dispatched
            squashes = delay_buffer.squashes
            if squashes > stats.delay_buffer_squashes:
                stats.delay_buffer_squashes = squashes

    # ------------------------------------------------------------------
    # fetch stage
    # ------------------------------------------------------------------
    def _fetch_stage(self) -> None:
        thread = self._fetch_thread()
        if thread is None:
            return
        tid = thread.thread_id
        buffer = self._fetch_buffers[tid]
        predictor = self.predictors[tid]
        oracle = self._branch_oracles.get(tid)
        instructions = thread.program.instructions
        end = len(instructions)
        cycle = self.cycle
        ready_at = cycle + FRONTEND_DEPTH
        pc = thread.fetch_pc
        uid = self._uid
        for _ in range(min(self.hw.fetch_width,
                           FETCH_BUFFER_CAP - len(buffer))):
            if not 0 <= pc < end:
                thread.stop_fetch()    # ran off the end of the program
                break
            inst = instructions[pc]
            uid += 1
            op = MicroOp(uid, tid, pc, inst, cycle, ready_at)
            buffer.append(op)
            if op.is_branch:
                if inst.opcode is _JMP:
                    pc = inst.imm
                    continue
                hint = None
                if oracle is not None:
                    hint = oracle.popleft() if oracle else False
                taken = op.predicted_taken = predictor.predict(tid, pc, hint)
                if taken:
                    pc = inst.imm
                    break  # taken-branch redirect ends the fetch group
                pc += 1
            else:
                pc += 1
                if inst.opcode is _HALT:
                    thread.stop_fetch()
                    break
        self.stats.fetched += uid - self._uid
        self._uid = uid
        thread.fetch_pc = pc

    def _fetch_thread(self) -> Optional[ThreadContext]:
        """ICOUNT fetch policy: the eligible thread with the fewest
        in-flight instructions gets the full fetch width this cycle.

        This is the classic SMT fairness rule — without it a thread
        stalled on a long miss chain fills its whole ROB partition and
        starves the shared free list and issue queue, collapsing the
        other thread's throughput.
        """
        best = None
        best_count = None
        cycle = self.cycle
        buffers = self._fetch_buffers
        orders = self._thread_orders
        for thread in orders[cycle % len(orders)]:
            if (thread.halted or thread.fetch_stopped
                    or cycle < thread.fetch_stalled_until):
                continue
            buffered = len(buffers[thread.thread_id])
            if buffered >= FETCH_BUFFER_CAP:
                continue
            in_flight = len(thread.rob._ops) + buffered
            if best_count is None or in_flight < best_count:
                best, best_count = thread, in_flight
        return best

    def _build_thread_orders(self) -> List[List[ThreadContext]]:
        threads = self.threads
        n = len(threads)
        return [threads[i:] + threads[:i] for i in range(n)]

    #: The stages in cycle order, for the profiled step.
    _TIMED_STAGES = (("commit", "_commit_stage"),
                     ("complete", "_complete_stage"),
                     ("issue", "_issue_stage"),
                     ("dispatch", "_dispatch_stage"),
                     ("fetch", "_fetch_stage"))


class _SanitizedStep:
    """The ``step`` shadow of a core armed with a periodic sanitizer
    (:meth:`PipelineCore.enable_sanitizer`): one cycle, then a check on
    every Nth. It holds the core through a weak reference (a bound
    method would close a reference cycle) and pickles as a fresh shadow
    of the unpickled core."""

    __slots__ = ("_core",)

    def __init__(self, core: PipelineCore):
        self._core = weakref.ref(core)

    def __call__(self) -> None:
        core = self._core()
        PipelineCore.step(core)
        if core.cycle % core._sanitize_every == 0:
            core._sanitizer.check(core)

    def __reduce__(self):
        return _SanitizedStep, (self._core(),)


__all__ = ["PipelineCore", "FRONTEND_DEPTH"]
