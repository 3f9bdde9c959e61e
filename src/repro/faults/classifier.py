"""Tandem golden/faulty classification (paper Section 4).

One fault-free *golden* core advances through the workload. For each
planned fault the classifier forks a copy (the purpose-built
:meth:`~repro.pipeline.core.PipelineCore.clone`, not a generic
deepcopy), injects the fault, runs both copies to the same per-thread
committed-instruction boundary (the paper's run-window), and compares:

- extra exceptions in the faulty run  →  **noisy**
- identical architectural state       →  **masked**
- anything else                       →  **SDC**

The golden core is then re-used for the next fault (the paper's trick of
serving all injections from one benchmark run).

A register-file fault is forked late or not at all (see
:meth:`TandemClassifier._register_verdict`): until the first read of the
flipped register the faulty twin retraces golden cycle for cycle. So a
dead fault — overwritten before anything reads it — is classified by
comparing golden with itself, which yields exactly the window result the
faulty run would have produced; and a fault that is read gets its twin
forked from golden at that first read, inside the dispatch stage that
renames the reader, where the bit flip lands. Only a fault already
sourced by an in-flight op at injection, and every rename or LSQ fault,
is forked at injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..obs.metrics import LATENCY_CYCLE_BUCKETS, NULL_METRICS
from ..pipeline.core import PipelineCore
from .injector import FaultInjector
from .model import FaultClass, FaultRecord, FaultSite

#: Cycles an LSQ fault waits for an executed entry to land on before the
#: window is reported as not applied.
LSQ_WAIT_CYCLES = 200


@dataclass
class WindowResult:
    """Everything observed about one injected fault's run-window."""

    record: FaultRecord
    fault_class: Optional[FaultClass] = None
    applied: bool = True
    state_equal: bool = False
    extra_exceptions: int = 0
    hung: bool = False
    #: Scheme events observed between injection and the window end.
    replays: int = 0
    rollbacks: int = 0
    singletons: int = 0
    declared: int = 0
    suppressions: int = 0
    triggers: int = 0
    #: Audit-trail coordinates: the faulty core's cycle when the fault
    #: landed, the cycle of the first screening filter trigger at or
    #: after injection, and their difference (-1 = no trigger observed).
    inject_cycle: int = -1
    first_trigger_cycle: int = -1
    detection_latency: int = -1


@dataclass
class _EventBaseline:
    replays: int
    rollbacks: int
    singletons: int
    declared: int
    suppressions: int
    triggers: int

    @staticmethod
    def of(core: PipelineCore) -> "_EventBaseline":
        unit = core.screening
        suppressions = getattr(unit, "second_level_suppressions", 0)
        return _EventBaseline(
            replays=core.stats.replay_events,
            rollbacks=core.stats.rollback_events,
            singletons=core.stats.singleton_reexecs,
            declared=len(core.declared_faults),
            suppressions=suppressions,
            triggers=unit.trigger_count,
        )


class TandemClassifier:
    """Runs an injection list against one workload + scheme combination."""

    def __init__(self, core_factory: Callable[[], PipelineCore],
                 injector: FaultInjector,
                 window_commits: int = 300,
                 max_window_cycles: int = 60_000,
                 metrics=NULL_METRICS):
        self.core_factory = core_factory
        self.injector = injector
        self.window_commits = window_commits
        self.max_window_cycles = max_window_cycles
        #: Live-telemetry registry (repro.obs.metrics); NULL when off.
        #: Observes only per-window facts, never the golden core's
        #: cumulative stats, so results stay bit-for-bit metrics on/off.
        self.metrics = metrics
        #: Windows classified without a faulty run since the last
        #: :meth:`_record_metrics` (dead register faults).
        self._pruned = 0
        #: Faulty twins built since the last :meth:`_record_metrics`.
        self._forks = 0

    # ------------------------------------------------------------------
    def run(self, records: List[FaultRecord],
            golden: Optional[PipelineCore] = None,
            resume_at_commit: int = 0) -> List[WindowResult]:
        """Classify every fault in *records*.

        The one golden core serves every window, which is only sound
        because the injection plan never asks it to rewind — asserted
        here as a cheap monotonicity check on ``inject_at_commit``
        (``Campaign._space_records`` guarantees it) instead of
        re-deriving golden state per window.

        *golden* lets a caller that already holds a prefix-advanced core
        — the supervisor's live serial golden, or one restored from a
        chunk-boundary :class:`~repro.pipeline.checkpoint.CoreCheckpoint`
        — continue from it, with *resume_at_commit* set to the commit
        coordinate it was advanced through. Without it a fresh core
        starts from the beginning of the workload.
        """
        self._check_contract(records,
                             resume_at_commit if golden is not None else 0)
        if golden is None:
            golden = self.core_factory()
        self._arm_sanitizer(golden)
        results = [self._classify_one(golden, record) for record in records]
        self._record_metrics(results)
        return results

    def _record_metrics(self, results: Sequence[WindowResult]) -> None:
        """Fold one run's per-window observations into the registry."""
        if not self.metrics.enabled or not results:
            return
        self.metrics.counter("classifier_windows_total").inc(len(results))
        self.metrics.counter("classifier_applied_total").inc(
            sum(1 for r in results if r.applied))
        self.metrics.counter("classifier_pruned_windows_total").inc(
            self._pruned)
        self.metrics.counter("classifier_forks_total").inc(self._forks)
        self._pruned = self._forks = 0
        latency = self.metrics.histogram("classifier_detection_latency_cycles",
                                         LATENCY_CYCLE_BUCKETS)
        for result in results:
            if result.detection_latency >= 0:
                latency.observe(result.detection_latency)

    def advance_golden(self, golden: PipelineCore,
                       records: Sequence[FaultRecord]) -> None:
        """Advance *golden* through *records* exactly as the serial
        classifier's golden side would (the supervisor stepping its live
        golden to a chunk's boundary, or a golden pass capturing
        chunk-boundary checkpoints)."""
        self._arm_sanitizer(golden)
        for record in records:
            self._skip_window(golden, record)

    def _arm_sanitizer(self, golden: PipelineCore) -> None:
        """Arm the invariant sanitizer on the golden core in explicit-
        check mode: one full check per window at the capture point, well
        under the ≤2× golden-pass budget — campaigns self-validate their
        golden reference (repro.pipeline.invariants). Faulty forks are
        never sanitized (clone() drops the sanitizer): their rename
        invariants break by design. Never rearms (a restored checkpoint
        may carry an armed sanitizer already) and never touches the
        per-cycle step path."""
        if getattr(golden, "_sanitizer", None) is None \
                and hasattr(golden, "enable_sanitizer"):
            golden.enable_sanitizer(every=0)

    @staticmethod
    def _check_contract(records: Sequence[FaultRecord],
                        already_at_commit: int = 0) -> None:
        previous = already_at_commit if already_at_commit else None
        for record in records:
            if previous is not None and record.inject_at_commit < previous:
                raise ValueError(
                    "fault records must be sorted by inject_at_commit: "
                    "the shared golden core never rewinds")
            previous = record.inject_at_commit

    def _skip_window(self, golden: PipelineCore, record: FaultRecord) -> None:
        """Advance the golden core through one window without classifying.

        Mirrors exactly the golden-side stepping of
        :meth:`_classify_one` (advance to the injection commit, arm the
        snapshot targets, run to capture) so a golden core advanced this
        way is indistinguishable from the serial one. When the serial run
        would have failed to land the fault it leaves golden parked at
        the injection commit; only LSQ faults can fail, and the decision
        depends on faulty-side stepping, so those are probed on a
        throwaway copy.
        """
        if not self._advance_to(golden, record.inject_at_commit):
            return
        if record.site is FaultSite.LSQ:
            probe = golden.clone()
            if not self._apply_with_retry(probe, record):
                return
        targets = {t.thread_id: t.committed_count + self.window_commits
                   for t in golden.threads}
        golden.set_snapshot_targets(targets)
        self._run_to_capture(golden)
        self._check_golden(golden)
        golden.set_snapshot_targets({})

    def _check_golden(self, golden: PipelineCore) -> None:
        """Run the armed sanitizer at a capture point (no-op otherwise).
        Raises InvariantError: a structurally broken golden core would
        silently skew every classification it serves."""
        if hasattr(golden, "check_invariants"):
            golden.check_invariants()

    def _advance_to(self, core: PipelineCore, total_commits: int) -> bool:
        """Advance *core* until its total committed count reaches
        *total_commits*; False when it halted first. Delegates to the
        core's event-skip driver: idle stretches (long-latency misses,
        redirect stalls) are jumped instead of stepped."""
        return core.run_to_commit(total_commits, self.max_window_cycles * 4)

    def _classify_one(self, golden: PipelineCore,
                      record: FaultRecord) -> WindowResult:
        result = WindowResult(record=record)
        if not self._advance_to(golden, record.inject_at_commit):
            result.applied = False
            record.applied = False
            return result

        dead = self._register_verdict(golden, record)
        faulty = None
        if dead is False:
            faulty = injected = golden.clone()
            self._forks += 1
            if not self._apply_with_retry(faulty, record):
                result.applied = False
                return result
        else:
            # no fork yet, but the record learns what
            # FaultInjector.apply would have told it
            record.reg_status = self.injector.reg_status(golden, record.reg)
            record.applied = True
            injected = golden
        before = _EventBaseline.of(injected)
        inject_cycle = injected.cycle
        triggers_before = len(injected.screen_trigger_cycles)

        # Arm both cores to capture each thread's state one run-window of
        # commits past the injection point.
        targets = {t.thread_id: t.committed_count + self.window_commits
                   for t in golden.threads}
        golden.set_snapshot_targets(targets)
        if dead is None:
            faulty = self._run_watched(golden, record, inject_cycle)
        else:
            self._run_to_capture(golden)
        self._check_golden(golden)
        if faulty is None:
            # the faulty twin would retrace golden through the window
            self._pruned += 1
            faulty = golden
        elif dead is False:
            faulty.set_snapshot_targets(targets)
            self._run_to_capture(faulty)

        result = self._compare_window(golden, faulty, record, before,
                                      triggers_before, inject_cycle)
        # the next window re-arms: checkpoints taken between windows
        # must not carry this window's captured memory images
        golden.set_snapshot_targets({})
        return result

    def _run_watched(self, golden: PipelineCore, record: FaultRecord,
                     inject_cycle: int) -> Optional[PipelineCore]:
        """Run golden's window under a :class:`_FirstUseWatch` on the
        fault's register; return the finished faulty twin, or None when
        the fault is dead. The twin is forked at the first read, inside
        that cycle's dispatch stage: it finishes the cycle's fetch stage
        (which reads no register), takes the bit flip and runs what is
        left of the window's cycle budget. Up to that read it would have
        retraced golden, so it is the twin a fork at injection makes."""
        watch = _FirstUseWatch(golden, record.reg % golden.prf.num_regs)
        try:
            self._run_to_capture(golden)
        finally:
            watch.detach()
        faulty = watch.twin
        if faulty is not None:
            self._forks += 1
            faulty._fetch_stage()
            faulty.inject_prf_bit(record.reg, record.bit)
            faulty.run_to_capture(
                inject_cycle + self.max_window_cycles - faulty.cycle)
        return faulty

    def _register_verdict(self, golden: PipelineCore,
                          record: FaultRecord) -> Optional[bool]:
        """Whether a fault about to land is dead — overwritten before any
        instruction reads it — decided at injection where possible.

        True (dead) for a register-file fault in a register that is not
        ready: its pending producer overwrites it in full before any
        reader may issue. False (live, forked at injection) for every
        other site, and for a register some in-flight op of either
        thread already sources. None otherwise: the golden window's
        dispatch stream decides (:class:`_FirstUseWatch`), and a live
        fault's twin is forked at its first read. Every register read
        goes through an op's ``phys_srcs``, which are renamed only at
        dispatch, and the faulty twin's dispatch stream equals golden's
        up to the first read, so a dead verdict is exact, never a guess.
        """
        if record.site is not FaultSite.REGFILE:
            return False
        reg = record.reg % golden.prf.num_regs
        if not golden.prf.ready[reg]:
            return True
        for thread in golden.threads:
            for op in thread.rob:
                if reg in op.phys_srcs:
                    return False
        return None

    def _compare_window(self, golden: PipelineCore, faulty: PipelineCore,
                        record: FaultRecord, before: _EventBaseline,
                        triggers_before: int,
                        inject_cycle: int) -> WindowResult:
        """Classify one finished window from its golden/faulty pair:
        extra exceptions (or a faulty-only halt) make it noisy, equal
        captured snapshots make it masked, anything else is an SDC.
        Scheme event counts are the faulty core's deltas since injection
        minus the golden core's false-positive background over the same
        window.
        """
        result = WindowResult(record=record)
        result.inject_cycle = inject_cycle

        if not faulty.all_snapshots_captured and not faulty.all_halted:
            result.hung = True

        golden_exc = [tuple(t.exceptions) for t in golden.threads]
        faulty_exc = [tuple(t.exceptions) for t in faulty.threads]
        result.extra_exceptions = sum(
            max(0, len(f) - len(g)) for g, f in zip(golden_exc, faulty_exc))

        result.state_equal = (
            faulty.all_snapshots_captured
            and golden.captured_snapshots == faulty.captured_snapshots)

        after = _EventBaseline.of(faulty)
        golden_after = _EventBaseline.of(golden)
        golden_before_delta = _Delta(before, golden_after)
        # events attributable to the fault = faulty delta minus the
        # false-positive background the golden run shows in the same window
        delta = _Delta(before, after)
        result.replays = max(0, delta.replays - golden_before_delta.replays)
        result.rollbacks = max(0, delta.rollbacks - golden_before_delta.rollbacks)
        result.singletons = max(0, delta.singletons - golden_before_delta.singletons)
        result.declared = delta.declared
        result.suppressions = max(
            0, delta.suppressions - golden_before_delta.suppressions)
        result.triggers = max(0, delta.triggers - golden_before_delta.triggers)

        # Detection latency: injection to the faulty core's first filter
        # trigger afterwards. The series may include the same background
        # false positives the golden run shows, but the first trigger in
        # a window that *did* react to the fault is overwhelmingly the
        # fault's own (the FP rate is a few per thousand commits).
        new_triggers = faulty.screen_trigger_cycles[triggers_before:]
        if new_triggers:
            result.first_trigger_cycle = new_triggers[0]
            result.detection_latency = max(
                0, new_triggers[0] - result.inject_cycle)

        if result.extra_exceptions or (faulty.all_halted
                                       and not golden.all_halted):
            result.fault_class = FaultClass.NOISY
        elif result.state_equal:
            result.fault_class = FaultClass.MASKED
        else:
            result.fault_class = FaultClass.SDC
        record.fault_class = result.fault_class
        return result

    def _apply_with_retry(self, faulty: PipelineCore,
                          record: FaultRecord) -> bool:
        """Inject; LSQ faults wait (at most :data:`LSQ_WAIT_CYCLES`) for
        an executed entry to exist.

        The retry loop elides provably idle cycles: the LSQ's executed-
        entry set cannot change while the core is quiescent, so a failing
        ``apply`` keeps failing identically across the skipped stretch
        and the injection lands at exactly the cycle the cycle-by-cycle
        loop would have found.
        """
        if self.injector.apply(faulty, record):
            return True
        if record.site is not FaultSite.LSQ:
            return False
        bound = faulty.cycle + LSQ_WAIT_CYCLES
        signature = -1
        while faulty.cycle < bound:
            if faulty.all_halted:
                return False
            current = faulty.activity_signature()
            if (current == signature and faulty.elide_idle_cycles(bound)
                    and faulty.cycle >= bound):
                break
            signature = current
            faulty.step()
            if self.injector.apply(faulty, record):
                return True
        return False

    def _run_to_capture(self, core: PipelineCore) -> None:
        core.run_to_capture(self.max_window_cycles)


class _FirstUseWatch:
    """Watches a core's dispatch stream for the first op that names one
    physical register; :attr:`read` ends True when that op sources it,
    and :attr:`twin` then holds a clone of the core taken right after
    that cycle's dispatch stage (before its fetch stage).

    Shadows ``_dispatch_stage`` on the watched instance only (the
    class-level stage is untouched, so every other core pays nothing)
    and stops watching once an op has named the register. Ops dispatched
    in one cycle are visited in the stage's own thread order. A register
    that turns pending without being named is being rewritten by a
    replayed producer (``_initiate_replay``), which no reader can issue
    ahead of: it ends the watch with no read.
    """

    __slots__ = ("core", "reg", "read", "twin")

    def __init__(self, core: PipelineCore, reg: int):
        self.core = core
        self.reg = reg
        self.read = False
        self.twin: Optional[PipelineCore] = None
        core._dispatch_stage = self._dispatch_stage

    def _dispatch_stage(self) -> None:
        core = self.core
        threads = core.threads
        before = [len(thread.rob._ops) for thread in threads]
        type(core)._dispatch_stage(core)
        reg = self.reg
        orders = core._thread_orders
        for thread in orders[core.cycle % len(orders)]:
            ops = thread.rob._ops
            for back in range(len(ops) - before[thread.thread_id], 0, -1):
                op = ops[-back]
                if reg in op.phys_srcs:
                    self.read = True
                    self.twin = core.clone()
                elif op.phys_dest != reg:
                    continue
                self.detach()
                return
        if not core.prf.ready[reg]:
            self.detach()

    def detach(self) -> None:
        self.core.__dict__.pop("_dispatch_stage", None)


class _Delta:
    """Difference between two event baselines."""

    def __init__(self, before: _EventBaseline, after: _EventBaseline):
        self.replays = after.replays - before.replays
        self.rollbacks = after.rollbacks - before.rollbacks
        self.singletons = after.singletons - before.singletons
        self.declared = after.declared - before.declared
        self.suppressions = after.suppressions - before.suppressions
        self.triggers = after.triggers - before.triggers


__all__ = ["TandemClassifier", "WindowResult"]
