"""Dead-register pruning and fork-at-first-read in the tandem classifier.

A register-file fault in a register that is overwritten before anything
reads it is classified from the golden run alone; one that is read gets
its faulty twin forked at that first read, not at injection. The unit
tests drive each branch of the dead rule on small hand-built states; the
differential tests classify campaign windows and seeded random programs
twice, once normally and once through a reference classifier that forks
every twin at injection, and require identical results.
"""

import dataclasses
import random
from dataclasses import replace

import pytest

from repro.config import HardwareConfig
from repro.faults import (FaultInjector, FaultRecord, FaultSite, RegStatus,
                          TandemClassifier)
from repro.faults.classifier import _FirstUseWatch
from repro.harness.experiment import SCALES, ExperimentContext, scheme_unit
from repro.isa import assemble
from repro.obs import MetricsRegistry
from repro.pipeline import PipelineCore
from repro.pipeline.checkpoint import CoreCheckpoint
from repro.pipeline.uops import MicroOp, OpState
from repro.workloads.programs import GEN_PROFILES, random_program

HW = HardwareConfig()

#: Thread 0 reads p1/p2 (its r1/r2), writes r3 (the first free tag) and
#: then reads r3; p20 (its r20) is never named.
PROGRAM = """
    add  r3, r1, r2
    add  r4, r3, r3
    halt
"""


def two_thread_core(first=PROGRAM, second="halt"):
    return PipelineCore([assemble(first), assemble(second)], hw=HW)


def classifier(factory=two_thread_core):
    return TandemClassifier(factory, FaultInjector(1, HW.phys_regs, 2),
                            window_commits=3, max_window_cycles=2_000)


def regfile_fault(reg, at_commit=0):
    return FaultRecord(index=0, site=FaultSite.REGFILE,
                       inject_at_commit=at_commit, bit=5, reg=reg)


def watch_to_halt(core, reg):
    watch = _FirstUseWatch(core, reg)
    core.run(max_cycles=2_000)
    assert core.all_halted
    return watch


class TestDeadRule:
    def test_not_ready_register_is_dead_without_a_fork(self, monkeypatch):
        core = two_thread_core()
        while not any(op.phys_dest is not None
                      and op.state is not OpState.COMPLETED
                      for op in core.threads[0].rob):
            core.step()
        pending = next(op.phys_dest for op in core.threads[0].rob
                       if op.phys_dest is not None)
        assert not core.prf.ready[pending]
        record = regfile_fault(pending, at_commit=core.stats.committed)
        tandem = classifier()
        assert tandem._register_verdict(core, record) is True

        def no_fork():
            raise AssertionError("a dead fault must not fork")

        monkeypatch.setattr(core, "clone", no_fork)
        (result,) = tandem.run([record], golden=core)
        assert result.applied and record.applied
        assert record.reg_status is RegStatus.PENDING
        assert result.state_equal
        assert tandem._pruned == 1

    def test_reader_in_other_threads_rob_is_live(self):
        core = two_thread_core()
        reg = 32 + 7                      # thread 1's r7, ready
        reader = MicroOp(1, 1, 0, assemble("add r5, r7, r7").instructions[0],
                         0, 0)
        reader.phys_srcs = (reg, reg)
        core.threads[1].rob.push(reader)
        assert not core.threads[0].rob._ops
        assert core.prf.ready[reg]
        assert classifier()._register_verdict(core, regfile_fault(reg)) \
            is False

    def test_undecided_without_inflight_reader(self):
        core = two_thread_core()
        assert classifier()._register_verdict(core, regfile_fault(1)) is None

    def test_other_sites_are_live(self):
        record = FaultRecord(index=0, site=FaultSite.RENAME,
                             inject_at_commit=0, bit=1, thread_id=0,
                             logical=3)
        assert classifier()._register_verdict(two_thread_core(),
                                              record) is False

    def test_dispatched_reader_first_is_live(self):
        core = two_thread_core()
        watch = watch_to_halt(core, 1)
        assert watch.read
        assert "_dispatch_stage" not in core.__dict__

    def test_dispatched_allocator_first_is_dead(self):
        core = two_thread_core()
        first_free = core.free_list._tags[0]
        watch = watch_to_halt(core, first_free)
        assert not watch.read
        # decided at the allocator, before its reader dispatched
        assert "_dispatch_stage" not in core.__dict__

    def test_register_never_named_is_dead(self):
        core = two_thread_core()
        watch = watch_to_halt(core, 20)
        assert not watch.read
        assert "_dispatch_stage" in core.__dict__   # still undecided
        watch.detach()
        assert "_dispatch_stage" not in core.__dict__

    def test_watch_follows_profiled_stages(self):
        core = two_thread_core()
        core.enable_stage_profiling()
        assert watch_to_halt(core, 1).read


class _Unpruned(TandemClassifier):
    """Reference classifier: every window runs its faulty twin, cloned
    at injection."""

    def _register_verdict(self, golden, record):
        return False


SCHEMES = ("baseline", "pbfs", "pbfs-biased", "fh-backend", "faulthound")


@pytest.mark.parametrize("seed", (1, 7, 4242))
def test_pruning_matches_faulty_run(seed):
    """Every window, pruned or not, equals the full tandem run: the
    window result and every field the classifier writes on the record."""
    cfg = replace(SCALES["quick"], benchmarks=("mcf",), num_faults=10,
                  seed=seed)
    assert cfg.smt_copies == 2
    ctx = ExperimentContext(cfg, jobs=1)
    campaign = ctx.build_campaign("mcf")
    regfile = pruned = 0
    for scheme in SCHEMES:
        def factory():
            return ctx.make_core("mcf", scheme)

        fast = TandemClassifier(factory, campaign.injector,
                                campaign.window_commits,
                                campaign.max_window_cycles)
        full = _Unpruned(factory, campaign.injector,
                         campaign.window_commits,
                         campaign.max_window_cycles)
        fast_records = [r.fresh_copy() for r in campaign.records]
        full_records = [r.fresh_copy() for r in campaign.records]
        fast_results = fast.run(fast_records)
        pruned += fast._pruned
        full_results = full.run(full_records)
        assert full._pruned == 0
        for mine, reference in zip(fast_results, full_results):
            assert dataclasses.asdict(mine) == dataclasses.asdict(reference)
        assert fast_records == full_records
        regfile += sum(r.site is FaultSite.REGFILE for r in fast_records)
    assert regfile and pruned >= 0.3 * regfile


def test_registry_counts_forks_and_pruned_windows(monkeypatch):
    """``classifier_forks_total`` counts every twin the classifier
    builds; each window that reached its injection point either built
    one or was pruned."""
    clones = []
    clone = PipelineCore.clone

    def counting_clone(core):
        clones.append(core.cycle)
        return clone(core)

    monkeypatch.setattr(PipelineCore, "clone", counting_clone)
    cfg = replace(SCALES["quick"], benchmarks=("mcf",), num_faults=10,
                  seed=7)
    ctx = ExperimentContext(cfg, jobs=1)
    campaign = ctx.build_campaign("mcf")
    registry = MetricsRegistry()
    tandem = TandemClassifier(lambda: ctx.make_core("mcf", "baseline"),
                              campaign.injector, campaign.window_commits,
                              campaign.max_window_cycles, metrics=registry)
    results = tandem.run([r.fresh_copy() for r in campaign.records])
    counters = registry.snapshot()["counters"]
    forks = counters["classifier_forks_total"]
    pruned = counters["classifier_pruned_windows_total"]
    assert forks == len(clones) and forks and pruned
    assert forks + pruned == len(results)
    assert tandem._forks == tandem._pruned == 0


# ----------------------------------------------------------------------
# fork at first read
# ----------------------------------------------------------------------
def _sourced(golden):
    return {reg for thread in golden.threads for op in thread.rob
            for reg in op.phys_srcs}


def _live_targets(golden):
    """Registers left undecided at injection that the window is likely
    to read: the mappings of registers the programs read, where no
    in-flight op sources them yet."""
    sourced = _sourced(golden)
    return [thread.spec_rat.map[logical] for thread in golden.threads
            for logical in sorted({logical
                                   for inst in thread.program.instructions
                                   for logical in inst._source_regs} - {0})
            if thread.spec_rat.map[logical] not in sourced
            and golden.prf.ready[thread.spec_rat.map[logical]]]


def _replayable_targets(golden):
    """Ready, unsourced destinations of delay-buffered ops: a replay of
    their producer rewrites them before any reader may issue."""
    sourced = _sourced(golden)
    return [op.phys_dest for op in golden.iq.delay_buffer._ops
            if op.phys_dest is not None and op.phys_dest not in sourced
            and golden.prf.ready[op.phys_dest]]


class _Retargeted:
    """Moves each REGFILE record, at injection, onto one of
    ``targets(golden)`` (chosen by its bit), so that most windows decide
    at a read instead of pruning. Golden's state at injection is the
    same for both classifiers under test, so they retarget alike."""

    targets = staticmethod(_live_targets)

    def _register_verdict(self, golden, record):
        candidates = self.targets(golden)
        if candidates:
            record.reg = candidates[record.bit % len(candidates)]
        return super()._register_verdict(golden, record)


class _ForkAtRead(_Retargeted, TandemClassifier):
    """The shipped classifier, noting which windows forked at a read."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.forked = set()

    def _run_watched(self, golden, record, inject_cycle):
        twin = super()._run_watched(golden, record, inject_cycle)
        if twin is not None:
            self.forked.add(record.index)
        return twin


class _ForkAtInjection(_Retargeted, _Unpruned):
    pass


def _seeded_workload(seed):
    rng = random.Random(seed)
    programs = [random_program(rng, iterations=rng.randrange(6, 14),
                               profile=rng.choice(GEN_PROFILES),
                               name=f"t{tid}")
                for tid in range(2)]
    total = PipelineCore(programs, hw=HW).run().committed
    plan = random.Random(seed * 31 + 1)
    records = sorted(
        (FaultRecord(index=0, site=FaultSite.REGFILE,
                     inject_at_commit=plan.randrange(max(1, total - 30)),
                     bit=plan.randrange(64), reg=0)
         for _ in range(20)),
        key=lambda record: record.inject_at_commit)
    for index, record in enumerate(records):
        record.index = index
    return programs, records


def _classify_both(programs, records, scheme, max_window_cycles,
                   targets=_live_targets):
    """Classify *records* with the fork-at-read classifier and the
    fork-at-injection reference; assert every field equal and return
    the former's results and the classifier itself."""
    def factory():
        return PipelineCore(programs, hw=HW, screening=scheme_unit(scheme))

    injector = FaultInjector(1, HW.phys_regs, 2)
    fast = _ForkAtRead(factory, injector, 15, max_window_cycles)
    full = _ForkAtInjection(factory, injector, 15, max_window_cycles)
    fast.targets = full.targets = targets
    fast_records = [r.fresh_copy() for r in records]
    full_records = [r.fresh_copy() for r in records]
    fast_results = fast.run(fast_records)
    full_results = full.run(full_records)
    for mine, reference in zip(fast_results, full_results):
        assert dataclasses.asdict(mine) == dataclasses.asdict(reference)
    assert fast_records == full_records
    return fast_results, fast


@pytest.mark.parametrize("scheme", ("baseline", "faulthound"))
def test_fork_at_first_read_matches_fork_at_injection(scheme, monkeypatch):
    """Seeded programs: a twin forked at the first read gives every
    window the result a twin forked at injection gives, including
    windows where a thread's snapshot was captured before the fork and
    windows whose twin runs out of cycles."""
    captured_at_fork = []
    clone = PipelineCore.clone

    def noting_clone(core):
        if "_dispatch_stage" in core.__dict__:    # forked by the watch
            captured_at_fork.append(bool(core.captured_snapshots))
        return clone(core)

    monkeypatch.setattr(PipelineCore, "clone", noting_clone)
    forked = hung = 0
    for seed in range(12):
        programs, records = _seeded_workload(seed)
        results, fast = _classify_both(programs, records, scheme,
                                       max_window_cycles=(40, 2_000)[seed % 2])
        forked += len(fast.forked)
        hung += sum(results[index].hung for index in fast.forked)
    assert forked == len(captured_at_fork) >= 30
    assert any(captured_at_fork)
    assert hung


def test_replayed_producer_rewrites_before_the_first_read(monkeypatch):
    """A register turns pending without being named when a replay
    re-executes its producer out of the delay buffer: the rewrite lands
    before any reader issues, so the fault is dead. Forking at a later
    read would flip the rewritten value instead."""
    ended_pending = []
    watched = _FirstUseWatch._dispatch_stage

    def noting_stage(watch):
        watched(watch)
        if (not watch.read and "_dispatch_stage" not in watch.core.__dict__
                and any(op.phys_dest == watch.reg and op.replay_marked
                        for thread in watch.core.threads
                        for op in thread.rob)):
            ended_pending.append(watch.reg)

    monkeypatch.setattr(_FirstUseWatch, "_dispatch_stage", noting_stage)
    programs, records = _seeded_workload(31)
    _classify_both(programs, records, "faulthound", 2_000,
                   targets=_replayable_targets)
    assert ended_pending


# ----------------------------------------------------------------------
# stats.cycles without a strong reference to the core
# ----------------------------------------------------------------------
class TestCyclesWithoutCoreReference:
    """``PipelineStats`` holds its core weakly; ``cycles`` and ``ipc``
    stay exact in every shape a stats object takes."""

    @staticmethod
    def _midrun():
        core = PipelineCore([random_program(random.Random(3))], hw=HW)
        core.run_until_commits(50)
        assert 0 < core.stats.committed and not core.all_halted
        return core

    def test_live_core(self):
        core = self._midrun()
        core.step()
        assert core.stats.cycles == core.cycle
        assert core.stats.ipc == core.stats.committed / core.cycle

    def test_clone(self):
        core = self._midrun()
        twin = core.clone()
        twin.run()
        assert twin.stats.cycles == twin.cycle > core.cycle
        assert core.stats.cycles == core.cycle

    def test_unpickled_checkpoint(self):
        core = self._midrun()
        restored = CoreCheckpoint.capture(core).restore()
        assert restored.stats.cycles == core.cycle
        restored.run()
        assert restored.stats.cycles == restored.cycle > core.cycle

    def test_stats_outlive_their_core(self):
        reference = two_thread_core()
        reference.run()
        stats = two_thread_core().run()
        assert stats._cycle_source() is None    # the core is gone
        assert stats.cycles == reference.cycle
        assert stats.ipc == reference.stats.ipc
