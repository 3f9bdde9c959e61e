"""Dead-register pruning in the tandem classifier.

A register-file fault in a register that is overwritten before anything
reads it is classified from the golden run alone. The unit tests drive
each branch of the dead rule on small hand-built states; the
differential test classifies real campaign windows twice, once normally
and once with pruning forced off, and requires identical results.
"""

import dataclasses
from dataclasses import replace

import pytest

from repro.config import HardwareConfig
from repro.faults import (FaultInjector, FaultRecord, FaultSite, RegStatus,
                          TandemClassifier)
from repro.faults.classifier import _FirstUseWatch
from repro.harness.experiment import SCALES, ExperimentContext
from repro.isa import assemble
from repro.pipeline import PipelineCore
from repro.pipeline.uops import MicroOp, OpState

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
    """Reference classifier: every window runs its faulty twin."""

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
