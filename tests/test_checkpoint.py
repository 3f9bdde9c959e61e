"""Checkpoint/restore subsystem tests.

The contract: the purpose-built ``clone()`` protocol and the pickled
:class:`CoreCheckpoint` are pure mechanism — the unchunked ``Campaign``
reference, supervised and checkpointed-serial classification are
bit-for-bit identical, and the never-rewind contract survives the
hand-off.
"""

import copy
import pickle

import pytest

from repro.faults import CampaignResult
from repro.faults.model import FaultClass
from repro.harness import parallel as parallel_module
from repro.harness.cache import ArtifactCache
from repro.harness.experiment import ExperimentConfig, ExperimentContext
from repro.harness.parallel import chunk_bounds, window_chunk_task
from repro.isa.opcodes import OpClass
from repro.pipeline import (CoreCheckpoint, capture_checkpoint,
                            restore_checkpoint)

_TINY = ExperimentConfig(benchmarks=("mcf",), dynamic_target=3_000,
                         num_faults=10, warmup_commits=200,
                         window_commits=100)


def _signature(core):
    """Everything the classifier can observe about a core's evolution."""
    return (
        core.cycle,
        core.stats.committed,
        core.arch_snapshot(),
        tuple(tuple(t.exceptions) for t in core.threads),
        tuple((t.arch_pc, t.committed_count, t.halted)
              for t in core.threads),
        core.screening.trigger_count,
        core.screening.checks,
        core.stats.replay_events,
        core.stats.rollback_events,
        core.stats.singleton_reexecs,
        core.stats.branch_mispredicts,
        tuple(core.declared_faults),
        tuple(core.screen_trigger_cycles),
    )


def _warm_core(scheme="faulthound", commits=400):
    ctx = ExperimentContext(_TINY, jobs=1)
    core = ctx.make_core("mcf", scheme)
    core.run_until_commits(commits)
    return core


# ----------------------------------------------------------------------
# clone protocol
# ----------------------------------------------------------------------
class TestCloneProtocol:
    @pytest.mark.parametrize("scheme", ["baseline", "faulthound", "pbfs"])
    def test_clone_matches_deepcopy_in_lockstep(self, scheme):
        core = _warm_core(scheme)
        via_deepcopy = copy.deepcopy(core)
        via_clone = core.clone()
        for _ in range(1_500):
            core.step()
            via_deepcopy.step()
            via_clone.step()
        assert _signature(via_clone) == _signature(core)
        assert _signature(via_clone) == _signature(via_deepcopy)

    def test_clone_covers_every_attribute(self):
        # Regression guard: a new mutable field added to PipelineCore
        # without a corresponding line in clone() shows up here.
        core = _warm_core()
        assert set(vars(core.clone())) == set(vars(core))

    def test_clone_is_independent(self):
        core = _warm_core()
        twin = core.clone()
        before = _signature(core)
        for _ in range(500):
            twin.step()
        assert _signature(core) == before

    def test_clone_preserves_microop_identity(self):
        # An op resident in several containers (ROB + issue queue +
        # executing list) must map to exactly one clone.
        core = _warm_core()
        twin = core.clone()
        by_uid = {}
        for op in twin.inflight_ops():
            assert by_uid.setdefault(op.uid, op) is op
        originals = {op.uid: op for op in core.inflight_ops()}
        for uid, op in by_uid.items():
            assert op is not originals[uid]


# ----------------------------------------------------------------------
# CoreCheckpoint capture / restore
# ----------------------------------------------------------------------
class TestCoreCheckpoint:
    def test_restore_matches_live_core_in_lockstep(self):
        core = _warm_core()
        checkpoint = CoreCheckpoint.capture(core, window_index=3,
                                            resume_at_commit=500)
        restored = checkpoint.restore()
        for _ in range(1_500):
            core.step()
            restored.step()
        assert _signature(restored) == _signature(core)

    def test_capture_does_not_disturb_the_core(self):
        core = _warm_core()
        control = core.clone()
        CoreCheckpoint.capture(core)
        for _ in range(500):
            core.step()
            control.step()
        assert _signature(core) == _signature(control)

    def test_each_restore_is_independent(self):
        checkpoint = CoreCheckpoint.capture(_warm_core())
        first, second = checkpoint.restore(), checkpoint.restore()
        for _ in range(300):
            first.step()
        assert second.cycle == checkpoint.cycle

    def test_checkpoint_survives_pickling(self):
        # The cache and the pool both ship checkpoints by pickle.
        core = _warm_core()
        checkpoint = CoreCheckpoint.capture(core, window_index=2,
                                            resume_at_commit=300)
        thawed = pickle.loads(pickle.dumps(checkpoint))
        assert thawed.window_index == 2
        assert thawed.resume_at_commit == 300
        assert thawed.nbytes == checkpoint.nbytes
        assert _signature(thawed.restore()) == _signature(core)

    def test_list_shaped_issue_queue_restores_and_steps_identically(self):
        # cores pickled when IssueQueue._ops was a list migrate on load
        core = _warm_core()
        while not core.iq.delay_buffer:    # hold lingering ops too
            core.step()
        old = core.clone()
        old.iq._ops = list(old.iq._ops)
        restored = pickle.loads(pickle.dumps(old))
        assert isinstance(restored.iq._ops, dict)
        assert [o.uid for o in restored.iq] == [o.uid for o in core.iq]
        for _ in range(1_500):
            core.step()
            restored.step()
        assert _signature(restored) == _signature(core)

    def test_dict_shaped_functional_units_restore_and_step_identically(self):
        # cores pickled when FunctionalUnits kept OpClass-keyed dicts
        core = _warm_core()
        old = core.clone()
        hw = old.hw
        old.fus.__dict__ = {
            "_limits": {OpClass.ALU: hw.num_alus, OpClass.MUL: hw.num_muls,
                        OpClass.FPU: hw.num_fpus, OpClass.LOAD: 2,
                        OpClass.STORE: 2, OpClass.BRANCH: hw.num_alus,
                        OpClass.OTHER: hw.num_alus},
            "_available": {}, "_mem_available": 0}
        restored = pickle.loads(pickle.dumps(old))
        for _ in range(1_500):
            core.step()
            restored.step()
        assert _signature(restored) == _signature(core)

    def test_zero_memory_word_restores_and_steps_identically(self):
        # cores pickled before memory dropped zero words could hold one
        core = _warm_core()
        old = core.clone()
        words = old.threads[0].memory._words
        address = next(a for a in range(0, 1 << 20, 8) if a not in words)
        words[address] = 0
        restored = CoreCheckpoint.capture(old).restore()
        assert address not in restored.threads[0].memory._words
        assert (restored.threads[0].output_snapshot()
                == core.threads[0].output_snapshot())
        for _ in range(1_500):
            core.step()
            restored.step()
        assert _signature(restored) == _signature(core)

    def test_module_level_mirrors(self):
        core = _warm_core()
        checkpoint = capture_checkpoint(core, window_index=1)
        assert checkpoint.window_index == 1
        assert _signature(restore_checkpoint(checkpoint)) == _signature(core)


# ----------------------------------------------------------------------
# never-rewind contract across the hand-off
# ----------------------------------------------------------------------
class TestNeverRewind:
    def _classifier(self):
        ctx = ExperimentContext(_TINY, jobs=1)
        campaign = ctx.build_campaign("mcf")
        return campaign, campaign.classifier(campaign.baseline_factory)

    def test_resume_at_commit_enforces_the_contract(self):
        campaign, classifier = self._classifier()
        golden = campaign.baseline_factory()
        behind = campaign.records[:1]    # injects before the resume point
        with pytest.raises(ValueError, match="never rewinds"):
            classifier.run(behind, golden=golden,
                           resume_at_commit=behind[0].inject_at_commit + 1)

    def test_restored_checkpoint_carries_resume_coordinate(self):
        campaign, classifier = self._classifier()
        bounds = chunk_bounds(len(campaign.records), 2)
        checkpoints = parallel_module.chunk_checkpoints(
            _TINY, ExperimentContext(_TINY, jobs=1).hw, "mcf", None,
            campaign.records, bounds)
        lo = bounds[1][0]
        assert checkpoints[0].resume_at_commit == 0
        assert (checkpoints[1].resume_at_commit
                == campaign.records[lo - 1].inject_at_commit)


# ----------------------------------------------------------------------
# fresh_copy: replay must not disturb characterisation records
# ----------------------------------------------------------------------
class TestFreshCopy:
    def test_fresh_copy_is_deep_enough(self):
        ctx = ExperimentContext(_TINY, jobs=1)
        record = ctx.build_campaign("mcf").records[0]
        record.outcomes["x"] = None
        twin = record.fresh_copy()
        assert twin == record
        twin.applied = False
        twin.fault_class = FaultClass.SDC
        twin.outcomes["y"] = None
        assert record.applied and record.fault_class is None
        assert "y" not in record.outcomes

    def test_replay_leaves_characterization_pristine(self):
        ctx = ExperimentContext(_TINY, jobs=1)
        _, characterization = ctx.campaign("mcf")
        frozen = [r.fresh_copy() for r in characterization.records]
        ctx.coverage("mcf", "faulthound")
        ctx.coverage("mcf", "pbfs")
        assert characterization.records == frozen
        sdc = [r for r in characterization.records
               if r.applied and r.fault_class is FaultClass.SDC]
        assert all(not r.outcomes for r in sdc)


# ----------------------------------------------------------------------
# chunk plumbing edge cases and ordering
# ----------------------------------------------------------------------
class TestChunkEdges:
    def test_zero_count_yields_no_chunks(self):
        assert chunk_bounds(0, 4) == []
        assert chunk_bounds(-3, 4) == []

    def test_fewer_records_than_chunks(self):
        assert chunk_bounds(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_single_chunk_covers_everything(self):
        assert chunk_bounds(9, 1) == [(0, 9)]

    def test_empty_records_classify_to_nothing(self):
        ctx = ExperimentContext(_TINY, jobs=2)
        report = ctx.supervisor.classify_windows(
            _TINY, ctx.hw, "mcf", None, [], phase="characterize", ctx=ctx)
        assert report.windows == []


class TestChunkOrdering:
    @pytest.fixture(scope="class")
    def serial_windows(self):
        ctx = ExperimentContext(_TINY, jobs=1)
        campaign = ctx.build_campaign("mcf")
        classifier = campaign.classifier(campaign.baseline_factory)
        return campaign.records, classifier.run(
            [r.fresh_copy() for r in campaign.records])

    def test_chunk_tasks_match_serial_order(self, serial_windows):
        # Checkpointed chunk tasks reproduce the serial classification,
        # in order — also when a chunk restores an earlier boundary than
        # its own (a bisected upper half keeps its parent's checkpoint).
        records, serial = serial_windows
        ctx = ExperimentContext(_TINY, jobs=1)
        fresh = [r.fresh_copy() for r in records]
        bounds = chunk_bounds(len(fresh), 3)
        checkpoints = parallel_module.chunk_checkpoints(
            _TINY, ctx.hw, "mcf", None, fresh, bounds)
        shipped = [w for (lo, hi), cp in zip(bounds, checkpoints)
                   for w in window_chunk_task(
                       (_TINY, ctx.hw, "mcf", None, fresh, lo, hi, cp))]
        assert shipped == serial

        fresh = [r.fresh_copy() for r in records]
        start = parallel_module.chunk_checkpoints(
            _TINY, ctx.hw, "mcf", None, fresh, [(0, len(fresh))])[0]
        split = len(fresh) // 2
        halves = [w for lo, hi in ((0, split), (split, len(fresh)))
                  for w in window_chunk_task(
                      (_TINY, ctx.hw, "mcf", None, fresh, lo, hi, start))]
        assert halves == serial


# ----------------------------------------------------------------------
# the acceptance bar: three paths, one answer
# ----------------------------------------------------------------------
def _char_signature(result):
    return [(w.record, w.applied, w.fault_class, w.state_equal,
             w.extra_exceptions, w.hung, w.replays, w.rollbacks,
             w.singletons, w.declared, w.suppressions, w.triggers,
             w.inject_cycle, w.first_trigger_cycle, w.detection_latency)
            for w in result.characterization]


def _cov_signature(result):
    return (result.coverage_results,
            {index: outcome.value
             for index, outcome in result.outcomes.items()},
            result.coverage)


class TestThreePathEquivalence:
    @pytest.fixture(scope="class")
    def serial(self):
        # the unchunked Campaign reference, outside the supervisor
        ctx = ExperimentContext(_TINY, jobs=1)
        campaign = ctx.build_campaign("mcf")
        characterization = campaign.characterize()
        return characterization, campaign.run_coverage(
            "faulthound", lambda: ctx.make_core("mcf", "faulthound"),
            characterization)

    def test_supervised_and_checkpointed_serial(self, serial, tmp_path):
        serial_char, serial_cov = serial

        # the supervisor threads one live golden core through its chunks
        cold = ExperimentContext(_TINY, jobs=1, cache=ArtifactCache(tmp_path))
        _, cold_char = cold.campaign("mcf")
        cold_cov = cold.coverage("mcf", "faulthound")

        # checkpointed-serial: classify straight from a restored boundary
        ctx = ExperimentContext(_TINY, jobs=1)
        campaign = ctx.build_campaign("mcf")
        records = [r.fresh_copy() for r in campaign.records]
        bounds = chunk_bounds(len(records), 3)
        checkpoints = parallel_module.chunk_checkpoints(
            _TINY, ctx.hw, "mcf", None, records, bounds)
        classifier = campaign.classifier(campaign.baseline_factory)
        resumed = []
        for (lo, hi), checkpoint in zip(bounds, checkpoints):
            resumed.extend(classifier.run(
                records[lo:hi], golden=checkpoint.restore(),
                resume_at_commit=checkpoint.resume_at_commit))
        resumed_char = CampaignResult("mcf", "baseline",
                                      [w.record for w in resumed])
        resumed_char.characterization = resumed

        want = _char_signature(serial_char)
        assert _char_signature(cold_char) == want
        assert _char_signature(resumed_char) == want
        assert _cov_signature(cold_cov) == _cov_signature(serial_cov)

        # the audit trail's aggregates agree across every path too
        from repro.obs.audit import audit_records

        def audit(result, phase):
            return [r.as_event() for r in audit_records(result, phase)]

        want_audit = audit(serial_char, "characterize")
        assert audit(cold_char, "characterize") == want_audit
        assert audit(resumed_char, "characterize") == want_audit
        assert (audit(cold_cov, "coverage")
                == audit(serial_cov, "coverage"))
