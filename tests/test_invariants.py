"""Tests for the pipeline invariant sanitizer (repro.pipeline.invariants).

Two angles: clean runs stay clean (single-thread, SMT, with screening,
under the tandem classifier), and manufactured corruptions of each
structure are caught under the right invariant name. Corruptions are
direct state mutations — exactly the class of simulator bug the
sanitizer exists to surface before it skews a campaign.
"""

import pickle
import random

import pytest

from repro.core import FaultHoundUnit
from repro.isa import Instruction, Opcode, Program
from repro.obs.schema import validate_event
from repro.pipeline import (InvariantError, InvariantSanitizer, PipelineCore,
                            check_core)
from repro.pipeline.uops import OpState
from repro.workloads import random_program


def _chain_program(length=40):
    """A long dependent MUL chain: plenty of in-flight state mid-run."""
    instructions = [Instruction(Opcode.MOVI, rd=3, imm=3)]
    instructions += [Instruction(Opcode.MUL, rd=3, rs1=3, rs2=3)
                     for _ in range(length)]
    instructions += [Instruction(Opcode.ST, rs2=3, rs1=0, imm=0x40),
                     Instruction(Opcode.LD, rd=4, rs1=0, imm=0x40),
                     Instruction(Opcode.HALT)]
    return Program(instructions=instructions, name="chain")


def _midrun_core(cycles=30):
    """A core stepped into the middle of the chain program: non-empty
    ROB, issue queue, and executing list."""
    core = PipelineCore([_chain_program()])
    for _ in range(cycles):
        core.step()
    assert len(core.threads[0].rob) > 0
    return core


class TestCleanRuns:
    def test_single_thread_run_is_clean(self):
        core = PipelineCore([random_program(random.Random(7))])
        sanitizer = core.enable_sanitizer(every=1)
        core.run(max_cycles=200_000)
        assert core.all_halted
        assert sanitizer.checks_run > 0
        assert sanitizer.violations == []

    def test_smt_run_with_screening_is_clean(self):
        programs = [random_program(random.Random(11), name="t0"),
                    random_program(random.Random(12), name="t1")]
        core = PipelineCore(programs, screening=FaultHoundUnit())
        sanitizer = core.enable_sanitizer(every=1)
        core.run(max_cycles=400_000)
        assert core.all_halted
        assert sanitizer.violations == []

    def test_check_core_one_shot(self):
        assert check_core(_midrun_core()) == []


class TestZeroCostOff:
    def test_step_is_not_shadowed_by_default(self):
        core = PipelineCore([_chain_program()])
        assert "step" not in core.__dict__
        assert core._sanitizer is None

    def test_enable_shadows_instance_only(self):
        core = PipelineCore([_chain_program()])
        core.enable_sanitizer(every=1)
        assert "step" in core.__dict__
        # the class stays un-instrumented for everyone else
        assert PipelineCore.step is not core.step
        other = PipelineCore([_chain_program()])
        assert "step" not in other.__dict__

    def test_every_zero_is_explicit_check_only(self):
        core = PipelineCore([_chain_program()])
        sanitizer = core.enable_sanitizer(every=0)
        assert "step" not in core.__dict__
        core.step()
        assert sanitizer.checks_run == 0
        core.check_invariants()
        assert sanitizer.checks_run == 1

    def test_disable_restores_class_step(self):
        core = PipelineCore([_chain_program()])
        core.enable_sanitizer(every=1)
        core.disable_sanitizer()
        assert "step" not in core.__dict__
        assert core.check_invariants() == []

    def test_clone_drops_sanitizer(self):
        core = _midrun_core()
        core.enable_sanitizer(every=1)
        twin = core.clone()
        assert twin._sanitizer is None
        assert "step" not in twin.__dict__

    def test_pickle_preserves_armed_sanitizer(self):
        core = _midrun_core()
        core.enable_sanitizer(every=1)
        copy = pickle.loads(pickle.dumps(core))
        assert copy._sanitizer is not None
        assert "step" in copy.__dict__
        copy.run(max_cycles=200_000)
        assert copy.all_halted
        assert copy._sanitizer.violations == []


class TestDetection:
    """Each manufactured corruption is reported under its invariant."""

    def _names(self, core):
        return {v.invariant for v in check_core(core)}

    def test_rob_order_violation(self):
        core = _midrun_core()
        rob = core.threads[0].rob
        ops = list(rob)
        rob._ops.clear()
        rob._ops.extend([ops[1], ops[0]] + ops[2:])
        assert "rob-order" in self._names(core)

    def test_lsq_missing_from_rob(self):
        core = _midrun_core()
        thread = core.threads[0]
        # park a foreign (never-dispatched) copy of a memory op in the LSQ
        victim = next(op for op in thread.rob)
        clone = victim.clone()
        clone.uid = victim.uid + 10_000
        clone.inst = Instruction(Opcode.ST, rs2=3, rs1=0, imm=0)
        thread.lsq.push(clone)
        assert "lsq-residency" in self._names(core)

    def test_delay_buffer_flag_flip(self):
        core = _midrun_core()
        op = next((o for o in core.iq if not o.in_delay_buffer), None)
        assert op is not None
        op.in_delay_buffer = True
        assert "iq-coherence" in self._names(core)

    def test_executing_list_stale_entry(self):
        core = _midrun_core()
        waiting = next((o for o in core.iq if o.state is OpState.WAITING),
                       None)
        assert waiting is not None
        core._executing.append(waiting)
        assert "executing-list" in self._names(core)

    def test_freeing_live_tag_detected(self):
        core = _midrun_core()
        live_tag = core.threads[0].committed_rat.map[3]
        core.free_list.free(live_tag)
        assert "freelist-disjoint" in self._names(core)

    def test_double_free_detected(self):
        core = _midrun_core()
        dead_tag = core.free_list.allocate()
        core.free_list.free(dead_tag)
        core.free_list.free(dead_tag)
        assert "freelist-disjoint" in self._names(core)

    def test_ready_bit_corruption_detected(self):
        core = _midrun_core()
        pending = next(
            (op for t in core.threads for op in t.rob
             if op.phys_dest is not None
             and op.state in (OpState.WAITING, OpState.EXECUTING)), None)
        assert pending is not None
        core.prf.ready[pending.phys_dest] = True
        assert "prf-ready" in self._names(core)


class TestModes:
    def test_raise_mode_raises_with_details(self):
        core = _midrun_core()
        core.free_list.free(core.threads[0].committed_rat.map[3])
        sanitizer = core.enable_sanitizer(every=1)
        with pytest.raises(InvariantError) as exc_info:
            core.step()
        assert "freelist-disjoint" in str(exc_info.value)
        assert exc_info.value.violations
        assert sanitizer.violations  # recorded before raising

    def test_collect_mode_accumulates(self):
        core = _midrun_core()
        core.free_list.free(core.threads[0].committed_rat.map[3])
        sanitizer = core.enable_sanitizer(
            InvariantSanitizer(raise_on_violation=False), every=1)
        for _ in range(3):
            core.step()
        assert sanitizer.checks_run == 3
        assert any(v.invariant == "freelist-disjoint"
                   for v in sanitizer.violations)

    def test_rename_fault_relaxes_liveness_checks(self):
        core = _midrun_core()
        sanitizer = core.enable_sanitizer(every=1)
        assert not sanitizer.relax_rename
        core.inject_rat_bit(0, 3, 2)
        assert sanitizer.relax_rename
        # the corrupted mapping eventually frees a live tag at commit —
        # tolerated under relaxation; structural invariants stay armed
        core.run(max_cycles=200_000)
        assert all(v.invariant not in ("prf-ready", "freelist-disjoint")
                   for v in sanitizer.violations)

    def test_event_emission_matches_schema(self):
        class Sink:
            def __init__(self):
                self.events = []

            def emit(self, event_type, **fields):
                self.events.append(
                    dict(ts=0.0, type=event_type, pid=0, **fields))

        core = _midrun_core()
        core.free_list.free(core.threads[0].committed_rat.map[3])
        sink = Sink()
        sanitizer = InvariantSanitizer(raise_on_violation=False,
                                       events=sink)
        sanitizer.context["seed"] = 99
        sanitizer.check(core)
        assert sink.events
        for event in sink.events:
            assert event["type"] == "invariant"
            assert event["seed"] == 99
            assert validate_event(event) == []


class TestClassifierIntegration:
    def test_classifier_arms_golden_sanitizer(self):
        from repro.faults.classifier import TandemClassifier
        from repro.faults.injector import FaultInjector

        classifier = TandemClassifier(
            core_factory=lambda: PipelineCore(
                [random_program(random.Random(3))]),
            injector=FaultInjector(seed=1, num_phys_regs=64, num_threads=1),
            window_commits=20)
        golden = classifier.core_factory()
        classifier.run([], golden=golden)
        assert golden._sanitizer is not None
        assert "step" not in golden.__dict__  # capture-site mode only
