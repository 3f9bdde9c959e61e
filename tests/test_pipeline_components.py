"""Unit tests for the pipeline's building blocks."""

import pytest

from repro.config import HardwareConfig
from repro.core import FaultHoundUnit
from repro.errors import SimulationError
from repro.isa import Instruction, Opcode, assemble
from repro.pipeline import PipelineCore
from repro.pipeline.branch import BranchPredictor
from repro.pipeline.func_units import MEM_PORTS
from repro.pipeline.issue_queue import IssueQueue
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.regfile import FreeList, PhysicalRegisterFile
from repro.pipeline.rename import RenameTable
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.uops import MicroOp, OpState


def make_op(uid, opcode=Opcode.ADD, thread=0, **inst_kwargs):
    inst = Instruction(opcode, **inst_kwargs)
    return MicroOp(uid, thread, pc=uid, inst=inst,
                   cycle_fetched=0, dispatch_ready_at=0)


# The delay buffer fills, and functional units are claimed, inside the
# core's complete and issue stages; these helpers drive those stages on
# hand-built ops (no sources, no destination) queued in a bare core.

def make_core(iq_size=8, delay=2, **hw_kwargs):
    """A one-thread core whose issue queue holds *iq_size* ops behind a
    delay buffer of *delay* (none at 0)."""
    hw = HardwareConfig(issue_queue_size=iq_size,
                        delay_buffer_size=max(delay, 1), **hw_kwargs)
    screening = FaultHoundUnit() if delay else None
    return PipelineCore([assemble("halt")], hw=hw, screening=screening)


def complete(core, *ops):
    """Finish *ops* (already queued) through the core's complete stage."""
    for op in ops:
        op.state = OpState.EXECUTING
        op.exec_done_at = core.cycle
        core._executing.append(op)
    core._complete_stage()


def issue_cycle(core, *ops):
    """Queue *ops* ready to issue, run one cycle's issue stage on fresh
    units, and return the ops that issued."""
    for op in ops:
        if op.is_load:
            op.phys_srcs = (0,)    # address 0: a valid, aligned load
        core.iq.insert(op)
    core.cycle += 1
    core.fus.new_cycle()
    core._issue_stage()
    return [op for op in ops if op.state is OpState.EXECUTING]


class TestMicroOp:
    def test_initial_state(self):
        op = make_op(1)
        assert op.state is OpState.FETCHED
        assert not op.completed

    def test_mark_for_replay_resets_execution_state(self):
        op = make_op(1, Opcode.LD, rd=1, rs1=2)
        op.state = OpState.COMPLETED
        op.result = 42
        op.eff_addr = 0x100
        op.in_delay_buffer = True
        op.mark_for_replay()
        assert op.state is OpState.WAITING
        assert op.replay_marked
        assert op.result is None and op.eff_addr is None
        assert not op.in_delay_buffer

    def test_writes_reg_excludes_r0(self):
        assert make_op(1, Opcode.ADD, rd=5).writes_reg
        assert not make_op(1, Opcode.ADD, rd=0).writes_reg
        assert not make_op(1, Opcode.ST, rs1=1, rs2=2).writes_reg

    def test_clone_copies_every_slot(self):
        # clone() names each slot; a slot added to __slots__ but not to
        # clone() is unset on the twin (or holds the wrong value) here
        op = make_op(1)
        values = {slot: object() for slot in MicroOp.__slots__}
        for slot, value in values.items():
            setattr(op, slot, value)
        twin = op.clone()
        assert twin is not op
        for slot, value in values.items():
            assert getattr(twin, slot, None) is value, slot


class TestPhysicalRegisterFile:
    def test_write_sets_ready(self):
        prf = PhysicalRegisterFile(8)
        prf.mark_pending(3)
        assert not prf.is_ready(3)
        prf.write(3, 99)
        assert prf.is_ready(3)
        assert prf.read(3) == 99

    def test_values_masked(self):
        prf = PhysicalRegisterFile(4)
        prf.write(0, -1)
        assert prf.read(0) == (1 << 64) - 1

    def test_flip_bit(self):
        prf = PhysicalRegisterFile(4)
        prf.write(1, 0b1000)
        assert prf.flip_bit(1, 3) == 0
        with pytest.raises(SimulationError):
            prf.flip_bit(1, 64)

    def test_rejects_empty(self):
        with pytest.raises(SimulationError):
            PhysicalRegisterFile(0)


class TestFreeList:
    def test_fifo_allocation(self):
        fl = FreeList([5, 6, 7])
        assert fl.allocate() == 5
        fl.free(9)
        assert fl.allocate() == 6
        assert len(fl) == 2

    def test_exhaustion_returns_none(self):
        fl = FreeList([1])
        fl.allocate()
        assert fl.allocate() is None
        assert fl.empty

    def test_double_free_tolerated(self):
        # rename faults legitimately cause wrong frees (DESIGN.md §4)
        fl = FreeList([])
        fl.free(3)
        fl.free(3)
        assert fl.allocate() == 3
        assert fl.allocate() == 3

    def test_sanitizer_views(self):
        fl = FreeList([4, 5, 6])
        assert fl.tag_set() == {4, 5, 6}
        assert fl.duplicates() == []
        fl.free(5)
        fl.free(4)
        fl.free(5)
        assert fl.tag_set() == {4, 5, 6}
        assert fl.duplicates() == [4, 5]
        clone = fl.clone()
        assert list(clone) == list(fl) and clone._tags is not fl._tags


class TestRenameTable:
    def test_mapping_round_trip(self):
        table = RenameTable(list(range(32)), 64)
        table.set(5, 40)
        assert table.get(5) == 40

    def test_copy_from(self):
        a = RenameTable(list(range(32)), 64)
        b = RenameTable(list(range(32, 64)), 64)
        a.copy_from(b)
        assert a.get(0) == 32

    def test_flip_bit_stays_in_range(self):
        table = RenameTable(list(range(32)), num_phys=160)
        for bit in range(8):
            table.flip_bit(3, bit)
            assert 0 <= table.get(3) < 160

    def test_rejects_wrong_size(self):
        with pytest.raises(SimulationError):
            RenameTable([0] * 31, 64)


class TestReorderBuffer:
    def test_fifo_order(self):
        rob = ReorderBuffer(4)
        ops = [make_op(i) for i in range(3)]
        for op in ops:
            rob.push(op)
        assert rob.head() is ops[0]
        assert rob.pop_head() is ops[0]
        assert len(rob) == 2

    def test_full_and_empty(self):
        rob = ReorderBuffer(2)
        assert rob.empty
        rob.push(make_op(1))
        rob.push(make_op(2))
        assert rob.full

    def test_drain_younger_than_returns_youngest_first(self):
        rob = ReorderBuffer(8)
        for i in range(1, 6):
            rob.push(make_op(i))
        drained = rob.drain_younger_than(2)
        assert [op.uid for op in drained] == [5, 4, 3]
        assert len(rob) == 2

    def test_drain_all(self):
        rob = ReorderBuffer(4)
        rob.push(make_op(1))
        assert len(rob.drain_all()) == 1
        assert rob.empty


class TestDelayBuffer:
    def test_push_until_overflow(self):
        core = make_core(delay=2)
        a, b, c = make_op(1), make_op(2), make_op(3)
        for op in (a, b, c):
            core.iq.insert(op)
        complete(core, a, b)
        buf = core.iq.delay_buffer
        assert list(buf) == [a, b] and a.in_delay_buffer
        complete(core, c)
        assert not a.in_delay_buffer
        assert a not in core.iq     # aged out: finally vacates its slot
        assert list(buf) == [b, c]
        assert len(buf) == 2

    def test_predecessors_of(self):
        core = make_core(delay=4)
        ops = [make_op(uid) for uid in (3, 7, 9)]
        for op in ops:
            core.iq.insert(op)
        complete(core, *ops)
        preds = core.iq.delay_buffer.predecessors_of(8)
        assert [op.uid for op in preds] == [3, 7]

    def test_squash_clears_flags(self):
        core = make_core(delay=4)
        op = make_op(1)
        core.iq.insert(op)
        complete(core, op)
        buf = core.iq.delay_buffer
        dropped = buf.squash()
        assert dropped == [op]
        assert not op.in_delay_buffer
        assert buf.squashes == 1

    def test_zero_capacity_evicts_immediately(self):
        core = make_core(delay=0)
        op = make_op(1)
        core.iq.insert(op)
        complete(core, op)
        assert op.state is OpState.COMPLETED
        assert op not in core.iq and not op.in_delay_buffer
        assert len(core.iq.delay_buffer) == 0


class TestIssueQueue:
    def make_iq(self, capacity=4, delay=2):
        return IssueQueue(capacity, delay)

    def test_insert_until_full(self):
        iq = self.make_iq(capacity=2)
        assert iq.insert(make_op(1))
        assert iq.insert(make_op(2))
        assert not iq.insert(make_op(3))  # full, nothing evictable

    def test_completed_op_evicted_for_newcomer(self):
        core = make_core(iq_size=2, delay=2)
        iq = core.iq
        a, b = make_op(1), make_op(2)
        iq.insert(a)
        iq.insert(b)
        complete(core, a)           # a lingers in the delay buffer
        assert a in iq
        c = make_op(3)
        assert iq.insert(c)          # evicts via delay-buffer squash
        assert a not in iq
        assert iq.delay_buffer.squashes == 1

    def test_waiting_ops_dispatch_ordered(self):
        # dispatch order == age order per thread; the queue preserves
        # insertion order rather than re-sorting (hot path)
        iq = self.make_iq(capacity=8)
        for uid in (5, 2, 9):
            iq.insert(make_op(uid))
        assert [op.uid for op in iq.waiting_ops()] == [5, 2, 9]
        ops = list(iq)
        ops[0].state = OpState.EXECUTING
        assert [op.uid for op in iq.waiting_ops()] == [2, 9]

    def test_mark_predecessors_for_replay(self):
        core = make_core(delay=4)
        iq = core.iq
        ops = [make_op(uid) for uid in (1, 2, 3)]
        for op in ops:
            iq.insert(op)
        complete(core, *ops)
        marked = iq.mark_predecessors_for_replay(trigger_uid=3)
        assert [op.uid for op in marked] == [1, 2]
        assert all(op.state is OpState.WAITING for op in marked)
        assert all(op.replay_marked for op in marked)

    def test_on_complete_aging_vacates_slot(self):
        core = make_core(delay=1)
        a, b = make_op(1), make_op(2)
        core.iq.insert(a)
        core.iq.insert(b)
        complete(core, a)
        complete(core, b)
        assert a not in core.iq      # aged out when b completed
        assert b in core.iq


class TestLoadStoreQueue:
    def test_ordering_helpers(self):
        lsq = LoadStoreQueue(8)
        store = make_op(1, Opcode.ST, rs1=1, rs2=2)
        load = make_op(2, Opcode.LD, rd=3, rs1=1)
        lsq.push(store)
        lsq.push(load)
        assert not lsq.older_stores_resolved(load)
        store.eff_addr = 0x100
        assert lsq.older_stores_resolved(load)

    def test_forwarding_newest_older_store(self):
        lsq = LoadStoreQueue(8)
        s1 = make_op(1, Opcode.ST, rs1=1, rs2=2)
        s2 = make_op(2, Opcode.ST, rs1=1, rs2=3)
        load = make_op(3, Opcode.LD, rd=4, rs1=1)
        for op in (s1, s2, load):
            lsq.push(op)
        s1.eff_addr, s1.store_value = 0x100, 11
        s2.eff_addr, s2.store_value = 0x100, 22
        hit, value, uid = lsq.forward_value(load, 0x100)
        assert hit and value == 22 and uid == 2

    def test_no_forward_from_younger_store(self):
        lsq = LoadStoreQueue(8)
        load = make_op(1, Opcode.LD, rd=4, rs1=1)
        store = make_op(2, Opcode.ST, rs1=1, rs2=2)
        lsq.push(load)
        lsq.push(store)
        store.eff_addr, store.store_value = 0x100, 5
        hit, _, _ = lsq.forward_value(load, 0x100)
        assert not hit

    def test_violating_loads(self):
        lsq = LoadStoreQueue(8)
        store = make_op(1, Opcode.ST, rs1=1, rs2=2)
        load = make_op(2, Opcode.LD, rd=4, rs1=1)
        lsq.push(store)
        lsq.push(load)
        load.state = OpState.COMPLETED
        load.eff_addr = 0x100
        store.eff_addr = 0x100
        assert lsq.violating_loads(store) == [load]
        # a load that forwarded from a younger store is safe
        load.forwarded_from = 5
        assert lsq.violating_loads(store) == []

    def test_remove_younger_than(self):
        lsq = LoadStoreQueue(8)
        for uid in (1, 2, 3):
            lsq.push(make_op(uid, Opcode.LD, rd=1, rs1=1))
        lsq.remove_younger_than(1)
        assert len(lsq) == 1

    def test_executed_entries(self):
        lsq = LoadStoreQueue(8)
        a = make_op(1, Opcode.LD, rd=1, rs1=1)
        b = make_op(2, Opcode.LD, rd=2, rs1=1)
        lsq.push(a)
        lsq.push(b)
        a.eff_addr = 0x40
        assert lsq.executed_entries() == [a]


class TestBranchPredictor:
    def test_learns_taken_bias(self):
        predictor = BranchPredictor()
        for _ in range(4):
            predictor.update(0, 100, taken=True, mispredicted=False)
        assert predictor.predict(0, 100) is True

    def test_learns_not_taken_bias(self):
        predictor = BranchPredictor()
        for _ in range(4):
            predictor.update(0, 100, taken=False, mispredicted=False)
        assert predictor.predict(0, 100) is False

    def test_misprediction_rate(self):
        predictor = BranchPredictor()
        predictor.predict(0, 1)
        predictor.predict(0, 1)
        predictor.update(0, 1, True, mispredicted=True)
        assert predictor.misprediction_rate == pytest.approx(0.5)

    def test_ideal_mode_uses_hint(self):
        predictor = BranchPredictor(ideal=True)
        assert predictor.predict(0, 1, actual_hint=False) is False
        assert predictor.predict(0, 1, actual_hint=True) is True


class TestFunctionalUnits:
    # issue_width 16: the unit pools, not the issue width, bind here

    def test_alu_budget(self):
        core = make_core(iq_size=16, issue_width=16)
        issued = issue_cycle(core, *(make_op(uid) for uid in range(1, 11)))
        assert [op.uid for op in issued] == [1, 2, 3, 4]

    def test_mem_ports_shared_by_loads_and_stores(self):
        core = make_core(iq_size=16, issue_width=16)
        load = make_op(1, Opcode.LD, rd=1, rs1=2)
        store = make_op(2, Opcode.ST, rs1=1, rs2=2)
        late = make_op(3, Opcode.LD, rd=3, rs1=2)
        assert issue_cycle(core, load, store, late) == [load, store]
        assert MEM_PORTS == 2

    def test_new_cycle_replenishes(self):
        core = make_core(iq_size=16, issue_width=16)
        ops = [make_op(uid) for uid in range(1, 7)]
        assert issue_cycle(core, *ops) == ops[:4]
        assert issue_cycle(core) == []
        assert [op.state for op in ops[4:]] == [OpState.EXECUTING] * 2

    def test_branches_share_alu_budget(self):
        core = make_core(iq_size=16, issue_width=16)
        branches = [make_op(uid, Opcode.BEQ) for uid in range(1, 5)]
        alu = make_op(5)
        assert issue_cycle(core, *branches, alu) == branches
        assert alu.state is OpState.WAITING

    def test_pools_by_index(self):
        core = make_core(iq_size=16, issue_width=16)
        hw = core.hw
        assert core.fus.capacity == (hw.num_alus, hw.num_muls,
                                     hw.num_fpus, MEM_PORTS)
        muls = [make_op(uid, Opcode.MUL) for uid in range(1, 4)]
        fpus = [make_op(uid, Opcode.FADD) for uid in range(4, 7)]
        issued = issue_cycle(core, *muls, *fpus)
        assert issued == muls[:2] + fpus[:2]
        assert core.fus.free == [hw.num_alus, 0, 0, MEM_PORTS]
