"""The per-opcode semantics and facts tables, and what each Instruction
takes from them.

The execute stage and the interpreter call ``inst.evaluate(a, b, imm)``
instead of dispatching on the opcode, and the public ``alu_result`` /
``branch_taken`` wrappers read the same table — so the two must agree.
The rest of an instruction's derived facts come from ``OPCODE_FACTS``,
which must agree with the per-opcode functions, and an instruction
restored from an older pickle must derive them all again.
"""

import pickle

import pytest

from repro.isa import Instruction, Opcode, assemble
from repro.isa.instruction import OPCODE_FACTS
from repro.isa.interpreter import run_program
from repro.isa.opcodes import (OpClass, fu_pool, has_dest, is_branch,
                               op_class, op_latency, reads_two_regs)
from repro.isa.semantics import (ALU_FUNCTIONS, BRANCH_FUNCTIONS,
                                 alu_result, branch_taken, semantics_of)
from repro.pipeline import PipelineCore

MASK64 = (1 << 64) - 1
ALU_OPS = [op for op in Opcode
           if op_class(op) in (OpClass.ALU, OpClass.MUL, OpClass.FPU)]
BRANCH_OPS = [op for op in Opcode if op_class(op) is OpClass.BRANCH]
OTHER_OPS = [op for op in Opcode
             if op not in ALU_OPS and op not in BRANCH_OPS]

#: Operands at the edges of the 64-bit semantics: shifts by 63, 64 and
#: more (the low 6 bits count), wraparound in both directions, and
#: unsigned compares across the sign bit.
EDGE_OPERANDS = [
    (0, 0, 0), (1, 63, 63), (1, 64, 64), (MASK64, 65, 127),
    (MASK64, 1, 1), (0, 1, -1), (1 << 63, 1 << 63, -(1 << 63)),
    (MASK64, MASK64, MASK64), (5, 1 << 63, 200), (1 << 63, 5, 7),
    (0x1234_5678_9ABC_DEF0, 0x0FED_CBA9_8765_4321, -42),
]


def test_every_opcode_binds_its_table_entry():
    assert sorted(ALU_FUNCTIONS, key=str) == sorted(ALU_OPS, key=str)
    assert sorted(BRANCH_FUNCTIONS, key=str) == sorted(BRANCH_OPS, key=str)
    for op in ALU_OPS:
        assert Instruction(op, rd=1).evaluate is ALU_FUNCTIONS[op]
    for op in BRANCH_OPS:
        assert Instruction(op).evaluate is BRANCH_FUNCTIONS[op]
    for op in OTHER_OPS:
        assert Instruction(op).evaluate is None


@pytest.mark.parametrize("a,b,imm", EDGE_OPERANDS)
def test_bound_functions_agree_with_public_wrappers(a, b, imm):
    for op in ALU_OPS:
        expected = alu_result(op, a, b, imm)
        assert Instruction(op, rd=1).evaluate(a, b, imm) == expected
        assert 0 <= expected <= MASK64
    for op in BRANCH_OPS:
        assert (Instruction(op).evaluate(a, b, imm)
                == branch_taken(op, a, b))


def test_edge_semantics():
    assert alu_result(Opcode.SLL, 1, 64, 0) == 1        # shift by 64 -> 0
    assert alu_result(Opcode.SLLI, 1, 0, 65) == 2
    assert alu_result(Opcode.SRL, MASK64, 127, 0) == 1  # shift by 63
    assert alu_result(Opcode.ADD, MASK64, 1, 0) == 0    # wraparound
    assert alu_result(Opcode.SUB, 0, 1, 0) == MASK64
    assert alu_result(Opcode.ADDI, 0, 0, -1) == MASK64
    assert alu_result(Opcode.MOVI, 0, 0, -1) == MASK64
    assert alu_result(Opcode.SLT, 1 << 63, 1, 0) == 0   # unsigned
    assert branch_taken(Opcode.BLT, 1, 1 << 63)
    assert not branch_taken(Opcode.BGE, 1, 1 << 63)


def test_wrappers_reject_the_wrong_opcodes():
    for op in BRANCH_OPS + OTHER_OPS:
        with pytest.raises(ValueError):
            alu_result(op, 1, 2, 3)
    for op in ALU_OPS + OTHER_OPS:
        with pytest.raises(ValueError):
            branch_taken(op, 1, 2)


def test_instructions_pickle_with_their_bound_function():
    program = assemble(_LOOP)
    thawed = pickle.loads(pickle.dumps(program))
    for old, new in zip(program.instructions, thawed.instructions):
        assert new == old
        assert new.evaluate is old.evaluate


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.value)
def test_opcode_table_matches_the_per_function_facts(op):
    facts, sources = OPCODE_FACTS[op]
    assert facts == {
        "op_class": op_class(op), "latency": op_latency(op),
        "is_load": op is Opcode.LD, "is_store": op is Opcode.ST,
        "is_mem": op in (Opcode.LD, Opcode.ST), "is_branch": is_branch(op),
        "writes_reg": has_dest(op), "evaluate": semantics_of(op),
        "fu_pool": fu_pool(op)}
    inst = Instruction(op, rd=3, rs1=5, rs2=7, imm=0)
    for name, value in facts.items():
        assert getattr(inst, name) == value
    if op in (Opcode.NOP, Opcode.HALT, Opcode.JMP, Opcode.MOVI):
        assert inst.source_regs() == () and sources == 0
    elif op is not Opcode.LD and reads_two_regs(op):
        assert inst.source_regs() == (5, 7) and sources == 2
    else:
        assert inst.source_regs() == (5,) and sources == 1


def _legacy_copy(inst: Instruction, missing: str = "evaluate") -> Instruction:
    """What unpickling an Instruction saved before the *missing* derived
    attribute existed yields: pickle's own rebuild, fed a state without
    it."""
    rebuild, args, state = inst.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:3]
    state = {k: v for k, v in state.items() if k != missing}
    legacy = rebuild(*args)
    legacy.__setstate__(state)
    return legacy


_LOOP = """
    movi r1, 20
    movi r2, 0
    movi r3, 0x1000
    loop:
    add  r2, r2, r1
    slli r4, r2, 3
    st   r4, 0(r3)
    ld   r5, 0(r3)
    xor  r6, r5, r2
    addi r1, r1, -1
    bne  r1, r0, loop
    jmp  done
    movi r7, 99
    done:
    halt
"""


def test_instruction_restored_without_evaluate_rederives_and_steps():
    _restored_program_steps("evaluate")


def test_instruction_restored_without_pool_index_rederives_and_steps():
    _restored_program_steps("fu_pool")


def _restored_program_steps(missing: str) -> None:
    program = assemble(_LOOP)
    legacy = [_legacy_copy(inst, missing) for inst in program.instructions]
    for old, new in zip(program.instructions, legacy):
        assert new.evaluate is old.evaluate
        assert new.fu_pool == old.fu_pool
        assert new.latency == old.latency
    program.instructions = legacy
    core = PipelineCore([program])
    core.run(max_cycles=100_000)
    assert core.all_halted
    golden = run_program(assemble(_LOOP))
    assert core.threads[0].arch_state_snapshot(core.prf) == golden.snapshot()
