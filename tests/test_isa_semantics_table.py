"""The per-opcode semantics table and the function each Instruction binds.

The execute stage calls ``inst.evaluate(a, b, imm)`` instead of
dispatching on the opcode, and the public ``alu_result`` /
``branch_taken`` wrappers (which the interpreter uses) read the same
table — so the two must agree, and an instruction restored from an
older pickle must bind its function again.
"""

import pickle

import pytest

from repro.isa import Instruction, Opcode, assemble
from repro.isa.interpreter import run_program
from repro.isa.opcodes import OpClass, op_class
from repro.isa.semantics import (ALU_FUNCTIONS, BRANCH_FUNCTIONS,
                                 alu_result, branch_taken)
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


def _legacy_copy(inst: Instruction) -> Instruction:
    """What unpickling an Instruction saved before ``evaluate`` existed
    yields: pickle's own rebuild, fed a state without the attribute."""
    rebuild, args, state = inst.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:3]
    state = {k: v for k, v in state.items() if k != "evaluate"}
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
    program = assemble(_LOOP)
    legacy = [_legacy_copy(inst) for inst in program.instructions]
    for old, new in zip(program.instructions, legacy):
        assert new.evaluate is old.evaluate
        assert new.latency == old.latency
    program.instructions = legacy
    core = PipelineCore([program])
    core.run(max_cycles=100_000)
    assert core.all_halted
    golden = run_program(assemble(_LOOP))
    assert core.threads[0].arch_state_snapshot(core.prf) == golden.snapshot()
