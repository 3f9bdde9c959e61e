"""Opcode definitions, operand shapes, functional-unit classes and latencies.

Latencies and unit classes follow the paper's Table 2 core (4 ALUs, 2
multipliers, 2 FPUs). "FP" opcodes here operate on the same 64-bit integer
register file — the pipeline only cares which unit pool executes them and
for how many cycles; value semantics stay integral so the golden interpreter
and fault classifier can compare states exactly.
"""

from __future__ import annotations

import enum
from typing import Dict


class Opcode(enum.Enum):
    """Every instruction the ISA defines."""

    # ALU register-register
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"
    SRL = "srl"
    SLT = "slt"
    # ALU register-immediate
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLLI = "slli"
    SRLI = "srli"
    MOVI = "movi"
    # long-latency arithmetic
    MUL = "mul"
    FADD = "fadd"
    FMUL = "fmul"
    # memory
    LD = "ld"
    ST = "st"
    # control
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    JMP = "jmp"
    # misc
    NOP = "nop"
    HALT = "halt"


class OpClass(enum.Enum):
    """Functional-unit / scheduling class of an opcode."""

    ALU = "alu"
    MUL = "mul"
    FPU = "fpu"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    OTHER = "other"


_REG_REG_ALU = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.SLL, Opcode.SRL, Opcode.SLT,
})
_REG_IMM_ALU = frozenset({
    Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
    Opcode.SLLI, Opcode.SRLI, Opcode.MOVI,
})
_BRANCHES = frozenset({Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.JMP})

_CLASS: Dict[Opcode, OpClass] = {}
for _op in _REG_REG_ALU | _REG_IMM_ALU:
    _CLASS[_op] = OpClass.ALU
_CLASS[Opcode.MUL] = OpClass.MUL
_CLASS[Opcode.FADD] = OpClass.FPU
_CLASS[Opcode.FMUL] = OpClass.FPU
_CLASS[Opcode.LD] = OpClass.LOAD
_CLASS[Opcode.ST] = OpClass.STORE
for _op in _BRANCHES:
    _CLASS[_op] = OpClass.BRANCH
_CLASS[Opcode.NOP] = OpClass.OTHER
_CLASS[Opcode.HALT] = OpClass.OTHER

#: Execution latency in cycles (load latency is the cache's, not listed here).
_LATENCY: Dict[Opcode, int] = {op: 1 for op in Opcode}
_LATENCY[Opcode.MUL] = 4
_LATENCY[Opcode.FADD] = 3
_LATENCY[Opcode.FMUL] = 5


def op_class(op: Opcode) -> OpClass:
    """Return the functional-unit class of *op*."""
    return _CLASS[op]


def op_latency(op: Opcode) -> int:
    """Return the fixed execution latency of *op* in cycles.

    Loads return 1 here; their real latency comes from the memory hierarchy.
    """
    return _LATENCY[op]


def is_branch(op: Opcode) -> bool:
    """True for conditional and unconditional control transfers."""
    return op in _BRANCHES


def is_conditional_branch(op: Opcode) -> bool:
    """True for branches whose direction depends on register operands."""
    return op in _BRANCHES and op is not Opcode.JMP


def has_dest(op: Opcode) -> bool:
    """True when the opcode writes a destination register."""
    return op in _REG_REG_ALU or op in _REG_IMM_ALU or op in (
        Opcode.MUL, Opcode.FADD, Opcode.FMUL, Opcode.LD)


def reads_two_regs(op: Opcode) -> bool:
    """True when the opcode reads both ``rs1`` and ``rs2``."""
    return (op in _REG_REG_ALU
            or op in (Opcode.MUL, Opcode.FADD, Opcode.FMUL, Opcode.ST)
            or is_conditional_branch(op))


#: Functional-unit pools, by index (Table 2: 4 ALUs, 2 multipliers, 2
#: FPUs, plus the data-cache ports). Branches and misc ops take an ALU;
#: loads and stores share the memory ports.
ALU_POOL, MUL_POOL, FPU_POOL, MEM_POOL = range(4)

_POOL: Dict[OpClass, int] = {
    OpClass.ALU: ALU_POOL, OpClass.BRANCH: ALU_POOL, OpClass.OTHER: ALU_POOL,
    OpClass.MUL: MUL_POOL, OpClass.FPU: FPU_POOL,
    OpClass.LOAD: MEM_POOL, OpClass.STORE: MEM_POOL,
}


def fu_pool(op: Opcode) -> int:
    """Index of the functional-unit pool that issues *op*."""
    return _POOL[_CLASS[op]]


__all__ = [
    "Opcode",
    "OpClass",
    "op_class",
    "op_latency",
    "is_branch",
    "is_conditional_branch",
    "has_dest",
    "reads_two_regs",
    "ALU_POOL",
    "MUL_POOL",
    "FPU_POOL",
    "MEM_POOL",
    "fu_pool",
]
