"""Shared value semantics for the interpreter and the pipeline execute stage.

Keeping the ALU/branch evaluation in one place guarantees that the
out-of-order pipeline and the in-order golden interpreter can never diverge
on arithmetic — the differential property tests in ``tests/`` rely on this.

All arithmetic is modulo 2**64; comparisons are unsigned; shift amounts use
the low 6 bits of the operand, matching a 64-bit RISC machine.
"""

from __future__ import annotations

from ..config import VALUE_MASK
from .opcodes import Opcode

#: Valid data segment: byte addresses in [0, MEMORY_LIMIT). Anything outside
#: (or unaligned) raises an architectural memory fault — the "noisy" fault
#: channel of the paper's classification.
MEMORY_LIMIT = 1 << 32


# One module-level named function per opcode, ``fn(a, b, imm)``. Named,
# not lambdas: every Instruction binds its opcode's function (see
# ``Instruction.evaluate``), and instructions are pickled into checkpoints
# and worker tasks, which a lambda cannot survive.

def _add(a: int, b: int, imm: int) -> int:
    return (a + b) & VALUE_MASK


def _sub(a: int, b: int, imm: int) -> int:
    return (a - b) & VALUE_MASK


def _and(a: int, b: int, imm: int) -> int:
    return a & b


def _or(a: int, b: int, imm: int) -> int:
    return a | b


def _xor(a: int, b: int, imm: int) -> int:
    return a ^ b


def _sll(a: int, b: int, imm: int) -> int:
    return (a << (b & 63)) & VALUE_MASK


def _srl(a: int, b: int, imm: int) -> int:
    return a >> (b & 63)


def _slt(a: int, b: int, imm: int) -> int:
    return 1 if a < b else 0


def _mul(a: int, b: int, imm: int) -> int:
    return (a * b) & VALUE_MASK


def _addi(a: int, b: int, imm: int) -> int:
    return (a + imm) & VALUE_MASK


def _andi(a: int, b: int, imm: int) -> int:
    return a & (imm & VALUE_MASK)


def _ori(a: int, b: int, imm: int) -> int:
    return a | (imm & VALUE_MASK)


def _xori(a: int, b: int, imm: int) -> int:
    return a ^ (imm & VALUE_MASK)


def _slli(a: int, b: int, imm: int) -> int:
    return (a << (imm & 63)) & VALUE_MASK


def _srli(a: int, b: int, imm: int) -> int:
    return a >> (imm & 63)


def _movi(a: int, b: int, imm: int) -> int:
    return imm & VALUE_MASK


def _beq(a: int, b: int, imm: int) -> bool:
    return a == b


def _bne(a: int, b: int, imm: int) -> bool:
    return a != b


def _blt(a: int, b: int, imm: int) -> bool:
    return a < b


def _bge(a: int, b: int, imm: int) -> bool:
    return a >= b


def _jmp(a: int, b: int, imm: int) -> bool:
    return True


#: Destination value of every non-memory, non-branch opcode.
ALU_FUNCTIONS = {
    Opcode.ADD: _add, Opcode.SUB: _sub, Opcode.AND: _and, Opcode.OR: _or,
    Opcode.XOR: _xor, Opcode.SLL: _sll, Opcode.SRL: _srl, Opcode.SLT: _slt,
    Opcode.MUL: _mul, Opcode.FADD: _add, Opcode.FMUL: _mul,
    Opcode.ADDI: _addi, Opcode.ANDI: _andi, Opcode.ORI: _ori,
    Opcode.XORI: _xori, Opcode.SLLI: _slli, Opcode.SRLI: _srli,
    Opcode.MOVI: _movi,
}
#: Taken flag of every branch opcode (``imm`` is the target, unused here).
BRANCH_FUNCTIONS = {
    Opcode.BEQ: _beq, Opcode.BNE: _bne, Opcode.BLT: _blt, Opcode.BGE: _bge,
    Opcode.JMP: _jmp,
}


def semantics_of(op: Opcode):
    """The ``fn(a, b, imm)`` evaluating *op*: its ALU result for an ALU
    opcode, its taken flag for a branch, ``None`` for anything else."""
    return ALU_FUNCTIONS.get(op) or BRANCH_FUNCTIONS.get(op)


def alu_result(op: Opcode, a: int, b: int, imm: int) -> int:
    """Evaluate a non-memory, non-branch opcode.

    *a* and *b* are the 64-bit source operand values (``b`` is ignored for
    immediate forms). Returns the 64-bit destination value.
    """
    fn = ALU_FUNCTIONS.get(op)
    if fn is None:
        raise ValueError(f"{op} is not an ALU opcode")
    return fn(a, b, imm)


def branch_taken(op: Opcode, a: int, b: int) -> bool:
    """Resolve a branch direction from its two source values."""
    fn = BRANCH_FUNCTIONS.get(op)
    if fn is None:
        raise ValueError(f"{op} is not a branch opcode")
    return fn(a, b, 0)


def effective_address(base: int, imm: int) -> int:
    """Compute a load/store effective address (64-bit wrap-around)."""
    return (base + imm) & VALUE_MASK


def check_address(address: int) -> bool:
    """True when *address* is a legal 8-byte-aligned data access."""
    return address % 8 == 0 and 0 <= address < MEMORY_LIMIT


__all__ = [
    "MEMORY_LIMIT",
    "ALU_FUNCTIONS",
    "BRANCH_FUNCTIONS",
    "semantics_of",
    "alu_result",
    "branch_taken",
    "effective_address",
    "check_address",
]
