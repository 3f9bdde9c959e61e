"""The static :class:`Instruction` record.

Operand conventions (register fields hold logical register numbers 0-31,
``r0`` is hard-wired to zero):

=========  =======================================================
shape      fields used
=========  =======================================================
reg-reg    ``rd = rs1 <op> rs2``
reg-imm    ``rd = rs1 <op> imm`` (``MOVI``: ``rd = imm``)
load       ``rd = MEM[rs1 + imm]``
store      ``MEM[rs1 + imm] = rs2``
branch     compare ``rs1, rs2``; taken target is instruction index ``imm``
jump       unconditional target ``imm``
=========  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from .opcodes import (Opcode, OpClass, has_dest, is_branch, op_class,
                      op_latency, reads_two_regs)
from .semantics import semantics_of


@dataclass(frozen=True)
class Instruction:
    """One static instruction; immutable so programs can be shared freely.

    The derived operand facts (``is_mem``, ``writes_reg``, ...) are fixed
    by the opcode, and the pipeline reads them on every dispatch, issue
    and commit of every dynamic instance — so they are materialised once
    at construction instead of recomputed per access. They are plain
    attributes, not dataclass fields: equality, repr and ``replace`` see
    only the five encoding fields.

    ``evaluate`` is the opcode's ``fn(a, b, imm)`` from
    :mod:`repro.isa.semantics` — the ALU result or branch taken flag, or
    ``None`` for memory and misc opcodes — so the execute stage calls it
    without dispatching on the opcode.
    """

    opcode: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        for name in ("rd", "rs1", "rs2"):
            reg = getattr(self, name)
            if not 0 <= reg < 32:
                raise ValueError(f"{name}={reg} outside r0-r31")
        op = self.opcode
        cache = object.__setattr__
        cache(self, "op_class", op_class(op))
        cache(self, "latency", op_latency(op))
        cache(self, "is_load", op is Opcode.LD)
        cache(self, "is_store", op is Opcode.ST)
        cache(self, "is_mem", op is Opcode.LD or op is Opcode.ST)
        cache(self, "is_branch", is_branch(op))
        # has_dest only: the r0-discard rule is a rename-time decision,
        # applied where the MicroOp caches its own writes_reg flag
        cache(self, "writes_reg", has_dest(op))
        cache(self, "evaluate", semantics_of(op))
        if op in (Opcode.NOP, Opcode.HALT, Opcode.JMP, Opcode.MOVI):
            srcs = ()
        elif op is Opcode.LD:
            srcs = (self.rs1,)
        elif reads_two_regs(op):
            srcs = (self.rs1, self.rs2)
        else:
            srcs = (self.rs1,)
        cache(self, "_source_regs", srcs)

    def __deepcopy__(self, memo) -> "Instruction":
        return self    # frozen: shared by deep copies of in-flight ops

    def __setstate__(self, state) -> None:
        # instructions pickled before the derived facts (or the bound
        # semantics) were materialised lack them; re-derive the rest
        self.__dict__.update(state)
        if "latency" not in state or "evaluate" not in state:
            self.__post_init__()

    def source_regs(self) -> tuple:
        """Logical registers this instruction reads, in operand order."""
        return self._source_regs

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        op = self.opcode
        name = op.value
        if op is Opcode.LD:
            return f"{name} r{self.rd}, {self.imm}(r{self.rs1})"
        if op is Opcode.ST:
            return f"{name} r{self.rs2}, {self.imm}(r{self.rs1})"
        if op is Opcode.JMP:
            return f"{name} @{self.imm}"
        if self.is_branch:
            return f"{name} r{self.rs1}, r{self.rs2}, @{self.imm}"
        if op is Opcode.MOVI:
            return f"{name} r{self.rd}, {self.imm}"
        if op in (Opcode.NOP, Opcode.HALT):
            return name
        if op.value.endswith("i"):
            return f"{name} r{self.rd}, r{self.rs1}, {self.imm}"
        return f"{name} r{self.rd}, r{self.rs1}, r{self.rs2}"


__all__ = ["Instruction"]
