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
from typing import Dict, Tuple

from .opcodes import (Opcode, fu_pool, has_dest, is_branch, op_class,
                      op_latency, reads_two_regs)
from .semantics import semantics_of


def _facts_of(op: Opcode) -> Tuple[dict, int]:
    """The derived facts of *op*: the attributes every instance of it
    carries, and how many source registers it reads (0, ``rs1``, or
    ``rs1`` and ``rs2``)."""
    facts = {
        "op_class": op_class(op),
        "latency": op_latency(op),
        "is_load": op is Opcode.LD,
        "is_store": op is Opcode.ST,
        "is_mem": op is Opcode.LD or op is Opcode.ST,
        "is_branch": is_branch(op),
        # has_dest only: the r0-discard rule is a rename-time decision,
        # applied where the MicroOp caches its own writes_reg flag
        "writes_reg": has_dest(op),
        "evaluate": semantics_of(op),
        "fu_pool": fu_pool(op),
    }
    if op in (Opcode.NOP, Opcode.HALT, Opcode.JMP, Opcode.MOVI):
        sources = 0
    elif reads_two_regs(op):
        sources = 2
    else:
        sources = 1
    return facts, sources


#: Opcode → (derived attributes, source-register count), worked out once
#: at import so building an instruction is one lookup.
OPCODE_FACTS: Dict[Opcode, Tuple[dict, int]] = {
    op: _facts_of(op) for op in Opcode}

#: Every attribute ``__post_init__`` derives; a restored state missing
#: any of them is re-derived.
_DERIVED = frozenset(OPCODE_FACTS[Opcode.NOP][0]) | {"_source_regs"}


@dataclass(frozen=True)
class Instruction:
    """One static instruction; immutable so programs can be shared freely.

    The derived operand facts (``is_mem``, ``writes_reg``, ...) are fixed
    by the opcode, and the pipeline reads them on every dispatch, issue
    and commit of every dynamic instance — so they are materialised once
    at construction, copied from :data:`OPCODE_FACTS`, instead of
    recomputed per access. They are plain attributes, not dataclass
    fields: equality, repr and ``replace`` see only the five encoding
    fields.

    ``evaluate`` is the opcode's ``fn(a, b, imm)`` from
    :mod:`repro.isa.semantics` — the ALU result or branch taken flag, or
    ``None`` for memory and misc opcodes — so the execute stage calls it
    without dispatching on the opcode. ``fu_pool`` indexes the
    functional-unit pool that issues it (:data:`~repro.isa.opcodes.
    ALU_POOL` and its siblings).
    """

    opcode: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.rd < 32 and 0 <= self.rs1 < 32
                and 0 <= self.rs2 < 32):
            for name in ("rd", "rs1", "rs2"):
                reg = getattr(self, name)
                if not 0 <= reg < 32:
                    raise ValueError(f"{name}={reg} outside r0-r31")
        facts, sources = OPCODE_FACTS[self.opcode]
        # frozen: the derived facts bypass __setattr__. One at a time, not
        # through ``__dict__.update``: reaching ``__dict__`` turns the
        # instance's attributes into a plain dict, and every later read
        # of them on the stepping path costs about three times as much
        cache = object.__setattr__
        for name, value in facts.items():
            cache(self, name, value)
        cache(self, "_source_regs", (self.rs1, self.rs2) if sources == 2
              else (self.rs1,) if sources else ())

    def __deepcopy__(self, memo) -> "Instruction":
        return self    # frozen: shared by deep copies of in-flight ops

    def __setstate__(self, state) -> None:
        # instructions pickled before one of the derived facts (the bound
        # semantics, the pool index, ...) existed lack it; re-derive all
        self.__dict__.update(state)
        if not _DERIVED <= state.keys():
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
