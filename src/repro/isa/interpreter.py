"""In-order functional interpreter: the golden architectural model.

The interpreter defines the ISA's architectural semantics. The out-of-order
pipeline must commit exactly this state for any program (a hypothesis
property test enforces it), which is what lets the fault classifier compare
a fault-injected pipeline against a golden run meaningfully.
"""

from __future__ import annotations

import weakref
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import VALUE_MASK
from ..errors import MemoryFault
from .instruction import Instruction
from .opcodes import Opcode
from .program import Program
from .semantics import check_address, effective_address

#: Members :meth:`Interpreter.step` and the golden pass test, as module
#: globals (no class-attribute walk per step).
_HALT = Opcode.HALT
_NOP = Opcode.NOP
_JMP = Opcode.JMP


@dataclass
class ArchState:
    """Complete architectural state: registers, memory, PC, halt flag."""

    regs: List[int] = field(default_factory=lambda: [0] * 32)
    memory: Dict[int, int] = field(default_factory=dict)
    pc: int = 0
    halted: bool = False
    instret: int = 0

    def read_reg(self, reg: int) -> int:
        return 0 if reg == 0 else self.regs[reg]

    def write_reg(self, reg: int, value: int) -> None:
        if reg != 0:
            self.regs[reg] = value & VALUE_MASK

    def read_mem(self, address: int) -> int:
        if not check_address(address):
            raise MemoryFault(address)
        return self.memory.get(address, 0)

    def write_mem(self, address: int, value: int) -> None:
        if not check_address(address):
            raise MemoryFault(address)
        self.memory[address] = value & VALUE_MASK

    def snapshot(self) -> Tuple:
        """Hashable digest of the full architectural state.

        Zero-valued memory words are dropped so a written-then-zeroed word
        compares equal to a never-written one.
        """
        mem = tuple(sorted((a, v) for a, v in self.memory.items() if v))
        return (tuple(self.regs[1:]), mem, self.pc, self.halted)

    def copy(self) -> "ArchState":
        clone = ArchState(regs=list(self.regs), memory=dict(self.memory),
                          pc=self.pc, halted=self.halted, instret=self.instret)
        return clone


@dataclass
class ExceptionRecord:
    """One architectural exception observed during execution."""

    instret: int
    pc: int
    address: int


class Interpreter:
    """Executes a :class:`Program` one instruction at a time, in order."""

    def __init__(self, program: Program):
        self.program = program
        self.state = ArchState()
        for reg, value in program.initial_regs.items():
            self.state.write_reg(reg, value)
        self.state.memory.update(program.initial_memory)
        self.exceptions: List[ExceptionRecord] = []
        #: Per-dynamic-load/store observation stream: (kind, value) where
        #: kind is "load_addr" | "store_addr" | "store_value". Consumed by
        #: the Figure 6 locality characterisation.
        self.mem_trace: List[Tuple[str, int]] = []
        self.trace_memory_ops = False

    def step(self) -> Optional[Instruction]:
        """Execute one instruction; return it, or ``None`` once halted.

        An architectural :class:`MemoryFault` halts the machine (our ISA has
        no trap handlers) after recording the exception — both runs of a
        tandem pair see the identical policy.
        """
        state = self.state
        if state.halted:
            return None
        inst = self.program.fetch(state.pc)
        if inst is None:
            state.halted = True
            return None

        next_pc = state.pc + 1
        op = inst.opcode
        try:
            if op is _HALT:
                state.halted = True
            elif op is _NOP:
                pass
            elif inst.is_load:
                address = effective_address(state.read_reg(inst.rs1), inst.imm)
                if self.trace_memory_ops:
                    self.mem_trace.append(("load_addr", address))
                state.write_reg(inst.rd, state.read_mem(address))
            elif inst.is_store:
                address = effective_address(state.read_reg(inst.rs1), inst.imm)
                value = state.read_reg(inst.rs2)
                if self.trace_memory_ops:
                    self.mem_trace.append(("store_addr", address))
                    self.mem_trace.append(("store_value", value))
                state.write_mem(address, value)
            elif inst.is_branch:
                if inst.evaluate(state.read_reg(inst.rs1),
                                 state.read_reg(inst.rs2), inst.imm):
                    next_pc = inst.imm
            else:
                # inst.evaluate is the opcode's semantics function
                # (repro.isa.semantics), the ALU result here
                result = inst.evaluate(state.read_reg(inst.rs1),
                                       state.read_reg(inst.rs2), inst.imm)
                state.write_reg(inst.rd, result)
        except MemoryFault as fault:
            self.exceptions.append(ExceptionRecord(
                instret=state.instret, pc=state.pc, address=fault.address))
            state.halted = True
            state.instret += 1
            return inst

        state.pc = next_pc
        state.instret += 1
        return inst

    def run(self, max_instructions: int = 1_000_000) -> ArchState:
        """Run to ``HALT`` or until *max_instructions* retire."""
        for _ in range(max_instructions):
            if self.step() is None:
                break
        return self.state

    def run_traced(self, max_instructions: int) -> "GoldenTrace":
        """:meth:`run`, recording the outcome of every conditional branch
        and the step it executed at (instructions retired before it)."""
        state = self.state
        fetch = self.program.fetch
        read = state.read_reg
        step = self.step
        positions = array("q")
        outcomes = []
        for position in range(max_instructions):
            if state.halted:
                break
            inst = fetch(state.pc)
            if (inst is not None and inst.is_branch
                    and inst.opcode is not _JMP):
                positions.append(position)
                outcomes.append(inst.evaluate(read(inst.rs1),
                                              read(inst.rs2), inst.imm))
            if step() is None:
                break
        return GoldenTrace(state.instret, state.halted, positions,
                           tuple(outcomes))


class GoldenTrace:
    """What one golden run of a program leaves behind for the pipeline:
    how many instructions it retired, whether it halted within its step
    budget, and its conditional-branch outcomes in execution order."""

    __slots__ = ("instret", "halted", "_positions", "_outcomes")

    def __init__(self, instret: int, halted: bool, positions: array,
                 outcomes: Tuple[bool, ...]):
        self.instret = instret
        self.halted = halted
        self._positions = positions
        self._outcomes = outcomes

    def covers(self, steps: int) -> bool:
        """True when this trace answers for a run of *steps* steps."""
        return self.halted or self.instret >= steps

    def dynamic_length(self, steps: int) -> int:
        """Instructions retired in a run of at most *steps* steps."""
        return min(self.instret, steps)

    def branch_outcomes(self, steps: int) -> Tuple[bool, ...]:
        """Outcomes of the conditional branches among the first *steps*
        instructions."""
        count = bisect_left(self._positions, steps)
        outcomes = self._outcomes
        return outcomes if count == len(outcomes) else outcomes[:count]


#: ``id(program)`` → its golden trace. Keyed by the program object (the
#: experiment context and campaigns hold and reuse those), relying on
#: Program's immutable-once-built convention. A finalizer evicts the entry
#: when the program is collected, so recycled ids can never alias.
_GOLDEN_CACHE: Dict[int, GoldenTrace] = {}


def golden_trace(program: Program, steps: int) -> GoldenTrace:
    """The golden trace of *program* covering at least *steps* steps,
    memoised per program object: one interpretation serves every length
    and branch-oracle request it covers (a program that halts within its
    first run is never interpreted again)."""
    key = id(program)
    trace = _GOLDEN_CACHE.get(key)
    if trace is None or not trace.covers(steps):
        if trace is None:
            weakref.finalize(program, _GOLDEN_CACHE.pop, key, None)
        trace = _GOLDEN_CACHE[key] = Interpreter(program).run_traced(steps)
    return trace


def run_program(program: Program, max_instructions: int = 1_000_000) -> ArchState:
    """Convenience wrapper: interpret *program* and return the final state."""
    return Interpreter(program).run(max_instructions)


__all__ = ["ArchState", "ExceptionRecord", "GoldenTrace", "Interpreter",
           "golden_trace", "run_program"]
