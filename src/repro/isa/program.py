"""Program container: a list of instructions plus an initial memory image."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .instruction import Instruction
from .opcodes import Opcode


@dataclass
class Program:
    """A fully resolved program.

    ``instructions[i]`` executes at program counter ``i`` (the ISA is
    word-indexed at the instruction level; data memory is byte-addressed).
    ``initial_memory`` maps 8-byte-aligned byte addresses to 64-bit words
    loaded before execution starts. ``initial_regs`` seeds logical registers.
    """

    instructions: List[Instruction]
    initial_memory: Dict[int, int] = field(default_factory=dict)
    initial_regs: Dict[int, int] = field(default_factory=dict)
    name: str = "program"
    labels: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.instructions:
            raise ValueError("a program needs at least one instruction")
        last = len(self.instructions) - 1
        for pc, inst in enumerate(self.instructions):
            if inst.is_branch and not 0 <= inst.imm <= last:
                raise ValueError(
                    f"pc {pc}: branch target {inst.imm} outside program")
        for addr in self.initial_memory:
            if addr % 8:
                raise ValueError(f"initial memory address {addr:#x} unaligned")

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __deepcopy__(self, memo) -> "Program":
        # Programs are immutable after construction, so the tandem
        # classifier's per-window core fork shares them instead of
        # re-copying thousands of instructions per injected fault.
        return self

    def __getstate__(self) -> dict:
        # the derived memory words are rebuilt on demand, never pickled
        # (checkpoints carry their cores' programs)
        state = dict(self.__dict__)
        state.pop("_memory_words", None)
        return state

    def memory_words(self) -> Dict[int, int]:
        """``initial_memory`` without its zero words, worked out once per
        program (``initial_memory`` itself when it holds none): every
        thread of every core built on it starts its
        :class:`~repro.memory.main_memory.MainMemory` from a copy.
        Callers must not mutate the returned dict."""
        words = self.__dict__.get("_memory_words")
        if words is None:
            words = self.initial_memory
            if not all(words.values()):
                words = {a: v for a, v in words.items() if v}
            self._memory_words = words
        return words

    def fetch(self, pc: int) -> Optional[Instruction]:
        """Instruction at *pc*, or ``None`` when *pc* runs off the end."""
        if 0 <= pc < len(self.instructions):
            return self.instructions[pc]
        return None

    @property
    def static_loads(self) -> int:
        return sum(1 for i in self.instructions if i.is_load)

    @property
    def static_stores(self) -> int:
        return sum(1 for i in self.instructions if i.is_store)

    def ensure_halts(self) -> "Program":
        """Return a program guaranteed to end in ``HALT`` (appends one)."""
        if self.instructions[-1].opcode is Opcode.HALT:
            return self
        return Program(
            instructions=self.instructions + [Instruction(Opcode.HALT)],
            initial_memory=dict(self.initial_memory),
            initial_regs=dict(self.initial_regs),
            name=self.name,
            labels=dict(self.labels),
        )


__all__ = ["Program"]
