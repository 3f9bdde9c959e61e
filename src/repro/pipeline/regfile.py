"""Merged physical register file with ready bits and a free list.

Architectural values live in physical registers until the next writer of
the same logical register commits — exactly the structure whose fault
behaviour the paper studies (most PRF faults are masked because consumers
read bypassed values; only distant consumers and recovery paths read the
register file).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, List, Optional, Set

from ..config import VALUE_MASK
from ..errors import SimulationError


class PhysicalRegisterFile:
    """``num_regs`` 64-bit physical registers, each with a ready bit."""

    def __init__(self, num_regs: int):
        if num_regs <= 0:
            raise SimulationError("register file needs at least one register")
        self.num_regs = num_regs
        self.values: List[int] = [0] * num_regs
        self.ready: List[bool] = [True] * num_regs

    def read(self, reg: int) -> int:
        return self.values[reg]

    def write(self, reg: int, value: int) -> None:
        self.values[reg] = value & VALUE_MASK
        self.ready[reg] = True

    def mark_pending(self, reg: int) -> None:
        self.ready[reg] = False

    def is_ready(self, reg: int) -> bool:
        return self.ready[reg]

    def flip_bit(self, reg: int, bit: int) -> int:
        """Inject a single-bit soft fault; returns the corrupted value."""
        if not 0 <= bit < 64:
            raise SimulationError(f"bit {bit} out of range")
        self.values[reg] ^= 1 << bit
        return self.values[reg]

    def clone(self) -> "PhysicalRegisterFile":
        """Independent copy for core forking (checkpoint protocol)."""
        twin = PhysicalRegisterFile.__new__(PhysicalRegisterFile)
        twin.num_regs = self.num_regs
        twin.values = list(self.values)
        twin.ready = list(self.ready)
        return twin


class FreeList:
    """FIFO free list of physical register tags.

    Deliberately tolerant of double-frees: a rename fault can cause commit
    to free a live register (paper Section 5.5, "freeing incorrect physical
    registers"), and the resulting reallocation-clobber is part of the fault
    model rather than a simulator error.

    The pipeline stages work the deque directly (dispatch allocates with
    ``_tags.popleft``, commit and squash free with ``_tags.append``);
    :meth:`allocate` and :meth:`free` are the same two operations for
    everyone else.
    """

    def __init__(self, tags):
        self._tags: Deque[int] = deque(tags)

    def __setstate__(self, state) -> None:
        # lists pickled with the old shadow multiset carry ``_counts``;
        # the deque alone is the list (checkpoint compatibility)
        state.pop("_counts", None)
        self.__dict__.update(state)

    def __len__(self) -> int:
        return len(self._tags)

    def __iter__(self):
        return iter(self._tags)

    @property
    def empty(self) -> bool:
        return not self._tags

    def allocate(self) -> Optional[int]:
        """Pop a free tag, or ``None`` when exhausted (dispatch stalls)."""
        return self._tags.popleft() if self._tags else None

    def free(self, tag: int) -> None:
        self._tags.append(tag)

    def tag_set(self) -> Set[int]:
        """The distinct free tags (the invariant sanitizer's view, worked
        out when called)."""
        return set(self._tags)

    def duplicates(self) -> List[int]:
        """Tags currently freed more than once (invariant sanitizer)."""
        tags = self._tags
        if len(set(tags)) == len(tags):
            return []
        return sorted(t for t, n in Counter(tags).items() if n > 1)

    def clone(self) -> "FreeList":
        """Independent copy for core forking (checkpoint protocol)."""
        return FreeList(self._tags)


__all__ = ["PhysicalRegisterFile", "FreeList"]
