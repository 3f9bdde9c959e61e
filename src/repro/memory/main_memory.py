"""Sparse 64-bit-word main memory with a fixed access latency."""

from __future__ import annotations

from typing import Dict, Tuple

from ..config import VALUE_MASK
from ..errors import MemoryFault
from ..isa.semantics import check_address


class MainMemory:
    """Byte-addressed, 8-byte-word-granular sparse memory.

    Unwritten words read as zero. All accesses must be 8-byte aligned and
    inside the valid segment; violations raise
    :class:`~repro.errors.MemoryFault` (the classifier's "noisy" channel).

    Invariant: ``_words`` never holds a zero value, so a written-then-
    zeroed word and a never-written one are the same state, and two
    memories hold the same contents exactly when their ``image()`` dicts
    compare equal.
    """

    def __init__(self, latency: int = 200,
                 image: Dict[int, int] | None = None):
        self.latency = latency
        self._words: Dict[int, int] = (
            {a: v for a, v in image.items() if v} if image else {})

    def __setstate__(self, state: dict) -> None:
        # pickles from before the invariant may hold zero words
        self.__dict__.update(state)
        self._words = {a: v for a, v in self._words.items() if v}

    def read(self, address: int) -> int:
        if not check_address(address):
            raise MemoryFault(address)
        return self._words.get(address, 0)

    def write(self, address: int, value: int) -> None:
        if not check_address(address):
            raise MemoryFault(address)
        value &= VALUE_MASK
        if value:
            self._words[address] = value
        else:
            self._words.pop(address, None)

    def clone(self) -> "MainMemory":
        """Independent copy for core forking (checkpoint protocol)."""
        twin = MainMemory.__new__(MainMemory)
        twin.latency = self.latency
        twin._words = dict(self._words)
        return twin

    def image(self) -> Dict[int, int]:
        """A copy of every non-zero word, keyed by address: the output
        image the fault classifier compares with ``==``."""
        return dict(self._words)

    def nonzero_snapshot(self) -> Tuple[Tuple[int, int], ...]:
        """Sorted (address, value) pairs for all non-zero words."""
        return tuple(sorted(self._words.items()))

    def __len__(self) -> int:
        return len(self._words)


__all__ = ["MainMemory"]
