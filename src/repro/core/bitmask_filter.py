"""The bit-mask filter: per-bit machines plus the previous value (Figure 1).

Together the bank and the previous value encode a ternary word — for each
bit position "unchanging 0", "unchanging 1" or "changing wildcard" — which
defines the value subspace (neighbourhood) the filter accepts.
"""

from __future__ import annotations

from ..config import VALUE_MASK
from .filter_bank import make_bank


class BitmaskFilter:
    """One filter entry: a 64-machine bank and the previous value.

    ``unchanging`` caches the complement of the bank's changing mask as a
    plain int, refreshed by every method that moves the bank (install,
    update, flash clear), so a TCAM scan reads two slots per entry and
    calls nothing.
    """

    __slots__ = ("bank", "previous", "valid", "unchanging")

    def __init__(self, bank_kind: str = "biased", changing_states: int = 2):
        self.bank = make_bank(bank_kind, changing_states)
        self.previous = 0
        self.valid = False
        self.unchanging = ~self.bank.changing_mask & VALUE_MASK

    @property
    def changing_mask(self) -> int:
        return self.bank.changing_mask

    def mismatch_mask(self, value: int) -> int:
        """Bits where *value* differs from the previous value in an
        *unchanging* position — the trigger condition (Figure 3)."""
        return self.unchanging & (value ^ self.previous)

    def mismatch_count(self, value: int) -> int:
        return self.mismatch_mask(value).bit_count()

    def matches(self, value: int) -> bool:
        """True when *value* lies inside the filter's value subspace."""
        return self.valid and self.mismatch_mask(value) == 0

    def install(self, value: int) -> None:
        """(Re)initialise as a fresh filter: all positions "unchanging"
        with *value* as the previous value (Section 3.1 replacement)."""
        self.bank.reset()
        self.unchanging = ~self.bank.changing_mask & VALUE_MASK
        self.previous = value & VALUE_MASK
        self.valid = True

    def update(self, value: int) -> int:
        """Advance every per-bit machine with *value* and make it the new
        previous value; returns the alarm mask.

        This single operation covers both the full-match update and the
        "loosen" update of Figure 3: bit positions where *value* differs see
        a change input (alarming if they were "unchanging", which is what
        the TCAM reported as the trigger), matching positions see no-change.
        """
        value &= VALUE_MASK
        bank = self.bank
        alarm = bank.observe(value ^ self.previous)
        self.unchanging = ~bank.changing_mask & VALUE_MASK
        self.previous = value
        return alarm

    def flash_clear(self) -> None:
        """PBFS periodic clear: all counters back to "unchanging". The
        previous value is retained (only the counters are sticky)."""
        self.bank.flash_clear()
        self.unchanging = ~self.bank.changing_mask & VALUE_MASK

    def clone(self) -> "BitmaskFilter":
        """Independent copy for core forking (checkpoint protocol)."""
        twin = BitmaskFilter.__new__(BitmaskFilter)
        twin.bank = self.bank.clone()
        twin.previous = self.previous
        twin.valid = self.valid
        twin.unchanging = self.unchanging
        return twin

    def ternary_repr(self) -> str:
        """Human-readable 64-char ternary word, MSB first: ``0``/``1`` for
        unchanging bits of the previous value, ``x`` for wildcards."""
        changing = self.changing_mask
        chars = []
        for bit in range(63, -1, -1):
            if (changing >> bit) & 1:
                chars.append("x")
            else:
                chars.append(str((self.previous >> bit) & 1))
        return "".join(chars)

    def subspace_size_log2(self) -> int:
        """log2 of the number of values the filter currently accepts."""
        return self.changing_mask.bit_count()


__all__ = ["BitmaskFilter"]
