"""Counting TCAM with inverted (value-indexed) organisation (Section 3.1).

Lookups search every filter for the nearest neighbour of the incoming
value, counting mismatches only in "unchanging" bit positions. A full match
updates the matching filter in place; a near miss (at most
``loosen_threshold`` mismatching bits) *loosens* the closest filter; a far
miss *replaces* the LRU filter with a fresh one. The paper points out this
is not a standard TCAM — it needs mismatch bit counts — and cites counting
TCAMs for nearest-neighbour search [25].
"""

from __future__ import annotations

from typing import List, Optional

from ..config import VALUE_MASK
from ..errors import ConfigurationError
from .bitmask_filter import BitmaskFilter


class LookupResult:
    """Outcome of one TCAM lookup-and-update (read-only by convention).

    A slotted plain class: it is built on every lookup, and a frozen
    dataclass's ``__init__`` goes through ``object.__setattr__`` per
    field."""

    __slots__ = ("triggered", "closest_index", "mismatch_mask",
                 "mismatch_count", "replaced_index", "cold_install")

    def __init__(self, triggered: bool, closest_index: int,
                 mismatch_mask: int, mismatch_count: int,
                 replaced_index: Optional[int] = None,
                 cold_install: bool = False):
        #: True when no filter fully matched — a new neighbourhood or a
        #: fault.
        self.triggered = triggered
        #: Index of the closest-matching filter (the squash machines key
        #: on its identity). For a cold install this is the installed
        #: entry.
        self.closest_index = closest_index
        #: Mismatching unchanging bit positions of the closest filter,
        #: before the update. Zero on a full match or cold install.
        self.mismatch_mask = mismatch_mask
        #: popcount of ``mismatch_mask``.
        self.mismatch_count = mismatch_count
        #: Index of the entry that was replaced by a fresh filter, when
        #: the mismatch exceeded the loosen threshold; ``None`` otherwise.
        self.replaced_index = replaced_index
        #: True when the value was installed into a never-used entry
        #: (cold start; not counted as a trigger).
        self.cold_install = cold_install

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"LookupResult({fields})"


class TCAM:
    """A bank of :class:`BitmaskFilter` entries with LRU replacement."""

    def __init__(self, entries: int = 32, loosen_threshold: int = 4,
                 bank_kind: str = "biased", changing_states: int = 2):
        if entries <= 0:
            raise ConfigurationError("TCAM needs at least one entry")
        self.entries: List[BitmaskFilter] = [
            BitmaskFilter(bank_kind, changing_states) for _ in range(entries)]
        self.loosen_threshold = loosen_threshold
        #: Per-entry use stamp: the lookup count when the entry was last
        #: touched (each lookup touches exactly one entry, so stamps are
        #: unique and the least recently used entry holds the smallest).
        #: The negative starting stamps rank entry 0 most recent and the
        #: last entry least, the order the first installs fill from.
        self._stamps: List[int] = [-1 - i for i in range(entries)]
        self.lookups = 0
        self.triggers = 0

    def __len__(self) -> int:
        return len(self.entries)

    def _victim(self) -> int:
        """The least recently used entry, which a fresh filter replaces.
        Entries never turn invalid again, and a never-used entry keeps its
        negative starting stamp, so it is always older than any used one:
        the never-used entries go first, last index first."""
        stamps = self._stamps
        return min(range(len(stamps)), key=stamps.__getitem__)

    def lookup(self, value: int) -> LookupResult:
        """Search, then update/loosen/replace as a side effect (the paper
        folds the update into the lookup)."""
        value &= VALUE_MASK
        self.lookups += 1

        # one flat scan over the entries' cached masks: nearest match
        # first, ties to the lowest index, stopping at a full match
        closest = -1
        best_mask = 0
        best_count = 65
        index = 0
        for entry in self.entries:
            if entry.valid:
                mask = entry.unchanging & (value ^ entry.previous)
                if not mask:
                    closest = index
                    best_count = 0
                    break
                count = mask.bit_count()
                if count < best_count:
                    closest, best_mask, best_count = index, mask, count
            index += 1

        if best_count == 0:
            # Full match: value is inside its neighbourhood.
            self.entries[closest].update(value)
            self._stamps[closest] = self.lookups
            return LookupResult(False, closest, 0, 0)

        if closest < 0:
            # Cold table: install without triggering.
            index = self._victim()
            self.entries[index].install(value)
            self._stamps[index] = self.lookups
            return LookupResult(False, index, 0, 0, cold_install=True)

        self.triggers += 1
        if best_count <= self.loosen_threshold:
            # Loosen the closest filter to admit the new value (Figure 3b).
            self.entries[closest].update(value)
            self._stamps[closest] = self.lookups
            return LookupResult(True, closest, best_mask, best_count)

        # Too far from every filter: replace the LRU entry (a never-used
        # entry while one remains; see _victim).
        victim = self._victim()
        self.entries[victim].install(value)
        self._stamps[victim] = self.lookups
        return LookupResult(True, closest, best_mask, best_count,
                            replaced_index=victim)

    def clone(self) -> "TCAM":
        """Independent copy for core forking (checkpoint protocol)."""
        twin = TCAM.__new__(TCAM)
        twin.entries = [entry.clone() for entry in self.entries]
        twin.loosen_threshold = self.loosen_threshold
        twin._stamps = list(self._stamps)
        twin.lookups = self.lookups
        twin.triggers = self.triggers
        return twin

    def probe(self, value: int) -> int:
        """Side-effect-free nearest mismatch count (65 when table empty)."""
        value &= VALUE_MASK
        best = 65
        for entry in self.entries:
            if entry.valid:
                best = min(best, entry.mismatch_count(value))
                if best == 0:
                    break
        return best

    @property
    def valid_entries(self) -> int:
        return sum(1 for e in self.entries if e.valid)

    @property
    def trigger_rate(self) -> float:
        return self.triggers / self.lookups if self.lookups else 0.0

    def flash_clear(self) -> None:
        for entry in self.entries:
            if entry.valid:
                entry.flash_clear()


__all__ = ["LookupResult", "TCAM"]
