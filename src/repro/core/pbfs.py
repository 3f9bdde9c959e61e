"""PBFS and PBFS-biased baselines (Section 2.1), plus the PC-indexed filter
table shared with FaultHound's no-clustering ablation.

PBFS keeps one PC-indexed table of bit-mask filters per check kind. A
mismatch in an unchanging bit position triggers an immediate full pipeline
squash (PBFS has no replay, no second-level filter, no LSQ scheme). The
original PBFS uses one-bit sticky counters flash-cleared periodically;
PBFS-biased swaps in the Figure 2(b) biased machine, which is how the paper
isolates the contribution of FaultHound's other mechanisms.
"""

from __future__ import annotations

from typing import Dict, List

from ..config import PBFSConfig, VALUE_MASK
from .actions import CheckAction, CheckKind, CheckResult
from .bitmask_filter import BitmaskFilter
from .screening import ScreeningUnit

#: Members a check returns, as module globals (no class-attribute walk
#: per check).
_NONE = CheckAction.NONE
_SQUASH = CheckAction.SQUASH


class PCIndexedFilterTable:
    """Direct-mapped, PC-indexed table of bit-mask filters.

    This is PBFS's organisation: nearby instructions with similar values
    land in *different* entries purely because their PCs differ — the
    spreading that FaultHound's clustering removes.

    ``entries`` maps an index to its filter and holds only the entries a
    check has touched: an untouched entry is an invalid filter, which the
    first check installs anyway. A run touches a few dozen of the
    thousands of entries, so a table builds, clones and pickles in
    proportion to those.
    """

    def __init__(self, entries: int, bank_kind: str, changing_states: int = 2):
        self.size = entries
        self.entries: Dict[int, BitmaskFilter] = {}
        self.bank_kind = bank_kind
        self.changing_states = changing_states
        self.lookups = 0
        self.triggers = 0

    def __setstate__(self, state: dict) -> None:
        entries = state["entries"]
        if isinstance(entries, list):    # pickled with every entry built
            bank = entries[0].bank
            machines = getattr(bank, "machines", None)
            state["size"] = len(entries)
            state["entries"] = {index: entry
                                for index, entry in enumerate(entries)
                                if entry.valid}
            state["changing_states"] = (
                machines[0].num_changing_states if machines else 2)
        self.__dict__.update(state)

    def __len__(self) -> int:
        return self.size

    def check(self, pc: int, value: int) -> tuple:
        """Look up by *pc*, screen *value*; returns (triggered, mismatch_mask).

        The entry is updated (and its previous value replaced) as part of
        the check, mirroring the TCAM's lookup-with-update.
        """
        self.lookups += 1
        value &= VALUE_MASK
        index = pc % self.size
        entry = self.entries.get(index)
        if entry is None:
            entry = BitmaskFilter(self.bank_kind, self.changing_states)
            entry.install(value)
            self.entries[index] = entry
            return False, 0
        mismatch = entry.mismatch_mask(value)
        entry.update(value)
        if mismatch:
            self.triggers += 1
            return True, mismatch
        return False, 0

    def flash_clear(self) -> None:
        """Periodic clear of the sticky counters (Section 2.1)."""
        for entry in self.entries.values():
            entry.flash_clear()

    def clone(self) -> "PCIndexedFilterTable":
        """Independent copy for core forking (checkpoint protocol)."""
        twin = PCIndexedFilterTable.__new__(PCIndexedFilterTable)
        twin.size = self.size
        twin.entries = {index: entry.clone()
                        for index, entry in self.entries.items()}
        twin.bank_kind = self.bank_kind
        twin.changing_states = self.changing_states
        twin.lookups = self.lookups
        twin.triggers = self.triggers
        return twin


class PBFSUnit(ScreeningUnit):
    """The PBFS baseline: PC-indexed tables, squash on every trigger."""

    def __init__(self, config: PBFSConfig | None = None):
        super().__init__()
        self.config = config or PBFSConfig()
        bank_kind = self.config.counter
        self.name = "pbfs" if bank_kind == "sticky" else f"pbfs-{bank_kind}"
        #: One filter table per check kind, indexed by ``kind.index``.
        self.tables: List[PCIndexedFilterTable] = [
            PCIndexedFilterTable(self.config.table_entries, bank_kind,
                                 self.config.changing_states)
            for _kind in CheckKind]
        self._checks_since_clear = 0

    def clone(self) -> "PBFSUnit":
        twin = PBFSUnit.__new__(PBFSUnit)
        self._clone_base_into(twin)
        twin.config = self.config         # frozen dataclass, shared
        twin.name = self.name
        twin.tables = [table.clone() for table in self.tables]
        twin._checks_since_clear = self._checks_since_clear
        return twin

    def _maybe_flash_clear(self) -> None:
        if self.config.counter != "sticky":
            return  # non-sticky counters decay on their own; no clear
        self._checks_since_clear += 1
        if self._checks_since_clear >= self.config.clear_interval:
            self._checks_since_clear = 0
            for table in self.tables:
                table.flash_clear()

    def check_at_complete(self, kind: CheckKind, value: int,
                          pc: int) -> CheckResult:
        table = self.tables[kind.index]
        triggered, _mismatch = table.check(pc, value)
        self._maybe_flash_clear()
        if triggered and not self.replaying:
            # PBFS squashes the pipeline immediately upon detection, hoping
            # the originating instruction has not yet committed.
            return self._record(CheckResult.of(_SQUASH, kind, True))
        return self._record(CheckResult.of(_NONE, kind, triggered))

    def check_at_commit(self, kind: CheckKind, value: int,
                        pc: int) -> CheckResult:
        # PBFS has no LSQ/commit-time scheme.
        return CheckResult.none(kind)

    @property
    def total_table_lookups(self) -> int:
        return sum(table.lookups for table in self.tables)


__all__ = ["PCIndexedFilterTable", "PBFSUnit"]
