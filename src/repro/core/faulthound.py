"""The FaultHound unit: all five mechanisms arbitrated (Section 3).

Per check the decision cascade is exactly the paper's:

1. first-level lookup (inverted TCAM, or PC-indexed table when the
   clustering ablation is disabled) — full match means no trigger;
2. a trigger may be suppressed by the second-level filter (likely false
   positive, Section 3.2);
3. otherwise it causes a full pipeline rollback if the squash state machine
   signals (likely rename fault, Section 3.4);
4. otherwise a predecessor replay (completion checks, Section 3.3) or a
   singleton re-execute (commit/LSQ checks, Section 3.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import FaultHoundConfig
from .actions import CheckAction, CheckKind, CheckResult
from .pbfs import PCIndexedFilterTable
from .screening import ScreeningUnit
from .second_level import SecondLevelFilter
from .squash_machine import SquashMachineBank
from .tcam import TCAM

#: Members a check returns, as module globals (no class-attribute walk
#: per check).
_NONE = CheckAction.NONE
_SUPPRESSED = CheckAction.SUPPRESSED
_REPLAY = CheckAction.REPLAY
_SQUASH = CheckAction.SQUASH
_SINGLETON = CheckAction.SINGLETON


@dataclass
class _Domain:
    """One screening domain (addresses or values): first-level storage plus
    its second-level filter and squash machines."""

    tcam: Optional[TCAM]
    table: Optional[PCIndexedFilterTable]
    second: Optional[SecondLevelFilter]
    squash: Optional[SquashMachineBank]

    @property
    def lookups(self) -> int:
        store = self.tcam if self.tcam is not None else self.table
        return store.lookups if store is not None else 0

    def clone(self) -> "_Domain":
        return _Domain(
            tcam=self.tcam.clone() if self.tcam is not None else None,
            table=self.table.clone() if self.table is not None else None,
            second=self.second.clone() if self.second is not None else None,
            squash=self.squash.clone() if self.squash is not None else None)


class FaultHoundUnit(ScreeningUnit):
    """Screening unit implementing the full FaultHound scheme."""

    name = "faulthound"
    wants_delay_buffer = True

    def __init__(self, config: FaultHoundConfig | None = None):
        super().__init__()
        self.config = config or FaultHoundConfig()
        self.wants_commit_checks = self.config.lsq_check
        self.addresses = self._make_domain()
        self.values = self._make_domain()
        # Fine-grained trigger accounting for Figure 11 / Section 5.6.
        self.second_level_suppressions = 0
        self.squash_triggers = 0
        self.replay_triggers = 0
        self.singleton_triggers = 0

    def clone(self) -> "FaultHoundUnit":
        twin = FaultHoundUnit.__new__(FaultHoundUnit)
        self._clone_base_into(twin)
        twin.config = self.config         # frozen dataclass, shared
        twin.wants_commit_checks = self.wants_commit_checks
        twin.addresses = self.addresses.clone()
        twin.values = self.values.clone()
        twin.second_level_suppressions = self.second_level_suppressions
        twin.squash_triggers = self.squash_triggers
        twin.replay_triggers = self.replay_triggers
        twin.singleton_triggers = self.singleton_triggers
        return twin

    def _make_domain(self) -> _Domain:
        cfg = self.config
        if cfg.clustering:
            tcam = TCAM(entries=cfg.tcam_entries,
                        loosen_threshold=cfg.loosen_threshold,
                        bank_kind="biased",
                        changing_states=cfg.first_level_changing_states)
            table = None
            squash = (SquashMachineBank(cfg.tcam_entries, cfg.squash_states)
                      if cfg.squash_detection else None)
        else:
            # Ablation: PBFS-style PC-indexed organisation with the biased
            # machines. Rename-fault detection keys on closest-match
            # identity, which only exists in the inverted organisation.
            tcam = None
            table = PCIndexedFilterTable(2048, "biased",
                                         cfg.first_level_changing_states)
            squash = None
        second = (SecondLevelFilter(cfg.second_level_states, cfg.value_bits)
                  if cfg.second_level else None)
        return _Domain(tcam=tcam, table=table, second=second, squash=squash)

    def _domain(self, kind: CheckKind) -> _Domain:
        return self.addresses if kind.uses_address_table else self.values

    def _first_level(self, domain: _Domain, value: int, pc: int):
        """Run the first-level lookup; returns (triggered, mismatch_mask,
        closest_index_or_None)."""
        if domain.tcam is not None:
            res = domain.tcam.lookup(value)
            if res.replaced_index is not None and domain.squash is not None:
                domain.squash.entry_replaced(res.replaced_index)
            return res.triggered, res.mismatch_mask, res.closest_index
        triggered, mismatch = domain.table.check(pc, value)
        return triggered, mismatch, None

    def _arbitrate(self, domain: _Domain, mismatch_mask: int,
                   closest: Optional[int], at_commit: bool) -> CheckAction:
        """Apply the Section 3 decision cascade to a raw trigger."""
        allowed = True
        if domain.second is not None:
            allowed = bool(domain.second.observe_trigger(mismatch_mask))
        squash = False
        if (not at_commit and domain.squash is not None
                and closest is not None):
            # Squash machines track closest-match identity across *all*
            # replay triggers, suppressed or not (Section 3.4).
            squash = domain.squash.observe_trigger(closest)
        if not allowed:
            self.second_level_suppressions += 1
            return _SUPPRESSED
        if at_commit:
            self.singleton_triggers += 1
            return _SINGLETON
        if squash:
            self.squash_triggers += 1
            return _SQUASH
        if self.config.full_rollback_on_trigger:
            # Fig 12 (middle) ablation: replay replaced by a full rollback.
            self.squash_triggers += 1
            return _SQUASH
        self.replay_triggers += 1
        return _REPLAY

    def check_at_complete(self, kind: CheckKind, value: int,
                          pc: int) -> CheckResult:
        domain = self._domain(kind)
        triggered, mismatch, closest = self._first_level(domain, value, pc)
        if self.replaying or not triggered:
            # During replay the filters keep learning but triggers are
            # ignored (Section 3.3).
            return self._record(CheckResult.of(_NONE, kind, triggered))
        action = self._arbitrate(domain, mismatch, closest, at_commit=False)
        return self._record(CheckResult.of(action, kind, True))

    def check_at_commit(self, kind: CheckKind, value: int,
                        pc: int) -> CheckResult:
        if not self.config.lsq_check:
            return CheckResult.none(kind)
        domain = self._domain(kind)
        triggered, mismatch, _closest = self._first_level(domain, value, pc)
        if self.replaying or not triggered:
            return self._record(CheckResult.of(_NONE, kind, triggered))
        action = self._arbitrate(domain, mismatch, None, at_commit=True)
        return self._record(CheckResult.of(action, kind, True))

    @property
    def total_table_lookups(self) -> int:
        return self.addresses.lookups + self.values.lookups


__all__ = ["FaultHoundUnit"]
