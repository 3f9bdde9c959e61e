"""Check kinds, resulting actions and the per-check result record."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .tcam import LookupResult


class CheckKind(enum.Enum):
    """What value a screening check inspects (Section 2.1: PBFS and
    FaultHound both check load addresses, store addresses, store values)."""

    LOAD_ADDR = "load_addr"
    STORE_ADDR = "store_addr"
    STORE_VALUE = "store_value"

    @property
    def uses_address_table(self) -> bool:
        """Addresses and values get separate TCAMs (Section 3.1: mixing
        them weakens the filters)."""
        return self in (CheckKind.LOAD_ADDR, CheckKind.STORE_ADDR)


class CheckAction(enum.Enum):
    """What the screening unit asks the pipeline to do."""

    #: Value inside its neighbourhood — nothing to do.
    NONE = "none"
    #: First-level trigger suppressed by the second-level filter.
    SUPPRESSED = "suppressed"
    #: Light-weight predecessor replay (Section 3.3).
    REPLAY = "replay"
    #: Full pipeline rollback (PBFS always; FaultHound on rename-fault
    #: suspicion, Section 3.4).
    SQUASH = "squash"
    #: Singleton re-execute of a load/store at commit (Section 3.5).
    SINGLETON = "singleton"

    @property
    def is_trigger(self) -> bool:
        return self is not CheckAction.NONE


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one screening check."""

    action: CheckAction
    kind: CheckKind
    #: Raw first-level trigger state, even when the action was suppressed.
    triggered: bool = False
    lookup: Optional[LookupResult] = None

    @staticmethod
    def of(action: CheckAction, kind: CheckKind,
           triggered: bool) -> "CheckResult":
        """The shared instance for (*action*, *kind*, *triggered*): there
        are only 36, so a check returns one of them and allocates
        nothing."""
        return _INTERNED[action, kind, triggered]

    @staticmethod
    def none(kind: CheckKind) -> "CheckResult":
        return _INTERNED[CheckAction.NONE, kind, False]


_INTERNED = {(action, kind, triggered): CheckResult(action, kind, triggered)
             for action in CheckAction for kind in CheckKind
             for triggered in (False, True)}


__all__ = ["CheckKind", "CheckAction", "CheckResult"]
