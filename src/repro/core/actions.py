"""Check kinds, resulting actions and the per-check result record."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .tcam import LookupResult


class CheckKind(enum.Enum):
    """What value a screening check inspects (Section 2.1: PBFS and
    FaultHound both check load addresses, store addresses, store values).

    The facts a check reads are plain member attributes, not properties
    or dict entries keyed by the member: a class-attribute walk or the
    Python-level ``Enum.__hash__`` would run on every check.
    """

    LOAD_ADDR = "load_addr"
    STORE_ADDR = "store_addr"
    STORE_VALUE = "store_value"

    def __init__(self, value: str) -> None:
        #: Addresses and values get separate TCAMs (Section 3.1: mixing
        #: them weakens the filters).
        self.uses_address_table = value != "store_value"


#: Each kind's slot in per-kind tables (its prebuilt results, PBFS's
#: filter tables), in declaration order.
for _index, _kind in enumerate(CheckKind):
    _kind.index = _index


_SEVERITY_ORDER = ("none", "suppressed", "replay", "singleton", "squash")


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

    def __init__(self, value: str) -> None:
        #: Rank by severity: of a store's two results (address and value)
        #: the pipeline obeys the more severe. Unique per action, so it is
        #: also the action's slot in a unit's tally.
        self.severity = _SEVERITY_ORDER.index(value)

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
        are only 30, so a check returns one of them and allocates
        nothing (and hashes no enum member to find it)."""
        return _INTERNED[kind.index][action.severity][triggered]

    @staticmethod
    def none(kind: CheckKind) -> "CheckResult":
        return _INTERNED[kind.index][0][False]


#: ``[kind.index][action.severity][triggered]`` → the shared result.
_INTERNED = tuple(
    tuple(tuple(CheckResult(action, kind, triggered)
                for triggered in (False, True))
          for action in sorted(CheckAction, key=lambda a: a.severity))
    for kind in CheckKind)


__all__ = ["CheckKind", "CheckAction", "CheckResult"]
