"""Base interface every fault-screening unit implements.

The pipeline is scheme-agnostic: it calls ``check_at_complete`` when a load
or store finishes executing and ``check_at_commit`` when one reaches the
head of the ROB, then obeys the returned :class:`CheckAction`. FaultHound,
PBFS and the do-nothing baseline all implement this interface.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import List

from .actions import CheckAction, CheckKind, CheckResult


class ActionCounts(MutableMapping):
    """Live ``CheckAction`` → check count view of a unit's tally.

    The tally is a list of ints indexed by ``action.severity``, so a
    check counts itself without hashing an enum member; this view gives
    readers the ``Counter`` interface (an unseen action counts 0 and is
    not iterated) and writes through to the tally.
    """

    __slots__ = ("_tally",)

    def __init__(self, tally: List[int]) -> None:
        self._tally = tally

    def __getitem__(self, action: CheckAction) -> int:
        return self._tally[action.severity]

    def __setitem__(self, action: CheckAction, count: int) -> None:
        self._tally[action.severity] = count

    def __delitem__(self, action: CheckAction) -> None:
        self._tally[action.severity] = 0

    def __iter__(self):
        tally = self._tally
        return (action for action in CheckAction if tally[action.severity])

    def __len__(self) -> int:
        return sum(1 for count in self._tally if count)

    def __repr__(self) -> str:
        return f"ActionCounts({dict(self)!r})"


class ScreeningUnit:
    """Abstract screening unit with shared bookkeeping."""

    name = "abstract"
    #: Whether the pipeline should operate the completed-instruction delay
    #: buffer (FaultHound hardware; PBFS and the baseline do without).
    wants_delay_buffer = False
    #: Whether loads/stores must be re-checked at commit (the LSQ scheme).
    wants_commit_checks = False

    def __init__(self) -> None:
        self.checks = 0
        #: Checks per action, indexed by ``action.severity``.
        self._tally = [0] * len(CheckAction)
        #: True while the pipeline is re-executing instructions due to a
        #: screening-initiated replay/rollback: filters keep learning but
        #: triggers must not fire again (Section 3.3: "any triggers during
        #: replay are ignored").
        self.replaying = False

    @property
    def action_counts(self) -> ActionCounts:
        """Checks per action, as a live mapping (see :class:`ActionCounts`)."""
        return ActionCounts(self._tally)

    # -- interface -------------------------------------------------------
    def check_at_complete(self, kind: CheckKind, value: int,
                          pc: int) -> CheckResult:
        """Screen *value* when its load/store completes execution."""
        raise NotImplementedError

    def check_at_commit(self, kind: CheckKind, value: int,
                        pc: int) -> CheckResult:
        """Screen *value* when its load/store reaches commit (LSQ check)."""
        raise NotImplementedError

    def next_event_cycle(self, now: int):
        """Event-skip contract (see PipelineCore.quiescent_until): the
        earliest future cycle at which this unit can change pipeline
        state unprompted, or None. Every in-tree unit acts only when
        consulted at complete/commit, so the base answers None; a future
        unit with autonomous timing (a periodic flash-clear modelled in
        cycles, say) overrides this."""
        return None

    def clone(self) -> "ScreeningUnit":
        """An independent copy carrying all learned filter state — the
        checkpoint protocol's fork point for screening hardware.

        The in-tree units override this with purpose-built copies; the
        base implementation falls back to ``copy.deepcopy`` so external
        subclasses stay correct (merely slower) without implementing it.
        """
        import copy
        return copy.deepcopy(self)

    def _clone_base_into(self, twin: "ScreeningUnit") -> None:
        """Transfer the shared bookkeeping onto a freshly built *twin*."""
        twin.checks = self.checks
        twin._tally = list(self._tally)
        twin.replaying = self.replaying

    # -- shared helpers --------------------------------------------------
    def _record(self, result: CheckResult) -> CheckResult:
        self.checks += 1
        self._tally[result.action.severity] += 1
        return result

    def count(self, action: CheckAction) -> int:
        return self._tally[action.severity]

    @property
    def trigger_count(self) -> int:
        """Checks with any action but NONE (severity 0)."""
        return sum(self._tally) - self._tally[0]


class NullScreeningUnit(ScreeningUnit):
    """The no-fault-tolerance baseline: every check is a no-op."""

    name = "baseline"

    def check_at_complete(self, kind: CheckKind, value: int,
                          pc: int) -> CheckResult:
        return self._record(CheckResult.none(kind))

    def check_at_commit(self, kind: CheckKind, value: int,
                        pc: int) -> CheckResult:
        return self._record(CheckResult.none(kind))

    def clone(self) -> "NullScreeningUnit":
        twin = NullScreeningUnit()
        self._clone_base_into(twin)
        return twin


__all__ = ["ActionCounts", "ScreeningUnit", "NullScreeningUnit"]
