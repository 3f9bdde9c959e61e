"""Fault sites, records and outcome taxonomies."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Optional


class FaultSite(enum.Enum):
    """Where a single-bit fault lands (paper Section 4)."""

    REGFILE = "regfile"   # physical register file; proxies back-end datapath
    LSQ = "lsq"           # load-store queue entries awaiting commit
    RENAME = "rename"     # speculative rename-table mappings (front-end)


#: Area-derived injection proportions (Section 4): "front-end 20%, back-end
#: 80% including LSQ's 8%".
SITE_PROPORTIONS: Dict[FaultSite, float] = {
    FaultSite.RENAME: 0.20,
    FaultSite.REGFILE: 0.72,
    FaultSite.LSQ: 0.08,
}


class FaultClass(enum.Enum):
    """Tandem-comparison classification (Section 4 / Figure 7)."""

    MASKED = "masked"     # no architectural difference after the run-window
    NOISY = "noisy"       # extra exception in the fault-injected run
    SDC = "sdc"           # silent data corruption — the coverage target


class RegStatus(enum.Enum):
    """Lifecycle status of an injected physical register at injection time,
    needed for the Figure 11 breakdown.

    Whether a fault is *dead* (overwritten before any read, so its window
    is classified without a faulty run) is decided separately, by the
    classifier's dead rule (``TandemClassifier._register_verdict``, see
    docs/performance.md "Dead-register pruning"). Under it FREE and
    PENDING faults are always dead; COMPLETED and COMMITTED ones are dead
    when the window renames a new writer of the register, or nothing,
    before a reader.
    """

    FREE = "free"                # unmapped: necessarily masked (dead)
    PENDING = "pending"          # allocated, producer not yet completed (dead)
    COMPLETED = "completed"      # written back, producer not yet committed
    COMMITTED = "committed"      # architectural value


class CoverageOutcome(enum.Enum):
    """What the scheme did about an SDC fault (Figures 8a and 11)."""

    RECOVERED = "recovered"            # end state matches golden
    DETECTED = "detected"              # declared (LSQ compare / exception)
    SECOND_LEVEL_MASKED = "second_level_masked"
    COMPLETED_REG = "completed_reg"    # fault in completed/committed register
    UNCOVERED_RENAME = "uncovered_rename"
    NO_TRIGGER = "no_trigger"          # fault fell in changing bit positions
    OTHER = "other"

    @property
    def is_covered(self) -> bool:
        return self in (CoverageOutcome.RECOVERED, CoverageOutcome.DETECTED)


@dataclass
class FaultRecord:
    """One injected fault and everything learned about it."""

    index: int
    site: FaultSite
    #: Total committed-instruction count at which the fault is injected —
    #: the scheme-invariant injection coordinate.
    inject_at_commit: int
    bit: int
    #: Site-specific coordinates.
    reg: Optional[int] = None            # REGFILE: physical register
    thread_id: Optional[int] = None      # RENAME / LSQ
    logical: Optional[int] = None        # RENAME: logical register
    lsq_slot: Optional[int] = None       # LSQ: entry choice
    lsq_field: Optional[str] = None      # LSQ: "addr" | "value"
    #: Status of the register at injection time (REGFILE only).
    reg_status: Optional[RegStatus] = None
    #: Whether the injection landed (LSQ may be empty at injection time).
    applied: bool = True
    #: Baseline classification (phase A).
    fault_class: Optional[FaultClass] = None
    #: Scheme outcome (phase B), per scheme name.
    outcomes: Dict[str, CoverageOutcome] = field(default_factory=dict)

    def fresh_copy(self) -> "FaultRecord":
        """An independent copy for replay phases.

        Re-running a fault mutates its record (``applied``,
        ``fault_class``, ``outcomes``), and the characterisation that
        planned it must stay pristine so serial, parallel and cache-hit
        paths agree bit-for-bit. Every field of this dataclass is an
        immutable scalar except ``outcomes``, so a ``replace`` plus one
        dict copy is a complete deep copy — no graph traversal needed.
        """
        return replace(self, outcomes=dict(self.outcomes))

    def describe(self) -> str:
        if self.site is FaultSite.REGFILE:
            where = f"p{self.reg} ({self.reg_status.value if self.reg_status else '?'})"
        elif self.site is FaultSite.RENAME:
            where = f"t{self.thread_id} r{self.logical}"
        else:
            where = f"t{self.thread_id} {self.lsq_field}[{self.lsq_slot}]"
        return (f"fault#{self.index} {self.site.value} {where} bit{self.bit} "
                f"@commit{self.inject_at_commit}")


__all__ = [
    "FaultSite",
    "SITE_PROPORTIONS",
    "FaultClass",
    "RegStatus",
    "CoverageOutcome",
    "FaultRecord",
]
