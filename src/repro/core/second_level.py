"""Second-level filter: masking delinquent bit positions (Section 3.2).

One instance exists per TCAM. For each of the 64 bit positions it keeps an
8-state biased machine that remembers whether *any* first-level filter
reported a non-match in that position during any of the last several replay
triggers. A newly-alarming position (7 consecutive trigger events without
that position alarming) is allowed through — likely a fault; a recently
delinquent position is suppressed — likely a false positive.
"""

from __future__ import annotations

from ..config import VALUE_MASK
from .state_machines import SlicedBiasedMachines


class SecondLevelFilter:
    """64 per-bit-position biased machines, advanced on every trigger.

    The machines are bit-sliced (:class:`SlicedBiasedMachines`), one lane
    per bit position, so a trigger advances all of them in a few int
    operations and a clone copies a handful of ints.
    """

    def __init__(self, num_states: int = 8, value_bits: int = 64):
        if num_states < 2:
            raise ValueError("second-level filter needs >= 2 states")
        self._machines = SlicedBiasedMachines(value_bits, num_states - 1)
        self.observed_triggers = 0
        self.suppressed_triggers = 0

    def __setstate__(self, state: dict) -> None:
        machines = state["_machines"]
        if isinstance(machines, list):   # pickled as scalar machines
            state["_machines"] = SlicedBiasedMachines.from_machines(machines)
        self.__dict__.update(state)

    def observe_trigger(self, mismatch_mask: int) -> int:
        """Process one replay trigger whose non-matching positions are
        *mismatch_mask*; return the subset of positions allowed to alarm.

        Every machine advances: alarming positions record the non-match
        (even when suppressed — "though the state machine transitions to
        record the non-match"), quiet positions count a no-alarm toward
        re-arming.
        """
        mismatch_mask &= VALUE_MASK
        allowed = self._machines.observe(mismatch_mask)
        self.observed_triggers += 1
        if mismatch_mask and not allowed:
            self.suppressed_triggers += 1
        return allowed

    def clone(self) -> "SecondLevelFilter":
        """Independent copy for core forking (checkpoint protocol)."""
        twin = SecondLevelFilter.__new__(SecondLevelFilter)
        twin._machines = self._machines.clone()
        twin.observed_triggers = self.observed_triggers
        twin.suppressed_triggers = self.suppressed_triggers
        return twin

    def allows(self, mismatch_mask: int) -> bool:
        """Side-effect-free: would any position in *mismatch_mask* alarm?"""
        return bool(mismatch_mask & VALUE_MASK & ~self._machines.nonzero)

    @property
    def delinquent_mask(self) -> int:
        """Positions currently suppressed (machine not in the allow state)."""
        return self._machines.nonzero


__all__ = ["SecondLevelFilter"]
