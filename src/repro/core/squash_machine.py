"""Squash state machines: distinguishing rename faults (Section 3.4).

A rename fault does not change a value — it makes computation consume an
unintended (but unchanged) value, which both disrupts value locality *and*
changes the identity of the closest-matching filter. One 8-state biased
machine per TCAM entry tracks whether that entry was the closest-matching
filter in any of the last several replay triggers; a trigger closest to an
entry that has been quiet for 7 consecutive triggers signals a likely
rename fault and licenses a full pipeline squash.
"""

from __future__ import annotations

from .state_machines import SlicedBiasedMachines


class SquashMachineBank:
    """One biased machine per first-level TCAM entry, bit-sliced (one
    :class:`SlicedBiasedMachines` lane per entry)."""

    def __init__(self, entries: int, num_states: int = 8):
        if num_states < 2:
            raise ValueError("squash machines need >= 2 states")
        self._machines = SlicedBiasedMachines(entries, num_states - 1)
        self.squashes_allowed = 0
        self.squashes_suppressed = 0

    def __setstate__(self, state: dict) -> None:
        machines = state["_machines"]
        if isinstance(machines, list):   # pickled as scalar machines
            state["_machines"] = SlicedBiasedMachines.from_machines(machines)
        self.__dict__.update(state)

    def __len__(self) -> int:
        return self._machines.lanes

    def observe_trigger(self, closest_index: int) -> bool:
        """Process one replay trigger whose closest-matching filter is
        *closest_index*; return True when a squash is licensed.

        Every machine advances: the closest entry records a trigger, all
        other entries count a no-trigger toward re-arming.
        """
        closest = 1 << closest_index if closest_index >= 0 else 0
        if self._machines.observe(closest):
            self.squashes_allowed += 1
            return True
        self.squashes_suppressed += 1
        return False

    def clone(self) -> "SquashMachineBank":
        """Independent copy for core forking (checkpoint protocol)."""
        twin = SquashMachineBank.__new__(SquashMachineBank)
        twin._machines = self._machines.clone()
        twin.squashes_allowed = self.squashes_allowed
        twin.squashes_suppressed = self.squashes_suppressed
        return twin

    def entry_replaced(self, index: int) -> None:
        """A TCAM entry was replaced: its identity history is void, so
        saturate its machine (a fresh entry must re-earn squash rights)."""
        self._machines.saturate(index)

    def state_of(self, index: int) -> int:
        return self._machines.state(index)


__all__ = ["SquashMachineBank"]
