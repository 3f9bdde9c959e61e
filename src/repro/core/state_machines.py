"""Per-bit state machines (paper Figure 2 and Sections 3.2/3.4).

Three machine shapes appear in the paper:

- :class:`StickyCounter` — PBFS's one-bit counter: saturates at "changing"
  on the first change and stays there until a periodic flash clear.
- :class:`StandardCounter` — Figure 2(a): a conventional saturating counter
  with direct to-and-fro transitions between "unchanging" (U) and the first
  changing state (C1).
- :class:`BiasedMachine` — Figure 2(b): a change jumps straight to the
  deepest changing state; reaching U requires ``num_changing_states``
  consecutive no-changes. The same shape, with 7 changing states, is reused
  by the second-level filter ("7 consecutive no-alarms before allowing an
  alarm") and the squash machines ("7 consecutive no-triggers").

All machines share one convention: ``observe(event)`` advances the machine
and returns True exactly when the event arrived while the machine was in
the U state — a change out of "unchanging" (first level), an alarm out of
"quiet" (second level), a trigger out of "stable identity" (squash).
"""

from __future__ import annotations


class StickyCounter:
    """PBFS's one-bit sticky counter (Section 2.1)."""

    __slots__ = ("changing",)

    def __init__(self) -> None:
        self.changing = False

    def observe(self, changed: bool) -> bool:
        """Advance on one value observation; return True on an alarm."""
        if not changed:
            return False
        alarm = not self.changing
        self.changing = True
        return alarm

    def flash_clear(self) -> None:
        """Periodic clear back to "unchanging" (the only way out)."""
        self.changing = False

    def clone(self) -> "StickyCounter":
        twin = StickyCounter()
        twin.changing = self.changing
        return twin

    @property
    def is_changing(self) -> bool:
        return self.changing

    @property
    def state(self) -> int:
        return 1 if self.changing else 0


class StandardCounter:
    """Figure 2(a): symmetric saturating counter, U <-> C1 <-> ... <-> Cn."""

    __slots__ = ("state", "num_changing_states")

    def __init__(self, num_changing_states: int = 3) -> None:
        if num_changing_states < 1:
            raise ValueError("need at least one changing state")
        self.num_changing_states = num_changing_states
        self.state = 0  # 0 == U; 1..n == C1..Cn

    def observe(self, changed: bool) -> bool:
        if changed:
            alarm = self.state == 0
            if self.state < self.num_changing_states:
                self.state += 1
            return alarm
        if self.state:
            self.state -= 1
        return False

    def clone(self) -> "StandardCounter":
        twin = StandardCounter(self.num_changing_states)
        twin.state = self.state
        return twin

    @property
    def is_changing(self) -> bool:
        return self.state != 0


class BiasedMachine:
    """Figure 2(b): biased machine that re-enters U slowly.

    A change (event) jumps to the deepest changing state; each no-change
    decrements toward U. With ``num_changing_states=2`` this is exactly
    Figure 2(b): two consecutive no-changes after a change to reach U, a
    single change to leave it. With ``num_changing_states=7`` (8 states) it
    is the second-level / squash machine of Sections 3.2 and 3.4.
    """

    __slots__ = ("state", "num_changing_states")

    def __init__(self, num_changing_states: int = 2) -> None:
        if num_changing_states < 1:
            raise ValueError("need at least one changing state")
        self.num_changing_states = num_changing_states
        self.state = 0

    def observe(self, changed: bool) -> bool:
        if changed:
            alarm = self.state == 0
            self.state = self.num_changing_states
            return alarm
        if self.state:
            self.state -= 1
        return False

    def saturate(self) -> None:
        """Force the deepest changing state (used when a squash machine's
        TCAM entry is replaced: the new filter's identity is unproven)."""
        self.state = self.num_changing_states

    def clone(self) -> "BiasedMachine":
        twin = BiasedMachine(self.num_changing_states)
        twin.state = self.state
        return twin

    @property
    def is_changing(self) -> bool:
        return self.state != 0


class SlicedBiasedMachines:
    """A row of :class:`BiasedMachine` lanes as bit-sliced counters.

    Lane *i*'s state is bit *i* of each ``planes[j]`` (plane 0 the least
    significant), so one step of every lane is a few int operations,
    whatever the lane count::

        alarm = change & ~nonzero            # an event while in U
        quiet non-zero lanes count down      # borrow ripple over the planes
        changed lanes jump to the deepest changing state

    The second-level filter (one lane per bit position) and the squash
    machines (one lane per TCAM entry) are rows of these; the scalar
    :class:`BiasedMachine` stays the reference they are tested against.
    """

    __slots__ = ("planes", "top", "lanes")

    def __init__(self, lanes: int, num_changing_states: int) -> None:
        if num_changing_states < 1:
            raise ValueError("need at least one changing state")
        self.lanes = lanes
        self.top = num_changing_states
        self.planes = [0] * num_changing_states.bit_length()

    @classmethod
    def from_machines(cls, machines) -> "SlicedBiasedMachines":
        """Lanes holding the states of scalar *machines*, in order (how a
        row pickled as a list of :class:`BiasedMachine` loads)."""
        row = cls(len(machines), machines[0].num_changing_states)
        for lane, machine in enumerate(machines):
            for j in range(len(row.planes)):
                if machine.state >> j & 1:
                    row.planes[j] |= 1 << lane
        return row

    @property
    def nonzero(self) -> int:
        """Lanes in a changing state (not U)."""
        mask = 0
        for plane in self.planes:
            mask |= plane
        return mask

    def observe(self, change: int) -> int:
        """Advance every lane, lane *i* seeing an event when bit *i* of
        *change* is set; returns the lanes that alarmed."""
        change &= (1 << self.lanes) - 1
        planes = self.planes
        nonzero = self.nonzero
        alarm = change & ~nonzero
        borrow = nonzero & ~change
        top = self.top
        for j, plane in enumerate(planes):
            counted = plane ^ borrow
            borrow &= ~plane
            if top >> j & 1:
                planes[j] = counted | change
            else:
                planes[j] = counted & ~change
        return alarm

    def saturate(self, lane: int) -> None:
        """Force *lane* into the deepest changing state."""
        bit = 1 << lane
        planes = self.planes
        for j in range(len(planes)):
            if self.top >> j & 1:
                planes[j] |= bit
            else:
                planes[j] &= ~bit

    def state(self, lane: int) -> int:
        return sum((plane >> lane & 1) << j
                   for j, plane in enumerate(self.planes))

    def clone(self) -> "SlicedBiasedMachines":
        twin = SlicedBiasedMachines.__new__(SlicedBiasedMachines)
        twin.lanes = self.lanes
        twin.top = self.top
        twin.planes = list(self.planes)
        return twin


__all__ = ["StickyCounter", "StandardCounter", "BiasedMachine",
           "SlicedBiasedMachines"]
