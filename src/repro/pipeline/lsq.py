"""Per-thread load-store queue.

Entries are the memory ops themselves in program order. Loads issue
speculatively past older stores with unresolved addresses; a load whose
address matches an older *resolved* store forwards the newest such store's
value. When a store resolves its address, younger already-completed loads
to the same address that did not forward from it (or something newer) are
memory-order violations and are squashed and re-fetched. Stores write
memory at commit. Between execution and commit the queue holds each op's
address (and store value) — the residency window the paper's LSQ fault
injection and commit-time check target (Section 3.5).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from .uops import MicroOp, OpState


class ForwardStatus(enum.Enum):
    """Outcome of a store-to-load forwarding probe.

    ``HIT``: the newest address-matching older store has a resolved value
    — forward it. ``MISS``: no older store matches — read memory.
    ``STALL``: the newest matching older store exists but its *value* is
    still unresolved; the load must not read memory (it would consume a
    stale value that ``violating_loads`` can never catch, because that
    check only re-fires on *address* resolution) and must retry later.

    Truthiness is "did we get a value to forward", so legacy
    ``hit, value, uid = forward_value(...)`` call sites keep working.
    """

    HIT = "hit"
    MISS = "miss"
    STALL = "stall"

    def __bool__(self) -> bool:
        return self is ForwardStatus.HIT


#: The value-less probe outcomes, prebuilt; and the member the violation
#: sweep tests, hoisted (no class-attribute walk per probe or per op).
_MISS_RESULT = (ForwardStatus.MISS, None, None)
_STALL_RESULT = (ForwardStatus.STALL, None, None)
_HIT = ForwardStatus.HIT
_COMPLETED = OpState.COMPLETED


class LoadStoreQueue:
    """Program-ordered window of in-flight memory operations."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._ops: List[MicroOp] = []

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self):
        return iter(self._ops)

    @property
    def full(self) -> bool:
        return len(self._ops) >= self.capacity

    def push(self, op: MicroOp) -> None:
        self._ops.append(op)

    def remove(self, op: MicroOp) -> None:
        self._ops.remove(op)

    def remove_younger_than(self, uid: int) -> None:
        self._ops = [op for op in self._ops if op.uid <= uid]

    def clear(self) -> None:
        self._ops.clear()

    def clone(self, clone_op) -> "LoadStoreQueue":
        """Copy for core forking; *clone_op* maps each op to its clone."""
        twin = LoadStoreQueue(self.capacity)
        twin._ops = [clone_op(op) for op in self._ops]
        return twin

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Event-skip contract: the queue never acts on its own. Entries
        resolve at issue/complete, forward at completion probes, and
        drain at commit — all driven by stages with their own event
        sources."""
        return None

    def older_stores_resolved(self, load: MicroOp) -> bool:
        """True when every store older than *load* has a known address."""
        for op in self._ops:
            if op.uid >= load.uid:
                break
            if op.is_store and op.eff_addr is None:
                return False
        return True

    def violating_loads(self, store: MicroOp) -> List[MicroOp]:
        """Younger completed loads to *store*'s address that consumed a
        stale value — memory-order violations exposed when *store*
        resolves. A load is safe only if it forwarded from this store or
        a younger one."""
        violations = []
        for op in self._ops:
            if (op.uid > store.uid and op.is_load
                    and op.state is _COMPLETED
                    and op.eff_addr == store.eff_addr
                    and (op.forwarded_from is None
                         # <= : a load that forwarded from this very store
                         # is stale too when the store re-resolves after a
                         # replay (its value may have been corrected)
                         or op.forwarded_from <= store.uid)):
                violations.append(op)
        return violations

    def forward_value(
            self, load: MicroOp, address: int
    ) -> Tuple[ForwardStatus, Optional[int], Optional[int]]:
        """Store-to-load forwarding probe: ``(status, value, store_uid)``
        against the newest older store to *address*.

        A matching store whose value is still pending yields ``STALL``,
        never a memory read: treating it as a miss would hand the load a
        stale memory value that no later check revisits (the
        memory-order-violation sweep in :meth:`violating_loads` only runs
        when a store resolves its *address*, which has already happened
        here). The probe is side-effect free.
        """
        best: Optional[MicroOp] = None
        for op in self._ops:
            if op.uid >= load.uid:
                break
            if op.is_store and op.eff_addr == address:
                best = op
        if best is None:
            return _MISS_RESULT
        if best.store_value is None:
            return _STALL_RESULT
        return _HIT, best.store_value, best.uid

    def resident(self, op: MicroOp) -> bool:
        return op in self._ops

    def executed_entries(self) -> List[MicroOp]:
        """Ops whose address is resolved and which await commit — the
        fault-injection target population for the LSQ."""
        return [op for op in self._ops if op.eff_addr is not None]


__all__ = ["ForwardStatus", "LoadStoreQueue"]
