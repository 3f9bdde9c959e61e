"""Per-thread re-order buffer: program-ordered in-flight ops."""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Optional

from .uops import MicroOp, OpState

#: Hoisted: the fast-forward scan tests every thread's head each step.
_COMPLETED = OpState.COMPLETED


class ReorderBuffer:
    """FIFO of dispatched, uncommitted micro-ops for one thread."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._ops: Deque[MicroOp] = deque()

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self._ops)

    @property
    def full(self) -> bool:
        return len(self._ops) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._ops

    def push(self, op: MicroOp) -> None:
        self._ops.append(op)

    def head(self) -> Optional[MicroOp]:
        return self._ops[0] if self._ops else None

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Event-skip contract: the earliest future cycle at which the
        commit stage can act on this buffer, or None when no such cycle
        exists without outside help.

        Commit acts exactly when the head is COMPLETED — that covers
        retirement, exception delivery, and the per-cycle
        ``singleton_stall`` decrement. Any other head state (or an empty
        buffer) is a stall only the complete stage can clear, and
        completion has its own event source.
        """
        ops = self._ops
        if ops and ops[0].state is _COMPLETED:
            return now + 1
        return None

    def pop_head(self) -> MicroOp:
        return self._ops.popleft()

    def drain_all(self) -> List[MicroOp]:
        """Remove and return every op (full rollback)."""
        drained = list(self._ops)
        self._ops.clear()
        return drained

    def clone(self, clone_op) -> "ReorderBuffer":
        """Copy for core forking; *clone_op* maps each op to its clone."""
        twin = ReorderBuffer(self.capacity)
        twin._ops = deque(clone_op(op) for op in self._ops)
        return twin

    def drain_younger_than(self, uid: int) -> List[MicroOp]:
        """Remove and return ops with uid greater than *uid*, youngest
        first (the order a walk-based rename restore needs)."""
        drained = []
        while self._ops and self._ops[-1].uid > uid:
            drained.append(self._ops.pop())
        return drained


__all__ = ["ReorderBuffer"]
