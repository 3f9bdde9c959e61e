"""Issue queue with FaultHound's completed-instruction delay buffer.

Conventionally, completed instructions vacate the issue queue immediately.
FaultHound (Section 3.3) delays that exit: the last few completed
instructions linger — tracked here by a small FIFO "delay buffer" — so a
soft-fault trigger can mark *preceding* instructions for replay. A
newly-dispatching instruction that needs a slot may evict a lingering
completed instruction, in which case the whole delay buffer is squashed
(the paper's best-effort rule), costing only marginal coverage.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional

from .uops import MicroOp, OpState

#: Hoisted: tested or assigned for every queued op (no class-attribute
#: walk per use).
_WAITING = OpState.WAITING


class DelayBuffer:
    """FIFO of recently completed ops still occupying issue-queue slots.

    The complete stage fills it (``PipelineCore._try_complete``): each
    completing op joins the tail with ``in_delay_buffer`` set, and once
    more than ``capacity`` linger the head ages out and finally vacates
    its issue-queue slot. With ``capacity`` 0 a completing op leaves the
    queue at once.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._ops: Deque[MicroOp] = deque()
        self.squashes = 0

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self):
        return iter(self._ops)

    def remove(self, op: MicroOp) -> None:
        if op.in_delay_buffer:
            op.in_delay_buffer = False
            self._ops.remove(op)

    def clone(self, clone_op) -> "DelayBuffer":
        """Copy for core forking; *clone_op* maps each op to its clone."""
        twin = DelayBuffer(self.capacity)
        twin._ops = deque(clone_op(op) for op in self._ops)
        twin.squashes = self.squashes
        return twin

    def squash(self) -> List[MicroOp]:
        """Drop every buffered op (they lose their replay opportunity)."""
        dropped = list(self._ops)
        for op in dropped:
            op.in_delay_buffer = False
        self._ops.clear()
        self.squashes += 1
        return dropped

    def predecessors_of(self, uid: int) -> List[MicroOp]:
        """Buffered ops older than *uid* — the replay candidates."""
        return [op for op in self._ops if op.uid < uid]

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Event-skip contract: the delay buffer never acts on its own —
        aging is driven by completions and evictions by dispatches, both
        of which have their own event sources."""
        return None


class IssueQueue:
    """Shared out-of-order scheduling window.

    Ops occupy a slot from dispatch until they age out of the delay
    buffer after completing, are evicted by a dispatching newcomer,
    commit, or are squashed. Replay-marked ops revert to WAITING in place.

    ``_ops`` is an insertion-ordered dict used as an ordered set (values
    are unused): iteration is dispatch order, and removal — at every
    commit, completion, eviction and squash — is O(1).
    """

    def __init__(self, capacity: int, delay_buffer_size: int):
        self.capacity = capacity
        self.delay_buffer = DelayBuffer(delay_buffer_size)
        self._ops: Dict[MicroOp, None] = {}

    def __setstate__(self, state) -> None:
        # queues pickled when ``_ops`` was a list restore as the ordered
        # dict, in the same order (checkpoint compatibility)
        self.__dict__.update(state)
        if isinstance(self._ops, list):
            self._ops = dict.fromkeys(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self):
        return iter(self._ops)

    def __contains__(self, op: MicroOp) -> bool:
        return op in self._ops

    @property
    def empty(self) -> bool:
        return not self._ops

    @property
    def has_free_slot(self) -> bool:
        return len(self._ops) < self.capacity

    def can_accept(self) -> bool:
        """A newcomer fits if there is a free slot or an evictable
        (completed, delay-buffered) op."""
        return self.has_free_slot or len(self.delay_buffer) > 0

    def insert(self, op: MicroOp) -> bool:
        """Dispatch *op* into the queue; returns False when full.

        Eviction of a completed op squashes the entire delay buffer
        (Section 3.3: later buffered ops must not wait on a replaced one).
        """
        ops = self._ops
        if len(ops) >= self.capacity:
            if not self.delay_buffer:
                return False
            for dropped in self.delay_buffer.squash():
                ops.pop(dropped, None)
        ops[op] = None
        op.state = _WAITING
        return True

    def remove(self, op: MicroOp) -> None:
        if op.in_delay_buffer:
            self.delay_buffer.remove(op)
        self._ops.pop(op, None)

    def clone(self, clone_op) -> "IssueQueue":
        """Copy for core forking; *clone_op* maps each op to its clone,
        preserving op identity with the cloned ROB/LSQ/executing list."""
        twin = IssueQueue.__new__(IssueQueue)
        twin.capacity = self.capacity
        twin.delay_buffer = self.delay_buffer.clone(clone_op)
        twin._ops = dict.fromkeys(map(clone_op, self._ops))
        return twin

    def waiting_ops(self) -> Iterator[MicroOp]:
        """Schedulable candidates, oldest-first.

        ``_ops`` is kept in dispatch order, which is age order per thread
        (and nearly so globally); replay-marked ops re-enter WAITING in
        place, preserving their position. Avoiding a per-cycle sort is a
        measurable win in the hottest loop, and the lazy generator lets
        the issue stage stop scanning the moment its width budget runs
        out (issuing flips states but never mutates the queue itself, so
        iterating live is safe)."""
        for op in self._ops:
            if op.state is _WAITING:
                yield op

    def next_event_cycle(self, now: int, ready: List[bool],
                         cannot_issue=None) -> Optional[int]:
        """Event-skip contract: the earliest future cycle at which the
        issue stage can act, or None when every queued op is blocked on
        events tracked elsewhere (operand readiness changes only at
        completion; dispatch inserts have frontend events).

        A WAITING op with every source ready issues next cycle —
        functional-unit bandwidth renews every cycle, so readiness is the
        only persistent gate. *cannot_issue* (when given) is a pure
        predicate refining that: the core passes the store-to-load STALL
        probe, whose loads retry every cycle without changing any state.
        """
        for op in self._ops:
            if op.state is not _WAITING:
                continue
            srcs_ready = True
            for phys in op.phys_srcs:
                if not ready[phys]:
                    srcs_ready = False
                    break
            if not srcs_ready:
                continue
            if cannot_issue is not None and cannot_issue(op):
                continue
            return now + 1
        return None

    def mark_predecessors_for_replay(self, trigger_uid: int) -> List[MicroOp]:
        """Flip every delay-buffered predecessor of *trigger_uid* back to
        WAITING; returns the marked ops."""
        marked = []
        for op in self.delay_buffer.predecessors_of(trigger_uid):
            self.delay_buffer.remove(op)
            op.mark_for_replay()
            marked.append(op)
        return marked


__all__ = ["DelayBuffer", "IssueQueue"]
