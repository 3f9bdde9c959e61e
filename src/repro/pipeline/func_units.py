"""Per-cycle functional-unit issue bandwidth (Table 2: 4 ALU, 2 Mul, 2 FPU,
plus 2 data-cache ports for loads/stores)."""

from __future__ import annotations

from typing import Optional

from ..config import HardwareConfig
from ..isa.opcodes import (ALU_POOL, FPU_POOL, MEM_POOL, MUL_POOL, OpClass)

#: Data-cache ports — loads and stores issued per cycle. Table 2 does not
#: list this; two ports is the conventional value for a 4-wide core.
MEM_PORTS = 2


class FunctionalUnits:
    """How many ops each pool may still issue this cycle.

    ``free[pool]`` is the count left in the pool an instruction names by
    its ``fu_pool`` index (branches and other ops take an ALU, loads and
    stores share the memory ports). The issue stage claims a slot by
    decrementing the count; :meth:`new_cycle` renews the list. (A list
    indexed by int rather than a dict keyed by :class:`OpClass`: hashing
    an enum member runs Python-level code, once per claim.)
    """

    def __init__(self, hw: HardwareConfig):
        capacity = [0] * 4
        capacity[ALU_POOL] = hw.num_alus
        capacity[MUL_POOL] = hw.num_muls
        capacity[FPU_POOL] = hw.num_fpus
        capacity[MEM_POOL] = MEM_PORTS
        self.capacity = tuple(capacity)
        self.free = capacity

    def new_cycle(self) -> None:
        self.free = list(self.capacity)

    def clone(self) -> "FunctionalUnits":
        """Independent copy for core forking. Per-cycle availability is
        carried over verbatim, though ``new_cycle()`` rebuilds it at the
        start of every step anyway."""
        twin = FunctionalUnits.__new__(FunctionalUnits)
        twin.capacity = self.capacity
        twin.free = list(self.free)
        return twin

    def __setstate__(self, state) -> None:
        # checkpoint compatibility: units pickled as one counter per pool
        # (``_alu_limit`` ... and ``_alu`` ...) or, before that, as
        # OpClass-keyed dicts (``_limits``) rebuild the pool lists
        if "capacity" in state:
            self.__dict__.update(state)
            return
        limits = state.get("_limits")
        if limits is not None:
            capacity = (limits[OpClass.ALU], limits[OpClass.MUL],
                        limits[OpClass.FPU], MEM_PORTS)
            free = list(capacity)    # availability renews at the next step
        else:
            capacity = (state["_alu_limit"], state["_mul_limit"],
                        state["_fpu_limit"], MEM_PORTS)
            free = [state["_alu"], state["_mul"], state["_fpu"],
                    state["_mem"]]
        self.capacity = capacity
        self.free = free

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Event-skip contract: bandwidth renews every cycle via
        ``new_cycle``, so exhausted units never block anything across a
        cycle boundary — no autonomous events."""
        return None


__all__ = ["FunctionalUnits", "MEM_PORTS"]
