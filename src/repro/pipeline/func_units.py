"""Per-cycle functional-unit issue bandwidth (Table 2: 4 ALU, 2 Mul, 2 FPU,
plus 2 data-cache ports for loads/stores)."""

from __future__ import annotations

from typing import Optional

from ..config import HardwareConfig
from ..isa.opcodes import OpClass

#: Data-cache ports — loads and stores issued per cycle. Table 2 does not
#: list this; two ports is the conventional value for a 4-wide core.
MEM_PORTS = 2

_ALU = OpClass.ALU
_MUL = OpClass.MUL
_FPU = OpClass.FPU
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH
_OTHER = OpClass.OTHER


class FunctionalUnits:
    """Tracks how many ops of each class may still issue this cycle.

    One plain int counter per pool: branches and other ops take an ALU,
    loads and stores share the memory ports. (Counters rather than a dict
    keyed by :class:`OpClass`: hashing an enum member runs Python-level
    code, once per claim.)
    """

    def __init__(self, hw: HardwareConfig):
        self._alu_limit = hw.num_alus
        self._mul_limit = hw.num_muls
        self._fpu_limit = hw.num_fpus
        self.new_cycle()

    def new_cycle(self) -> None:
        self._alu = self._alu_limit
        self._mul = self._mul_limit
        self._fpu = self._fpu_limit
        self._mem = MEM_PORTS

    def clone(self) -> "FunctionalUnits":
        """Independent copy for core forking. Per-cycle availability is
        carried over verbatim, though ``new_cycle()`` rebuilds it at the
        start of every step anyway."""
        twin = FunctionalUnits.__new__(FunctionalUnits)
        twin.__dict__.update(self.__dict__)
        return twin

    def __setstate__(self, state) -> None:
        # units pickled when the pools were OpClass-keyed dicts carry
        # ``_limits``; rebuild the counters from it (checkpoint
        # compatibility — availability renews at the next step anyway)
        limits = state.get("_limits")
        if limits is not None:
            state = {"_alu_limit": limits[_ALU], "_mul_limit": limits[_MUL],
                     "_fpu_limit": limits[_FPU]}
        self.__dict__.update(state)
        if limits is not None:
            self.new_cycle()

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Event-skip contract: bandwidth renews every cycle via
        ``new_cycle``, so exhausted units never block anything across a
        cycle boundary — no autonomous events."""
        return None

    def try_claim(self, op_class: OpClass) -> bool:
        """Claim an issue slot for *op_class*; False when exhausted."""
        if op_class is _ALU or op_class is _BRANCH or op_class is _OTHER:
            if self._alu <= 0:
                return False
            self._alu -= 1
            return True
        if op_class is _LOAD or op_class is _STORE:
            if self._mem <= 0:
                return False
            self._mem -= 1
            return True
        if op_class is _MUL:
            if self._mul <= 0:
                return False
            self._mul -= 1
            return True
        if op_class is _FPU:
            if self._fpu <= 0:
                return False
            self._fpu -= 1
            return True
        raise KeyError(op_class)


__all__ = ["FunctionalUnits", "MEM_PORTS"]
