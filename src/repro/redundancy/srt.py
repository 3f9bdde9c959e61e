"""SRT and SRT-iso: redundant-multithreading comparison points.

The paper compares against an idealised SRT [21]: each leading thread has
a trailing copy on the same core which never mispredicts (branch outcome
queue) and never misses the cache (load value queue), paying only the
resource pressure of its instructions. *SRT-iso* further runs the trailing
copy for only a fraction of the program equal to FaultHound's coverage, so
the two schemes are compared at matched coverage.

Here a trailing copy is a real extra SMT context executing the same
program with ``ideal_branch``/``ideal_memory`` set and ``max_commits``
capping it at the coverage fraction. Energy and slowdown then emerge from
the shared-resource contention the paper describes rather than from an
analytic adder. The baseline for comparison runs the same leading threads
without the trailing contexts.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from ..config import HardwareConfig
from ..errors import ConfigurationError
from ..isa.interpreter import golden_trace
from ..isa.program import Program
from ..pipeline.core import PipelineCore


def dynamic_length(program: Program, cap: int = 2_000_000) -> int:
    """Committed-instruction count of *program*, at most *cap* (from its
    golden interpretation, shared with the trailing threads' branch
    oracle)."""
    return golden_trace(program, cap).dynamic_length(cap)


def srt_iso_core(programs: Sequence[Program],
                 hw: Optional[HardwareConfig] = None,
                 coverage: float = 1.0,
                 lengths: Optional[Sequence[int]] = None) -> PipelineCore:
    """Build a core running *programs* plus their SRT trailing copies.

    ``coverage=1.0`` is plain SRT (full redundancy); smaller values give
    SRT-iso at that coverage. *lengths* (committed instructions per leading
    program) may be passed to avoid re-interpreting; they are computed
    otherwise.
    """
    if not 0.0 <= coverage <= 1.0:
        raise ConfigurationError("coverage must be within [0, 1]")
    hw = hw or HardwareConfig()
    contexts = 2 * len(programs)
    hw_srt = replace(hw, smt_contexts=contexts)

    if lengths is None:
        lengths = [dynamic_length(p) for p in programs]

    all_programs: List[Program] = list(programs) + list(programs)
    options: List[dict] = [{} for _ in programs]
    for length in lengths:
        max_commits = max(1, int(coverage * length))
        options.append({
            "ideal_branch": True,
            "ideal_memory": True,
            "max_commits": max_commits,
        })
    return PipelineCore(all_programs, hw=hw_srt, thread_options=options)


__all__ = ["srt_iso_core", "dynamic_length"]
