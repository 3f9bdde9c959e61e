"""Fault-injection campaigns: characterisation and coverage phases.

Phase A (Figure 7) injects the planned fault list into a *baseline* core
(no screening) and bins each fault masked / noisy / SDC. Phase B
(Figures 8a, 11) replays exactly the SDC faults against a screening scheme
and records what the scheme did about each: recovered, detected, or one of
the paper's uncovered categories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.screening import ScreeningUnit
from ..obs.metrics import NULL_METRICS
from ..pipeline.core import PipelineCore
from .classifier import TandemClassifier, WindowResult
from .injector import FaultInjector
from .model import (CoverageOutcome, FaultClass, FaultRecord, FaultSite,
                    RegStatus)


@dataclass
class ThroughputRecord:
    """How fast one campaign phase ran (surfaced in campaign results so
    parallel/cache speedups are measurable, not anecdotal)."""

    phase: str                  # "characterize" | "coverage" | ...
    windows: int = 0
    wall_seconds: float = 0.0
    jobs: int = 1
    from_cache: bool = False
    #: Checkpoint instrumentation for the parallel window fan-out: how
    #: many chunk-boundary checkpoints the dispatcher captured fresh vs
    #: reloaded from the artifact cache, and the wall-clock of its one
    #: golden pass (zero when every boundary was a cache hit).
    checkpoints_captured: int = 0
    checkpoint_hits: int = 0
    golden_pass_seconds: float = 0.0
    #: Supervisor instrumentation (zero for cache hits): retry /
    #: watchdog / pool-rebuild counts, windows quarantined as poison,
    #: and chunks adopted from a prior run's journal by `repro resume`.
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    quarantined: int = 0
    chunks_resumed: int = 0

    @property
    def windows_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.windows / self.wall_seconds


@dataclass
class CampaignResult:
    """Aggregated outcome of one (workload, scheme) campaign."""

    benchmark: str
    scheme: str
    records: List[FaultRecord]
    characterization: List[WindowResult] = field(default_factory=list)
    coverage_results: List[WindowResult] = field(default_factory=list)
    outcomes: Dict[int, CoverageOutcome] = field(default_factory=dict)
    #: Execution-speed instrumentation for the phase that produced this
    #: result (None for results assembled outside the harness).
    throughput: Optional[ThroughputRecord] = None
    #: Windows the supervisor quarantined as poison instead of running
    #: (:class:`repro.harness.supervisor.QuarantineRecord` instances);
    #: empty on healthy campaigns. Aggregates above are
    #: computed over the windows that *did* run.
    quarantined: List[object] = field(default_factory=list)

    # -- Figure 7 ----------------------------------------------------------
    def applied_count(self) -> int:
        return sum(1 for r in self.characterization if r.applied)

    def class_fraction(self, fault_class: FaultClass) -> float:
        applied = self.applied_count()
        if not applied:
            return 0.0
        hits = sum(1 for r in self.characterization
                   if r.applied and r.fault_class is fault_class)
        return hits / applied

    # -- Figure 8a ---------------------------------------------------------
    @property
    def sdc_count(self) -> int:
        return len(self.outcomes)

    @property
    def covered_count(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.is_covered)

    @property
    def coverage(self) -> float:
        """Fraction of SDC faults the scheme recovered or detected."""
        if not self.outcomes:
            return 0.0
        return self.covered_count / len(self.outcomes)

    def coverage_interval(self):
        """Wilson 95% interval for the coverage estimate — the SDC sample
        per benchmark is small at laptop scale, so EXPERIMENTS.md reports
        these alongside the point estimates."""
        from ..analysis.stats import proportion
        return proportion(self.covered_count, len(self.outcomes))

    # -- Figure 11 ---------------------------------------------------------
    def outcome_fraction(self, outcome: CoverageOutcome) -> float:
        if not self.outcomes:
            return 0.0
        return (sum(1 for o in self.outcomes.values() if o is outcome)
                / len(self.outcomes))

    def breakdown(self) -> Dict[str, float]:
        bins = {
            "covered": self.coverage,
            "second_level_masked": self.outcome_fraction(
                CoverageOutcome.SECOND_LEVEL_MASKED),
            "completed_committed_reg": self.outcome_fraction(
                CoverageOutcome.COMPLETED_REG),
            "uncovered_rename": self.outcome_fraction(
                CoverageOutcome.UNCOVERED_RENAME),
            "no_trigger": self.outcome_fraction(CoverageOutcome.NO_TRIGGER),
            "other": self.outcome_fraction(CoverageOutcome.OTHER),
        }
        return bins


class Campaign:
    """Plans and runs the two campaign phases for one workload."""

    def __init__(self, benchmark: str,
                 baseline_factory: Callable[[], PipelineCore],
                 num_phys_regs: int, num_threads: int,
                 num_faults: int = 200, seed: int = 1,
                 warmup_commits: int = 500, window_commits: int = 300,
                 max_window_cycles: int = 60_000,
                 batch_lanes: int = 1,
                 metrics=NULL_METRICS):
        self.benchmark = benchmark
        self.baseline_factory = baseline_factory
        self.metrics = metrics
        self.num_faults = num_faults
        self.seed = seed
        self.warmup_commits = warmup_commits
        self.window_commits = window_commits
        self.max_window_cycles = max_window_cycles
        #: Lane-batch width handed to every classifier this campaign
        #: builds (serial, parallel chunk workers, supervisor — all of
        #: which rebuild the campaign from the same config, so the knob
        #: follows automatically). 1 = scalar tandem.
        self.batch_lanes = batch_lanes
        self.injector = FaultInjector(seed, num_phys_regs, num_threads)
        # Injection points evenly spaced one run-window apart, so the
        # serial golden run never has to rewind (classifier contract).
        self.records = self.injector.plan(
            num_faults, warmup_commits, num_faults * window_commits)
        self._space_records()

    def _space_records(self) -> None:
        for i, record in enumerate(self.records):
            record.inject_at_commit = (self.warmup_commits
                                       + i * self.window_commits)

    def classifier(self, factory, metrics=None) -> TandemClassifier:
        """A tandem classifier over this campaign's window geometry (also
        used by parallel window-chunk workers, which pass their own
        per-process *metrics* accumulator)."""
        # explicit None check: an empty-but-live registry is falsy
        # (len 0), and `or` would silently drop it
        return TandemClassifier(factory, self.injector,
                                window_commits=self.window_commits,
                                max_window_cycles=self.max_window_cycles,
                                batch_lanes=self.batch_lanes,
                                metrics=(metrics if metrics is not None
                                         else self.metrics))

    # ------------------------------------------------------------------
    def characterize(self) -> CampaignResult:
        """Phase A: masked / noisy / SDC binning on the baseline core."""
        result = CampaignResult(self.benchmark, "baseline", self.records)
        result.characterization = self.classifier(
            self.baseline_factory).run(self.records)
        return result

    def run_coverage(self, scheme_name: str,
                     scheme_factory: Callable[[], PipelineCore],
                     characterization: CampaignResult) -> CampaignResult:
        """Phase B: rerun this campaign's SDC faults under a scheme."""
        sdc_records = self.sdc_records(characterization)
        windows = self.classifier(scheme_factory).run(sdc_records)
        return self.collect_coverage(scheme_name, characterization, windows)

    @staticmethod
    def sdc_records(characterization: CampaignResult) -> List[FaultRecord]:
        """The SDC subset a coverage phase replays, in injection order.

        Returned as fresh copies: the replay re-applies each fault and
        mutates its record, and the characterisation must stay pristine so
        serial, parallel and cache-hit paths agree bit-for-bit.
        """
        return [r.record.fresh_copy()
                for r in characterization.characterization
                if r.applied and r.fault_class is FaultClass.SDC]

    def collect_coverage(self, scheme_name: str,
                         characterization: CampaignResult,
                         windows: Sequence[WindowResult]) -> CampaignResult:
        """Assemble a coverage result from already-classified windows (the
        serial tail of :meth:`run_coverage`; also the merge point for
        window chunks classified by parallel workers)."""
        result = CampaignResult(self.benchmark, scheme_name,
                                [w.record for w in windows])
        result.characterization = characterization.characterization
        result.coverage_results = list(windows)
        for window in windows:
            if not window.applied:
                continue
            result.outcomes[window.record.index] = _attribute(window)
        return result


def _attribute(window: WindowResult) -> CoverageOutcome:
    """Bin one SDC fault's scheme outcome (Figure 11 categories)."""
    record = window.record
    if window.state_equal:
        return CoverageOutcome.RECOVERED
    if window.declared > 0 or window.extra_exceptions > 0:
        return CoverageOutcome.DETECTED
    if record.site is FaultSite.RENAME:
        return CoverageOutcome.UNCOVERED_RENAME
    if window.triggers == 0:
        return CoverageOutcome.NO_TRIGGER
    recovery_actions = window.replays + window.rollbacks + window.singletons
    if window.suppressions > 0 and recovery_actions == 0:
        return CoverageOutcome.SECOND_LEVEL_MASKED
    if (record.site is FaultSite.REGFILE
            and record.reg_status in (RegStatus.COMPLETED,
                                      RegStatus.COMMITTED)):
        return CoverageOutcome.COMPLETED_REG
    return CoverageOutcome.OTHER


__all__ = ["Campaign", "CampaignResult", "ThroughputRecord"]
