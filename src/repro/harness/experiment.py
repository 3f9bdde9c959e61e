"""Experiment configuration, scheme registry and cached runners.

Every figure regeneration flows through an :class:`ExperimentContext`,
which caches the expensive artefacts — generated programs, fault-free
timing/energy runs, and fault-injection campaigns — so the benches for
Figures 8, 9, 10, 11 and 12 can share work.

A campaign phase (characterisation, or one scheme's coverage) has one
route: :meth:`ExperimentContext.run_phase` hands its fault windows to
:meth:`Supervisor.classify_windows <repro.harness.supervisor.Supervisor.
classify_windows>`, whether or not the caller asked for supervision —
without a supervisor the context builds a journal-less one.

The default scale is laptop-sized (thousands of instructions, tens of
faults per benchmark); the paper's scale (50M-instruction SimPoints,
15,000 faults) is reachable by raising the config numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..config import FaultHoundConfig, HardwareConfig, PBFSConfig
from ..core import FaultHoundUnit, NullScreeningUnit, PBFSUnit
from ..core.screening import ScreeningUnit
from ..energy import EnergyBreakdown, EnergyModel
from ..faults import Campaign, CampaignResult
from ..faults.campaign import ThroughputRecord
from ..analysis.metrics import fp_rate
from ..obs.audit import audit_records
from ..obs.events import NULL_LOG
from ..obs.metrics import NULL_METRICS, SECONDS_BUCKETS
from ..obs.manifest import build_manifest, manifest_path_for, write_manifest
from ..pipeline import PipelineCore
from ..redundancy import dynamic_length, srt_iso_core
from ..workloads import PROFILES, build_smt_programs
from .cache import ArtifactCache
from . import parallel as _parallel
from .parallel import ContextMetrics, ParallelExecutor
from .supervisor import Supervisor, SupervisorPolicy

# ----------------------------------------------------------------------
# scheme registry
# ----------------------------------------------------------------------
_BE = dict(squash_detection=False)

SCHEMES: Dict[str, Callable[[], ScreeningUnit]] = {
    "baseline": NullScreeningUnit,
    "pbfs": lambda: PBFSUnit(PBFSConfig()),
    "pbfs-biased": lambda: PBFSUnit(PBFSConfig(biased=True)),
    # Section 2.2's strawman: swapping sticky counters for conventional
    # two-bit counters raises coverage but explodes the FP rate.
    "pbfs-standard": lambda: PBFSUnit(PBFSConfig(counter="standard",
                                                 changing_states=3)),
    "faulthound": lambda: FaultHoundUnit(FaultHoundConfig()),
    "fh-backend": lambda: FaultHoundUnit(FaultHoundConfig(**_BE)),
    # Figure 12 ablations (back-end only, like the paper)
    "fh-be-no2level": lambda: FaultHoundUnit(
        FaultHoundConfig(second_level=False, **_BE)),
    "fh-be-nocluster-no2level": lambda: FaultHoundUnit(
        FaultHoundConfig(clustering=False, second_level=False, **_BE)),
    "fh-be-full-rollback": lambda: FaultHoundUnit(
        FaultHoundConfig(full_rollback_on_trigger=True, **_BE)),
    "fh-be-nolsq": lambda: FaultHoundUnit(
        FaultHoundConfig(lsq_check=False, **_BE)),
}


def scheme_unit(name: str) -> ScreeningUnit:
    """Instantiate a fresh screening unit by registry name."""
    try:
        return SCHEMES[name]()
    except KeyError:
        raise KeyError(f"unknown scheme {name!r}; "
                       f"known: {sorted(SCHEMES)}") from None


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentConfig:
    """Scale and scope knobs shared by every experiment."""

    benchmarks: Tuple[str, ...] = tuple(PROFILES)
    #: Committed instructions per thread in fault-free runs.
    dynamic_target: int = 20_000
    smt_copies: int = 2
    #: Faults per benchmark in the characterisation campaign (paper:
    #: 15,000; the laptop default trades sample size for wall-clock).
    num_faults: int = 120
    warmup_commits: int = 400
    window_commits: int = 150
    max_window_cycles: int = 40_000
    seed: int = 7
    #: Lane-batch width for the batched tandem engine
    #: (repro.faults.batched); 1 = the scalar clone-per-fault path.
    #: Campaign results are bit-for-bit identical for any value.
    batch_lanes: int = 1
    #: "fixed" uses ``srt_fixed_coverage`` for SRT-iso's thinning;
    #: "measured" uses each benchmark's measured FaultHound coverage
    #: (requires campaigns, so it is slower).
    srt_coverage_mode: str = "fixed"
    srt_fixed_coverage: float = 0.75

    def quick(self) -> "ExperimentConfig":
        """A smaller copy for smoke tests."""
        return replace(self, dynamic_target=3_000, num_faults=12,
                       warmup_commits=200, window_commits=100)


# ----------------------------------------------------------------------
# run records
# ----------------------------------------------------------------------
@dataclass
class FaultFreeRun:
    """Derived results of one fault-free (timing/energy) run."""

    benchmark: str
    scheme: str
    cycles: int
    committed: int
    fp_rate: float
    energy: EnergyBreakdown
    replay_events: int
    rollback_events: int
    singleton_reexecs: int
    branch_mispredicts: int
    ipc: float


class ExperimentContext:
    """Caches programs, runs and campaigns across figure regenerations.

    ``jobs`` sizes the worker pool for campaign/figure fan-out (default
    ``os.cpu_count()``; ``jobs=1`` runs everything in-process — the
    parallel paths produce bit-for-bit identical results). ``cache`` is
    an optional persistent :class:`~repro.harness.cache.ArtifactCache`;
    when given, fault-free runs, campaigns and coverage phases are
    reloaded from disk instead of recomputed (the key includes a
    code-version salt, so stale entries are impossible).
    """

    def __init__(self, cfg: ExperimentConfig | None = None,
                 hw: HardwareConfig | None = None,
                 jobs: Optional[int] = None,
                 cache: Optional[ArtifactCache] = None,
                 events=None, supervisor=None, metrics=None):
        self.cfg = cfg or ExperimentConfig()
        self.hw = hw or HardwareConfig()
        self.jobs = max(1, jobs if jobs is not None
                        else _parallel.default_jobs())
        self.cache = cache
        #: Structured event log (``repro.obs``); defaults to the no-op
        #: sink, so phases span/emit unconditionally at zero cost.
        self.events = events if events is not None else NULL_LOG
        #: Live-telemetry registry (``repro.obs.metrics``); defaults to
        #: the no-op NULL registry, same pattern as ``events``. Named
        #: ``metrics_registry`` because ``metrics`` below is the legacy
        #: :class:`ContextMetrics` throughput record.
        self.metrics_registry = metrics if metrics is not None \
            else NULL_METRICS
        #: The :class:`~repro.harness.supervisor.Supervisor` every
        #: campaign phase's windows run under; without one from the
        #: caller, a journal-less default (retries and quarantine, no
        #: run dir, no fsync) that keeps a single-chunk phase in-process.
        self.supervisor = (supervisor if supervisor is not None
                           else Supervisor(SupervisorPolicy(
                               inline_single_chunk=True)))
        self.supervisor.bind(jobs=self.jobs, events=self.events,
                             metrics=self.metrics_registry)
        if cache is not None and cache.events is NULL_LOG:
            cache.events = self.events
        if cache is not None and cache.metrics is NULL_METRICS:
            cache.metrics = self.metrics_registry
        self.metrics = ContextMetrics()
        self._executor = ParallelExecutor(self.jobs, events=self.events,
                                          metrics=self.metrics_registry)
        self._programs: Dict[str, List] = {}
        self._lengths: Dict[str, List[int]] = {}
        self._fault_free: Dict[Tuple[str, str], FaultFreeRun] = {}
        self._srt: Dict[Tuple[str, float], FaultFreeRun] = {}
        self._campaigns: Dict[str, Tuple[Campaign, CampaignResult]] = {}
        self._coverage: Dict[Tuple[str, str], CampaignResult] = {}
        self._energy_model = EnergyModel()

    # -- persistent cache plumbing ---------------------------------------
    def _cache_get(self, kind: str, **parts: Any):
        if self.cache is None:
            return None
        key = self.cache.key(kind, cfg=self.cfg, hw=self.hw, **parts)
        artefact = self.cache.get(kind, key)
        if artefact is None:
            self.metrics.cache_misses += 1
        else:
            self.metrics.cache_hits += 1
        self.events.cache_event(kind, key, hit=artefact is not None)
        return artefact

    def _cache_put(self, kind: str, artefact: Any, **parts: Any) -> None:
        if self.cache is None:
            return
        key = self.cache.key(kind, cfg=self.cfg, hw=self.hw, **parts)
        if self.cache.put(kind, key, artefact):
            # provenance next to the artefact: which exact configuration
            # and code version produced this cache entry
            manifest = build_manifest(kind, self.cfg, self.hw, parts=parts,
                                      key=key, jobs=self.jobs)
            write_manifest(
                manifest_path_for(self.cache.artifact_path(kind, key)),
                manifest)

    # -- workloads ------------------------------------------------------
    def programs(self, benchmark: str) -> List:
        if benchmark not in self._programs:
            profile = PROFILES[benchmark]
            self._programs[benchmark] = build_smt_programs(
                profile, self.cfg.dynamic_target, copies=self.cfg.smt_copies)
        return self._programs[benchmark]

    def lengths(self, benchmark: str) -> List[int]:
        if benchmark not in self._lengths:
            self._lengths[benchmark] = [
                dynamic_length(p) for p in self.programs(benchmark)]
        return self._lengths[benchmark]

    def make_core(self, benchmark: str, scheme: str) -> PipelineCore:
        return PipelineCore(self.programs(benchmark), hw=self.hw,
                            screening=scheme_unit(scheme))

    # -- fault-free timing/energy runs -----------------------------------
    def fault_free(self, benchmark: str, scheme: str) -> FaultFreeRun:
        key = (benchmark, scheme)
        if key not in self._fault_free:
            with self.events.span("phase:fault_free", benchmark=benchmark,
                                  scheme=scheme):
                run = self._cache_get("fault_free", benchmark=benchmark,
                                      scheme=scheme)
                if run is None:
                    started = time.perf_counter()
                    run = self._run_fault_free(benchmark, scheme)
                    self.metrics.note_phase("fault_free",
                                            time.perf_counter() - started)
                    self._cache_put("fault_free", run, benchmark=benchmark,
                                    scheme=scheme)
            self._fault_free[key] = run
        return self._fault_free[key]

    def _run_fault_free(self, benchmark: str, scheme: str) -> FaultFreeRun:
        core = self.make_core(benchmark, scheme)
        # Warm caches, predictors and filters, then measure the
        # false-positive rate over the steady-state region only.
        warm_total = self.cfg.warmup_commits * len(core.threads)
        core.run_until_commits(warm_total)
        unit = core.screening
        checks_before = dict(unit.action_counts)
        committed_before = core.stats.committed
        core.run(max_cycles=8_000_000)
        steady_committed = core.stats.committed - committed_before
        from ..core.actions import CheckAction
        steady_actions = sum(
            unit.action_counts[a] - checks_before.get(a, 0)
            for a in (CheckAction.REPLAY, CheckAction.SQUASH,
                      CheckAction.SINGLETON))
        rate = (steady_actions / steady_committed
                if steady_committed else 0.0)
        core.record_metrics(self.metrics_registry)
        return FaultFreeRun(
            benchmark=benchmark, scheme=scheme,
            cycles=core.stats.cycles, committed=core.stats.committed,
            fp_rate=rate, energy=self._energy_model.compute(core),
            replay_events=core.stats.replay_events,
            rollback_events=core.stats.rollback_events,
            singleton_reexecs=core.stats.singleton_reexecs,
            branch_mispredicts=core.stats.branch_mispredicts,
            ipc=core.stats.ipc)

    # -- SRT-iso ----------------------------------------------------------
    @staticmethod
    def _srt_key(benchmark: str, coverage: float) -> Tuple[str, float]:
        """Semantic cache key for one SRT-iso run.

        The benchmark is part of the key *derivation*, not an accident of
        tuple position, and the coverage is kept at full precision: the
        old ``round(coverage, 3)`` could alias two distinct "measured"
        coverages onto one cached run.
        """
        return (benchmark, float(coverage))

    def srt_run(self, benchmark: str,
                coverage: Optional[float] = None) -> FaultFreeRun:
        if coverage is None:
            coverage = self.srt_coverage(benchmark)
        key = self._srt_key(benchmark, coverage)
        if key not in self._srt:
            with self.events.span("phase:srt", benchmark=benchmark,
                                  coverage=coverage):
                run = self._cache_get("srt", benchmark=benchmark,
                                      coverage=coverage)
                if run is None:
                    started = time.perf_counter()
                    run = self._run_srt(benchmark, coverage)
                    self.metrics.note_phase("srt",
                                            time.perf_counter() - started)
                    self._cache_put("srt", run, benchmark=benchmark,
                                    coverage=coverage)
            self._srt[key] = run
        return self._srt[key]

    def _run_srt(self, benchmark: str, coverage: float) -> FaultFreeRun:
        core = srt_iso_core(self.programs(benchmark), hw=self.hw,
                            coverage=coverage,
                            lengths=self.lengths(benchmark))
        core.run(max_cycles=8_000_000)
        core.record_metrics(self.metrics_registry)
        return FaultFreeRun(
            benchmark=benchmark, scheme=f"srt-iso@{round(coverage, 3)}",
            cycles=core.stats.cycles, committed=core.stats.committed,
            fp_rate=0.0, energy=self._energy_model.compute(core),
            replay_events=0, rollback_events=0, singleton_reexecs=0,
            branch_mispredicts=core.stats.branch_mispredicts,
            ipc=core.stats.ipc)

    def srt_coverage(self, benchmark: str) -> float:
        if self.cfg.srt_coverage_mode == "measured":
            return self.coverage(benchmark, "faulthound").coverage
        return self.cfg.srt_fixed_coverage

    # -- campaigns --------------------------------------------------------
    def build_campaign(self, benchmark: str) -> Campaign:
        """A freshly planned (not yet run) campaign for *benchmark* —
        cheap, deterministic in the config seed."""
        cfg = self.cfg
        return Campaign(
            benchmark,
            lambda: self.make_core(benchmark, "baseline"),
            num_phys_regs=self.hw.phys_regs,
            num_threads=self.cfg.smt_copies,
            num_faults=cfg.num_faults, seed=cfg.seed,
            warmup_commits=cfg.warmup_commits,
            window_commits=cfg.window_commits,
            max_window_cycles=cfg.max_window_cycles,
            batch_lanes=cfg.batch_lanes,
            metrics=self.metrics_registry)

    def campaign(self, benchmark: str) -> Tuple[Campaign, CampaignResult]:
        if benchmark not in self._campaigns:
            campaign = self.build_campaign(benchmark)
            characterization = self.run_phase(campaign, None)
            # keep record identity consistent with the result we serve
            campaign.records = characterization.records
            self._campaigns[benchmark] = (campaign, characterization)
        return self._campaigns[benchmark]

    def coverage(self, benchmark: str, scheme: str) -> CampaignResult:
        key = (benchmark, scheme)
        if key not in self._coverage:
            campaign, characterization = self.campaign(benchmark)
            self._coverage[key] = self.run_phase(campaign, scheme,
                                                 characterization)
        return self._coverage[key]

    def run_phase(self, campaign: Campaign, scheme: Optional[str],
                  characterization: Optional[CampaignResult] = None
                  ) -> CampaignResult:
        """One campaign phase, unmemoised: the characterisation of
        *campaign*'s fault plan (*scheme* None) or *scheme*'s coverage of
        *characterization*'s SDC faults — from the artifact cache when it
        holds the phase, else classified by the supervisor."""
        benchmark = campaign.benchmark
        phase = "characterize" if scheme is None else "coverage"
        parts = dict(benchmark=benchmark)
        if scheme is not None:
            parts["scheme"] = scheme
        with self.events.span(f"phase:{phase}", **parts):
            started = time.perf_counter()
            result = self._cache_get(phase, **parts)
            from_cache = result is not None
            cp_stats = _parallel.CheckpointStats()
            report = None
            if not from_cache:
                records = (campaign.records if scheme is None
                           else Campaign.sdc_records(characterization))
                report = self.supervisor.classify_windows(
                    self.cfg, self.hw, benchmark, scheme, records,
                    phase=phase, cache=self.cache, ctx=self,
                    checkpoint_stats=cp_stats)
                if scheme is None:
                    result = CampaignResult(
                        benchmark, "baseline",
                        [w.record for w in report.windows])
                    result.characterization = report.windows
                else:
                    result = campaign.collect_coverage(
                        scheme, characterization, report.windows)
                result.quarantined = list(report.quarantined)
                self._store_phase(phase, result, characterization,
                                  **parts)
            elapsed = time.perf_counter() - started
            self.metrics_registry.histogram(
                "phase_seconds", SECONDS_BUCKETS).observe(elapsed)
            self._finish_phase(result, phase, from_cache, elapsed,
                               characterization, cp_stats, report)
        return result

    def _store_phase(self, phase: str, result: CampaignResult,
                     characterization: Optional[CampaignResult] = None,
                     **parts: Any) -> None:
        """Publish a computed phase to the shared artifact cache unless
        it is partial: a quarantine-reduced phase, or a coverage phase
        over a quarantine-reduced characterisation, must never stand in
        for the complete phase in a later context."""
        if result.quarantined or (characterization is not None
                                  and characterization.quarantined):
            return
        self._cache_put(phase, result, **parts)

    # -- batch fan-out ----------------------------------------------------
    def prefetch(self, fault_free: Sequence[str] = (),
                 coverage: Sequence[str] = (),
                 campaigns: bool = False, srt: bool = False,
                 benchmarks: Optional[Sequence[str]] = None) -> None:
        """Fan missing artefacts out across the worker pool.

        Figures call this up front with everything they are about to
        read, so independent (benchmark, scheme) runs and campaigns
        compute concurrently; the figure logic then proceeds through the
        warm in-memory caches unchanged. With ``jobs=1`` this is a no-op
        — the pull path computes identical artefacts on demand.
        """
        if self.jobs <= 1:
            return
        benchmarks = tuple(benchmarks or self.cfg.benchmarks)
        cfg, hw = self.cfg, self.hw

        def fan_out(phase: str, task_fn, jobs_args: List[Tuple],
                    store: Callable[[Tuple, Any], None]) -> None:
            if not jobs_args:
                return
            started = time.perf_counter()
            results = self._executor.map(task_fn, jobs_args)
            self.metrics.note_phase(f"prefetch:{phase}",
                                    time.perf_counter() - started)
            for args, result in zip(jobs_args, results):
                store(args, result)

        # fault-free timing/energy runs
        todo = []
        for scheme in fault_free:
            for benchmark in benchmarks:
                if (benchmark, scheme) in self._fault_free:
                    continue
                run = self._cache_get("fault_free", benchmark=benchmark,
                                      scheme=scheme)
                if run is not None:
                    self._fault_free[(benchmark, scheme)] = run
                else:
                    todo.append((cfg, hw, benchmark, scheme))

        def store_fault_free(args: Tuple, run: FaultFreeRun) -> None:
            _, _, benchmark, scheme = args
            self._fault_free[(benchmark, scheme)] = run
            self._cache_put("fault_free", run, benchmark=benchmark,
                            scheme=scheme)

        fan_out("fault_free", _parallel.fault_free_task, todo,
                store_fault_free)

        # characterisation campaigns
        need_campaigns = (campaigns or bool(coverage)
                          or (srt and self.cfg.srt_coverage_mode
                              == "measured"))
        if need_campaigns:
            todo = []
            for benchmark in benchmarks:
                if benchmark in self._campaigns:
                    continue
                cached = self._cache_get("characterize",
                                         benchmark=benchmark)
                if cached is not None:
                    self._adopt_characterization(benchmark, cached,
                                                 from_cache=True)
                else:
                    todo.append((cfg, hw, benchmark))

            def store_campaign(args: Tuple,
                               characterization: CampaignResult) -> None:
                _, _, benchmark = args
                self._store_phase("characterize", characterization,
                                  benchmark=benchmark)
                self._adopt_characterization(benchmark, characterization,
                                             from_cache=False)

            fan_out("characterize", _parallel.characterize_task, todo,
                    store_campaign)

        # coverage phases (needs characterisations, computed above)
        todo = []
        for scheme in coverage:
            for benchmark in benchmarks:
                if (benchmark, scheme) in self._coverage:
                    continue
                cached = self._cache_get("coverage", benchmark=benchmark,
                                         scheme=scheme)
                if cached is not None:
                    self._adopt_coverage(benchmark, scheme, cached,
                                         from_cache=True)
                else:
                    _, characterization = self.campaign(benchmark)
                    todo.append((cfg, hw, benchmark, scheme,
                                 characterization))

        def store_coverage(args: Tuple, result: CampaignResult) -> None:
            _, _, benchmark, scheme, characterization = args
            self._store_phase("coverage", result, characterization,
                              benchmark=benchmark, scheme=scheme)
            self._adopt_coverage(benchmark, scheme, result,
                                 from_cache=False)

        fan_out("coverage", _parallel.coverage_task, todo, store_coverage)

        # SRT-iso runs (coverage values need campaigns in measured mode)
        if srt:
            todo = []
            for benchmark in benchmarks:
                value = self.srt_coverage(benchmark)
                if self._srt_key(benchmark, value) in self._srt:
                    continue
                run = self._cache_get("srt", benchmark=benchmark,
                                      coverage=value)
                if run is not None:
                    self._srt[self._srt_key(benchmark, value)] = run
                else:
                    todo.append((cfg, hw, benchmark, value))

            def store_srt(args: Tuple, run: FaultFreeRun) -> None:
                _, _, benchmark, value = args
                self._srt[self._srt_key(benchmark, value)] = run
                self._cache_put("srt", run, benchmark=benchmark,
                                coverage=value)

            fan_out("srt", _parallel.srt_task, todo, store_srt)

    def _adopt_characterization(self, benchmark: str,
                                characterization: CampaignResult,
                                from_cache: bool) -> None:
        campaign = self.build_campaign(benchmark)
        campaign.records = characterization.records
        self._finish_phase(characterization, "characterize", from_cache)
        self._campaigns[benchmark] = (campaign, characterization)

    def _adopt_coverage(self, benchmark: str, scheme: str,
                        result: CampaignResult, from_cache: bool) -> None:
        _, characterization = self.campaign(benchmark)
        self._finish_phase(result, "coverage", from_cache,
                           characterization=characterization)
        self._coverage[(benchmark, scheme)] = result

    def _finish_phase(self, result: CampaignResult, phase: str,
                      from_cache: bool, elapsed: Optional[float] = None,
                      characterization: Optional[CampaignResult] = None,
                      cp_stats=None, report=None) -> None:
        """The bookkeeping every materialised phase gets exactly once —
        computed here, loaded from the cache, or adopted from a
        :meth:`prefetch` worker: throughput record, window count,
        quarantine status and audit trail. *elapsed* is None for an
        adopted phase, which was not timed here."""
        if characterization is not None:
            # re-link to this context's characterisation windows
            result.characterization = characterization.characterization
        windows = len(result.characterization if phase == "characterize"
                      else result.coverage_results)
        cp_stats = cp_stats or _parallel.CheckpointStats()
        result.throughput = ThroughputRecord(
            phase=phase, windows=windows, wall_seconds=elapsed or 0.0,
            jobs=self.jobs, from_cache=from_cache,
            checkpoints_captured=cp_stats.captured,
            checkpoint_hits=cp_stats.hits,
            golden_pass_seconds=cp_stats.golden_pass_seconds,
            quarantined=len(result.quarantined))
        if report is not None:
            result.throughput.retries = report.retries
            result.throughput.timeouts = report.timeouts
            result.throughput.pool_rebuilds = report.pool_rebuilds
            result.throughput.chunks_resumed = report.chunks_resumed
        elif result.quarantined:
            # adopted from a prefetch worker whose own supervisor
            # quarantined windows: this context's supervisor reports them
            self.supervisor.adopt_quarantine(result.quarantined)
        counted = 0 if from_cache else windows
        if elapsed is None:
            self.metrics.windows += counted
        else:
            self.metrics.note_phase(phase, elapsed, windows=counted)
        self._emit_audit(result, phase)

    # -- audit trail ------------------------------------------------------
    def _emit_audit(self, result: CampaignResult, phase: str) -> None:
        """One ``fault_audit`` event per window, at the moment a campaign
        phase's result is first materialised in this context.

        Memoisation in :meth:`campaign` / :meth:`coverage` (and the
        single-shot adopt paths behind :meth:`prefetch`, which share
        :meth:`_finish_phase`) guarantees each
        (benchmark, scheme, phase) emits exactly once per context, so the
        audit trail's aggregates are identical across serial, parallel
        and warm-cache runs.
        """
        if not self.events.enabled:
            return
        for record in audit_records(result, phase):
            self.events.emit("fault_audit", **record.as_event())


__all__ = ["ExperimentConfig", "ExperimentContext", "FaultFreeRun",
           "SCHEMES", "scheme_unit"]
