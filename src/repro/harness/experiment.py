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
from ..analysis.metrics import fp_rate
from ..obs.audit import audit_records
from ..obs.events import NULL_LOG
from ..obs.metrics import MetricsRegistry
from ..obs.manifest import build_manifest, manifest_path_for, write_manifest
from ..pipeline import PipelineCore
from ..redundancy import dynamic_length, srt_iso_core
from ..workloads import PROFILES, build_smt_programs
from .cache import ArtifactCache
from . import parallel as _parallel
from .parallel import ParallelExecutor
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
    #: "fixed" uses ``srt_fixed_coverage`` for SRT-iso's thinning;
    #: "measured" uses each benchmark's measured FaultHound coverage
    #: (requires campaigns, so it is slower).
    srt_coverage_mode: str = "fixed"
    srt_fixed_coverage: float = 0.75

    def quick(self) -> "ExperimentConfig":
        """A smaller copy for smoke tests."""
        return replace(self, dynamic_target=3_000, num_faults=12,
                       warmup_commits=200, window_commits=100)


#: The named regeneration scales: ``repro figure --scale`` and the figure
#: benches' ``REPRO_SCALE``.
SCALES: Dict[str, ExperimentConfig] = {
    "quick": ExperimentConfig(benchmarks=("bzip2", "mcf", "gamess", "apache"),
                              dynamic_target=5_000, num_faults=24,
                              warmup_commits=300, window_commits=120),
    "default": ExperimentConfig(),
    "full": ExperimentConfig(dynamic_target=40_000, num_faults=250,
                             warmup_commits=1_000, window_commits=300),
}


# ----------------------------------------------------------------------
# run records
# ----------------------------------------------------------------------
#: Registry counter prefix of a phase's seconds: ``phase_seconds_total:``
#: + ``fault_free`` / ``srt`` / ``characterize`` / ``coverage`` /
#: ``prefetch:<phase>``.
PHASE_SECONDS = "phase_seconds_total:"


@dataclass(frozen=True)
class RunSummary:
    """The figures of one registry snapshot that ``repro``'s stderr
    summary line and its run manifests report: artefact cache hits and
    misses, the campaign windows the context materialised rather than
    loaded from the cache, and seconds per timed phase."""

    cache_hits: int = 0
    cache_misses: int = 0
    windows: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def of(cls, snapshot: Dict[str, Any]) -> "RunSummary":
        counters = snapshot["counters"]
        return cls(cache_hits=counters.get("cache_hits_total", 0),
                   cache_misses=counters.get("cache_misses_total", 0),
                   windows=counters.get("phase_windows_total", 0),
                   phase_seconds={
                       name[len(PHASE_SECONDS):]: seconds
                       for name, seconds in counters.items()
                       if name.startswith(PHASE_SECONDS)})

    def summary(self) -> str:
        seconds = sum(self.phase_seconds.values())
        phases = " ".join(f"{name}={value:.2f}s" for name, value
                          in sorted(self.phase_seconds.items()))
        rate = self.windows / seconds if seconds > 0 else 0.0
        return (f"cache {self.cache_hits} hits / {self.cache_misses} misses"
                f" | {self.windows} windows ({rate:.1f}/s)"
                f" | {phases or 'no phases timed'}")


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


#: Cycle budgets of a fault-free run: to reach the warm-up mark (the
#: default of ``PipelineCore.run_until_commits``), then to halt, counted
#: from the mark. SRT-iso runs get the second.
WARMUP_CYCLES = 2_000_000
FAULT_FREE_CYCLES = 8_000_000


class _WarmupMark:
    """Where a fault-free run's steady state begins: the screening unit's
    action counts, the commits and the cycle at the end of the first
    cycle whose all-thread commits reach *commits* — where
    ``run_until_commits(commits)`` stops a fresh core.

    :meth:`watch` records the mark from inside whatever else drives the
    core (a coverage phase's windows), by shadowing ``step`` on the core
    instance; the run drivers bind ``step`` once per loop, so the shadow
    may run on after it removed itself, and it records only once.
    """

    __slots__ = ("core", "commits", "actions", "committed", "cycle")

    def __init__(self, core: PipelineCore, commits: int):
        self.core = core
        self.commits = commits
        self.actions: Optional[Dict[Any, int]] = None
        self.committed = 0
        self.cycle = 0

    def _record(self) -> None:
        core = self.core
        self.actions = dict(core.screening.action_counts)
        self.committed = core.stats.committed
        self.cycle = core.cycle

    def _step(self) -> None:
        core = self.core
        PipelineCore.step(core)
        if self.actions is None and core.stats.committed >= self.commits:
            self._record()
            core.__dict__.pop("step", None)

    def watch(self) -> None:
        self.core.step = self._step

    def reach(self) -> None:
        """Stop watching; step the core to the mark unless it has passed
        it already."""
        self.core.__dict__.pop("step", None)
        if self.actions is None:
            self.core.run_to_commit(self.commits,
                                    WARMUP_CYCLES - self.core.cycle)
            self._record()


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
        #: The one counter of this context's execution facts — cache
        #: traffic, windows, checkpoints, phase seconds, supervisor and
        #: core totals (``repro.obs.metrics``). Live unless the caller
        #: passes :data:`~repro.obs.metrics.NULL_METRICS` to switch it
        #: off; :attr:`metrics` reads it.
        self.metrics_registry = (metrics if metrics is not None
                                 else MetricsRegistry())
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
        self._executor = ParallelExecutor(self.jobs, events=self.events,
                                          metrics=self.metrics_registry)
        self._programs: Dict[str, List] = {}
        self._lengths: Dict[str, List[int]] = {}
        self._fault_free: Dict[Tuple[str, str], FaultFreeRun] = {}
        self._srt: Dict[Tuple[str, float], FaultFreeRun] = {}
        self._campaigns: Dict[str, Tuple[Campaign, CampaignResult]] = {}
        self._coverage: Dict[Tuple[str, str], CampaignResult] = {}
        self._energy_model = EnergyModel()
        #: True in a prefetch worker's private context: the parent that
        #: adopts the phases it returns counts their windows, once.
        self.prefetch_worker = False

    @property
    def metrics(self) -> RunSummary:
        """A read-only summary of :attr:`metrics_registry`, as it stands."""
        return RunSummary.of(self.metrics_registry.snapshot())

    def _count_seconds(self, phase: str, seconds: float) -> None:
        self.metrics_registry.counter(PHASE_SECONDS + phase).inc(seconds)

    # -- persistent cache plumbing ---------------------------------------
    def _cache_get(self, kind: str, **parts: Any):
        if self.cache is None:
            return None
        key = self.cache.key(kind, cfg=self.cfg, hw=self.hw, **parts)
        artefact = self.cache.get(kind, key, self.metrics_registry)
        hit = artefact is not None
        self.metrics_registry.counter(
            "cache_hits_total" if hit else "cache_misses_total").inc()
        self.events.cache_event(kind, key, hit=hit)
        return artefact

    def _cache_put(self, kind: str, artefact: Any, **parts: Any) -> None:
        if self.cache is None:
            return
        key = self.cache.key(kind, cfg=self.cfg, hw=self.hw, **parts)
        if self.cache.put(kind, key, artefact, self.metrics_registry):
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
        """The fault-free run of (*benchmark*, *scheme*), memoised.

        Artefacts pulled one request at a time give no other sign of
        what comes next: a screened scheme's run also classifies the
        scheme's coverage phase on the way (:meth:`run_fault_free`) when
        the benchmark's characterisation is in the memo and the phase is
        not, and the phase is memoised with the run. :meth:`prefetch`,
        which figures call first, decides from its request instead."""
        joint = (scheme != "baseline" and benchmark in self._campaigns
                 and (benchmark, scheme) not in self._coverage)
        return self._fault_free_run(benchmark, scheme, joint)

    def _fault_free_run(self, benchmark: str, scheme: str,
                        joint: bool) -> FaultFreeRun:
        """:meth:`fault_free`, classifying the coverage phase on the way
        when *joint* and that phase is missing from the memo."""
        key = (benchmark, scheme)
        if key not in self._fault_free:
            with self.events.span("phase:fault_free", benchmark=benchmark,
                                  scheme=scheme):
                run = self._cache_get("fault_free", benchmark=benchmark,
                                      scheme=scheme)
                if run is None:
                    characterization = None
                    if joint and key not in self._coverage:
                        characterization = self.campaign(benchmark)[1]
                    run, coverage = self.run_fault_free(benchmark, scheme,
                                                        characterization)
                    if coverage is not None:
                        self._coverage[key] = coverage
                    self._cache_put("fault_free", run, benchmark=benchmark,
                                    scheme=scheme)
            self._fault_free[key] = run
        return self._fault_free[key]

    def run_fault_free(self, benchmark: str, scheme: str,
                       characterization: Optional[CampaignResult] = None
                       ) -> Tuple[FaultFreeRun, Optional[CampaignResult]]:
        """One fault-free run, unmemoised, and its seconds counted.

        Given *benchmark*'s *characterization*, the run's core is also the
        golden core of *scheme*'s coverage phase (:meth:`run_phase`'s
        route: artifact cache, supervisor, journal, counts and audit): it
        classifies the phase's windows on its way to halt, and the phase
        comes back as the second item (else None). A coverage phase
        replays its windows along exactly this trajectory, so the run is
        the one a bare core would give; when the supervisor does not hand
        the core back (a chunk failed, or chunks were resumed from the
        journal) the run is made again on a fresh one. The
        phase's own seconds count as ``coverage``, not ``fault_free``.
        """
        started = time.perf_counter()
        nested = 0.0
        core = self.make_core(benchmark, scheme)
        # the false-positive rate covers the steady state only, once
        # caches, predictors and filters are warm
        mark = _WarmupMark(core, self.cfg.warmup_commits * len(core.threads))
        coverage = None
        if characterization is not None:
            # the invariant sanitizer the classifier arms pops any `step`
            # shadow: arm it first, then watch for the warm-up mark
            core.enable_sanitizer(every=0)
            mark.watch()
            phase_started = time.perf_counter()
            coverage, golden = self._run_phase(
                self.build_campaign(benchmark), scheme, characterization,
                golden=core)
            nested = time.perf_counter() - phase_started
            if golden is None:
                core = self.make_core(benchmark, scheme)
                mark = _WarmupMark(core, mark.commits)
        mark.reach()
        core.run(max_cycles=mark.cycle + FAULT_FREE_CYCLES - core.cycle)
        unit = core.screening
        steady_committed = core.stats.committed - mark.committed
        from ..core.actions import CheckAction
        steady_actions = sum(
            unit.action_counts[a] - mark.actions.get(a, 0)
            for a in (CheckAction.REPLAY, CheckAction.SQUASH,
                      CheckAction.SINGLETON))
        rate = (steady_actions / steady_committed
                if steady_committed else 0.0)
        core.record_metrics(self.metrics_registry)
        run = FaultFreeRun(
            benchmark=benchmark, scheme=scheme,
            cycles=core.stats.cycles, committed=core.stats.committed,
            fp_rate=rate, energy=self._energy_model.compute(core),
            replay_events=core.stats.replay_events,
            rollback_events=core.stats.rollback_events,
            singleton_reexecs=core.stats.singleton_reexecs,
            branch_mispredicts=core.stats.branch_mispredicts,
            ipc=core.stats.ipc)
        self._count_seconds("fault_free",
                            time.perf_counter() - started - nested)
        return run, coverage

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
                    self._count_seconds("srt", time.perf_counter() - started)
                    self._cache_put("srt", run, benchmark=benchmark,
                                    coverage=coverage)
            self._srt[key] = run
        return self._srt[key]

    def _run_srt(self, benchmark: str, coverage: float) -> FaultFreeRun:
        core = srt_iso_core(self.programs(benchmark), hw=self.hw,
                            coverage=coverage,
                            lengths=self.lengths(benchmark))
        core.run(max_cycles=FAULT_FREE_CYCLES)
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
        return self._run_phase(campaign, scheme, characterization)[0]

    def _run_phase(self, campaign: Campaign, scheme: Optional[str],
                   characterization: Optional[CampaignResult] = None,
                   golden: Optional[PipelineCore] = None
                   ) -> Tuple[CampaignResult, Optional[PipelineCore]]:
        """:meth:`run_phase`, with *golden* handed to the supervisor
        (:meth:`Supervisor.classify_windows`) and handed back: the
        phase's result, and the core while still on its trajectory."""
        benchmark = campaign.benchmark
        phase = "characterize" if scheme is None else "coverage"
        parts = dict(benchmark=benchmark)
        if scheme is not None:
            parts["scheme"] = scheme
        with self.events.span(f"phase:{phase}", **parts):
            started = time.perf_counter()
            result = self._cache_get(phase, **parts)
            from_cache = result is not None
            if not from_cache:
                records = (campaign.records if scheme is None
                           else Campaign.sdc_records(characterization))
                report = self.supervisor.classify_windows(
                    self.cfg, self.hw, benchmark, scheme, records,
                    phase=phase, ctx=self, golden=golden)
                golden, report.golden = report.golden, None
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
            else:
                self.supervisor.journal_cached(
                    phase, benchmark, scheme or "baseline",
                    len(result.records))
            self._count_seconds(phase, time.perf_counter() - started)
            self._finish_phase(result, phase, from_cache, characterization)
        return result, golden

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
        warm in-memory caches unchanged.

        A screened pair asked for both its fault-free run and its
        coverage phase runs them as one trajectory
        (:meth:`run_fault_free`); every other fault-free run runs alone.
        With ``jobs=1`` only the fault-free runs are made here, in
        process, so that this request, not the memo, decides which of
        them classify a coverage phase; the pull path computes the rest
        on demand. At ``jobs>1`` characterisations go first, then each
        (benchmark, scheme) is one task, so no worker classifies a
        coverage phase that another task, or the parent, computes again.
        """
        benchmarks = tuple(benchmarks or self.cfg.benchmarks)
        if self.jobs <= 1:
            for benchmark in benchmarks:
                for scheme in fault_free:
                    self._fault_free_run(
                        benchmark, scheme,
                        joint=scheme != "baseline" and scheme in coverage)
            return
        cfg, hw = self.cfg, self.hw

        def fan_out(phase: str, task_fn, jobs_args: List[Tuple],
                    store: Callable[[Tuple, Any], None]) -> None:
            if not jobs_args:
                return
            started = time.perf_counter()
            results = self._executor.map(task_fn, jobs_args)
            self._count_seconds(f"prefetch:{phase}",
                                time.perf_counter() - started)
            for args, result in zip(jobs_args, results):
                store(args, result)

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

        # what the memo and the artifact cache lack of the fault-free
        # runs and coverage phases (cache hits are adopted on the way)
        runs: List[Tuple[str, str]] = []
        for scheme in fault_free:
            for benchmark in benchmarks:
                if (benchmark, scheme) in self._fault_free:
                    continue
                run = self._cache_get("fault_free", benchmark=benchmark,
                                      scheme=scheme)
                if run is not None:
                    self._fault_free[(benchmark, scheme)] = run
                else:
                    runs.append((benchmark, scheme))
        phases: List[Tuple[str, str]] = []
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
                    phases.append((benchmark, scheme))

        # fault-free runs, each classifying its coverage phase on the way
        # when that is missing too
        joint = {pair for pair in set(runs) & set(phases)
                 if pair[1] != "baseline"}
        todo = [(cfg, hw, benchmark, scheme,
                 self.campaign(benchmark)[1] if (benchmark, scheme) in joint
                 else None)
                for benchmark, scheme in runs]

        def store_fault_free(args: Tuple, result: Tuple) -> None:
            _, _, benchmark, scheme, characterization = args
            run, phase = result
            self._fault_free[(benchmark, scheme)] = run
            self._cache_put("fault_free", run, benchmark=benchmark,
                            scheme=scheme)
            if phase is not None:
                self._store_phase("coverage", phase, characterization,
                                  benchmark=benchmark, scheme=scheme)
                self._adopt_coverage(benchmark, scheme, phase,
                                     from_cache=False)

        fan_out("fault_free", _parallel.fault_free_task, todo,
                store_fault_free)

        # the coverage phases left over
        todo = [(cfg, hw, benchmark, scheme, self.campaign(benchmark)[1])
                for benchmark, scheme in phases
                if (benchmark, scheme) not in joint]

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
        self._finish_phase(characterization, "characterize", from_cache,
                           adopted=True)
        self._campaigns[benchmark] = (campaign, characterization)

    def _adopt_coverage(self, benchmark: str, scheme: str,
                        result: CampaignResult, from_cache: bool) -> None:
        _, characterization = self.campaign(benchmark)
        self._finish_phase(result, "coverage", from_cache,
                           characterization=characterization, adopted=True)
        self._coverage[(benchmark, scheme)] = result

    def _finish_phase(self, result: CampaignResult, phase: str,
                      from_cache: bool,
                      characterization: Optional[CampaignResult] = None,
                      adopted: bool = False) -> None:
        """The bookkeeping every materialised phase gets exactly once —
        computed here, loaded from the cache, or *adopted* from a
        :meth:`prefetch` worker: window count, quarantine status and
        audit trail."""
        if characterization is not None:
            # re-link to this context's characterisation windows
            result.characterization = characterization.characterization
        if not from_cache and not self.prefetch_worker:
            self.metrics_registry.counter("phase_windows_total").inc(
                len(result.characterization if phase == "characterize"
                    else result.coverage_results))
        if adopted and result.quarantined:
            # a prefetch worker's own supervisor quarantined windows:
            # this context's supervisor reports them
            self.supervisor.adopt_quarantine(result.quarantined)
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
           "RunSummary", "SCALES", "SCHEMES", "scheme_unit"]
