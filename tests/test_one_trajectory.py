"""One golden trajectory per (benchmark, scheme).

A screened scheme's fault-free run and its coverage phase step the same
core along the same commits. ``ExperimentContext.prefetch`` runs both on
one core for each screened pair it is asked for both ways, and
``ExperimentContext.fault_free`` pulled alone does so when the
benchmark's characterisation is in the memo and the coverage phase is
not: the run's core classifies the coverage windows on its way to halt.
These tests pin that the joint pass gives exactly the
artefacts of the two standalone runs, on every path that can leave the
trajectory (a retried chunk, a quarantined window, a cache hit, the
prefetch pool).
"""

import io
import json
from contextlib import redirect_stdout
from dataclasses import asdict, replace

import pytest

from repro.faults.classifier import TandemClassifier
from repro.faults.model import FaultClass
from repro.harness import (ArtifactCache, ExperimentConfig,
                           ExperimentContext, Supervisor, SupervisorPolicy,
                           figures)
from repro.harness.experiment import _WarmupMark
from repro.harness.figures import FIG8_SCHEMES
from repro.obs.events import EventLog, read_events
from repro.obs.metrics import MetricsRegistry, snapshot_from_events

#: Windows from commit 200, one every 100; the warm-up mark of a
#: 2-thread run is at 400 commits, so at seed 4242 both benchmarks'
#: first SDC window (at commit 200) precedes it.
_CFG = ExperimentConfig(benchmarks=("mcf", "apache"), dynamic_target=1_200,
                        num_faults=10, warmup_commits=200,
                        window_commits=100)
_FAST = dict(backoff_base=0.001, backoff_max=0.002)


def _windows(result):
    return [asdict(window) for window in result.coverage_results]


def _sdc_commits(characterization):
    return [window.record.inject_at_commit
            for window in characterization.characterization
            if window.applied and window.fault_class is FaultClass.SDC]


def _standalone(cfg, benchmark, scheme, characterization):
    """The fault-free run and coverage phase as two separate trajectories."""
    ctx = ExperimentContext(cfg, jobs=1)
    run, none = ctx.run_fault_free(benchmark, scheme)
    assert none is None
    coverage = ctx.run_phase(ctx.build_campaign(benchmark), scheme,
                             characterization)
    return run, coverage


@pytest.mark.parametrize("seed", [1, 7, 4242])
def test_joint_pass_equals_standalone_runs(seed):
    cfg = replace(_CFG, seed=seed)
    ctx = ExperimentContext(cfg, jobs=1)
    for benchmark in cfg.benchmarks:
        _, characterization = ctx.campaign(benchmark)
        if seed == 4242:
            mark = cfg.warmup_commits * cfg.smt_copies
            assert min(_sdc_commits(characterization)) < mark
        for scheme in FIG8_SCHEMES:
            run = ctx.fault_free(benchmark, scheme)
            # the coverage phase came back from the fault-free run
            coverage = ctx._coverage[(benchmark, scheme)]
            want_run, want_coverage = _standalone(cfg, benchmark, scheme,
                                                  characterization)
            assert run == want_run, (benchmark, scheme)
            assert _windows(coverage) == _windows(want_coverage)
            assert coverage.outcomes == want_coverage.outcomes
            assert ctx.coverage(benchmark, scheme) is coverage
    summary = ctx.metrics
    assert summary.phase_seconds["fault_free"] > 0
    assert "coverage" in summary.phase_seconds


def test_warmup_mark_inside_a_window_fires_where_run_until_commits_stops():
    """The mark, watched while a classifier drives the core through
    every planned window, lands on the cycle, commits and action counts
    that ``run_until_commits`` reaches on a fresh core, wherever it falls
    inside a window."""
    ctx = ExperimentContext(_CFG, jobs=1)
    campaign = ctx.build_campaign("apache")
    factory = lambda: ctx.make_core("apache", "faulthound")
    for commits in (250, 450, 777):
        core = factory()
        core.enable_sanitizer(every=0)
        mark = _WarmupMark(core, commits)
        mark.watch()
        campaign.classifier(factory).run(
            [record.fresh_copy() for record in campaign.records],
            golden=core)
        mark.reach()
        reference = factory()
        reference.run_until_commits(commits)
        assert mark.actions == dict(reference.screening.action_counts)
        assert (mark.committed, mark.cycle) == (reference.stats.committed,
                                                reference.cycle)
        assert "step" not in core.__dict__


def _count_cores(ctx):
    built = []
    make_core = ctx.make_core

    def counting(benchmark, scheme):
        built.append(scheme)
        return make_core(benchmark, scheme)

    ctx.make_core = counting
    return built


def test_chunk_failing_before_the_mark_falls_back_to_a_standalone_run(
        monkeypatch):
    cfg = replace(_CFG, seed=4242)
    ctx = ExperimentContext(cfg, jobs=1,
                            supervisor=Supervisor(SupervisorPolicy(**_FAST)))
    _, characterization = ctx.campaign("mcf")
    want_run, want_coverage = _standalone(cfg, "mcf", "faulthound",
                                          characterization)
    real_run = TandemClassifier.run
    failed = []

    def fails_once(self, records, golden=None, resume_at_commit=0):
        if not failed:
            failed.append(golden.stats.committed)
            golden.run_until_commits(50)    # part-way, short of the mark
            raise RuntimeError("injected chunk failure")
        return real_run(self, records, golden=golden,
                        resume_at_commit=resume_at_commit)

    monkeypatch.setattr(TandemClassifier, "run", fails_once)
    built = _count_cores(ctx)
    run = ctx.fault_free("mcf", "faulthound")
    coverage = ctx.coverage("mcf", "faulthound")
    assert failed == [0]
    assert ctx.supervisor.reports[-1].retries == 1
    # the retry rebuilds the golden core, and the abandoned run's core is
    # replaced by a fresh one for the fault-free run
    assert built == ["faulthound"] * 3
    assert run == want_run
    assert _windows(coverage) == _windows(want_coverage)


def test_quarantined_window_keeps_the_run_and_stays_out_of_the_cache(
        monkeypatch, tmp_path):
    cfg = replace(_CFG, seed=4242)
    cache = ArtifactCache(tmp_path)
    policy = SupervisorPolicy(max_retries=0, bisect_retries=0, **_FAST)
    ctx = ExperimentContext(cfg, jobs=1, cache=cache,
                            supervisor=Supervisor(policy))
    _, characterization = ctx.campaign("mcf")
    want_run, _ = _standalone(cfg, "mcf", "faulthound", characterization)

    def poisoned(self, records, **kwargs):
        raise RuntimeError("injected deterministic poison")

    monkeypatch.setattr(TandemClassifier, "run", poisoned)
    run = ctx.fault_free("mcf", "faulthound")
    coverage = ctx.coverage("mcf", "faulthound")
    assert coverage.quarantined and not coverage.coverage_results
    assert ctx.supervisor.status == "complete-with-quarantine"
    assert run == want_run
    assert not list(tmp_path.rglob("coverage/*.pkl"))
    assert list(tmp_path.rglob("fault_free/*.pkl"))


def test_warm_context_serves_the_joint_artefacts_from_the_cache(tmp_path):
    cfg = replace(_CFG, seed=4242)
    cache = ArtifactCache(tmp_path)
    cold = ExperimentContext(cfg, jobs=1, cache=cache)
    cold.campaign("apache")
    cold_run = cold.fault_free("apache", "pbfs")
    cold_coverage = cold.coverage("apache", "pbfs")

    warm = ExperimentContext(cfg, jobs=1, cache=cache)
    warm.campaign("apache")
    assert warm.fault_free("apache", "pbfs") == cold_run
    assert _windows(warm.coverage("apache", "pbfs")) == _windows(
        cold_coverage)
    summary = warm.metrics
    assert (summary.cache_hits, summary.cache_misses) == (3, 0)
    assert summary.windows == 0


def test_cached_coverage_leaves_the_core_to_the_fault_free_run(tmp_path):
    """A joint pass whose coverage phase the cache holds classifies
    nothing: the untouched core makes the fault-free run."""
    cfg = replace(_CFG, seed=4242)
    cache = ArtifactCache(tmp_path)
    first = ExperimentContext(cfg, jobs=1, cache=cache)
    _, characterization = first.campaign("apache")
    want_coverage = first.coverage("apache", "faulthound")
    want_run, _ = _standalone(cfg, "apache", "faulthound", characterization)

    second = ExperimentContext(cfg, jobs=1, cache=cache)
    second.campaign("apache")
    assert second.fault_free("apache", "faulthound") == want_run
    assert _windows(second.coverage("apache", "faulthound")) == _windows(
        want_coverage)
    assert second.metrics_registry.snapshot()["counters"].get(
        "classifier_windows_total", 0) == 0


def test_run_dir_of_a_joint_pass_folds_to_complete(tmp_path):
    from repro.cli import main
    cfg = replace(_CFG, seed=4242)
    run_dir = tmp_path / "run"
    supervisor = Supervisor(SupervisorPolicy(), run_dir=run_dir)
    ctx = ExperimentContext(cfg, jobs=1, supervisor=supervisor)
    ctx.campaign("mcf")
    ctx.fault_free("mcf", "fh-backend")
    supervisor.close()
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["status", str(run_dir)]) == 0
    status = json.loads(out.getvalue())
    assert status["state"] == "complete"
    rows = {row["phase"]: row for row in status["phases"]}
    assert rows["coverage"]["scheme"] == "fh-backend"
    assert rows["coverage"]["status"] == "complete"
    assert (rows["coverage"]["windows_done"]
            == rows["coverage"]["windows_total"] > 0)


def test_baseline_and_unwanted_pairs_run_alone():
    """Only a screened scheme whose coverage is missing shares its run;
    the baseline run never computes a coverage phase."""
    ctx = ExperimentContext(replace(_CFG, seed=4242), jobs=1)
    ctx.campaign("mcf")
    ctx.fault_free("mcf", "baseline")
    assert ("mcf", "baseline") not in ctx._coverage
    ctx.coverage("mcf", "pbfs")
    built = _count_cores(ctx)
    ctx.fault_free("mcf", "pbfs")     # coverage already memoised
    assert built == ["pbfs"]


def test_fig8_at_jobs_1_steps_one_core_per_screened_pair():
    """fig. 8's request joins every pair, whatever order the figure
    then reads them in: one core per screened scheme, none for a
    coverage golden of its own."""
    cfg = replace(_CFG, seed=4242, benchmarks=("mcf",))
    ctx = ExperimentContext(cfg, jobs=1)
    built = _count_cores(ctx)
    figures.fig8(ctx)
    assert sorted(s for s in built if s != "baseline") == sorted(
        FIG8_SCHEMES)
    assert {key for key in ctx._coverage} == {
        ("mcf", scheme) for scheme in FIG8_SCHEMES}


def test_fig12_at_jobs_1_classifies_only_the_phases_it_reads():
    """With the characterisation already in the memo, fig. 12's
    ablation runs, which nothing reads the coverage of, run alone: the
    request, not the memo, decides which runs classify a phase."""
    cfg = replace(_CFG, seed=4242, benchmarks=("mcf",))
    ctx = ExperimentContext(cfg, jobs=1)
    ctx.campaign("mcf")
    windows = ctx.metrics.windows
    figures.fig12(ctx)
    assert set(ctx._coverage) == {("mcf", "fh-be-nolsq"),
                                  ("mcf", "fh-backend")}
    classified = sum(len(ctx._coverage[key].coverage_results)
                     for key in ctx._coverage)
    assert ctx.metrics.windows - windows == classified


def test_prefetch_runs_each_pair_once_and_matches_the_pull_path(tmp_path):
    """At jobs=2 a pair missing both artefacts is one worker task; the
    artefacts equal the jobs=1 pull path's, and the merged metrics count
    each classified window once."""
    cfg = replace(_CFG, seed=4242)
    schemes = ("pbfs", "faulthound")
    log = EventLog(tmp_path / "events.jsonl")
    ctx = ExperimentContext(cfg, jobs=2, events=log,
                            metrics=MetricsRegistry())
    ctx.prefetch(fault_free=schemes, coverage=schemes)
    serial = ExperimentContext(cfg, jobs=1)
    for benchmark in cfg.benchmarks:
        serial.campaign(benchmark)
        for scheme in schemes:
            assert ctx.fault_free(benchmark, scheme) == serial.fault_free(
                benchmark, scheme)
            assert _windows(ctx.coverage(benchmark, scheme)) == _windows(
                serial.coverage(benchmark, scheme))
    ctx.metrics_registry.emit(log)
    log.close()
    events = read_events(log.path)
    tasks = [event["attrs"] for event in events
             if event.get("type") == "span_start"
             and event.get("name") == "worker:fault_free"]
    assert len(tasks) == len(cfg.benchmarks) * len(schemes)
    assert all(task["coverage"] for task in tasks)
    assert not [event for event in events
                if event.get("name") == "worker:coverage"]
    counters = snapshot_from_events(events)["counters"]
    assert (counters["phase_windows_total"]
            == counters["classifier_windows_total"] > 0)
    assert ctx.metrics.windows == counters["phase_windows_total"]


def test_cache_traffic_counts_in_the_calling_context(tmp_path):
    cache = ArtifactCache(tmp_path)
    cfg = replace(_CFG, benchmarks=("mcf",))
    first = ExperimentContext(cfg, jobs=1, cache=cache)
    second = ExperimentContext(cfg, jobs=1, cache=cache)
    second.fault_free("mcf", "baseline")
    assert second.metrics_registry.snapshot()["counters"][
        "cache_puts_total"] == 1
    assert "cache_puts_total" not in first.metrics_registry.snapshot()[
        "counters"]
    assert "cache_artifact_bytes" not in first.metrics_registry.snapshot()[
        "histograms"]
