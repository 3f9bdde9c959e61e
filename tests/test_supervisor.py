"""Tests for the resilient campaign supervisor.

The contract under test: supervision is a pure reliability layer — on a
healthy machine the supervised, failure-retried and resumed-after-
SIGKILL paths all yield bit-for-bit the results of the unchunked
``Campaign.characterize`` / ``run_coverage`` reference, and a
deterministically poisonous window is bisected and quarantined without
taking its neighbours down with it.

Failures are injected in-process by patching
:meth:`TandemClassifier.run <repro.faults.classifier.TandemClassifier.
run>`, the call each chunk makes.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.faults import Campaign
from repro.faults.classifier import TandemClassifier
from repro.harness import (ExperimentConfig, ExperimentContext, Supervisor,
                           SupervisorPolicy, summarize_run_dir)
from repro.harness.supervisor import (CampaignAborted, CampaignJournal,
                                      EXIT_ABORTED, EXIT_QUARANTINE)

# geometry matching `repro campaign mcf --faults 10`: produces a small
# but non-empty SDC set, so the coverage phase is exercised for real
_TINY = ExperimentConfig(benchmarks=("mcf",), dynamic_target=2_200,
                         num_faults=10, warmup_commits=400,
                         window_commits=150, max_window_cycles=60_000)

_FAST_BACKOFF = dict(backoff_base=0.01, backoff_max=0.05)


@pytest.fixture(scope="module")
def serial_reference():
    # the unchunked Campaign reference, outside the supervisor
    ctx = ExperimentContext(_TINY, jobs=1)
    campaign = ctx.build_campaign("mcf")
    characterization = campaign.characterize()
    coverage = campaign.run_coverage(
        "faulthound", lambda: ctx.make_core("mcf", "faulthound"),
        characterization)
    return characterization, coverage


def _fail_first_attempts(monkeypatch, every=2):
    """Make the first attempt of every *every*-th chunk raise (keyed by
    the chunk's first window); returns the keys that failed."""
    real_run = TandemClassifier.run
    failed = set()

    def flaky(self, records, **kwargs):
        first = records[0].index
        if first % every == 0 and first not in failed:
            failed.add(first)
            raise RuntimeError("injected transient failure")
        return real_run(self, records, **kwargs)

    monkeypatch.setattr(TandemClassifier, "run", flaky)
    return failed


def _assert_status_matches(run_dir, reports):
    """``repro status``'s fold agrees with the supervisor's own reports,
    phase for phase, and every phase is settled."""
    summary = summarize_run_dir(run_dir)
    planned = [r for r in reports if r.windows or r.quarantined]
    rows = {(p["phase"], p["benchmark"], p["scheme"]): p
            for p in summary["phases"]}
    assert len(rows) == len(summary["phases"])
    assert sorted(rows) == sorted((r.phase, r.benchmark, r.scheme)
                                  for r in planned)
    for report in planned:
        row = rows[(report.phase, report.benchmark, report.scheme)]
        assert row["windows_done"] == len(report.windows)
        assert row["quarantined"] == len(report.quarantined)
        assert (row["windows_done"] + row["quarantined"]
                == row["windows_total"])
        assert row["status"] == report.status
    return summary


# ----------------------------------------------------------------------
# one dispatcher: every phase runs in-process
# ----------------------------------------------------------------------
class TestSelection:
    def test_single_chunk_phase_stays_in_process(self, serial_reference,
                                                 monkeypatch, tmp_path):
        """Under the context's own supervisor, a one-SDC coverage phase
        at jobs>1 plans one chunk and runs it in-process: no process
        pool, no checkpoint."""
        import concurrent.futures
        from repro.harness import parallel
        from repro.obs import EventLog, read_events
        from repro.pipeline import CoreCheckpoint
        s_char, s_cov = serial_reference

        def forbidden(*args, **kwargs):
            raise AssertionError("a campaign phase left the process")

        for owner in (parallel, concurrent.futures):
            monkeypatch.setattr(owner, "ProcessPoolExecutor", forbidden)
        monkeypatch.setattr(CoreCheckpoint, "capture", forbidden)
        events_path = tmp_path / "events.jsonl"
        events = EventLog(events_path)
        ctx = ExperimentContext(_TINY, jobs=3, events=events)
        sdc = Campaign.sdc_records(s_char)[:1]
        report = ctx.supervisor.classify_windows(
            _TINY, ctx.hw, "mcf", "faulthound", sdc, phase="coverage",
            ctx=ctx)
        events.close()
        assert report.windows == s_cov.coverage_results[:1]
        plans = [e for e in read_events(events_path)
                 if e.get("type") == "supervisor"
                 and e.get("action") == "plan"]
        assert [p["chunks"] for p in plans] == [1]

    def test_context_builds_a_journal_less_supervisor(self):
        ctx = ExperimentContext(_TINY, jobs=2)
        assert isinstance(ctx.supervisor, Supervisor)
        assert ctx.supervisor.run_dir is None
        assert ctx.supervisor.journal is None
        assert ctx.supervisor.policy == SupervisorPolicy()


# ----------------------------------------------------------------------
# equivalence on a healthy machine
# ----------------------------------------------------------------------
class TestSupervisedEquivalence:
    def test_supervised_serial_matches_serial(self, serial_reference):
        s_char, s_cov = serial_reference
        sup = Supervisor(SupervisorPolicy(chunk_windows=3))
        ctx = ExperimentContext(_TINY, jobs=1, supervisor=sup)
        _, characterization = ctx.campaign("mcf")
        coverage = ctx.coverage("mcf", "faulthound")
        assert characterization.characterization == s_char.characterization
        assert coverage.coverage_results == s_cov.coverage_results
        assert sup.status == "complete" and sup.exit_code == 0

    def test_supervised_pool_matches_serial(self, serial_reference,
                                            tmp_path):
        """A journaled campaign asked for ``jobs=3`` matches the serial
        reference. Campaigns no longer fan chunks out to a pool: the
        phases run in-process whatever ``jobs`` says, and the journal
        and status file record them as before."""
        s_char, s_cov = serial_reference
        sup = Supervisor(SupervisorPolicy(chunk_windows=3),
                         run_dir=tmp_path / "run")
        ctx = ExperimentContext(_TINY, jobs=3, supervisor=sup)
        _, characterization = ctx.campaign("mcf")
        coverage = ctx.coverage("mcf", "faulthound")
        sup.close()
        assert characterization.characterization == s_char.characterization
        assert coverage.coverage_results == s_cov.coverage_results
        assert sup.status == "complete" and sup.exit_code == 0
        # the supervisor reports the characterisation phase clean
        report = sup.reports[0]
        assert report.phase == "characterize"
        assert report.retries == 0
        assert report.quarantined == []
        assert characterization.quarantined == []
        records = list(CampaignJournal.read(tmp_path / "run"))
        types = [r["type"] for r in records]
        assert "plan" in types and "chunk_done" in types
        assert types.count("phase_done") == 2    # characterize + coverage
        summary = _assert_status_matches(tmp_path / "run", sup.reports)
        assert summary["state"] == "complete"

    def test_transient_crashes_retried_to_convergence(
            self, serial_reference, monkeypatch):
        """Chunks whose first attempt raises are retried until every
        chunk lands; nobody is quarantined, results identical."""
        s_char, s_cov = serial_reference
        failed = _fail_first_attempts(monkeypatch)
        sup = Supervisor(SupervisorPolicy(chunk_windows=2, **_FAST_BACKOFF))
        ctx = ExperimentContext(_TINY, jobs=1, supervisor=sup)
        _, characterization = ctx.campaign("mcf")
        coverage = ctx.coverage("mcf", "faulthound")
        assert characterization.characterization == s_char.characterization
        assert coverage.coverage_results == s_cov.coverage_results
        assert sup.status == "complete"
        assert not sup.quarantined
        assert len(failed) > 1
        assert sum(r.retries for r in sup.reports) >= len(failed)


# ----------------------------------------------------------------------
# serial backoff must not block dispatch
# ----------------------------------------------------------------------
class TestSerialBackoff:
    def test_ready_chunks_dispatch_while_one_backs_off(
            self, serial_reference, monkeypatch):
        """Regression: the serial path used to ``time.sleep`` through a
        failed chunk's whole backoff delay and then retry it at the
        front, so one flaky chunk stalled every ready chunk behind it.
        Now a backing-off chunk is skipped and revisited: the very next
        dispatch after the failure must be a *different* chunk, and the
        failed one still completes (from a golden copy at its boundary)
        later."""
        s_char, _ = serial_reference
        real_run = TandemClassifier.run
        calls, tripped = [], []

        def spy(self, records, **kwargs):
            calls.append(records[0].index)
            if records[0].index == 0 and not tripped:
                tripped.append(True)
                raise RuntimeError("injected transient failure")
            return real_run(self, records, **kwargs)

        monkeypatch.setattr(TandemClassifier, "run", spy)
        sup = Supervisor(SupervisorPolicy(max_retries=3, chunk_windows=3,
                                          backoff_base=0.75,
                                          backoff_max=1.0))
        ctx = ExperimentContext(_TINY, jobs=1, supervisor=sup)
        _, characterization = ctx.campaign("mcf")
        assert sup.status == "complete"
        assert not sup.quarantined
        assert characterization.characterization == s_char.characterization
        # first dispatch was chunk 0 and it failed; with 0 backing off
        # for >= 0.75 s the dispatcher moved on instead of sleeping
        assert calls[0] == 0
        assert calls[1] != 0, (
            "a chunk in backoff was retried immediately instead of "
            "letting ready chunks dispatch")
        assert 0 in calls[1:]       # ...and the chunk was revisited

    def test_a_retry_rebuilds_the_golden_core_once(self, serial_reference,
                                                   monkeypatch):
        """A failed chunk drops the live golden core. The chunk after it
        rebuilds one, which leaves a copy at the failed chunk's boundary
        as it steps past; the retry restarts from that copy, so the
        phase builds one core more than a healthy one, not two."""
        s_char, _ = serial_reference
        real_run = TandemClassifier.run
        calls = []

        def fails_second(self, records, **kwargs):
            calls.append(records[0].index)
            if len(calls) == 2:
                raise RuntimeError("injected transient failure")
            return real_run(self, records, **kwargs)

        monkeypatch.setattr(TandemClassifier, "run", fails_second)
        sup = Supervisor(SupervisorPolicy(max_retries=3, chunk_windows=3,
                                          backoff_base=0.75,
                                          backoff_max=1.0))
        ctx = ExperimentContext(_TINY, jobs=1, supervisor=sup)
        built = []
        make_core = ctx.make_core
        ctx.make_core = lambda *args: built.append(args) or make_core(*args)
        _, characterization = ctx.campaign("mcf")
        assert characterization.characterization == s_char.characterization
        failed = calls[1]
        assert calls.index(failed, 2) > 2     # later chunks ran first
        assert len(built) == 2


# ----------------------------------------------------------------------
# poison-window quarantine
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_poison_window_quarantined_alone(self, serial_reference,
                                             monkeypatch, tmp_path):
        """A deterministically failing window is bisected down and
        quarantined; its innocent chunk-mates all complete bit-for-bit."""
        s_char, _ = serial_reference
        real_run = TandemClassifier.run

        def poisoned(self, records, **kwargs):
            if any(record.index == 4 for record in records):
                raise RuntimeError("injected deterministic poison")
            return real_run(self, records, **kwargs)

        monkeypatch.setattr(TandemClassifier, "run", poisoned)
        run_dir = tmp_path / "run"
        sup = Supervisor(SupervisorPolicy(max_retries=1, chunk_windows=3,
                                          **_FAST_BACKOFF),
                         run_dir=run_dir)
        ctx = ExperimentContext(_TINY, jobs=1, supervisor=sup)
        _, characterization = ctx.campaign("mcf")
        sup.close()
        assert sup.status == "complete-with-quarantine"
        assert sup.exit_code == EXIT_QUARANTINE
        assert [q.index for q in sup.quarantined] == [4]
        assert sup.quarantined[0].reason == "exception"
        expected = [w for i, w in enumerate(s_char.characterization)
                    if i != 4]
        assert characterization.characterization == expected
        assert characterization.quarantined == sup.quarantined
        assert len(characterization.quarantined) == 1
        assert ctx.metrics_registry.snapshot()["counters"][
            "supervisor_quarantined_total"] == 1
        # the quarantine is journalled, and the journal is its one record
        assert not (run_dir / "poisoned.jsonl").exists()
        summary = _assert_status_matches(run_dir, sup.reports)
        assert summary["state"] == "complete-with-quarantine"
        assert summary["quarantined"] == 1
        window = summary["quarantined_windows"][0]
        assert (window["phase"], window["benchmark"], window["scheme"],
                window["index"], window["reason"]) \
            == ("characterize", "mcf", "baseline", 4, "exception")



# ----------------------------------------------------------------------
# a quarantined phase is never cached
# ----------------------------------------------------------------------
class TestPartialResults:
    def test_quarantine_never_caches_partial_results(
            self, serial_reference, monkeypatch, tmp_path):
        """A phase that quarantined a window must not publish its
        reduced result to the artifact cache."""
        from repro.harness import ArtifactCache
        real_run = TandemClassifier.run

        def poisoned(self, records, **kwargs):
            if any(record.index == 0 for record in records):
                raise RuntimeError("injected deterministic poison")
            return real_run(self, records, **kwargs)

        monkeypatch.setattr(TandemClassifier, "run", poisoned)
        cache = ArtifactCache(tmp_path / "cache")
        sup = Supervisor(SupervisorPolicy(max_retries=1, chunk_windows=3,
                                          **_FAST_BACKOFF))
        ctx = ExperimentContext(_TINY, jobs=2, supervisor=sup,
                                cache=cache)
        _, characterization = ctx.campaign("mcf")
        assert sup.status == "complete-with-quarantine"
        assert [q.index for q in sup.quarantined] == [0]
        assert characterization.quarantined == sup.quarantined
        assert not list((tmp_path / "cache").rglob("characterize/*.pkl"))

    def test_prefetch_never_caches_partial_results(self, monkeypatch,
                                                   tmp_path):
        """Phases that prefetch workers classify under their own
        supervisors obey the same rule: a worker's quarantine keeps the
        phase (and any coverage over it) out of the artifact cache, and
        the parent's supervisor reports it."""
        from repro.harness import ArtifactCache
        from repro.harness import parallel
        # a fresh worker-context memo, so an in-process fallback cannot
        # leak poisoned contexts into later tests
        monkeypatch.setattr(parallel, "_WORKER_CONTEXTS", {})
        real_run = TandemClassifier.run

        def poisoned(self, records, **kwargs):
            if any(record.index == 0 for record in records):
                raise RuntimeError("injected deterministic poison")
            return real_run(self, records, **kwargs)

        monkeypatch.setattr(TandemClassifier, "run", poisoned)
        cfg = replace(_TINY, benchmarks=("mcf", "bzip2"))
        cache = ArtifactCache(tmp_path / "cache")
        ctx = ExperimentContext(cfg, jobs=2, cache=cache)
        ctx.prefetch(campaigns=True, coverage=("faulthound",))
        for benchmark in cfg.benchmarks:
            _, characterization = ctx.campaign(benchmark)
            assert [q.index for q in characterization.quarantined] == [0]
        # the parent's supervisor counts each worker's quarantine once
        assert ctx.metrics_registry.snapshot()["counters"][
            "supervisor_quarantined_total"] == len(cfg.benchmarks)
        assert ctx.supervisor.status == "complete-with-quarantine"
        assert sorted(q.benchmark for q in ctx.supervisor.quarantined
                      if q.phase == "characterize") == ["bzip2", "mcf"]
        assert not list((tmp_path / "cache").rglob("characterize/*.pkl"))
        assert not list((tmp_path / "cache").rglob("coverage/*.pkl"))


# ----------------------------------------------------------------------
# drain / abort
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_aborts_with_resume_hint(self, tmp_path):
        run_dir = tmp_path / "run"
        sup = Supervisor(SupervisorPolicy(chunk_windows=3),
                         run_dir=run_dir)
        sup.request_drain()
        ctx = ExperimentContext(_TINY, jobs=1, supervisor=sup)
        with pytest.raises(CampaignAborted) as excinfo:
            ctx.campaign("mcf")
        sup.close()
        assert sup.status == "aborted"
        assert sup.exit_code == EXIT_ABORTED
        assert "repro resume" in str(excinfo.value)

    def test_drain_mid_phase_aborts_then_resumes(
            self, serial_reference, monkeypatch, tmp_path):
        """A drain requested while a phase runs lets the chunk in
        progress land, aborts with the resume hint — and the resume (a
        gap starting past window 0) converges to the reference."""
        s_char, _ = serial_reference
        run_dir = tmp_path / "run"
        policy = SupervisorPolicy(chunk_windows=2)
        first = Supervisor(policy, run_dir=run_dir)
        real_run = TandemClassifier.run

        def drain_after_first(self, records, **kwargs):
            windows = real_run(self, records, **kwargs)
            first.request_drain()
            return windows

        monkeypatch.setattr(TandemClassifier, "run", drain_after_first)
        ctx = ExperimentContext(_TINY, jobs=1, supervisor=first)
        with pytest.raises(CampaignAborted) as excinfo:
            ctx.campaign("mcf")
        first.close()
        monkeypatch.setattr(TandemClassifier, "run", real_run)
        assert "repro resume" in str(excinfo.value)
        assert first.status == "aborted"
        records = CampaignJournal.read(run_dir)
        assert records[-1]["type"] == "drain"
        assert "phase_done" not in [r["type"] for r in records]
        done = [(r["lo"], r["hi"]) for r in records
                if r["type"] == "chunk_done"]
        assert done == [(0, 2)]

        second = Supervisor(policy, run_dir=run_dir)
        ctx2 = ExperimentContext(_TINY, jobs=1, supervisor=second)
        _, characterization = ctx2.campaign("mcf")
        second.close()
        assert characterization.characterization == s_char.characterization
        assert second.reports[0].chunks_resumed == len(done)
        _assert_status_matches(run_dir, second.reports)

    def test_graceful_handler_requests_drain(self):
        before = signal.getsignal(signal.SIGTERM)
        sup = Supervisor(SupervisorPolicy())
        with sup.graceful():
            os.kill(os.getpid(), signal.SIGTERM)
            # the handler runs synchronously on the main thread
            assert sup.drain
        # original disposition restored on exit
        assert signal.getsignal(signal.SIGTERM) == before


# ----------------------------------------------------------------------
# journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_truncated_tail_is_noted(self, tmp_path):
        """A torn final line (writer SIGKILLed mid-append) is surfaced
        as a synthetic ``truncated_tail`` record — visible to audits,
        ignored by resume's replay — instead of being silently dropped
        or failing the read."""
        journal = CampaignJournal(tmp_path)
        journal.append({"type": "plan", "chunks": 4})
        journal.append({"type": "chunk_done", "key": "k", "lo": 0,
                        "hi": 3, "windows": 3, "attempt": 1})
        journal.close()
        torn = '{"type": "chunk_done", "key": "trunc'
        with open(tmp_path / "journal.jsonl", "a") as handle:
            handle.write(torn)
        records = list(CampaignJournal.read(tmp_path))
        assert [r["type"] for r in records] == [
            "plan", "chunk_done", "truncated_tail"]
        note = records[-1]
        assert note["line"] == 3
        assert note["bytes"] == len(torn.encode("utf-8"))

    def test_interior_corruption_is_loud(self, tmp_path):
        """Garbage *before* the final line is real corruption, not a
        torn append — the read fails with the offending line number."""
        journal = CampaignJournal(tmp_path)
        journal.append({"type": "plan", "chunks": 4})
        journal.close()
        with open(tmp_path / "journal.jsonl", "a") as handle:
            handle.write("not json at all\n")
            handle.write('{"type": "chunk_done", "key": "k"}\n')
        with pytest.raises(ValueError, match="journal.jsonl:2"):
            CampaignJournal.read(tmp_path)

    def test_resume_survives_torn_tail(self, serial_reference, tmp_path):
        """End to end: a journal whose writer died mid-append still
        resumes, adopts every complete chunk_done, and converges to the
        serial reference bit-for-bit."""
        s_char, _ = serial_reference
        run_dir = tmp_path / "run"
        policy = SupervisorPolicy(chunk_windows=3)
        first = Supervisor(policy, run_dir=run_dir)
        ctx = ExperimentContext(_TINY, jobs=2, supervisor=first)
        ctx.campaign("mcf")
        first.close()
        # tear the tail the way a SIGKILL mid-append would
        with open(run_dir / "journal.jsonl", "a") as handle:
            handle.write('{"type": "chunk_done", "key": "torn", "lo"')
        second = Supervisor(policy, run_dir=run_dir)
        ctx2 = ExperimentContext(_TINY, jobs=2, supervisor=second)
        _, characterization = ctx2.campaign("mcf")
        second.close()
        assert characterization.characterization == s_char.characterization
        assert sum(r.chunks_resumed for r in second.reports) > 0

    def test_resume_skips_journalled_chunks(self, serial_reference,
                                            tmp_path):
        """Re-running a completed campaign in the same run dir adopts
        every chunk from the journal and recomputes nothing."""
        s_char, s_cov = serial_reference
        run_dir = tmp_path / "run"
        policy = SupervisorPolicy(chunk_windows=3)
        first = Supervisor(policy, run_dir=run_dir)
        ctx = ExperimentContext(_TINY, jobs=2, supervisor=first)
        ctx.campaign("mcf")
        ctx.coverage("mcf", "faulthound")
        first.close()

        second = Supervisor(policy, run_dir=run_dir)
        ctx2 = ExperimentContext(_TINY, jobs=2, supervisor=second)
        _, characterization = ctx2.campaign("mcf")
        coverage = ctx2.coverage("mcf", "faulthound")
        second.close()
        assert characterization.characterization == s_char.characterization
        assert coverage.coverage_results == s_cov.coverage_results
        assert all(r.chunks_run == 0 for r in second.reports)
        assert sum(r.chunks_resumed for r in second.reports) > 0
        _assert_status_matches(run_dir, second.reports)

    def test_rerun_chunks_count_once(self, serial_reference, tmp_path):
        """A resume whose chunk pickles are gone re-runs and re-journals
        the same windows; the status fold still counts each once."""
        s_char, _ = serial_reference
        run_dir = tmp_path / "run"
        policy = SupervisorPolicy(chunk_windows=3)
        first = Supervisor(policy, run_dir=run_dir)
        ExperimentContext(_TINY, jobs=1, supervisor=first).campaign("mcf")
        first.close()
        shutil.rmtree(run_dir / "chunks")
        second = Supervisor(policy, run_dir=run_dir)
        ctx = ExperimentContext(_TINY, jobs=1, supervisor=second)
        _, characterization = ctx.campaign("mcf")
        second.close()
        assert characterization.characterization == s_char.characterization
        assert second.reports[0].chunks_run > 0
        summary = _assert_status_matches(run_dir, second.reports)
        assert summary["by_type"]["chunk_done"] \
            == 2 * summary["phases"][0]["chunks_done"]


# ----------------------------------------------------------------------
# the status fold over a run directory holding several phases
# ----------------------------------------------------------------------
class TestStatusFold:
    def test_two_benchmarks_are_two_phases(self, tmp_path):
        config = replace(_TINY, benchmarks=("mcf", "bzip2"), num_faults=6)
        run_dir = tmp_path / "run"
        sup = Supervisor(SupervisorPolicy(chunk_windows=3),
                         run_dir=run_dir)
        ctx = ExperimentContext(config, jobs=1, supervisor=sup)
        ctx.campaign("mcf")
        ctx.campaign("bzip2")
        sup.close()
        summary = _assert_status_matches(run_dir, sup.reports)
        assert [(p["phase"], p["benchmark"], p["windows_done"],
                 p["windows_total"]) for p in summary["phases"]] == [
            ("characterize", "mcf", 6, 6), ("characterize", "bzip2", 6, 6)]
        assert summary["windows_done"] == summary["windows_total"] == 12

    def test_two_schemes_over_one_characterization(self, serial_reference,
                                                   tmp_path):
        _, s_cov = serial_reference
        run_dir = tmp_path / "run"
        sup = Supervisor(SupervisorPolicy(chunk_windows=3),
                         run_dir=run_dir)
        ctx = ExperimentContext(_TINY, jobs=1, supervisor=sup)
        ctx.coverage("mcf", "faulthound")
        ctx.coverage("mcf", "pbfs")
        sup.close()
        summary = _assert_status_matches(run_dir, sup.reports)
        sdc = len(s_cov.coverage_results)
        assert [(p["phase"], p["scheme"], p["windows_done"])
                for p in summary["phases"]] == [
            ("characterize", "baseline", _TINY.num_faults),
            ("coverage", "faulthound", sdc), ("coverage", "pbfs", sdc)]


    def test_listed_phase_without_windows_settles(self, tmp_path):
        """A listed phase with no windows (coverage of a plan without
        SDC faults) journals a plan and a phase_done, so it settles."""
        ctx = ExperimentContext(_TINY, jobs=1)
        run_dir = tmp_path / "run"
        sup = Supervisor(run_dir=run_dir)
        sup.journal_campaign([("coverage", "mcf", "faulthound")])
        assert summarize_run_dir(run_dir)["state"] == "incomplete"
        sup.classify_windows(_TINY, ctx.hw, "mcf", "faulthound", [],
                             phase="coverage")
        sup.close()
        summary = summarize_run_dir(run_dir)
        assert summary["state"] == "complete"
        assert [(p["phase"], p["windows_total"], p["status"])
                for p in summary["phases"]] == [("coverage", 0, "complete")]

    def test_journal_without_campaign_record_judges_planned_phases(
            self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.append({"type": "plan", "phase": "characterize",
                        "benchmark": "mcf", "scheme": "baseline",
                        "windows": 2})
        journal.append({"type": "chunk_done", "phase": "characterize",
                        "key": "k", "lo": 0, "hi": 2})
        journal.append({"type": "phase_done", "phase": "characterize",
                        "status": "complete"})
        journal.close()
        assert summarize_run_dir(tmp_path)["state"] == "complete"


# ----------------------------------------------------------------------
# SIGKILL + resume, end to end via the CLI
# ----------------------------------------------------------------------
def _campaign_argv(run_dir):
    return [sys.executable, "-m", "repro.cli", "campaign", "mcf",
            "--scheme", "faulthound", "--faults", "10",
            "--no-cache", "--run-dir", str(run_dir)]


def _cli_env():
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_sigkill_then_resume_is_bit_for_bit(tmp_path):
    env = _cli_env()
    ref_dir = tmp_path / "ref"
    reference = subprocess.run(_campaign_argv(ref_dir), env=env,
                               capture_output=True, text=True, timeout=240)
    assert reference.returncode == 0, reference.stderr

    int_dir = tmp_path / "interrupted"
    victim = subprocess.Popen(_campaign_argv(int_dir), env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              start_new_session=True)
    journal = int_dir / "journal.jsonl"
    deadline = time.monotonic() + 120
    try:
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break
            if journal.exists() and "chunk_done" in journal.read_text():
                break
            time.sleep(0.05)
        assert victim.poll() is None, "campaign finished before the kill"
    finally:
        try:
            os.killpg(victim.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        victim.wait(timeout=30)

    resumed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "resume", str(int_dir)],
        env=env, capture_output=True, text=True, timeout=240)
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == reference.stdout
    records = list(CampaignJournal.read(int_dir))
    assert any(r["type"] == "resume" for r in records)


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_sigkill_then_resume_cache_warm(tmp_path):
    """Resume equivalence with a warm artifact cache: chunk adoption and
    cache hits must not double-apply."""
    env = _cli_env()
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    # drop --no-cache everywhere so the artifact cache actually warms up
    argv = [a for a in _campaign_argv(tmp_path / "warm")
            if a != "--no-cache"]
    warm = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=240)
    assert warm.returncode == 0, warm.stderr
    argv = [a for a in _campaign_argv(tmp_path / "ref")
            if a != "--no-cache"]
    reference = subprocess.run(argv, env=env, capture_output=True,
                               text=True, timeout=240)
    assert reference.returncode == 0, reference.stderr

    int_dir = tmp_path / "interrupted"
    argv = [a for a in _campaign_argv(int_dir) if a != "--no-cache"]
    victim = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              start_new_session=True)
    time.sleep(0.3)
    try:
        os.killpg(victim.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    victim.wait(timeout=30)

    resumed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "resume", str(int_dir)],
        env=env, capture_output=True, text=True, timeout=240)
    if not (int_dir / "campaign.json").exists():
        # the kill can land before the manifest write; then there is
        # nothing to resume and the CLI must say so
        assert resumed.returncode == 1
        assert "campaign.json" in resumed.stderr
        return
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == reference.stdout

