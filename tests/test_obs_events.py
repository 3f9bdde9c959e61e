"""Event-log tests: span nesting, worker spool merge, schema validity,
torn-tail tolerance and spool liveness sweeps."""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.harness.experiment import ExperimentConfig, ExperimentContext
from repro.obs import (EventLog, NULL_LOG, WORKER_DIR_ENV, check_spans,
                       read_events, summarize_events, validate_events,
                       worker_task_span)
from repro.obs import events as events_mod

_TINY = ExperimentConfig(benchmarks=("mcf",), dynamic_target=3_000,
                         num_faults=10, warmup_commits=200,
                         window_commits=100)


# ----------------------------------------------------------------------
# the log itself
# ----------------------------------------------------------------------
class TestEventLog:
    def test_run_envelope_and_close(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.emit("cache", kind="fault_free", key="abc", hit=True)
        log.close()
        events = read_events(log.path)
        assert events[0]["type"] == "run_start"
        assert events[-1]["type"] == "run_end"
        assert events[0]["run"] == events[-1]["run"]
        assert validate_events(events) == []

    def test_spans_nest_with_parent_links(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        with log.span("outer") as outer_id:
            with log.span("inner", benchmark="mcf") as inner_id:
                pass
        log.close()
        events = read_events(log.path)
        starts = {e["name"]: e for e in events if e["type"] == "span_start"}
        assert starts["outer"]["parent"] is None
        assert starts["inner"]["parent"] == outer_id
        assert starts["inner"]["span"] == inner_id
        assert starts["inner"]["attrs"] == {"benchmark": "mcf"}
        assert validate_events(events) == []

    def test_emit_after_close_is_dropped(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.close()
        log.emit("counter", name="late", value=1)
        assert read_events(log.path)[-1]["type"] == "run_end"

    def test_null_log_is_free_and_silent(self, tmp_path):
        assert NULL_LOG.enabled is False
        with NULL_LOG.span("anything", x=1):
            NULL_LOG.emit("cache", kind="fault_free", key="abc", hit=True)
            NULL_LOG.cache_event("fault_free", "abc", hit=True)
        assert NULL_LOG.worker_spool() is None
        assert NULL_LOG.absorb_worker_files() == 0
        NULL_LOG.close()


# ----------------------------------------------------------------------
# worker spools
# ----------------------------------------------------------------------
class TestWorkerSpool:
    def test_task_span_spools_and_parent_absorbs(self, tmp_path,
                                                 monkeypatch):
        log = EventLog(tmp_path / "events.jsonl")
        monkeypatch.setenv(WORKER_DIR_ENV, log.worker_spool())
        with worker_task_span("worker:unit", benchmark="mcf"):
            pass
        monkeypatch.delenv(WORKER_DIR_ENV)
        assert log.absorb_worker_files() >= 2   # span_start + span_end
        log.close()
        events = read_events(log.path)
        names = [e.get("name") for e in events if e["type"] == "span_start"]
        assert "worker:unit" in names
        assert any(e["type"] == "worker_merge" for e in events)
        assert validate_events(events) == []

    def test_task_span_without_env_is_noop(self, tmp_path):
        assert not os.environ.get(WORKER_DIR_ENV)
        with worker_task_span("worker:unit"):
            pass    # nothing written anywhere, nothing raised

    def test_truncated_spool_line_is_skipped(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        spool_dir = log.worker_spool()
        spool = os.path.join(spool_dir, "worker-999.jsonl")
        good = json.dumps({"ts": 1.0, "type": "worker_start", "pid": 999})
        with open(spool, "w") as handle:
            handle.write(good + "\n" + '{"ts": 2.0, "type": "trunc')
        assert log.absorb_worker_files() == 1
        log.close()

    def test_stale_spools_swept_on_open(self, tmp_path, monkeypatch):
        """Spool files left by a crashed previous run belong to a dead
        timeline: a fresh log deletes them instead of merging them."""
        monkeypatch.setattr(events_mod, "_pid_alive", lambda pid: False)
        path = tmp_path / "events.jsonl"
        stale_dir = path.with_name(path.name + ".workers")
        stale_dir.mkdir()
        stale = stale_dir / "worker-111.jsonl"
        stale.write_text(json.dumps(
            {"ts": 1.0, "type": "worker_start", "pid": 111}) + "\n")
        log = EventLog(path)
        assert not stale.exists()
        log.close()
        events = read_events(path)
        sweeps = [e for e in events if e["type"] == "orphan_spool"]
        assert len(sweeps) == 1
        assert sweeps[0]["files"] == 1
        assert sweeps[0]["action"] == "swept_stale"
        assert not any(e["type"] == "worker_merge" for e in events)
        assert validate_events(events) == []

    def test_orphan_spools_dropped_on_close(self, tmp_path, monkeypatch):
        """A spool a worker is still writing at shutdown is absorbed by
        close(); an unreadable leftover is deleted and recorded."""
        monkeypatch.setattr(events_mod, "_pid_alive", lambda pid: False)
        log = EventLog(tmp_path / "events.jsonl")
        spool_dir = log.worker_spool()
        # simulate absorb_worker_files failing to consume one spool
        orphan = os.path.join(spool_dir, "worker-222.jsonl")
        real_absorb = log.absorb_worker_files

        def absorb_then_orphan():
            count = real_absorb()
            with open(orphan, "w") as handle:
                handle.write(json.dumps({"ts": 9.0, "type": "worker_start",
                                         "pid": 222}) + "\n")
            return count

        monkeypatch.setattr(log, "absorb_worker_files", absorb_then_orphan)
        log.close()
        assert not os.path.exists(orphan)
        assert not os.path.isdir(spool_dir)    # empty dir removed too
        events = read_events(log.path)
        drops = [e for e in events if e["type"] == "orphan_spool"]
        assert len(drops) == 1
        assert drops[0]["action"] == "deleted"
        assert validate_events(events) == []


# ----------------------------------------------------------------------
# spool sweep edge cases: empty spools, live owners, nested dirs
# ----------------------------------------------------------------------
class TestSpoolSweepEdges:
    def test_empty_spool_is_swept_without_marker(self, tmp_path,
                                                 monkeypatch):
        """A zero-byte spool (worker died before its first flush) is
        deleted on open like any stale spool."""
        monkeypatch.setattr(events_mod, "_pid_alive", lambda pid: False)
        path = tmp_path / "events.jsonl"
        stale_dir = path.with_name(path.name + ".workers")
        stale_dir.mkdir()
        empty = stale_dir / "worker-321.jsonl"
        empty.touch()
        log = EventLog(path)
        assert not empty.exists()
        log.close()
        events = read_events(path)
        sweeps = [e for e in events if e["type"] == "orphan_spool"]
        assert [e["action"] for e in sweeps] == ["swept_stale"]
        assert validate_events(events) == []

    def test_live_foreign_spool_is_kept_on_open(self, tmp_path,
                                                monkeypatch):
        """A spool whose encoded pid is a *live* foreign process (a
        concurrent run's worker) must not be stolen by the sweep."""
        monkeypatch.setattr(events_mod, "_pid_alive", lambda pid: True)
        path = tmp_path / "events.jsonl"
        stale_dir = path.with_name(path.name + ".workers")
        stale_dir.mkdir()
        live = stale_dir / "worker-4242.jsonl"
        live.write_text(json.dumps(
            {"ts": 1.0, "type": "worker_start", "pid": 4242}) + "\n")
        log = EventLog(path)
        assert live.exists()
        events_so_far = read_events(path)
        kept = [e for e in events_so_far if e["type"] == "orphan_spool"]
        assert len(kept) == 1
        assert kept[0]["action"] == "kept_live"
        assert kept[0]["files"] == 1
        live.unlink()   # let close() tear down cleanly
        log.close()
        assert validate_events(read_events(path)) == []

    def test_own_pid_spool_is_swept_even_while_alive(self, tmp_path):
        """Our own pid is always sweepable: a spool named after us is a
        leftover from a previous log in the same process."""
        path = tmp_path / "events.jsonl"
        stale_dir = path.with_name(path.name + ".workers")
        stale_dir.mkdir()
        own = stale_dir / f"worker-{os.getpid()}.jsonl"
        own.write_text(json.dumps(
            {"ts": 1.0, "type": "worker_start", "pid": os.getpid()}) + "\n")
        log = EventLog(path)
        assert not own.exists()
        log.close()
        sweeps = [e for e in read_events(path)
                  if e["type"] == "orphan_spool"]
        assert [e["action"] for e in sweeps] == ["swept_stale"]

    def test_nested_directory_in_spool_dir_survives(self, tmp_path,
                                                    monkeypatch):
        """A directory that happens to match the spool glob is not a
        spool: the sweep skips it (unlink fails), close() leaves the
        spool dir in place, and nothing raises."""
        monkeypatch.setattr(events_mod, "_pid_alive", lambda pid: False)
        path = tmp_path / "events.jsonl"
        spool_dir = path.with_name(path.name + ".workers")
        nested = spool_dir / "worker-777.jsonl"
        nested.mkdir(parents=True)
        (nested / "inner.txt").write_text("not a spool\n")
        log = EventLog(path)
        log.close()
        assert nested.is_dir()                 # untouched
        assert (nested / "inner.txt").exists()
        assert spool_dir.is_dir()              # rmdir declined, no raise
        events = read_events(path)
        assert not any(e["type"] == "worker_merge" for e in events)
        assert validate_events(events) == []

    def test_live_foreign_spool_kept_on_close(self, tmp_path,
                                              monkeypatch):
        """The close-time orphan drop honours liveness too: a live
        foreign spool is recorded as kept, not deleted."""
        monkeypatch.setattr(events_mod, "_pid_alive", lambda pid: True)
        log = EventLog(tmp_path / "events.jsonl")
        spool_dir = log.worker_spool()
        orphan = os.path.join(spool_dir, "worker-5151.jsonl")
        real_absorb = log.absorb_worker_files

        def absorb_then_orphan():
            count = real_absorb()
            with open(orphan, "w") as handle:
                handle.write(json.dumps({"ts": 9.0, "type": "worker_start",
                                         "pid": 5151}) + "\n")
            return count

        monkeypatch.setattr(log, "absorb_worker_files", absorb_then_orphan)
        log.close()
        assert os.path.exists(orphan)          # not stolen
        assert os.path.isdir(spool_dir)        # rmdir declined
        drops = [e for e in read_events(log.path)
                 if e["type"] == "orphan_spool"]
        assert len(drops) == 1
        assert drops[0]["action"] == "kept_live"
        assert validate_events(read_events(log.path)) == []


# ----------------------------------------------------------------------
# torn final lines: a writer SIGKILLed mid-append must not poison reads
# ----------------------------------------------------------------------
class TestTornTail:
    def test_unparseable_tail_becomes_note_event(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        tail = '{"ts": 2.0, "type": "counter", "na'
        path.write_text('{"ts": 1.5, "type": "worker_start", "pid": 7}\n'
                        + tail)
        events = read_events(path)
        assert [e["type"] for e in events] == ["worker_start",
                                               "truncated_tail"]
        note = events[-1]
        assert note["line"] == 2
        assert note["bytes"] == len(tail.encode())
        assert note["ts"] == 1.5       # inherits the last good timestamp
        assert validate_events(events) == []

    def test_parseable_tail_without_newline_is_kept(self, tmp_path):
        path = tmp_path / "flushless.jsonl"
        path.write_text('{"ts": 1.0, "type": "worker_start", "pid": 7}\n'
                        '{"ts": 2.0, "type": "counter", "pid": 7, '
                        '"name": "n", "value": 1, "attrs": {}}')
        events = read_events(path)
        assert [e["type"] for e in events] == ["worker_start", "counter"]

    def test_corrupt_interior_line_still_fatal(self, tmp_path):
        """Torn-tail tolerance is only for the final newline-less line;
        garbage *with* a newline stays a hard error."""
        path = tmp_path / "bad.jsonl"
        path.write_text('not json\n{"ts": 2.0, "type": "x", "pid": 1}\n')
        with pytest.raises(ValueError, match="not JSON"):
            read_events(path)

    def test_sigkilled_writer_leaves_readable_log(self, tmp_path):
        """End to end: a child process SIGKILLs itself halfway through
        an append; the log stays readable and the ragged end surfaces
        as one truncated_tail note."""
        path = tmp_path / "killed.jsonl"
        script = (
            "import os, signal, sys\n"
            "handle = open(sys.argv[1], 'w')\n"
            "handle.write('{\"ts\": 1.0, \"type\": \"worker_start\", "
            "\"pid\": 7}\\n')\n"
            "handle.write('{\"ts\": 2.0, \"type\": \"counter\", \"val')\n"
            "handle.flush()\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
        proc = subprocess.run([sys.executable, "-c", script, str(path)])
        assert proc.returncode == -signal.SIGKILL
        events = read_events(path)
        assert [e["type"] for e in events] == ["worker_start",
                                               "truncated_tail"]
        assert validate_events(events) == []


# ----------------------------------------------------------------------
# logs written by older versions
# ----------------------------------------------------------------------
class TestLegacyEvents:
    def test_counter_and_heartbeat_events_still_validate(self, tmp_path):
        """Supervised campaigns once logged ``campaign_progress`` counter
        samples and ``heartbeat`` beacons; those logs stay valid."""
        path = tmp_path / "events.jsonl"
        lines = [
            {"ts": 1.0, "type": "run_start", "pid": 7, "run": "run-7-1",
             "schema": 1},
            {"ts": 1.1, "type": "counter", "pid": 7,
             "name": "campaign_progress", "value": 3,
             "attrs": {"phase": "characterize", "benchmark": "mcf",
                       "scheme": "baseline", "total": 10}},
            {"ts": 1.2, "type": "heartbeat", "pid": 7,
             "phase": "characterize", "benchmark": "mcf",
             "scheme": "baseline", "running": 2, "pending": 1,
             "workers": [8, 9], "windows_done": 3, "windows_total": 10},
            {"ts": 1.3, "type": "run_end", "pid": 7, "run": "run-7-1"},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        events = read_events(path)
        assert [e["type"] for e in events] == [
            "run_start", "counter", "heartbeat", "run_end"]
        assert validate_events(events) == []


# ----------------------------------------------------------------------
# schema structural checks
# ----------------------------------------------------------------------
class TestSpanDiscipline:
    def test_unclosed_span_is_an_error(self):
        events = [{"ts": 1, "type": "span_start", "pid": 1, "span": "1:1",
                   "name": "open", "attrs": {}}]
        assert any("never ended" in e for e in check_spans(events))

    def test_out_of_order_close_is_an_error(self):
        events = [
            {"ts": 1, "type": "span_start", "pid": 1, "span": "1:1",
             "name": "a", "attrs": {}},
            {"ts": 2, "type": "span_start", "pid": 1, "span": "1:2",
             "name": "b", "attrs": {}},
            {"ts": 3, "type": "span_end", "pid": 1, "span": "1:1",
             "name": "a", "seconds": 0.1},
        ]
        assert any("out of order" in e for e in check_spans(events))

    def test_interleaved_pids_nest_independently(self):
        events = [
            {"ts": 1, "type": "span_start", "pid": 1, "span": "1:1",
             "name": "a", "attrs": {}},
            {"ts": 2, "type": "span_start", "pid": 2, "span": "2:1",
             "name": "b", "attrs": {}},
            {"ts": 3, "type": "span_end", "pid": 1, "span": "1:1",
             "name": "a", "seconds": 0.1},
            {"ts": 4, "type": "span_end", "pid": 2, "span": "2:1",
             "name": "b", "seconds": 0.1},
        ]
        assert check_spans(events) == []


# ----------------------------------------------------------------------
# end to end: a parallel campaign's log is schema-valid and nested
# ----------------------------------------------------------------------
class TestCampaignLog:
    def test_parallel_campaign_log_is_schema_valid(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        ctx = ExperimentContext(_TINY, jobs=2, events=log)
        ctx.campaign("mcf")
        coverage = ctx.coverage("mcf", "faulthound")
        log.close()
        events = read_events(log.path)
        assert validate_events(events) == []
        audits = [e for e in events if e["type"] == "fault_audit"]
        assert sum(1 for e in audits
                   if e["phase"] == "characterize") == _TINY.num_faults
        assert sum(1 for e in audits if e["phase"] == "coverage") == len(
            coverage.coverage_results)
        summary = summarize_events(events)
        assert "phase:characterize" in summary["span_seconds"]
        # the spool directory was fully absorbed
        assert not any(log.worker_dir.glob("worker-*.jsonl"))

    def test_serial_campaign_log_is_schema_valid(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        ctx = ExperimentContext(_TINY, jobs=1, events=log)
        ctx.campaign("mcf")
        log.close()
        events = read_events(log.path)
        assert validate_events(events) == []
        assert sum(1 for e in events
                   if e["type"] == "fault_audit") == _TINY.num_faults

    def test_read_events_rejects_corrupt_log(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ts": 1}\nnot json\n')
        with pytest.raises(ValueError, match="not JSON"):
            read_events(path)
