"""Job-server tests: submission plumbing, scheduling, and the full
submit -> status -> cancel -> resume lifecycle with one-shot CLI parity.

The fast tier exercises the filesystem protocol (atomic queue files,
offline client verbs, serve-dir claiming) without running campaigns.
The slow tier runs real servers as subprocesses and holds them to the
tentpole contract: every served task's captured stdout is bit-for-bit
the one-shot ``repro campaign`` output, including after cancel+resume
and after SIGKILLing the server with work in flight.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.harness.client import ServeClient
from repro.harness.server import (JobServer, ServeError, derive_job_state,
                                  jittered_backoff, job_doc_from_submission,
                                  job_summary, pid_alive, read_json,
                                  socket_path_for)

_SPEC = {"kind": "repro.campaign.src", "version": 1, "name": "t",
         "defaults": {"benchmark": "mcf", "faults": 10,
                      "no_cache": True}}


def _write_spec(path, **overrides):
    document = dict(_SPEC)
    document.update(overrides)
    path.write_text(json.dumps(document))
    return path


def _cli_env():
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _repro(*argv, **kwargs):
    kwargs.setdefault("env", _cli_env())
    kwargs.setdefault("capture_output", True)
    kwargs.setdefault("text", True)
    kwargs.setdefault("timeout", 240)
    return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          **kwargs)


def _oneshot_stdout(benchmark, faults=10, run_dir=None):
    argv = ["campaign", benchmark, "--scheme", "faulthound",
            "--faults", str(faults), "--seed", "3", "--batch-lanes", "1",
            "--max-retries", "3", "--chunk-windows", "8", "--no-cache"]
    if run_dir is not None:
        argv += ["--run-dir", str(run_dir)]
    result = _repro(*argv)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _task_out(serve_dir, job_id):
    job_dir = serve_dir / "jobs" / job_id
    outs = sorted(job_dir.glob("task-*.out"))
    assert outs, f"no task stdout under {job_dir}"
    return outs[0].read_text()


# ----------------------------------------------------------------------
# fast: filesystem protocol and offline client verbs
# ----------------------------------------------------------------------
class TestSubmissionPlumbing:
    def test_submit_without_server_queues_on_disk(self, tmp_path):
        spec = _write_spec(tmp_path / "t.src.json")
        client = ServeClient(tmp_path / "sd")
        job_id = client.submit(spec)
        queued = read_json(tmp_path / "sd" / "queue" / f"{job_id}.json")
        assert queued["id"] == job_id
        assert queued["run"]["kind"] == "repro.campaign.run"
        assert [job["id"] for job in client.list()] == [job_id]
        assert client.list()[0]["state"] == "queued"

    def test_priority_comes_from_spec_unless_overridden(self, tmp_path):
        spec = _write_spec(tmp_path / "t.src.json", priority=7)
        client = ServeClient(tmp_path / "sd")
        first = client.submit(spec)
        second = client.submit(spec, priority=9)
        docs = {job_id: read_json(
                    tmp_path / "sd" / "queue" / f"{job_id}.json")
                for job_id in (first, second)}
        assert docs[first]["priority"] == 7
        assert docs[second]["priority"] == 9

    def test_offline_cancel_of_queued_job(self, tmp_path):
        spec = _write_spec(tmp_path / "t.src.json")
        client = ServeClient(tmp_path / "sd")
        job_id = client.submit(spec)
        response = client.cancel(job_id)
        assert response["ok"] and response["state"] == "cancelled"
        assert not (tmp_path / "sd" / "queue"
                    / f"{job_id}.json").exists()
        assert client.status(job_id)["job"]["state"] == "cancelled"

    def test_offline_resume_requeues_unsettled_tasks(self, tmp_path):
        client = ServeClient(tmp_path / "sd")
        doc = job_doc_from_submission(
            {"id": "j1", "name": "t", "priority": 0,
             "submitted_at": 1.0,
             "run": {"tasks": [{"key": "a" * 16}, {"key": "b" * 16}]}})
        doc["state"] = "failed"
        doc["tasks"][0].update(state="done", exit_code=0)
        doc["tasks"][1].update(state="failed", exit_code=1)
        from repro.harness.server import atomic_write_json
        atomic_write_json(tmp_path / "sd" / "jobs" / "j1" / "job.json",
                          doc)
        response = client.resume("j1")
        assert response["ok"] and response["state"] == "queued"
        resumed = client.status("j1")["job"]
        assert resumed["tasks"][0]["state"] == "done"     # kept
        assert resumed["tasks"][1]["state"] == "pending"  # re-run
        assert client.resume("missing")["ok"] is False

    def test_unknown_job_status_is_an_error(self, tmp_path):
        client = ServeClient(tmp_path / "sd")
        assert client.status("nope")["ok"] is False


class TestWaitBackoff:
    def test_wait_backs_off_instead_of_fixed_polling(self, tmp_path,
                                                     monkeypatch):
        """Regression: `wait` used to spin the disk every 0.5 s flat.
        It must now sleep on the shared jittered exponential schedule,
        capped at 5 s, and stop the moment the job settles."""
        from repro.harness import client as client_mod
        client = ServeClient(tmp_path / "sd")
        spec = _write_spec(tmp_path / "t.src.json")
        job_id = client.submit(spec)
        delays = []

        def fake_sleep(seconds):
            delays.append(seconds)
            if len(delays) >= 9:     # settle the job from "outside"
                doc = job_doc_from_submission(read_json(
                    tmp_path / "sd" / "queue" / f"{job_id}.json"))
                doc["state"] = "complete"
                from repro.harness.server import atomic_write_json
                atomic_write_json(
                    tmp_path / "sd" / "jobs" / job_id / "job.json", doc)

        monkeypatch.setattr(client_mod.time, "sleep", fake_sleep)
        doc = client.wait(job_id, timeout=120)
        assert doc["state"] == "complete"
        assert len(delays) == 9      # returned on the first settled poll
        # exponential growth (jitter only stretches, never shrinks;
        # doubling bases with jitter in [1, 1.5) keep ratios >= 4/3)...
        assert delays[0] < 0.1
        assert all(later >= earlier * 1.3 for earlier, later
                   in zip(delays[:6], delays[1:7]))
        # ...capped at 5 s, and deterministic for replayable tests
        assert all(delay <= 5.0 for delay in delays)
        assert delays[0] == jittered_backoff(1, base=0.05, cap=5.0,
                                             salt=job_id)

    def test_wait_timeout_still_raises(self, tmp_path, monkeypatch):
        from repro.harness import client as client_mod
        client = ServeClient(tmp_path / "sd")
        spec = _write_spec(tmp_path / "t.src.json")
        job_id = client.submit(spec)
        clock = [0.0]

        def fake_monotonic():
            return clock[0]

        def fake_sleep(seconds):
            clock[0] += seconds

        monkeypatch.setattr(client_mod.time, "monotonic", fake_monotonic)
        monkeypatch.setattr(client_mod.time, "sleep", fake_sleep)
        with pytest.raises(ServeError, match="timed out"):
            client.wait(job_id, timeout=30.0)
        assert clock[0] <= 30.0 + 5.0    # delays clipped to the deadline


class TestJitteredBackoff:
    def test_grows_exponentially_and_caps(self):
        delays = [jittered_backoff(n, base=0.1, cap=5.0, jitter=0.0)
                  for n in range(1, 12)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays[2] == pytest.approx(0.4)
        assert max(delays) <= 5.0
        assert delays[-1] == 5.0

    def test_jitter_is_deterministic_and_bounded(self):
        for attempt in (1, 3, 7):
            a = jittered_backoff(attempt, base=0.1, cap=5.0, salt="x")
            b = jittered_backoff(attempt, base=0.1, cap=5.0, salt="x")
            assert a == b                      # no RNG: replayable
            plain = jittered_backoff(attempt, base=0.1, cap=5.0,
                                     jitter=0.0)
            assert plain <= a <= min(5.0, plain * 1.5)

    def test_salt_decorrelates_callers(self):
        spread = {jittered_backoff(4, base=0.1, cap=5.0,
                                   salt=f"job-{i}")
                  for i in range(8)}
        assert len(spread) > 1


class TestJobDocs:
    def test_doc_from_submission_shapes_tasks(self):
        doc = job_doc_from_submission(
            {"id": "j", "name": "n", "priority": 3, "submitted_at": 1.0,
             "run": {"tasks": [{"key": "cafe" * 4, "benchmark": "mcf",
                                "scheme": "pbfs"}]}})
        task = doc["tasks"][0]
        assert task["run_dir"] == "task-000-cafecafe"
        assert task["state"] == "pending"
        assert doc["state"] == "queued" and doc["priority"] == 3

    def test_terminal_state_derivation(self):
        def doc(*states):
            return {"tasks": [{"state": state} for state in states]}
        assert derive_job_state(doc("done", "done")) == "complete"
        assert derive_job_state(doc("done", "quarantine")) == \
            "complete-with-quarantine"
        assert derive_job_state(doc("failed", "quarantine")) == "failed"

    def test_summary_counts_settled(self):
        summary = job_summary({"id": "j", "name": "n", "state": "running",
                               "tasks": [{"state": "done"},
                                         {"state": "quarantine"},
                                         {"state": "pending"}]})
        assert summary["settled"] == 2 and summary["quarantine"] == 1

    def test_socket_path_is_stable_and_short(self, tmp_path):
        first = socket_path_for(tmp_path)
        assert first == socket_path_for(tmp_path)
        assert first != socket_path_for(tmp_path / "other")
        assert len(str(first)) < 100
        assert pid_alive(os.getpid())
        assert not pid_alive(-1)


class TestServeDirClaim:
    def test_second_server_refused_while_first_alive(self, tmp_path):
        serve_dir = tmp_path / "sd"
        from repro.harness.server import atomic_write_json
        # pid 1 is always alive and never us: a live foreign claim
        atomic_write_json(serve_dir / "server.json",
                          {"pid": 1, "socket": "/tmp/x"})
        with pytest.raises(ServeError, match="already"):
            JobServer(serve_dir, max_jobs=0).run()

    def test_dead_server_marker_is_reclaimed(self, tmp_path):
        serve_dir = tmp_path / "sd"
        from repro.harness.server import atomic_write_json
        atomic_write_json(serve_dir / "server.json",
                          {"pid": 2 ** 22 + 12345, "socket": "/tmp/x"})
        assert JobServer(serve_dir, max_jobs=0, idle_exit=0.0,
                         log_events=False).run() == 0


# ----------------------------------------------------------------------
# slow: real servers, real campaigns, bit-for-bit parity
# ----------------------------------------------------------------------
def _start_server(serve_dir, *extra):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(serve_dir),
         "--poll-interval", "0.1", *extra],
        env=_cli_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)


def _wait_for(predicate, timeout=120, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.1)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_two_concurrent_submissions_run_by_priority_with_parity(tmp_path):
    """Tentpole acceptance: two campaigns submitted concurrently to the
    server complete with stdout bit-for-bit equal to their one-shot
    equivalents, and the higher-priority job runs first."""
    serve_dir = tmp_path / "sd"
    client = ServeClient(serve_dir)
    low = client.submit(_write_spec(tmp_path / "low.src.json",
                                    name="low"), priority=0)
    high = client.submit(_write_spec(
        tmp_path / "high.src.json", name="high",
        defaults={"benchmark": "bzip2", "faults": 10,
                  "no_cache": True}), priority=5)

    server = _start_server(serve_dir, "--max-jobs", "2")
    try:
        low_doc = client.wait(low, timeout=240)
        high_doc = client.wait(high, timeout=240)
    finally:
        server.wait(timeout=60)
    assert low_doc["state"] == "complete", low_doc
    assert high_doc["state"] == "complete", high_doc

    # priority order: the high job's task started first
    events = [json.loads(line) for line in
              (serve_dir / "server-events.jsonl").read_text().splitlines()]
    started = [event["job"] for event in events
               if event.get("type") == "job"
               and event.get("action") == "started"]
    assert started == [high, low]

    assert _task_out(serve_dir, low) == _oneshot_stdout(
        "mcf", run_dir=tmp_path / "ref-mcf")
    assert _task_out(serve_dir, high) == _oneshot_stdout(
        "bzip2", run_dir=tmp_path / "ref-bzip2")


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_cancel_then_resume_is_bit_for_bit(tmp_path):
    """Lifecycle: cancel a running job (graceful drain, journal kept),
    resume it through the server, converge bit-for-bit."""
    serve_dir = tmp_path / "sd"
    client = ServeClient(serve_dir)
    spec = _write_spec(tmp_path / "big.src.json",
                       defaults={"benchmark": "mcf", "faults": 150,
                                 "no_cache": True})
    job_id = client.submit(spec)
    server = _start_server(serve_dir)
    try:
        job_dir = serve_dir / "jobs" / job_id

        def journal_started():
            journals = list(job_dir.glob("task-*/journal.jsonl"))
            return bool(journals) and "chunk_done" in \
                journals[0].read_text()
        _wait_for(journal_started, message="first chunk to land")

        response = client.cancel(job_id)
        assert response["ok"], response
        _wait_for(lambda: client.status(job_id)["job"]["state"]
                  == "cancelled", timeout=60, message="cancel to settle")
        doc = client.status(job_id)["job"]
        assert doc["tasks"][0]["state"] == "cancelled"

        response = client.resume(job_id)
        assert response["ok"], response
        doc = client.wait(job_id, timeout=240)
        assert doc["state"] == "complete", doc
        assert doc["tasks"][0]["exit_code"] == 0
        # the resumed task adopted the journal (its run dir recorded a
        # resume) and still printed the uninterrupted output
        journal = next(iter(job_dir.glob("task-*/journal.jsonl")))
        assert any(json.loads(line).get("type") == "resume"
                   for line in journal.read_text().splitlines()
                   if line.strip())
        assert _task_out(serve_dir, job_id) == _oneshot_stdout(
            "mcf", faults=150, run_dir=tmp_path / "ref-mcf150")
    finally:
        client.request("shutdown")
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_sigkill_server_with_running_and_queued_jobs_then_restart(
        tmp_path):
    """Satellite acceptance: SIGKILL the server (and its in-flight task,
    as a machine crash would) while a second job sits queued; a fresh
    server requeues the interrupted job, resumes it from the journal,
    runs the queued one, and both finish bit-for-bit."""
    serve_dir = tmp_path / "sd"
    client = ServeClient(serve_dir)
    first = client.submit(_write_spec(
        tmp_path / "a.src.json", name="a",
        defaults={"benchmark": "mcf", "faults": 150, "no_cache": True}))
    second = client.submit(_write_spec(
        tmp_path / "b.src.json", name="b",
        defaults={"benchmark": "bzip2", "faults": 10,
                  "no_cache": True}))

    server = _start_server(serve_dir)
    job_dir = serve_dir / "jobs" / first

    def first_chunk_landed():
        journals = list(job_dir.glob("task-*/journal.jsonl"))
        return bool(journals) and "chunk_done" in journals[0].read_text()
    try:
        _wait_for(first_chunk_landed, message="first chunk to land")
    finally:
        server.kill()                      # SIGKILL: no cleanup at all
        server.wait(timeout=30)
    doc = read_json(job_dir / "job.json")
    task_pid = next((t.get("pid") for t in doc["tasks"]
                     if t.get("state") == "running"), None)
    if task_pid is not None:               # kill the orphaned task too
        try:
            os.killpg(task_pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    assert doc["state"] == "running"       # the crash left it mid-run

    restarted = _start_server(serve_dir, "--max-jobs", "2")
    try:
        first_doc = client.wait(first, timeout=240)
        second_doc = client.wait(second, timeout=240)
    finally:
        try:
            restarted.wait(timeout=60)
        except subprocess.TimeoutExpired:
            restarted.kill()
    assert first_doc["state"] == "complete", first_doc
    assert second_doc["state"] == "complete", second_doc
    assert _task_out(serve_dir, first) == _oneshot_stdout(
        "mcf", faults=150, run_dir=tmp_path / "ref-mcf150")
    assert _task_out(serve_dir, second) == _oneshot_stdout(
        "bzip2", run_dir=tmp_path / "ref-bzip2")
