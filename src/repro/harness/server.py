"""Campaign job server: ``repro serve`` — campaigns as a service.

The one-shot CLI runs exactly one campaign per invocation. The server
turns the same machinery into a long-lived, multi-tenant queue: clients
submit compiled campaign specs (:mod:`repro.harness.spec`), the server
orders them by priority, runs each task as a ``repro campaign``
subprocess with a job-scoped ``--run-dir``, and multiplexes the
submissions over the shared worker budget and the content-addressed
artifact cache.

**Exact CLI parity by construction.** A task is not re-implemented
inside the server — it *is* the one-shot CLI: the server execs
``python -m repro.cli campaign ...`` with the argv the spec compiles to
(:func:`~repro.harness.spec.task_argv`), captures stdout/stderr to
files, and records the exit code verbatim. Whatever the one-shot
command would have printed and returned, the served job prints and
returns.

**Crash safety rides the supervisor journal.** Every task runs with
``--run-dir`` inside its job directory, so the fsync'd journal from the
resilient supervisor is the persistence layer. If the server dies
(SIGKILL included), a restart finds jobs still marked ``running``,
requeues them, and re-execs their unfinished tasks with the same argv
and run dir — which the CLI treats as a resume, re-running only the
chunks missing from the journal. Aggregates stay bit-for-bit equal to
an uninterrupted run.

On-disk layout under the serve directory::

    server.json           pid + control-socket path of the live server
    server-events.jsonl   job lifecycle trail (obs ``job`` events)
    queue/<job>.json      submitted, not yet adopted (written by client)
    jobs/<job>/job.json   adopted job state: priority, per-task states
    jobs/<job>/task-NNN-<key8>/    one task's --run-dir (journal, events)
    jobs/<job>/task-NNN-<key8>.out captured task stdout (parity surface)

Control plane: a unix domain socket speaking newline-delimited JSON
(``{"op": ...}`` in, ``{"ok": ...}`` out). The filesystem is the source
of truth — submission is an atomic rename into ``queue/``, so a client
can submit while the server is down and the job runs on the next start.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import pathlib
import signal
import sys
import tempfile
import time
import uuid
from typing import Any, Dict, List, Optional

from ..errors import ReproError
from ..obs import NULL_LOG, EventLog
from .spec import task_argv

#: Terminal job states (no further transitions without a resume).
TERMINAL_STATES = ("complete", "complete-with-quarantine", "failed",
                   "cancelled")
#: Every job state the server writes into ``job.json``.
JOB_STATES = ("queued", "running", "interrupted") + TERMINAL_STATES

#: Task states; ``done`` (exit 0) and ``quarantine`` (exit 3) are both
#: settled — a resume re-runs only the others.
TASK_SETTLED = ("done", "quarantine")

_EXIT_QUARANTINE = 3


class ServeError(ReproError):
    """The job server could not start or a control request failed."""


# ----------------------------------------------------------------------
# shared plumbing (server + client)
# ----------------------------------------------------------------------
def atomic_write_json(path: pathlib.Path, document: Dict[str, Any]) -> None:
    """Crash-safe write: a reader sees the old document or the new one,
    never a truncation (same discipline as the supervisor journal)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(document, indent=2, sort_keys=True))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def read_json(path: pathlib.Path) -> Optional[Dict[str, Any]]:
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


def socket_path_for(serve_dir: str | os.PathLike) -> pathlib.Path:
    """Control-socket path for a serve directory.

    Unix socket paths are capped around 108 bytes, so the socket lives
    in the temp dir under a digest of the (resolved) serve dir rather
    than inside the serve dir itself.
    """
    digest = hashlib.sha256(
        str(pathlib.Path(serve_dir).resolve()).encode()).hexdigest()[:12]
    return pathlib.Path(tempfile.gettempdir()) / f"repro-serve-{digest}.sock"


def jittered_backoff(attempt: int, base: float = 0.1, cap: float = 5.0,
                     jitter: float = 0.5, salt: str = "") -> float:
    """Deterministic exponential-backoff delay for *attempt* (1-based).

    ``min(cap, base * 2^(attempt-1))`` stretched by up to *jitter* of
    itself; the jitter fraction is a hash of *salt* and the attempt
    number, so repeated runs (and tests) see identical schedules
    without an RNG. Used by the serve client's wait poll.
    """
    delay = min(cap, base * (2.0 ** max(0, attempt - 1)))
    blob = f"{salt}:{attempt}".encode()
    word = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    return min(cap, delay * (1.0 + jitter * (word / 2.0 ** 64)))


def pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


def new_job_id(name: str) -> str:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{name}-{stamp}-{uuid.uuid4().hex[:8]}"


def job_doc_from_submission(submission: Dict[str, Any]) -> Dict[str, Any]:
    """The initial ``job.json`` for a queued submission document."""
    run = submission["run"]
    tasks = []
    for index, task in enumerate(run.get("tasks", [])):
        tasks.append({
            "index": index,
            "key": task.get("key", "?"),
            "benchmark": task.get("benchmark", "?"),
            "scheme": task.get("scheme", "?"),
            "state": "pending",
            "exit_code": None,
            "run_dir": f"task-{index:03d}-{task.get('key', 'x' * 8)[:8]}",
        })
    return {
        "id": submission["id"],
        "name": submission.get("name", "campaign"),
        "priority": int(submission.get("priority", 0)),
        "submitted_at": float(submission.get("submitted_at", 0.0)),
        "state": "queued",
        "run": run,
        "tasks": tasks,
    }


def job_summary(doc: Dict[str, Any]) -> Dict[str, Any]:
    tasks = doc.get("tasks", [])
    return {
        "id": doc.get("id"), "name": doc.get("name"),
        "priority": doc.get("priority", 0),
        "state": doc.get("state", "?"),
        "tasks": len(tasks),
        "settled": sum(1 for t in tasks if t.get("state") in TASK_SETTLED),
        "quarantine": sum(1 for t in tasks
                          if t.get("state") == "quarantine"),
    }


def derive_job_state(doc: Dict[str, Any]) -> str:
    """Terminal state from the per-task exit codes."""
    states = [task.get("state") for task in doc.get("tasks", [])]
    if any(state == "failed" for state in states):
        return "failed"
    if any(state == "quarantine" for state in states):
        return "complete-with-quarantine"
    return "complete"


def _repro_pythonpath() -> str:
    """PYTHONPATH that makes ``python -m repro.cli`` importable in the
    task subprocess, regardless of how the server itself was launched."""
    src = str(pathlib.Path(__file__).resolve().parents[2])
    existing = os.environ.get("PYTHONPATH", "")
    if src in existing.split(os.pathsep):
        return existing
    return src + (os.pathsep + existing if existing else "")


def _terminate(proc: "asyncio.subprocess.Process", sig: int) -> None:
    """Signal the task's whole process group (it may own pool workers)."""
    if proc.returncode is not None:
        return
    try:
        os.killpg(os.getpgid(proc.pid), sig)
    except (ProcessLookupError, PermissionError, OSError):
        pass


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------
class JobServer:
    """Long-lived campaign queue over one serve directory.

    *jobs* is the shared worker budget: each concurrently-active job's
    tasks get ``jobs // max_active`` workers (at least 1) unless the
    task pins its own count. *max_jobs* / *idle_exit* are test and CI
    knobs — exit after N jobs reach a terminal state, or after the
    queue has been empty for S seconds.
    """

    def __init__(self, serve_dir: str | os.PathLike,
                 jobs: Optional[int] = None, max_active: int = 1,
                 poll_interval: float = 0.25,
                 max_jobs: Optional[int] = None,
                 idle_exit: Optional[float] = None,
                 log_events: bool = True):
        # resolve once: task run dirs must stay valid paths inside the
        # subprocess, whose cwd is the serve dir itself
        self.serve_dir = pathlib.Path(serve_dir).resolve()
        self.queue_dir = self.serve_dir / "queue"
        self.jobs_dir = self.serve_dir / "jobs"
        self.jobs = jobs
        self.max_active = max(1, int(max_active))
        self.poll_interval = max(0.01, float(poll_interval))
        self.max_jobs = max_jobs
        self.idle_exit = idle_exit
        self.log_events = log_events
        self.socket_path = socket_path_for(self.serve_dir)
        self.events = NULL_LOG
        self._docs: Dict[str, Dict[str, Any]] = {}
        self._pending: List[str] = []
        self._active: Dict[str, asyncio.Task] = {}
        self._procs: Dict[str, Any] = {}
        #: job id -> terminal state a cancellation should land in
        #: ("cancelled" from the control plane, "interrupted" from a
        #: server shutdown — the latter requeues on the next start)
        self._cancel_state: Dict[str, str] = {}
        self._completed = 0
        self._stopping = False
        self._wake: Optional[asyncio.Event] = None

    # -- lifecycle -----------------------------------------------------
    def run(self) -> int:
        """Blocking entry point (``repro serve``)."""
        return asyncio.run(self._main())

    def _emit(self, action: str, job_id: str, **fields: Any) -> None:
        self.events.emit("job", action=action, job=job_id, **fields)

    def _save(self, doc: Dict[str, Any]) -> None:
        atomic_write_json(self.jobs_dir / doc["id"] / "job.json", doc)

    def _claim_serve_dir(self) -> None:
        marker = read_json(self.serve_dir / "server.json")
        if marker and pid_alive(int(marker.get("pid", -1))) \
                and int(marker.get("pid", -1)) != os.getpid():
            raise ServeError(
                f"another server (pid {marker['pid']}) is already "
                f"serving {self.serve_dir}")
        if self.socket_path.exists():
            self.socket_path.unlink()    # stale socket from a dead server
        atomic_write_json(self.serve_dir / "server.json", {
            "pid": os.getpid(), "socket": str(self.socket_path),
            "started_at": time.time(), "jobs": self.jobs,
            "max_active": self.max_active})

    def _startup_sweep(self) -> None:
        """Adopt what a previous server left behind: jobs that were
        ``running``/``interrupted`` when it died are requeued (their
        re-exec is a journal resume), ``queued`` jobs are re-adopted."""
        for job_json in sorted(self.jobs_dir.glob("*/job.json")):
            doc = read_json(job_json)
            if doc is None or "id" not in doc:
                continue
            self._docs[doc["id"]] = doc
            if doc.get("state") in ("running", "interrupted"):
                for task in doc.get("tasks", []):
                    if task.get("state") not in TASK_SETTLED:
                        task["state"] = "pending"
                        task["exit_code"] = None
                doc["state"] = "queued"
                self._save(doc)
                self._pending.append(doc["id"])
                self._emit("requeued", doc["id"], reason="server-restart")
            elif doc.get("state") == "queued":
                self._pending.append(doc["id"])

    async def _main(self) -> int:
        self.queue_dir.mkdir(parents=True, exist_ok=True)
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._claim_serve_dir()
        if self.log_events:
            self.events = EventLog(self.serve_dir / "server-events.jsonl")
        self._wake = asyncio.Event()
        self._startup_sweep()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, self._request_stop)
            except (NotImplementedError, RuntimeError):
                pass
        server = await asyncio.start_unix_server(
            self._handle_connection, path=str(self.socket_path))
        print(f"serving {self.serve_dir} (socket {self.socket_path})",
              file=sys.stderr)
        idle_since = time.monotonic()
        try:
            while not self._stopping:
                self._scan_queue()
                self._launch_ready()
                if self._pending or self._active:
                    idle_since = time.monotonic()
                if (self.max_jobs is not None
                        and self._completed >= self.max_jobs
                        and not self._active):
                    break
                if (self.idle_exit is not None and not self._active
                        and not self._pending
                        and time.monotonic() - idle_since
                        >= self.idle_exit):
                    break
                try:
                    await asyncio.wait_for(self._wake.wait(),
                                           timeout=self.poll_interval)
                except asyncio.TimeoutError:
                    pass
                self._wake.clear()
        finally:
            await self._shutdown(server)
        return 0

    def _request_stop(self) -> None:
        self._stopping = True
        if self._wake is not None:
            self._wake.set()

    async def _shutdown(self, server: asyncio.AbstractServer) -> None:
        # interrupt (not cancel) in-flight jobs: a restart requeues them
        for job_id, task in list(self._active.items()):
            self._cancel_state.setdefault(job_id, "interrupted")
            task.cancel()
        if self._active:
            await asyncio.gather(*self._active.values(),
                                 return_exceptions=True)
        server.close()
        await server.wait_closed()
        try:
            self.socket_path.unlink()
        except OSError:
            pass
        try:
            (self.serve_dir / "server.json").unlink()
        except OSError:
            pass
        if self.events is not NULL_LOG:
            self.events.close()

    # -- scheduling ----------------------------------------------------
    def _scan_queue(self) -> None:
        for queue_file in sorted(self.queue_dir.glob("*.json")):
            submission = read_json(queue_file)
            if submission is None or "id" not in submission \
                    or "run" not in submission:
                continue        # torn write in progress; next poll
            job_id = str(submission["id"])
            if job_id not in self._docs:
                doc = job_doc_from_submission(submission)
                self._docs[job_id] = doc
                self._save(doc)
                self._pending.append(job_id)
                self._emit("adopted", job_id, name=doc["name"],
                           priority=doc["priority"])
            try:
                queue_file.unlink()
            except OSError:
                pass

    def _launch_ready(self) -> None:
        while self._pending and len(self._active) < self.max_active \
                and not self._stopping:
            # highest priority first, FIFO within a priority band
            self._pending.sort(
                key=lambda jid: (-self._docs[jid].get("priority", 0),
                                 self._docs[jid].get("submitted_at", 0.0),
                                 jid))
            job_id = self._pending.pop(0)
            doc = self._docs[job_id]
            if doc.get("state") != "queued":
                continue
            self._active[job_id] = asyncio.get_running_loop().create_task(
                self._run_job(job_id))

    def _task_jobs(self, task: Dict[str, Any]) -> Optional[int]:
        if task.get("jobs") is not None:
            return int(task["jobs"])
        if self.jobs is not None:
            return max(1, int(self.jobs) // self.max_active)
        return None

    async def _run_job(self, job_id: str) -> None:
        doc = self._docs[job_id]
        doc["state"] = "running"
        self._save(doc)
        self._emit("started", job_id, name=doc.get("name", "?"))
        try:
            for task_doc in doc["tasks"]:
                if task_doc.get("state") in TASK_SETTLED:
                    continue
                if self._stopping:
                    raise asyncio.CancelledError
                exit_code = await self._run_task(doc, task_doc)
                task_doc["exit_code"] = exit_code
                task_doc["state"] = (
                    "done" if exit_code == 0
                    else "quarantine" if exit_code == _EXIT_QUARANTINE
                    else "failed")
                self._save(doc)
                self._emit("task_done", job_id, task=task_doc["key"],
                           index=task_doc["index"], exit_code=exit_code)
                if task_doc["state"] == "failed":
                    break
            doc["state"] = derive_job_state(doc)
        except asyncio.CancelledError:
            state = self._cancel_state.pop(job_id, "interrupted")
            doc["state"] = state
            for task_doc in doc["tasks"]:
                if task_doc.get("state") == "running":
                    task_doc["state"] = ("cancelled"
                                         if state == "cancelled"
                                         else "interrupted")
            self._save(doc)
            self._emit("cancelled" if state == "cancelled"
                       else "interrupted", job_id)
            return
        finally:
            self._active.pop(job_id, None)
            self._completed += 1
            if self._wake is not None:
                self._wake.set()
        self._save(doc)
        self._emit("done", job_id, state=doc["state"])

    async def _run_task(self, doc: Dict[str, Any],
                        task_doc: Dict[str, Any]) -> int:
        job_dir = self.jobs_dir / doc["id"]
        run_dir = job_dir / task_doc["run_dir"]
        task = doc["run"]["tasks"][task_doc["index"]]
        argv = task_argv(task, run_dir=run_dir,
                         jobs=self._task_jobs(task))
        task_doc["state"] = "running"
        task_doc["argv"] = ["repro"] + argv
        self._save(doc)
        self._emit("task_start", doc["id"], task=task_doc["key"],
                   index=task_doc["index"])
        env = dict(os.environ)
        env["PYTHONPATH"] = _repro_pythonpath()
        out = open(job_dir / (task_doc["run_dir"] + ".out"), "wb")
        err = open(job_dir / (task_doc["run_dir"] + ".err"), "ab")
        try:
            # cwd is inherited on purpose: the default artifact cache is
            # cwd-relative, so served tasks share the same cache a
            # one-shot `repro campaign` from this directory would use
            proc = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro.cli", *argv,
                stdout=out, stderr=err, env=env,
                start_new_session=True)
            self._procs[doc["id"]] = proc
            task_doc["pid"] = proc.pid    # its own session/process group
            self._save(doc)
            try:
                return await proc.wait()
            except asyncio.CancelledError:
                # graceful first: the supervisor drains and journals
                _terminate(proc, signal.SIGTERM)
                try:
                    await asyncio.wait_for(proc.wait(), timeout=10.0)
                except asyncio.TimeoutError:
                    _terminate(proc, signal.SIGKILL)
                    await proc.wait()
                raise
            finally:
                self._procs.pop(doc["id"], None)
        finally:
            out.close()
            err.close()

    # -- control plane -------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            try:
                request = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                request = {}
            response = await self._dispatch(
                request if isinstance(request, dict) else {})
            writer.write(json.dumps(response).encode("utf-8") + b"\n")
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            writer.close()

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pid": os.getpid(),
                    "active": len(self._active),
                    "queued": len(self._pending)}
        if op == "poke":
            if self._wake is not None:
                self._wake.set()
            return {"ok": True}
        if op == "list":
            return {"ok": True,
                    "jobs": [job_summary(doc) for doc in
                             sorted(self._docs.values(),
                                    key=lambda d: d.get("submitted_at",
                                                        0.0))]}
        if op == "status":
            return self._op_status(str(request.get("job", "")))
        if op == "cancel":
            return await self._op_cancel(str(request.get("job", "")))
        if op == "resume":
            return self._op_resume(str(request.get("job", "")))
        if op == "shutdown":
            self._request_stop()
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _op_status(self, job_id: str) -> Dict[str, Any]:
        doc = self._docs.get(job_id)
        if doc is None:
            return {"ok": False, "error": f"unknown job {job_id!r}"}
        response = {"ok": True, "job": doc}
        running = next((t for t in doc.get("tasks", [])
                        if t.get("state") == "running"), None)
        if running is not None:
            run_dir = self.jobs_dir / job_id / running["run_dir"]
            if run_dir.is_dir():
                from ..obs.stream import CampaignMonitor
                response["progress"] = (
                    CampaignMonitor(run_dir).poll().as_json())
        return response

    async def _op_cancel(self, job_id: str) -> Dict[str, Any]:
        doc = self._docs.get(job_id)
        if doc is None:
            return {"ok": False, "error": f"unknown job {job_id!r}"}
        task = self._active.get(job_id)
        if task is not None:
            self._cancel_state[job_id] = "cancelled"
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            return {"ok": True, "state": doc.get("state")}
        if doc.get("state") == "queued":
            if job_id in self._pending:
                self._pending.remove(job_id)
            doc["state"] = "cancelled"
            self._save(doc)
            self._emit("cancelled", job_id, reason="queued")
            return {"ok": True, "state": "cancelled"}
        return {"ok": False,
                "error": f"job {job_id} is {doc.get('state')!r}, "
                         f"not running or queued"}

    def _op_resume(self, job_id: str) -> Dict[str, Any]:
        doc = self._docs.get(job_id)
        if doc is None:
            disk = read_json(self.jobs_dir / job_id / "job.json")
            if disk is None:
                return {"ok": False, "error": f"unknown job {job_id!r}"}
            self._docs[job_id] = doc = disk
        if doc.get("state") in ("running", "queued"):
            return {"ok": True, "state": doc["state"]}
        for task_doc in doc.get("tasks", []):
            if task_doc.get("state") not in TASK_SETTLED:
                task_doc["state"] = "pending"
                task_doc["exit_code"] = None
        doc["state"] = "queued"
        self._save(doc)
        if job_id not in self._pending:
            self._pending.append(job_id)
        self._emit("requeued", job_id, reason="resume")
        if self._wake is not None:
            self._wake.set()
        return {"ok": True, "state": "queued"}


__all__ = [
    "JOB_STATES",
    "JobServer",
    "ServeError",
    "TASK_SETTLED",
    "TERMINAL_STATES",
    "atomic_write_json",
    "derive_job_state",
    "jittered_backoff",
    "job_doc_from_submission",
    "job_summary",
    "new_job_id",
    "pid_alive",
    "read_json",
    "socket_path_for",
]
