"""Structured event log: typed, timestamped JSONL telemetry.

One :class:`EventLog` belongs to one run (one CLI invocation or one
benchmark session) and appends one JSON object per line to a single
file. Events are *typed* — ``span_start``/``span_end`` pairs around
every harness phase, ``cache`` hit/miss records, worker lifecycle
markers, ``metrics`` snapshots and one ``fault_audit`` record per
injected fault — so the log is machine-readable after the run ends
(``repro report --events`` validates and summarises it; the field
contract lives in :mod:`repro.obs.schema`).

Process-pool safety (the PR-1 fan-out): workers never share the parent's
file handle. Instead the parent exports ``REPRO_EVENTS_WORKER_DIR``
before fanning out and each worker appends to a private
``worker-<pid>.jsonl`` spool inside it (:func:`worker_task_span` opens
and closes the spool per task, so no handle survives a fork or an
absorb). After every fan-out the parent merges the spools back into the
main log, ordered by timestamp, and emits one ``worker_merge`` marker
per absorbed worker.

When observability is disabled every call site holds the shared
:data:`NULL_LOG` whose methods are no-ops — the log costs nothing when
it is off.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: Environment variable through which the parent hands pool workers the
#: spool directory for their private event files.
WORKER_DIR_ENV = "REPRO_EVENTS_WORKER_DIR"

#: Version stamped into ``run_start`` events and manifests.
SCHEMA_VERSION = 1


def _now() -> float:
    return round(time.time(), 6)


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process we may not steal spools from."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True     # exists but not ours (EPERM) — still alive
    return True


def _spool_pid(spool: pathlib.Path) -> int:
    """The owning pid encoded in a ``worker-<pid>.jsonl`` filename."""
    try:
        return int(spool.stem.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return -1


class NullEventLog:
    """Do-nothing sink: the disabled-observability fast path."""

    enabled = False
    path = None

    def emit(self, event_type: str, **fields: Any) -> None:
        pass

    def cache_event(self, kind: str, key: str, hit: bool) -> None:
        pass

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        yield None

    def worker_spool(self) -> Optional[str]:
        return None

    def absorb_worker_files(self) -> int:
        return 0

    def close(self) -> None:
        pass


#: The shared disabled sink; ``log is NULL_LOG`` is the "off" test.
NULL_LOG = NullEventLog()


class EventLog:
    """Append-only JSONL event sink with nested spans.

    Spans nest through an explicit stack: ``span_start`` carries the
    enclosing span's id as ``parent``, so the log reconstructs the full
    phase tree (figure → phase → fan-out → worker task) offline.
    """

    enabled = True

    def __init__(self, path: str | os.PathLike, run_id: Optional[str] = None):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")
        self.run_id = run_id or f"run-{os.getpid()}-{int(time.time())}"
        self._ids = itertools.count(1)
        self._stack: List[str] = []
        self._closed = False
        self.emit("run_start", run=self.run_id, schema=SCHEMA_VERSION)
        self._sweep_stale_spools()

    def _sweep_stale_spools(self) -> None:
        """Delete worker spool files left behind by a previous run.

        A worker SIGKILLed before the parent's merge — or a parent that
        died mid-campaign — leaves ``worker-*.jsonl`` files in the spool
        directory. They belong to a different run, so merging them here
        would corrupt this log's timeline; sweep them instead, leaving
        one ``orphan_spool`` marker behind. A spool whose encoded pid is
        still alive (a concurrent run's active worker) is kept."""
        directory = self.worker_dir
        if not directory.is_dir():
            return
        swept = kept = 0
        for spool in sorted(directory.glob("worker-*.jsonl")):
            pid = _spool_pid(spool)
            if pid != os.getpid() and _pid_alive(pid):
                kept += 1
                continue
            try:
                spool.unlink()
                swept += 1
            except OSError:
                pass
        if swept:
            self.emit("orphan_spool", files=swept, action="swept_stale")
        if kept:
            self.emit("orphan_spool", files=kept, action="kept_live")

    # -- emission ------------------------------------------------------
    def emit(self, event_type: str, **fields: Any) -> None:
        if self._closed:
            return
        record: Dict[str, Any] = {"ts": _now(), "type": event_type,
                                  "pid": os.getpid()}
        record.update(fields)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def cache_event(self, kind: str, key: str, hit: bool) -> None:
        self.emit("cache", kind=kind, key=key, hit=bool(hit))

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[str]:
        """Emit a ``span_start``/``span_end`` pair around the body."""
        span_id = f"{os.getpid()}:{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        self.emit("span_start", span=span_id, parent=parent, name=name,
                  attrs=attrs)
        self._stack.append(span_id)
        started = time.perf_counter()
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.emit("span_end", span=span_id, name=name,
                      seconds=round(time.perf_counter() - started, 6))

    # -- worker spool --------------------------------------------------
    @property
    def worker_dir(self) -> pathlib.Path:
        return self.path.with_name(self.path.name + ".workers")

    def worker_spool(self) -> str:
        """Create (if needed) and return the worker spool directory."""
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        return str(self.worker_dir)

    def absorb_worker_files(self) -> int:
        """Merge every worker spool file into the main log (ts order).

        Returns the number of absorbed events. Spool files are removed
        once absorbed; a truncated trailing line (worker killed mid-
        write) is skipped, not fatal.
        """
        directory = self.worker_dir
        if not directory.is_dir():
            return 0
        absorbed: List[Dict[str, Any]] = []
        merges: List[Dict[str, Any]] = []
        for spool in sorted(directory.glob("worker-*.jsonl")):
            records = []
            try:
                with open(spool, encoding="utf-8") as handle:
                    for line in handle:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            records.append(json.loads(line))
                        except json.JSONDecodeError:
                            continue
                spool.unlink()
            except OSError:
                continue
            if not records:
                continue
            absorbed.extend(records)
            merges.append({"worker_pid": records[0].get("pid", -1),
                           "events": len(records)})
        absorbed.sort(key=lambda r: (r.get("ts", 0.0), r.get("pid", 0)))
        for record in absorbed:
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        for merge in merges:
            self.emit("worker_merge", **merge)
        self._handle.flush()
        return len(absorbed)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self.absorb_worker_files()
        self._drop_orphan_spools()
        self.emit("run_end", run=self.run_id)
        self._closed = True
        self._handle.close()

    def _drop_orphan_spools(self) -> None:
        """Final spool-directory sweep on run exit.

        Everything mergeable was just absorbed; whatever remains is an
        orphan (a spool the absorb pass could not read, or one written
        by a worker racing the shutdown). Delete the leftovers — except
        any owned by a still-live foreign pid — record the fact, and
        remove the (now empty) directory."""
        directory = self.worker_dir
        if not directory.is_dir():
            return
        dropped = kept = 0
        for spool in directory.glob("worker-*.jsonl"):
            pid = _spool_pid(spool)
            if pid != os.getpid() and _pid_alive(pid):
                kept += 1
                continue
            try:
                spool.unlink()
                dropped += 1
            except OSError:
                pass
        if dropped:
            self.emit("orphan_spool", files=dropped, action="deleted")
        if kept:
            self.emit("orphan_spool", files=kept, action="kept_live")
        try:
            directory.rmdir()
        except OSError:
            pass    # live spools or nested dirs present, or a racer

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# worker-side emission (pool processes; no shared handles)
# ----------------------------------------------------------------------
_WORKER_IDS = itertools.count(1)
_WORKER_STARTED: set = set()


@contextmanager
def worker_task_span(name: str, **attrs: Any) -> Iterator[None]:
    """Span a worker task; buffered and appended to this worker's spool.

    A no-op unless the parent exported :data:`WORKER_DIR_ENV`. The spool
    file is opened append-only for one single write per task, so forked
    children never inherit a live handle and the parent can absorb the
    spool between fan-outs.
    """
    directory = os.environ.get(WORKER_DIR_ENV)
    if not directory:
        yield
        return
    pid = os.getpid()
    records: List[Dict[str, Any]] = []

    def emit(event_type: str, **fields: Any) -> None:
        record: Dict[str, Any] = {"ts": _now(), "type": event_type,
                                  "pid": pid}
        record.update(fields)
        records.append(record)

    if (pid, directory) not in _WORKER_STARTED:
        _WORKER_STARTED.add((pid, directory))
        emit("worker_start")
    span_id = f"{pid}:w{next(_WORKER_IDS)}"
    emit("span_start", span=span_id, parent=None, name=name, attrs=attrs)
    started = time.perf_counter()
    try:
        yield
    finally:
        emit("span_end", span=span_id, name=name,
             seconds=round(time.perf_counter() - started, 6))
        from .metrics import drain_worker_metrics
        snapshot = drain_worker_metrics()
        if snapshot:
            emit("metrics", snapshot=snapshot, scope="worker")
        try:
            path = pathlib.Path(directory) / f"worker-{pid}.jsonl"
            with open(path, "a", encoding="utf-8") as handle:
                handle.write("".join(json.dumps(r, sort_keys=True) + "\n"
                                     for r in records))
        except OSError:
            pass    # telemetry must never take the computation down


def read_events(path: str | os.PathLike) -> List[Dict[str, Any]]:
    """Load a JSONL event log into a list of dicts.

    Parsing is strict for every *complete* (newline-terminated) line —
    a corrupt one raises ``ValueError``. A torn final line with no
    trailing newline is the signature of a writer killed mid-append;
    it is tolerated: if it parses it is kept, otherwise it is replaced
    by one synthesized ``truncated_tail`` note event so downstream
    consumers can see the log ended raggedly without crashing.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        content = handle.read()
    lines = content.split("\n")
    tail = lines.pop()          # "" when content ends with a newline
    events: List[Dict[str, Any]] = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{number}: not JSON: {exc}") from None
    if tail.strip():
        try:
            events.append(json.loads(tail))
        except json.JSONDecodeError:
            last_ts = events[-1].get("ts", 0.0) if events else 0.0
            events.append({"ts": last_ts, "type": "truncated_tail",
                           "pid": 0, "line": len(lines) + 1,
                           "bytes": len(tail.encode("utf-8"))})
    return events


__all__ = ["EventLog", "NullEventLog", "NULL_LOG", "SCHEMA_VERSION",
           "WORKER_DIR_ENV", "read_events", "worker_task_span"]
