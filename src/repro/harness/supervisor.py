"""Fault-tolerant campaign execution: the resilient supervisor.

Large tandem campaigns (thousands of windows per benchmark x scheme)
must survive the failures they study: a window whose classification
raises, or a Ctrl-C, used to kill the whole run and discard every
finished result. The :class:`Supervisor` is the one route by which a
campaign phase's fault windows get classified (:class:`~repro.harness.
experiment.ExperimentContext` builds a journal-less one when the caller
passes none). It splits the phase into chunks of about
``chunk_windows`` windows with :func:`~repro.harness.parallel.
chunk_bounds` / :func:`~repro.harness.parallel.align_chunk_bounds` and
classifies them in-process, threading one live golden core through the
chunks in window order, with three layers of protection:

- **retry with exponential backoff + jitter** — a chunk whose
  classification raises is re-enqueued up to ``max_retries`` times;
  every attempt is recorded as a ``supervisor`` event in
  :mod:`repro.obs`. A chunk in backoff is skipped, not slept on, so
  ready chunks keep dispatching;
- **poison-window quarantine** — a chunk that fails deterministically
  is bisected down to the offending window(s), which are journaled as
  ``quarantine`` records (config digest, window coordinates, traceback)
  while the rest of the campaign completes;
- **crash-safe journal + resume** — completed chunks are appended to a
  fsync'd JSONL journal keyed by the same content-addressed digests the
  artifact cache uses, with the chunk results pickled under
  ``<run-dir>/chunks/``; SIGINT/SIGTERM trigger a graceful drain that
  stops before the next chunk, and ``repro resume <run-dir>`` restarts
  the campaign from the journal, re-running only the missing chunks —
  bit-for-bit equal to an uninterrupted run.

There is no watchdog: one process cannot preempt itself. A hung
campaign is killed (SIGKILL loses at most the chunk in progress) and
finished with ``repro resume``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import signal
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..faults.classifier import WindowResult
from ..faults.model import FaultRecord
from ..obs.events import NULL_LOG, read_events
from ..obs.manifest import config_digest
from ..obs.metrics import NULL_METRICS
from . import parallel as _parallel
from .cache import ArtifactCache

#: Campaign exit codes (``repro campaign`` / ``repro resume``).
EXIT_COMPLETE = 0
EXIT_QUARANTINE = 3
EXIT_ABORTED = 4

#: Deterministic jitter added to a retry's backoff, as a fraction of
#: the delay.
BACKOFF_JITTER = 0.5


class CampaignAborted(ReproError):
    """A supervised campaign drained before completing (SIGINT/SIGTERM).

    The journal under ``run_dir`` holds every completed chunk; ``repro
    resume <run_dir>`` finishes the campaign.
    """

    def __init__(self, phase: str, run_dir: Optional[pathlib.Path]):
        self.phase = phase
        self.run_dir = run_dir
        hint = (f"; resume with: repro resume {run_dir}" if run_dir else "")
        super().__init__(f"campaign drained during {phase} phase{hint}")


def _jitter_fraction(*coords: Any) -> float:
    """Deterministic pseudo-random fraction in [0, 1) from coordinates."""
    blob = ":".join(str(c) for c in coords).encode()
    word = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    return word / 2.0 ** 64


# ----------------------------------------------------------------------
# policy and reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/quarantine knobs for one supervised campaign."""

    #: Extra attempts after the first, per chunk.
    max_retries: int = 3
    #: Extra attempts for bisected sub-chunks (determinism is already
    #: suspected by the time a chunk is bisected).
    bisect_retries: int = 1
    #: Exponential backoff between attempts: base * 2^(attempt-1),
    #: capped, plus :data:`BACKOFF_JITTER`.
    backoff_base: float = 0.1
    backoff_max: float = 5.0
    #: Target windows per chunk — the journal (and retry) granularity.
    #: The chunk count is ``ceil(windows / chunk_windows)``.
    chunk_windows: int = 8


@dataclass
class QuarantineRecord:
    """One poisoned window: the coordinates needed to reproduce it."""

    phase: str
    benchmark: str
    scheme: str
    index: int                   # position in the phase's fault list
    fault_index: int             # FaultRecord.index
    site: str
    bit: int
    inject_at_commit: int
    attempts: int
    reason: str                  # "exception" (older journals: "crash",
                                 # "timeout")
    error: str                   # last traceback / failure description
    config_digest: str

    def as_json(self) -> Dict[str, Any]:
        return {"type": "quarantine", **asdict(self)}


@dataclass
class PhaseReport:
    """What the supervisor did for one campaign phase."""

    phase: str
    benchmark: str
    scheme: str
    status: str = "complete"     # | "complete-with-quarantine" | "aborted"
    windows: List[WindowResult] = field(default_factory=list)
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    retries: int = 0
    #: Always 0 since the chunk pool and its watchdog went; kept for
    #: readers of a report's counters (perfbench's harness facts).
    timeouts: int = 0
    pool_rebuilds: int = 0
    chunks_run: int = 0
    chunks_resumed: int = 0
    #: The golden core the caller passed to ``classify_windows``, handed
    #: back on its trajectory: advanced through the last window when the
    #: dispatcher classified every window on it without a retry,
    #: untouched when no window ran (an empty phase). None when the
    #: dispatcher abandoned it (a failed chunk drops the live golden
    #: core) or stepped it past chunks resumed from the journal. The
    #: caller takes it, so
    #: :attr:`Supervisor.reports` never keeps a core alive.
    golden: Optional[Any] = None


# ----------------------------------------------------------------------
# crash-safe journal
# ----------------------------------------------------------------------
class CampaignJournal:
    """Append-only, fsync'd JSONL journal of campaign progress.

    Every line is one JSON object with a ``type`` field (``campaign``,
    ``plan``, ``chunk_done``, ``quarantine``, ``phase_done``,
    ``resume``, ``drain``). Appends are flushed *and fsync'd* so a
    SIGKILL never loses an acknowledged chunk; a truncated trailing line
    (killed mid-append) becomes a synthesized ``truncated_tail`` note —
    it is read with :func:`repro.obs.events.read_events` — while
    corruption anywhere *before* the tail is a hard error (an fsync'd
    append-only journal cannot legitimately contain one).
    """

    def __init__(self, run_dir: str | os.PathLike):
        self.run_dir = pathlib.Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.run_dir / "journal.jsonl"
        self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass

    @staticmethod
    def read(run_dir: str | os.PathLike) -> List[Dict[str, Any]]:
        """Parsed journal records (``[]`` before the first append).
        Resume replay ignores a ``truncated_tail`` note (it only folds
        ``chunk_done``/``quarantine``); ``repro status`` counts it so
        the interruption stays visible."""
        path = pathlib.Path(run_dir) / "journal.jsonl"
        return read_events(path) if path.exists() else []


# ----------------------------------------------------------------------
# internal chunk bookkeeping
# ----------------------------------------------------------------------
@dataclass
class _Chunk:
    lo: int
    hi: int
    key: str
    max_attempts: int
    attempts: int = 0
    eligible_at: float = 0.0     # monotonic timestamp gating the retry
    last_error: str = ""

    @property
    def windows(self) -> int:
        return self.hi - self.lo


@dataclass
class _Phase:
    """Immutable coordinates shared by every chunk of one phase."""

    cfg: Any
    hw: Any
    benchmark: str
    scheme: Optional[str]
    label: str
    phase: str
    records: List[FaultRecord]
    digest: str
    plan_digest: str             # content key of the whole fault plan


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------
class Supervisor:
    """Fault-tolerant execution of campaign phases' window chunks.

    One instance supervises every phase its context runs (a ``repro
    campaign`` run dir holds one campaign, both phases). With *run_dir*
    it journals completed chunks and pickles their results under
    ``run_dir/chunks/``, enabling crash-safe resume; without it the
    retry/quarantine machinery still runs, but an interrupted
    campaign cannot be resumed.
    """

    def __init__(self, policy: Optional[SupervisorPolicy] = None,
                 run_dir: Optional[str | os.PathLike] = None,
                 events=None, metrics=None):
        self.policy = policy or SupervisorPolicy()
        self.events = events if events is not None else NULL_LOG
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.run_dir = pathlib.Path(run_dir) if run_dir else None
        self.journal: Optional[CampaignJournal] = None
        self.chunk_store: Optional[ArtifactCache] = None
        self._journal_chunks: List[Dict[str, Any]] = []
        self._journal_quarantine: List[Dict[str, Any]] = []
        if self.run_dir is not None:
            for record in CampaignJournal.read(self.run_dir):
                if record.get("type") == "chunk_done":
                    self._journal_chunks.append(record)
                elif record.get("type") == "quarantine":
                    self._journal_quarantine.append(record)
            self.journal = CampaignJournal(self.run_dir)
            self.chunk_store = ArtifactCache(self.run_dir / "chunks")
            if self._journal_chunks or self._journal_quarantine:
                self.journal.append({
                    "type": "resume",
                    "chunks": len(self._journal_chunks),
                    "quarantined": len(self._journal_quarantine)})
        self.reports: List[PhaseReport] = []
        self.drain = False
        self._jitter_salt = 0

    # -- lifecycle -----------------------------------------------------
    def bind(self, events=None, metrics=None) -> None:
        """Late wiring from the owning ExperimentContext."""
        if events is not None and self.events is NULL_LOG:
            self.events = events
        if metrics is not None and self.metrics is NULL_METRICS:
            self.metrics = metrics

    def request_drain(self) -> None:
        """Stop before the next chunk; flush and abort gracefully."""
        self.drain = True

    @contextmanager
    def graceful(self) -> Iterator["Supervisor"]:
        """Install SIGINT/SIGTERM handlers that trigger a graceful drain
        (a second signal aborts hard via KeyboardInterrupt)."""
        previous: Dict[int, Any] = {}

        def handler(signum, frame):
            if self.drain:
                raise KeyboardInterrupt
            self.request_drain()

        try:
            for sig in (signal.SIGINT, signal.SIGTERM):
                previous[sig] = signal.signal(sig, handler)
        except ValueError:          # not the main thread: run unguarded
            previous = {}
        try:
            yield self
        finally:
            for sig, old in previous.items():
                signal.signal(sig, old)

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()

    # -- campaign-level status -----------------------------------------
    @property
    def quarantined(self) -> List[QuarantineRecord]:
        return [q for report in self.reports for q in report.quarantined]

    @property
    def status(self) -> str:
        if any(r.status == "aborted" for r in self.reports):
            return "aborted"
        if self.quarantined:
            return "complete-with-quarantine"
        return "complete"

    @property
    def exit_code(self) -> int:
        return {"complete": EXIT_COMPLETE,
                "complete-with-quarantine": EXIT_QUARANTINE,
                "aborted": EXIT_ABORTED}[self.status]

    def adopt_quarantine(self,
                         quarantined: Sequence[QuarantineRecord]) -> None:
        """Fold windows that another supervisor quarantined for one phase
        (a :meth:`~repro.harness.experiment.ExperimentContext.prefetch`
        worker's) into this one's campaign-level status and exit code."""
        first = quarantined[0]
        self.reports.append(PhaseReport(
            phase=first.phase, benchmark=first.benchmark,
            scheme=first.scheme, status="complete-with-quarantine",
            quarantined=list(quarantined)))
        self.metrics.counter("supervisor_quarantined_total").inc(
            len(quarantined))

    # -- main entry ----------------------------------------------------
    def classify_windows(self, cfg, hw, benchmark: str,
                         scheme: Optional[str],
                         records: Sequence[FaultRecord], *, phase: str,
                         ctx=None, golden=None) -> PhaseReport:
        """Classify *records* under supervision; positionally identical
        to ``classifier.run(records)`` minus any quarantined windows.

        *golden* is a core of (*benchmark*, *scheme*) on its fault-free
        trajectory, at or before the first window's injection commit,
        that the dispatcher advances through the windows instead
        of building its own; ``report.golden`` hands it back (see
        :attr:`PhaseReport.golden`)."""
        records = list(records)
        label = scheme or "baseline"
        phase_ctx = _Phase(cfg=cfg, hw=hw, benchmark=benchmark,
                           scheme=scheme, label=label, phase=phase,
                           records=records,
                           digest=config_digest(cfg, hw),
                           plan_digest=ArtifactCache.key("plan",
                                                         records=records))
        report = PhaseReport(phase=phase, benchmark=benchmark, scheme=label,
                             golden=golden)
        self.reports.append(report)
        if not records:
            # journaled all the same, so that `repro status` sees a
            # listed phase (a coverage phase with no SDC) settle
            self._journal_plan(phase_ctx, [], report)
            self._journal_done(report)
            return report

        done: Dict[int, Tuple[int, List[WindowResult]]] = {}
        quarantined: List[QuarantineRecord] = []
        self._load_journal_state(phase_ctx, done, quarantined, report)

        gaps = self._gaps(len(records), done, quarantined)
        bounds = self._chunk_gaps(gaps, records)
        self._emit("plan", phase_ctx, chunks=len(bounds),
                   windows=len(records), resumed=report.chunks_resumed)
        self._journal_plan(phase_ctx, bounds, report)

        if bounds:
            chunks = [_Chunk(lo, hi, self._chunk_key(phase_ctx, lo, hi),
                             max_attempts=self.policy.max_retries + 1)
                      for lo, hi in bounds]
            live = self._run_serial(phase_ctx, chunks, done, quarantined,
                                    report, ctx=ctx, golden=golden)
            if live is not golden or report.chunks_resumed:
                report.golden = None

        if report.status == "aborted":
            if self.journal is not None:
                self.journal.append({"type": "drain", "phase": phase})
            raise CampaignAborted(phase, self.run_dir)

        report.windows = [window for lo in sorted(done)
                          for window in done[lo][1]]
        report.quarantined = sorted(quarantined, key=lambda q: q.index)
        if report.quarantined:
            report.status = "complete-with-quarantine"
        self._journal_done(report)
        self._emit("phase_done", phase_ctx, status=report.status,
                   windows=len(report.windows),
                   quarantined=len(report.quarantined))
        return report

    def _journal_plan(self, phase_ctx: _Phase, bounds,
                      report: PhaseReport) -> None:
        if self.journal is not None:
            self.journal.append({
                "type": "plan", "phase": phase_ctx.phase,
                "benchmark": phase_ctx.benchmark, "scheme": phase_ctx.label,
                "windows": len(phase_ctx.records),
                "bounds": [list(b) for b in bounds],
                "resumed_chunks": report.chunks_resumed,
                "config_digest": phase_ctx.digest})

    def _journal_done(self, report: PhaseReport) -> None:
        if self.journal is not None:
            self.journal.append({"type": "phase_done", "phase": report.phase,
                                 "status": report.status,
                                 "windows": len(report.windows),
                                 "quarantined": len(report.quarantined)})

    def journal_cached(self, phase: str, benchmark: str, scheme: str,
                       windows: int) -> None:
        """Journal a phase the artifact cache served: a chunkless
        ``cached`` plan and its ``phase_done``, so `repro status` settles
        a listed phase that this run never classified."""
        if self.journal is not None:
            self.journal.append({
                "type": "plan", "phase": phase, "benchmark": benchmark,
                "scheme": scheme, "windows": windows, "bounds": [],
                "cached": True})
            self.journal.append({"type": "phase_done", "phase": phase,
                                 "status": "complete", "windows": windows,
                                 "quarantined": 0})

    def journal_campaign(self, phases: Sequence[Tuple[str, str, str]]
                         ) -> None:
        """Journal the (phase, benchmark, scheme) triples a campaign will
        run, before its first plan: `repro status` then reports the run
        incomplete until each of them has settled, not only the phases
        planned so far."""
        if self.journal is not None:
            self.journal.append({"type": "campaign",
                                 "phases": [list(p) for p in phases]})

    # -- chunk identity and resume -------------------------------------
    def _chunk_key(self, phase_ctx: _Phase, lo: int, hi: int) -> str:
        """Content-addressed chunk identity: configuration, phase, the
        full fault plan (digested once per phase, so keying a phase's
        chunks stays linear in its size) and the window range — the
        same digest family the artifact cache uses, so a journal line
        proves exactly which computation it stands for."""
        return ArtifactCache.key(
            "chunk", cfg=phase_ctx.cfg, hw=phase_ctx.hw,
            benchmark=phase_ctx.benchmark, scheme=phase_ctx.label,
            phase=phase_ctx.phase, lo=lo, hi=hi,
            plan=phase_ctx.plan_digest)

    def _load_journal_state(self, phase_ctx: _Phase,
                            done: Dict[int, Tuple[int, List[WindowResult]]],
                            quarantined: List[QuarantineRecord],
                            report: PhaseReport) -> None:
        """Adopt completed chunks and quarantines from a prior run's
        journal. A journaled chunk counts only when its recorded key
        matches the key recomputed from the live configuration (same
        config, same fault plan, same range) *and* its pickled results
        load — anything else is re-run."""
        if self.chunk_store is None:
            return
        for entry in self._journal_chunks:
            if entry.get("phase") != phase_ctx.phase:
                continue
            lo, hi = int(entry.get("lo", -1)), int(entry.get("hi", -1))
            if not (0 <= lo < hi <= len(phase_ctx.records)):
                continue
            if entry.get("key") != self._chunk_key(phase_ctx, lo, hi):
                continue
            if lo in done:
                continue
            windows = self.chunk_store.get("chunk", entry["key"])
            if windows is None:
                continue
            done[lo] = (hi, windows)
            report.chunks_resumed += 1
        for entry in self._journal_quarantine:
            if (entry.get("phase") != phase_ctx.phase
                    or entry.get("benchmark") != phase_ctx.benchmark
                    or entry.get("scheme") != phase_ctx.label
                    or entry.get("config_digest") != phase_ctx.digest):
                continue
            index = int(entry.get("index", -1))
            if not 0 <= index < len(phase_ctx.records):
                continue
            if any(q.index == index for q in quarantined):
                continue
            quarantined.append(QuarantineRecord(
                phase=phase_ctx.phase, benchmark=phase_ctx.benchmark,
                scheme=phase_ctx.label, index=index,
                fault_index=int(entry.get("fault_index", -1)),
                site=str(entry.get("site", "?")),
                bit=int(entry.get("bit", -1)),
                inject_at_commit=int(entry.get("inject_at_commit", -1)),
                attempts=int(entry.get("attempts", 0)),
                reason=str(entry.get("reason", "?")),
                error=str(entry.get("error", "")),
                config_digest=phase_ctx.digest))

    @staticmethod
    def _gaps(count: int, done: Dict[int, Tuple[int, List[WindowResult]]],
              quarantined: List[QuarantineRecord]) -> List[Tuple[int, int]]:
        """Maximal uncovered ``[lo, hi)`` runs of the window range."""
        covered = sorted([(lo, hi) for lo, (hi, _) in done.items()]
                         + [(q.index, q.index + 1) for q in quarantined])
        gaps = []
        cursor = 0
        for lo, hi in covered:
            if lo > cursor:
                gaps.append((cursor, lo))
            cursor = max(cursor, hi)
        if cursor < count:
            gaps.append((cursor, count))
        return gaps

    def _chunk_gaps(self, gaps: List[Tuple[int, int]],
                    records: Sequence[FaultRecord]) -> List[Tuple[int, int]]:
        """Split uncovered runs into chunks of ~``chunk_windows`` each.
        Cuts are window-aligned per gap: faults sharing an injection
        commit stay in one chunk (gap edges themselves are fixed — they
        border windows already done or quarantined)."""
        per_chunk = max(1, self.policy.chunk_windows)
        bounds: List[Tuple[int, int]] = []
        for lo, hi in gaps:
            want = math.ceil((hi - lo) / per_chunk)
            bounds.extend((lo + a, lo + b)
                          for a, b in _parallel.chunk_bounds(hi - lo, want))
        return _parallel.align_chunk_bounds(bounds, records)

    # -- dispatch ------------------------------------------------------
    def _run_serial(self, phase_ctx: _Phase, chunks: List[_Chunk],
                    done, quarantined, report: PhaseReport,
                    ctx=None, golden=None):
        """In-process execution threading one live golden core through
        the chunks in window order: *golden* when given (a fresh-
        trajectory core at or before the first window), else one built
        here. Returns the live golden core the phase ended on.

        No checkpoint, no per-chunk golden replay and no per-chunk
        rewind copy: a healthy phase does exactly the simulation work of
        ``Campaign.characterize`` / ``run_coverage``. No watchdog (a
        single process cannot preempt itself; SIGKILL-grade failures are
        covered by the journal + resume). A failed chunk drops the live
        golden core, which it may have left mid-window. A chunk in retry
        backoff is *skipped*, not slept on: later ready chunks keep
        dispatching, and the backing-off chunk runs again once its
        ``eligible_at`` deadline passes. A chunk that finds no live
        golden core gets one built by the factory and stepped
        golden-only to its boundary. The
        rebuilt core leaves a copy at the boundary of the chunk waiting
        to retry as it steps past it, and the retry restarts from that
        copy: a failure costs one golden re-step to its boundary and one
        copy, and healthy chunks pay nothing.
        """
        queue = sorted(chunks, key=lambda c: c.lo)
        if not queue:
            return golden
        if ctx is None:
            ctx = _parallel._worker_context(phase_ctx.cfg, phase_ctx.hw)
        campaign = ctx.build_campaign(phase_ctx.benchmark)
        if phase_ctx.scheme is None:
            factory = campaign.baseline_factory
        else:
            factory = lambda: ctx.make_core(phase_ctx.benchmark,
                                            phase_ctx.scheme)
        records = phase_ctx.records
        position = 0         # the live `golden` has advanced to here
        resume_commit = 0
        retry_at = None      # the boundary of a chunk waiting to retry
        rewind = None        # (boundary, golden copy, resume commit)

        def advance(lo: int) -> None:
            """Step the live golden golden-only to window *lo*."""
            nonlocal position, resume_commit
            if position < lo:
                campaign.classifier(factory).advance_golden(
                    golden, records[position:lo])
                position = lo
                resume_commit = records[lo - 1].inject_at_commit

        def golden_for(chunk: _Chunk):
            """The golden core advanced to *chunk*'s start boundary."""
            nonlocal golden, position, resume_commit, retry_at, rewind
            if golden is not None and position > chunk.lo:
                # a revisited chunk: the live golden moved past its
                # boundary while it backed off
                golden = None
            if (golden is None and rewind is not None
                    and rewind[0] <= chunk.lo):
                position, golden, resume_commit = rewind
                rewind = None
            if golden is None:
                golden = factory()
                position = resume_commit = 0
            if retry_at is not None and retry_at <= chunk.lo:
                if position <= retry_at < chunk.lo:
                    # about to step past a chunk waiting to retry
                    advance(retry_at)
                    rewind = (retry_at, golden.clone(), resume_commit)
                retry_at = None
            advance(chunk.lo)
            return golden

        while queue:
            if self.drain:
                report.status = "aborted"
                return golden
            now = time.monotonic()
            # skip-and-revisit: never sleep on a backing-off chunk while
            # other chunks are ready — pick the lowest eligible window
            # range (keeps the golden threading forward when possible)
            chunk = min((c for c in queue if c.eligible_at <= now),
                        key=lambda c: c.lo, default=None)
            if chunk is None:
                wake = min(c.eligible_at for c in queue)
                time.sleep(min(0.25, max(0.0, wake - now)))
                continue
            queue.remove(chunk)
            chunk.attempts += 1
            core = golden_for(chunk)
            try:
                windows = campaign.classifier(factory).run(
                    records[chunk.lo:chunk.hi], golden=core,
                    resume_at_commit=resume_commit)
            except Exception:
                golden = None       # maybe left mid-window: rebuilt
                self._note_failure(phase_ctx, chunk,
                                   traceback.format_exc(limit=8))
                retry: List[_Chunk] = []
                self._requeue_or_split(phase_ctx, chunk, retry,
                                       quarantined, report)
                if retry and (retry_at is None or chunk.lo < retry_at):
                    retry_at = chunk.lo
                queue.extend(retry)
                continue
            position = chunk.hi
            resume_commit = records[chunk.hi - 1].inject_at_commit
            self._complete(phase_ctx, chunk, windows, done, report)
        return golden

    # -- backoff -------------------------------------------------------
    def _backoff(self, chunk: _Chunk) -> float:
        policy = self.policy
        delay = min(policy.backoff_max,
                    policy.backoff_base * 2.0 ** (chunk.attempts - 1))
        self._jitter_salt += 1
        jitter = _jitter_fraction("backoff", chunk.lo, chunk.hi,
                                 chunk.attempts, self._jitter_salt)
        return delay * (1.0 + BACKOFF_JITTER * jitter)

    # -- outcome handling ----------------------------------------------
    def _emit(self, action: str, phase_ctx: _Phase, **fields: Any) -> None:
        self.events.emit("supervisor", action=action,
                         phase=phase_ctx.phase,
                         benchmark=phase_ctx.benchmark,
                         scheme=phase_ctx.label, **fields)

    def _complete(self, phase_ctx: _Phase, chunk: _Chunk,
                  windows: List[WindowResult], done,
                  report: PhaseReport) -> None:
        done[chunk.lo] = (chunk.hi, windows)
        report.chunks_run += 1
        self._emit("chunk_done", phase_ctx, lo=chunk.lo, hi=chunk.hi,
                   attempt=chunk.attempts, key=chunk.key)
        if self.journal is not None:
            self.chunk_store.put("chunk", chunk.key, windows)
            self.journal.append({
                "type": "chunk_done", "phase": phase_ctx.phase,
                "key": chunk.key, "lo": chunk.lo, "hi": chunk.hi,
                "windows": len(windows), "attempt": chunk.attempts})
        if self.metrics.enabled:
            self.metrics.counter("supervisor_chunks_done_total").inc()
            self.metrics.counter("supervisor_windows_done_total").inc(
                chunk.windows)

    def _note_failure(self, phase_ctx: _Phase, chunk: _Chunk,
                      error: str) -> None:
        chunk.last_error = error
        self.metrics.counter("supervisor_failures_total").inc()
        self._emit("retry", phase_ctx, lo=chunk.lo, hi=chunk.hi,
                   attempt=chunk.attempts, reason="exception",
                   error=error[-400:])

    def _requeue_or_split(self, phase_ctx: _Phase, chunk: _Chunk,
                          pending: List[_Chunk],
                          quarantined: List[QuarantineRecord],
                          report: PhaseReport) -> None:
        """Retry with backoff; once the attempt budget is spent, bisect
        toward the offending window(s) and quarantine at size one."""
        if chunk.attempts < chunk.max_attempts:
            report.retries += 1
            self.metrics.counter("supervisor_retries_total").inc()
            chunk.eligible_at = time.monotonic() + self._backoff(chunk)
            pending.append(chunk)
            return
        if chunk.windows <= 1:
            self._quarantine(phase_ctx, chunk, quarantined, report)
            return
        mid = (chunk.lo + chunk.hi) // 2
        self._emit("bisect", phase_ctx, lo=chunk.lo, hi=chunk.hi)
        budget = self.policy.bisect_retries + 1
        for lo, hi in ((chunk.lo, mid), (mid, chunk.hi)):
            pending.append(_Chunk(lo, hi,
                                  self._chunk_key(phase_ctx, lo, hi),
                                  max_attempts=budget))

    def _quarantine(self, phase_ctx: _Phase, chunk: _Chunk,
                    quarantined: List[QuarantineRecord],
                    report: PhaseReport) -> None:
        record = phase_ctx.records[chunk.lo]
        quarantine = QuarantineRecord(
            phase=phase_ctx.phase, benchmark=phase_ctx.benchmark,
            scheme=phase_ctx.label, index=chunk.lo,
            fault_index=record.index, site=record.site.value,
            bit=record.bit, inject_at_commit=record.inject_at_commit,
            attempts=chunk.attempts, reason="exception",
            error=chunk.last_error, config_digest=phase_ctx.digest)
        quarantined.append(quarantine)
        self.metrics.counter("supervisor_quarantined_total").inc()
        self._emit("quarantine", phase_ctx, lo=chunk.lo, hi=chunk.hi,
                   attempt=chunk.attempts, reason=quarantine.reason)
        if self.journal is not None:
            self.journal.append(quarantine.as_json())


# ----------------------------------------------------------------------
# run-dir progress (``repro status``)
# ----------------------------------------------------------------------
def summarize_run_dir(run_dir: str | os.PathLike) -> Dict[str, Any]:
    """Fold a run directory's journal into its campaign progress.

    The journal is the one progress record. Each ``plan`` opens (on
    resume: reopens) the phase keyed by its (phase, benchmark, scheme),
    and the ``chunk_done``, ``quarantine``, ``phase_done`` and ``drain``
    records after it belong to that phase: a supervisor runs its phases
    one at a time. Windows count by index, so a window that several
    invocations journaled counts once. A phase with neither a
    ``phase_done`` nor a ``drain`` is ``incomplete`` — still running or
    killed; the journal cannot tell which. A ``cached`` plan (a phase
    the artifact cache served) counts all its windows done. A
    ``campaign`` record lists the phases a campaign will run; one of them
    not planned yet is ``pending``, so a run killed between two phases
    stays incomplete.
    """
    journal = CampaignJournal.read(run_dir)
    by_type: Dict[str, int] = {}
    phases: Dict[Tuple[str, str, str], Dict[str, Any]] = {}
    listed: Dict[Tuple[str, str, str], None] = {}
    slot: Optional[Dict[str, Any]] = None
    for entry in journal:
        kind = entry.get("type", "?")
        by_type[kind] = by_type.get(kind, 0) + 1
        if kind == "campaign":
            listed.update((tuple(str(part) for part in triple), None)
                          for triple in entry.get("phases", ()))
        elif kind == "plan":
            key = (str(entry.get("phase")), str(entry.get("benchmark")),
                   str(entry.get("scheme")))
            slot = phases.setdefault(key, {"windows": set(),
                                           "chunks": set(),
                                           "quarantined": {}})
            slot["windows_total"] = int(entry.get("windows", 0))
            slot["status"] = "incomplete"
            if entry.get("cached"):
                slot["windows"].update(range(slot["windows_total"]))
        elif slot is None:
            continue
        elif kind == "chunk_done":
            slot["windows"].update(range(int(entry["lo"]),
                                         int(entry["hi"])))
            slot["chunks"].add(entry.get("key"))
        elif kind == "quarantine":
            slot["quarantined"].setdefault(int(entry["index"]), entry)
        elif kind == "phase_done":
            slot["status"] = str(entry.get("status", "complete"))
        elif kind == "drain":
            slot["status"] = "aborted"
    rows = [{"phase": phase, "benchmark": benchmark, "scheme": scheme,
             "windows_total": slot["windows_total"],
             "windows_done": len(slot["windows"]),
             "chunks_done": len(slot["chunks"]),
             "quarantined": len(slot["quarantined"]),
             "status": slot["status"]}
            for (phase, benchmark, scheme), slot in phases.items()]
    rows += [{"phase": phase, "benchmark": benchmark, "scheme": scheme,
              "windows_total": 0, "windows_done": 0, "chunks_done": 0,
              "quarantined": 0, "status": "pending"}
             for phase, benchmark, scheme in listed
             if (phase, benchmark, scheme) not in phases]
    quarantined = [{field: record.get(field) for field in
                    ("phase", "benchmark", "scheme", "index", "site",
                     "bit", "reason")}
                   for slot in phases.values()
                   for _, record in sorted(slot["quarantined"].items())]
    statuses = {row["status"] for row in rows}
    if "aborted" in statuses:
        state = "aborted"
    elif statuses & {"incomplete", "pending"} or not rows:
        state = "incomplete"
    elif quarantined:
        state = "complete-with-quarantine"
    else:
        state = "complete"
    return {"run_dir": str(run_dir), "state": state,
            "by_type": dict(sorted(by_type.items())),
            "windows_total": sum(r["windows_total"] for r in rows),
            "windows_done": sum(r["windows_done"] for r in rows),
            "quarantined": len(quarantined),
            "phases": rows, "quarantined_windows": quarantined}


__all__ = [
    "CampaignAborted",
    "CampaignJournal",
    "EXIT_ABORTED",
    "EXIT_COMPLETE",
    "EXIT_QUARANTINE",
    "PhaseReport",
    "QuarantineRecord",
    "Supervisor",
    "SupervisorPolicy",
    "summarize_run_dir",
]
