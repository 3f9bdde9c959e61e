"""Fault-tolerant campaign execution: the resilient supervisor.

Large tandem campaigns (thousands of windows per benchmark x scheme)
must survive the failures they study: a worker segfault, a hung window
or a Ctrl-C used to kill the whole run and discard every in-flight
result. The :class:`Supervisor` is the one route by which a campaign
phase's fault windows get classified (:class:`~repro.harness.experiment.
ExperimentContext` builds a journal-less one when the caller passes
none). It splits the phase into chunks with the window-level helpers in
:mod:`repro.harness.parallel` and wraps their dispatch in five layers of
protection:

- **retry with exponential backoff + jitter** — a chunk whose task
  raises, or whose worker dies (``BrokenProcessPool``), is re-enqueued
  up to ``max_retries`` times on a rebuilt pool; every attempt is
  recorded as a ``supervisor`` event in :mod:`repro.obs`;
- **watchdog timeouts** — each chunk gets a soft deadline derived from
  the golden pass's seconds per window stepped
  (:class:`~repro.harness.parallel.CheckpointStats`), tightened by the
  hard ``chunk_timeout`` when one is configured; a chunk past its
  deadline is cancelled (the pool is torn down) and retried with an
  escalated deadline;
- **poison-window quarantine** — a chunk that fails deterministically
  is bisected down to the offending window(s), which are journaled as
  ``quarantine`` records (config digest, window coordinates, traceback)
  while the rest of the campaign completes;
- **crash-safe journal + resume** — completed chunks are appended to a
  fsync'd JSONL journal keyed by the same content-addressed digests the
  artifact cache uses, with the chunk results pickled under
  ``<run-dir>/chunks/``; SIGINT/SIGTERM trigger a graceful drain that
  flushes partial results and obs spools, and ``repro resume
  <run-dir>`` restarts the campaign from the journal, re-running only
  the missing chunks — bit-for-bit equal to an uninterrupted run;
- **graceful degradation** — on repeated pool failure the supervisor
  downshifts ``jobs`` (8 -> 4 -> ... -> 1 -> in-process) instead of
  aborting, emitting a ``degradation`` event at each step.

Chunks run in one of two dispatchers, picked per phase: the in-process
serial dispatcher (``jobs == 1``, after a downshift to in-process, or a
phase that plans a single chunk under a policy with
``inline_single_chunk``) threads one live golden core through
the chunks; the pool dispatcher ships each chunk its boundary
checkpoint, dispatching it as soon as the golden pass (run in the parent
alongside the workers) has captured that boundary. Both feed the same
``_complete``/``_note_failure``/quarantine/journal machinery, so results
— and ``repro resume`` — are bit-for-bit identical either way.

Chaos knobs (for the chaos-campaign CI job and tests, never set in
production runs) are read by the *worker-side* task only:

- ``REPRO_CHAOS_CRASH_RATE`` — probability in [0, 1] that a chunk
  attempt SIGKILLs its worker; the decision is a deterministic hash of
  the chunk coordinates *and the attempt number*, so retries converge;
- ``REPRO_CHAOS_POISON`` — comma-separated window positions that
  SIGKILL the worker on *every* attempt (deterministic poison);
- ``REPRO_CHAOS_HANG`` — comma-separated window positions whose chunk
  sleeps forever, exercising the watchdog.
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
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..faults.classifier import WindowResult
from ..faults.model import FaultRecord
from ..obs.events import NULL_LOG, WORKER_DIR_ENV, read_events
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
#: Seconds to wait for in-flight chunks during a graceful drain.
DRAIN_GRACE = 30.0

CHAOS_CRASH_RATE_ENV = "REPRO_CHAOS_CRASH_RATE"
CHAOS_POISON_ENV = "REPRO_CHAOS_POISON"
CHAOS_HANG_ENV = "REPRO_CHAOS_HANG"


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


# ----------------------------------------------------------------------
# chaos injection (worker side, env-gated, off in production)
# ----------------------------------------------------------------------
def _chaos_fraction(*coords: Any) -> float:
    """Deterministic pseudo-random fraction in [0, 1) from coordinates."""
    blob = ":".join(str(c) for c in coords).encode()
    word = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    return word / 2.0 ** 64


def _chaos_indices(env: str, label: str) -> List[int]:
    """Window positions listed in *env*: bare integers apply to every
    phase, ``<scheme-label>:<index>`` tokens only to that phase's
    fan-out (e.g. ``baseline:4`` poisons characterisation window 4 but
    leaves the coverage replay alone)."""
    indices = []
    for token in os.environ.get(env, "").split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            want, _, token = token.partition(":")
            if want != label:
                continue
        indices.append(int(token))
    return indices


def chaos_probe(benchmark: str, scheme: str, lo: int, hi: int,
                attempt: int) -> None:
    """Kill or hang this worker according to the chaos environment.

    Poison windows (``REPRO_CHAOS_POISON``) crash on every attempt;
    random crashes (``REPRO_CHAOS_CRASH_RATE``) hash the attempt number
    into the decision so a retried chunk eventually survives.
    """
    if any(lo <= w < hi for w in _chaos_indices(CHAOS_POISON_ENV, scheme)):
        os.kill(os.getpid(), signal.SIGKILL)
    if any(lo <= w < hi for w in _chaos_indices(CHAOS_HANG_ENV, scheme)):
        time.sleep(3600.0)
    rate = float(os.environ.get(CHAOS_CRASH_RATE_ENV, "0") or 0.0)
    if rate > 0 and _chaos_fraction(benchmark, scheme, lo, hi,
                                    attempt) < rate:
        os.kill(os.getpid(), signal.SIGKILL)


def supervised_chunk_task(args) -> List[WindowResult]:
    """Pool entry point: the chaos probe, then the ordinary chunk task.

    ``args`` is ``(window_chunk_task args, attempt)`` — the attempt
    number exists only to parameterise the chaos probe; the classified
    results are attempt-invariant.
    """
    inner, attempt = args
    _cfg, _hw, benchmark, scheme, _records, lo, hi, _checkpoint = inner
    chaos_probe(benchmark, scheme or "baseline", lo, hi, attempt)
    return _parallel.window_chunk_task(inner)


# ----------------------------------------------------------------------
# policy and reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/timeout/quarantine knobs for one supervised campaign."""

    #: Extra attempts after the first, per chunk.
    max_retries: int = 3
    #: Extra attempts for bisected sub-chunks (determinism is already
    #: suspected by the time a chunk is bisected).
    bisect_retries: int = 1
    #: Hard per-chunk wall-clock cap in seconds (None = soft only).
    chunk_timeout: Optional[float] = None
    #: Soft deadline = max(min_soft_timeout, factor x estimated chunk
    #: seconds from the golden pass); <= 0 disables the soft deadline.
    soft_timeout_factor: float = 32.0
    min_soft_timeout: float = 30.0
    #: Exponential backoff between attempts: base * 2^(attempt-1),
    #: capped, plus :data:`BACKOFF_JITTER`.
    backoff_base: float = 0.1
    backoff_max: float = 5.0
    #: Target windows per chunk — the journal (and retry) granularity.
    #: The chunk count is ``max(jobs, ceil(windows / chunk_windows))``.
    chunk_windows: int = 8
    #: Consecutive pool failures tolerated before downshifting jobs.
    pool_break_limit: int = 3
    #: Run a phase that plans a single chunk in-process even at
    #: ``jobs > 1``: no fork and no checkpoint pass, but also no
    #: watchdog and no crash isolation for that chunk. Off by default,
    #: so an explicit supervisor (``repro campaign``) keeps the pool's
    #: protection; the journal-less supervisor an ExperimentContext
    #: builds for itself turns it on.
    inline_single_chunk: bool = False


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
    reason: str                  # "crash" | "exception" | "timeout"
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
    timeouts: int = 0
    pool_rebuilds: int = 0
    downshifts: int = 0
    chunks_run: int = 0
    chunks_resumed: int = 0
    #: The golden core the caller passed to ``classify_windows``, handed
    #: back on its trajectory: advanced through the last window when the
    #: serial dispatcher classified every window on it without a retry,
    #: untouched when no window ran in-process (an empty phase, or the
    #: pool's). None when the dispatcher abandoned it (a failed chunk
    #: drops the live golden core) or stepped it past chunks resumed
    #: from the journal. The caller takes it, so
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
    #: boundary checkpoint at or before ``lo`` (a bisected upper half
    #: keeps its parent's); None on the serial path, and on the pool
    #: path until the golden pass has captured the chunk's boundary
    checkpoint: Optional[Any]
    max_attempts: int
    attempts: int = 0
    eligible_at: float = 0.0     # monotonic timestamp gating the retry
    last_reason: str = ""
    last_error: str = ""
    #: set when this chunk was in flight during a pool break; suspects
    #: are re-run solo so a repeat crash is unambiguously attributable
    suspect: bool = False

    @property
    def windows(self) -> int:
        return self.hi - self.lo


@dataclass
class _Phase:
    """Immutable coordinates shared by every chunk of one fan-out."""

    cfg: Any
    hw: Any
    benchmark: str
    scheme: Optional[str]
    label: str
    phase: str
    records: List[FaultRecord]
    digest: str
    plan_digest: str             # content key of the whole fault plan
    #: the pool's checkpoint golden pass, updated at every boundary it
    #: captures: the watchdog's throughput evidence
    golden: _parallel.CheckpointStats = field(
        default_factory=_parallel.CheckpointStats)

    @property
    def window_estimate(self) -> float:
        """Golden-pass seconds per window the pass has stepped; 0 until
        it has stepped any (the soft deadline then falls to its floor)."""
        if self.golden.windows_stepped <= 0:
            return 0.0
        return self.golden.golden_pass_seconds / self.golden.windows_stepped

    def task_args(self, chunk: _Chunk) -> Tuple:
        return ((self.cfg, self.hw, self.benchmark, self.scheme,
                 self.records, chunk.lo, chunk.hi, chunk.checkpoint),
                chunk.attempts)


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------
class Supervisor:
    """Fault-tolerant execution of campaign phases' window chunks.

    One instance supervises every phase its context runs (a ``repro
    campaign`` run dir holds one campaign, both phases). With *run_dir*
    it journals completed chunks and pickles their results under
    ``run_dir/chunks/``, enabling crash-safe resume; without it the
    retry/timeout/quarantine machinery still runs, but an interrupted
    campaign cannot be resumed.
    """

    def __init__(self, policy: Optional[SupervisorPolicy] = None,
                 run_dir: Optional[str | os.PathLike] = None,
                 jobs: Optional[int] = None, events=None, metrics=None):
        self.policy = policy or SupervisorPolicy()
        self.jobs = max(1, jobs) if jobs is not None else None
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
        self._force_serial = False
        self._jitter_salt = 0

    # -- lifecycle -----------------------------------------------------
    def bind(self, jobs: Optional[int] = None, events=None,
             metrics=None) -> None:
        """Late wiring from the owning ExperimentContext."""
        if self.jobs is None and jobs is not None:
            self.jobs = max(1, jobs)
        if events is not None and self.events is NULL_LOG:
            self.events = events
        if metrics is not None and self.metrics is NULL_METRICS:
            self.metrics = metrics

    def request_drain(self) -> None:
        """Stop submitting new chunks; flush and abort gracefully."""
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
        that the serial dispatcher advances through the windows instead
        of building its own; ``report.golden`` hands it back (see
        :attr:`PhaseReport.golden`)."""
        jobs = self.jobs or 1
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
            self._journal_plan(phase_ctx, [], report, jobs)
            self._journal_done(report)
            return report

        done: Dict[int, Tuple[int, List[WindowResult]]] = {}
        quarantined: List[QuarantineRecord] = []
        self._load_journal_state(phase_ctx, done, quarantined, report)

        gaps = self._gaps(len(records), done, quarantined)
        bounds = self._chunk_gaps(gaps, jobs, records)
        dispatcher = self._dispatcher(jobs, len(bounds))
        self._emit("plan", phase_ctx, chunks=len(bounds),
                   windows=len(records), resumed=report.chunks_resumed,
                   executor=dispatcher)
        self._journal_plan(phase_ctx, bounds, report, jobs)

        if bounds:
            chunks = deque(
                _Chunk(lo, hi, self._chunk_key(phase_ctx, lo, hi), None,
                       max_attempts=self.policy.max_retries + 1)
                for lo, hi in bounds)
            if dispatcher == "serial":
                # the serial dispatcher threads one live golden core
                # through the chunks — no checkpoint golden pass needed
                live = self._run_serial(phase_ctx, chunks, done,
                                        quarantined, report, ctx=ctx,
                                        golden=golden)
                if live is not golden or report.chunks_resumed:
                    report.golden = None
            else:
                boundaries = _parallel.iter_chunk_checkpoints(
                    cfg, hw, benchmark, scheme, records, bounds,
                    events=self.events, ctx=ctx, stats=phase_ctx.golden)
                self._run_pool(phase_ctx, chunks, boundaries, done,
                               quarantined, report, jobs=jobs, ctx=ctx)

        if report.status == "aborted":
            if self.journal is not None:
                self.journal.append({"type": "drain", "phase": phase})
            if self.events.enabled:
                self.events.absorb_worker_files()
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

    def _journal_plan(self, phase_ctx: _Phase, bounds, report: PhaseReport,
                      jobs: int) -> None:
        if self.journal is not None:
            self.journal.append({
                "type": "plan", "phase": phase_ctx.phase,
                "benchmark": phase_ctx.benchmark, "scheme": phase_ctx.label,
                "windows": len(phase_ctx.records),
                "bounds": [list(b) for b in bounds],
                "resumed_chunks": report.chunks_resumed,
                "config_digest": phase_ctx.digest, "jobs": jobs})

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

    # -- dispatcher selection ------------------------------------------
    def _dispatcher(self, jobs: int, chunks: int) -> str:
        """``"serial"`` or ``"pool"`` for one fan-out: in-process after a
        downshift (the pool has already proven unusable), at ``jobs ==
        1``, and for a single-chunk phase when the policy allows it
        (``inline_single_chunk``); the worker pool otherwise."""
        if self._force_serial or jobs == 1:
            return "serial"
        if chunks == 1 and self.policy.inline_single_chunk:
            return "serial"
        return "pool"

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

    def _chunk_gaps(self, gaps: List[Tuple[int, int]], jobs: int,
                    records: Sequence[FaultRecord]) -> List[Tuple[int, int]]:
        """Split uncovered runs into chunks of ~``chunk_windows`` each
        (at least *jobs* chunks overall, so the pool stays busy). Cuts
        are window-aligned per gap: faults sharing an injection commit
        stay in one chunk (gap edges themselves are fixed — they border
        windows already done or quarantined)."""
        total = sum(hi - lo for lo, hi in gaps)
        if total <= 0:
            return []
        per_chunk = max(1, self.policy.chunk_windows)
        bounds: List[Tuple[int, int]] = []
        for lo, hi in gaps:
            span = hi - lo
            want = math.ceil(span / per_chunk)
            if len(gaps) == 1:
                want = max(want, min(jobs, span))
            bounds.extend((lo + a, lo + b)
                          for a, b in _parallel.chunk_bounds(span, want))
        return _parallel.align_chunk_bounds(bounds, records)

    # -- dispatch: serial ----------------------------------------------
    def _run_serial(self, phase_ctx: _Phase, chunks: "deque[_Chunk]",
                    done, quarantined, report: PhaseReport,
                    ctx=None, golden=None):
        """In-process execution threading one live golden core through
        the chunks in window order: *golden* when given (a fresh-
        trajectory core at or before the first window), else one built
        here. Returns the live golden core the phase ended on.

        No checkpoint golden pass, no per-chunk golden replay and no
        per-chunk rewind copy: a healthy serial phase does exactly the
        simulation work of ``Campaign.characterize`` / ``run_coverage``.
        Same retry/bisect/quarantine semantics as the pool; no watchdog
        (a single process cannot preempt itself; SIGKILL-grade failures
        are covered by the journal + resume). A failed chunk drops the
        live golden core, which it may have left mid-window. A chunk in
        retry backoff is *skipped*, not slept on: later ready chunks keep
        dispatching, and the backing-off chunk runs again once its
        ``eligible_at`` deadline passes. A chunk that finds no live golden
        core gets one rebuilt — restored from its boundary checkpoint
        when it has one (a phase downshifted from the pool), else built
        by the factory — and stepped golden-only to its boundary. The
        rebuilt core leaves a copy at the boundary of the chunk waiting
        to retry as it steps past it, and the retry restarts from that
        copy: a failure costs one golden re-step to its boundary and one
        copy, and healthy chunks pay nothing.
        """
        queue = deque(sorted(chunks, key=lambda c: c.lo))
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
                checkpoint = chunk.checkpoint   # downshifted from a pool
                if (checkpoint is not None
                        and checkpoint.window_index <= chunk.lo):
                    golden = checkpoint.restore()
                    position = checkpoint.window_index
                    resume_commit = checkpoint.resume_at_commit
                else:
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
                self._note_failure(phase_ctx, chunk, report, "exception",
                                   traceback.format_exc(limit=8))
                retry: "deque[_Chunk]" = deque()
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

    # -- dispatch: pool ------------------------------------------------
    def _run_pool(self, phase_ctx: _Phase, chunks: "deque[_Chunk]",
                  boundaries: Iterator[Any], done, quarantined,
                  report: PhaseReport, jobs: int, ctx=None) -> None:
        """Pool execution overlapped with the checkpoint golden pass, with
        crash attribution.

        *chunks* arrive without checkpoints; *boundaries* (the pass)
        yields their boundary checkpoints in window order. Between
        dispatch and poll steps the parent pulls one more boundary, and a
        chunk is dispatchable as soon as its boundary exists, so the
        first chunks run while the pass still steps toward later
        boundaries. The parent is busy stepping the pass meanwhile, so at
        most ``jobs - 1`` chunks are in flight until it ends; ``jobs``
        after that.

        A worker SIGKILL breaks the whole ``ProcessPoolExecutor``: every
        in-flight future fails with ``BrokenProcessPool`` regardless of
        which chunk's worker actually died. Charging them all would let
        one poison window quarantine its innocent neighbours, so blame
        is resolved by *probing*: when more than one chunk was in flight
        at break time, nobody is charged and all of them move to a
        suspect queue that re-runs them one at a time — a crash with a
        single chunk in flight is unambiguous, and only then does the
        attempt count toward bisection/quarantine. Jobs are downshifted
        only when the pool itself cannot be (re)built, never because a
        chunk crashed it.
        """
        unready = deque(sorted(chunks, key=lambda c: c.lo))  # no boundary
        pending: "deque[_Chunk]" = deque()
        probe: "deque[_Chunk]" = deque()    # suspects, run one at a time
        running: Dict[Any, Tuple[_Chunk, float]] = {}
        pool: Optional[ProcessPoolExecutor] = None
        build_failures = 0
        drain_deadline: Optional[float] = None

        def run_in_process() -> None:
            """Hand every unfinished chunk to the serial dispatcher, which
            threads its own golden core (the pass is abandoned)."""
            boundaries.close()
            probe.extend(pending)
            probe.extend(unready)
            self._run_serial(phase_ctx, probe, done, quarantined, report,
                             ctx=ctx)

        spool = (self.events.worker_spool() if self.events.enabled
                 else None)
        if spool is not None:
            os.environ[WORKER_DIR_ENV] = spool
        try:
            while unready or pending or probe or running:
                now = time.monotonic()
                if self.drain:
                    if drain_deadline is None:
                        drain_deadline = now + DRAIN_GRACE
                        self._emit("drain", phase_ctx,
                                   pending=(len(unready) + len(pending)
                                            + len(probe)),
                                   running=len(running))
                    if not running or now > drain_deadline:
                        report.status = "aborted"
                        break
                # (re)build the pool when chunks are waiting
                if pool is None and (pending or probe) and not self.drain:
                    pool = self._build_pool(phase_ctx, jobs, report)
                    if pool is None:
                        build_failures += 1
                        if build_failures >= self.policy.pool_break_limit:
                            build_failures = 0
                            jobs = self._downshift(phase_ctx, jobs, report,
                                                   "pool_unavailable")
                        if self._force_serial:
                            run_in_process()
                            return
                        time.sleep(0.05)
                        continue
                # submit: suspects strictly one at a time (attribution),
                # otherwise eligible chunks up to the worker count, less
                # the one CPU the parent takes while the pass runs
                submit_from = probe if probe else pending
                if probe:
                    limit = 1
                else:
                    limit = max(1, jobs - 1) if unready else jobs
                while (pool is not None and submit_from and not self.drain
                       and len(running) < limit and not (probe and running)):
                    chunk = next((c for c in submit_from
                                  if c.eligible_at <= now), None)
                    if chunk is None:
                        break
                    submit_from.remove(chunk)
                    chunk.attempts += 1
                    try:
                        future = pool.submit(supervised_chunk_task,
                                             phase_ctx.task_args(chunk))
                    except (OSError, RuntimeError) as exc:
                        # pool died between builds: put the chunk back
                        # (uncharged) and force a rebuild
                        chunk.attempts -= 1
                        submit_from.appendleft(chunk)
                        self._teardown_pool(pool)
                        pool = None
                        build_failures += 1
                        report.pool_rebuilds += 1
                        self.metrics.counter(
                            "supervisor_pool_rebuilds_total").inc()
                        self._emit("pool_rebuild", phase_ctx,
                                   error=repr(exc))
                        if build_failures >= self.policy.pool_break_limit:
                            build_failures = 0
                            jobs = self._downshift(phase_ctx, jobs, report,
                                                   "pool_unavailable")
                            if self._force_serial:
                                run_in_process()
                                return
                        break
                    deadline = self._deadline(phase_ctx, chunk)
                    if deadline > 0:
                        self.metrics.counter(
                            "supervisor_watchdog_armed_total").inc()
                    running[future] = (chunk, deadline)
                if unready and not self.drain:
                    # the workers run while the parent steps the pass to
                    # the next boundary; then poll without blocking
                    chunk = unready.popleft()
                    chunk.checkpoint = next(boundaries)
                    pending.append(chunk)
                    poll = 0.0
                elif running:
                    poll = 0.25
                else:
                    waiting = list(probe) + list(pending)
                    if waiting:
                        wake = min(c.eligible_at for c in waiting)
                        time.sleep(min(0.25, max(0.0,
                                                 wake - time.monotonic())))
                        continue
                    break
                completed, _ = wait(list(running), timeout=poll,
                                    return_when=FIRST_COMPLETED)
                crashed: List[_Chunk] = []
                for future in completed:
                    chunk, _deadline = running.pop(future)
                    error = future.exception()
                    if error is None:
                        build_failures = 0
                        self._complete(phase_ctx, chunk, future.result(),
                                       done, report)
                    elif isinstance(error, BrokenProcessPool):
                        crashed.append(chunk)
                    else:
                        self._note_failure(phase_ctx, chunk, report,
                                           "exception",
                                           self._format_error(error))
                        self._requeue_or_split(
                            phase_ctx, chunk,
                            probe if chunk.suspect else pending,
                            quarantined, report)
                now = time.monotonic()
                timed_out = [future for future, (c, deadline)
                             in running.items()
                             if deadline > 0 and now > deadline]
                if crashed or timed_out:
                    for future in timed_out:
                        chunk, _deadline = running.pop(future)
                        report.timeouts += 1
                        self.metrics.counter(
                            "supervisor_watchdog_fired_total").inc()
                        self._note_failure(phase_ctx, chunk, report,
                                           "timeout",
                                           f"exceeded chunk deadline "
                                           f"after {chunk.attempts} "
                                           f"attempt(s)")
                        self._emit("timeout", phase_ctx, lo=chunk.lo,
                                   hi=chunk.hi, attempt=chunk.attempts)
                        self._requeue_or_split(
                            phase_ctx, chunk,
                            probe if chunk.suspect else pending,
                            quarantined, report)
                    leftovers = [chunk for chunk, _deadline
                                 in running.values()]
                    running.clear()
                    if crashed:
                        # futures still unresolved at break time belong
                        # to the same suspect group as the ones already
                        # reporting BrokenProcessPool
                        group = crashed + leftovers
                        if len(group) == 1:
                            # a lone in-flight chunk crashed the pool:
                            # unambiguous blame, the attempt counts
                            chunk = group[0]
                            chunk.suspect = True
                            self._note_failure(phase_ctx, chunk, report,
                                               "crash",
                                               "worker died "
                                               "(BrokenProcessPool)")
                            self._requeue_or_split(phase_ctx, chunk,
                                                   probe, quarantined,
                                                   report)
                        else:
                            # ambiguous: charge nobody, probe everybody
                            for chunk in group:
                                chunk.attempts -= 1
                                chunk.suspect = True
                                probe.append(chunk)
                    else:
                        # timeout-only teardown: bystanders ride again,
                        # uncharged
                        for chunk in leftovers:
                            chunk.attempts -= 1
                            (probe if chunk.suspect
                             else pending).appendleft(chunk)
                    self._teardown_pool(pool)
                    pool = None
                    report.pool_rebuilds += 1
                    self.metrics.counter(
                        "supervisor_pool_rebuilds_total").inc()
                    self._emit("pool_rebuild", phase_ctx,
                               reason="crash" if crashed else "timeout")
        finally:
            boundaries.close()      # drain or error: release the pass
            if pool is not None:
                self._teardown_pool(pool)
            if spool is not None:
                os.environ.pop(WORKER_DIR_ENV, None)
                self.events.absorb_worker_files()

    # -- pool plumbing -------------------------------------------------
    def _build_pool(self, phase_ctx: _Phase, workers: int,
                    report: PhaseReport) -> Optional[ProcessPoolExecutor]:
        try:
            return ProcessPoolExecutor(max_workers=workers,
                                       mp_context=_parallel._mp_context())
        except (OSError, PermissionError, ValueError):
            return None

    @staticmethod
    def _teardown_pool(pool: ProcessPoolExecutor, kill: bool = True) -> None:
        """Tear a pool down without waiting on stuck workers."""
        if kill:
            for proc in list(getattr(pool, "_processes", {}).values()):
                try:
                    proc.kill()
                except (OSError, AttributeError):
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except TypeError:           # Python < 3.9
            pool.shutdown(wait=False)

    def _downshift(self, phase_ctx: _Phase, current_jobs: int,
                   report: PhaseReport, reason: str) -> int:
        """Halve the worker count (degrade to in-process at 1) instead
        of aborting the campaign."""
        report.downshifts += 1
        self.metrics.counter("supervisor_downshifts_total").inc()
        if current_jobs <= 1:
            self._force_serial = True
            self.events.emit("degradation", reason=reason,
                             jobs_from=current_jobs, jobs_to=0,
                             detail="falling back to in-process execution")
            return current_jobs
        downshifted = max(1, current_jobs // 2)
        self.events.emit("degradation", reason=reason,
                         jobs_from=current_jobs, jobs_to=downshifted)
        return downshifted

    # -- deadlines and backoff -----------------------------------------
    def _deadline(self, phase_ctx: _Phase, chunk: _Chunk) -> float:
        """Absolute (monotonic) deadline for this attempt; 0 = none.

        Soft deadline from the golden-pass throughput estimate, hard
        cap from the policy; retries double the allowance so a slow but
        healthy chunk is never quarantined by an optimistic estimate.
        """
        policy = self.policy
        soft = hard = None
        if policy.soft_timeout_factor > 0:
            soft = max(policy.min_soft_timeout,
                       policy.soft_timeout_factor
                       * phase_ctx.window_estimate * chunk.windows)
        if policy.chunk_timeout is not None and policy.chunk_timeout > 0:
            hard = policy.chunk_timeout
        if soft is None and hard is None:
            return 0.0
        allowed = min(v for v in (soft, hard) if v is not None)
        allowed *= 2.0 ** (chunk.attempts - 1)
        if hard is not None:
            allowed = min(allowed, hard * 2.0 ** (chunk.attempts - 1))
        return time.monotonic() + allowed

    def _backoff(self, chunk: _Chunk) -> float:
        policy = self.policy
        delay = min(policy.backoff_max,
                    policy.backoff_base * 2.0 ** (chunk.attempts - 1))
        self._jitter_salt += 1
        jitter = _chaos_fraction("backoff", chunk.lo, chunk.hi,
                                 chunk.attempts, self._jitter_salt)
        return delay * (1.0 + BACKOFF_JITTER * jitter)

    # -- outcome handling ----------------------------------------------
    @staticmethod
    def _format_error(error: BaseException) -> str:
        return "".join(traceback.format_exception_only(type(error),
                                                       error)).strip()

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
                      report: PhaseReport, reason: str,
                      error: str) -> None:
        chunk.last_reason = reason
        chunk.last_error = error
        self.metrics.counter("supervisor_failures_total").inc()
        self._emit("retry", phase_ctx, lo=chunk.lo, hi=chunk.hi,
                   attempt=chunk.attempts, reason=reason,
                   error=error[-400:])

    def _requeue_or_split(self, phase_ctx: _Phase, chunk: _Chunk,
                          pending, quarantined: List[QuarantineRecord],
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
        pending.append(_Chunk(chunk.lo, mid,
                              self._chunk_key(phase_ctx, chunk.lo, mid),
                              chunk.checkpoint, max_attempts=budget,
                              suspect=chunk.suspect))
        # the upper half keeps the parent's boundary checkpoint too: the
        # worker steps its golden core from there through [lo, mid)
        pending.append(_Chunk(mid, chunk.hi,
                              self._chunk_key(phase_ctx, mid, chunk.hi),
                              chunk.checkpoint, max_attempts=budget,
                              suspect=chunk.suspect))

    def _quarantine(self, phase_ctx: _Phase, chunk: _Chunk,
                    quarantined: List[QuarantineRecord],
                    report: PhaseReport) -> None:
        record = phase_ctx.records[chunk.lo]
        quarantine = QuarantineRecord(
            phase=phase_ctx.phase, benchmark=phase_ctx.benchmark,
            scheme=phase_ctx.label, index=chunk.lo,
            fault_index=record.index, site=record.site.value,
            bit=record.bit, inject_at_commit=record.inject_at_commit,
            attempts=chunk.attempts, reason=chunk.last_reason or "?",
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
    "CHAOS_CRASH_RATE_ENV",
    "CHAOS_HANG_ENV",
    "CHAOS_POISON_ENV",
    "CampaignAborted",
    "CampaignJournal",
    "EXIT_ABORTED",
    "EXIT_COMPLETE",
    "EXIT_QUARANTINE",
    "PhaseReport",
    "QuarantineRecord",
    "Supervisor",
    "SupervisorPolicy",
    "chaos_probe",
    "summarize_run_dir",
    "supervised_chunk_task",
]
