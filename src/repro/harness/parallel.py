"""Process-parallel building blocks for campaigns and figure artefacts.

Everything here is bit-for-bit identical to serial execution because
every worker re-derives its state from the explicit seeds in
:class:`~repro.harness.experiment.ExperimentConfig` (design decision #10
in DESIGN.md — nothing is shared between workers except the immutable
configuration). Two granularities:

- **artefact level** — whole fault-free timing runs, SRT-iso runs,
  characterisation campaigns and (benchmark, scheme) coverage phases
  are independent given the configuration; :meth:`ExperimentContext.
  prefetch` fans them out with :class:`ParallelExecutor`. Each worker
  task runs in a private ``jobs=1`` context, so a whole campaign phase
  in a worker takes the same supervised serial route as one in the
  parent;
- **window level** — :func:`chunk_bounds` / :func:`align_chunk_bounds`
  cut one phase's fault list into the contiguous chunks that
  :class:`~repro.harness.supervisor.Supervisor` journals and retries
  (it classifies them in-process, threading one live golden core).
  :func:`chunk_checkpoints` runs *one* golden pass capturing a
  :class:`~repro.pipeline.checkpoint.CoreCheckpoint` at each chunk
  boundary, and :func:`window_chunk_task` restores a boundary and
  classifies only its chunk — bit-for-bit the state the serial
  classifier carries into the chunk. No campaign runs them; they are
  the shipped-checkpoint reference that perfbench times in-process.

Workers are plain processes (``concurrent.futures.ProcessPoolExecutor``,
fork start method where available); each keeps a private serial
``ExperimentContext`` memoised per (config, hardware) pair so repeated
tasks for the same configuration share generated programs. If a pool
cannot be created (restricted sandboxes), :class:`ParallelExecutor`
silently degrades to the serial path — same results, no parallelism.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..config import HardwareConfig
from ..faults import CampaignResult
from ..faults.classifier import WindowResult
from ..faults.model import FaultRecord
from ..obs.events import NULL_LOG, WORKER_DIR_ENV, worker_task_span
from ..obs.metrics import NULL_METRICS, worker_metrics
from ..pipeline.checkpoint import CoreCheckpoint

# ----------------------------------------------------------------------
# pool plumbing
# ----------------------------------------------------------------------
def default_jobs() -> int:
    return os.cpu_count() or 1


def chunk_bounds(count: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``range(count)`` into at most *chunks* contiguous,
    near-equal ``(lo, hi)`` slices covering every index exactly once."""
    if count <= 0:
        return []
    chunks = max(1, min(chunks, count))
    base, extra = divmod(count, chunks)
    bounds = []
    lo = 0
    for i in range(chunks):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def align_chunk_bounds(bounds: Sequence[Tuple[int, int]],
                       records: Sequence[FaultRecord]
                       ) -> List[Tuple[int, int]]:
    """Snap chunk cuts so faults sharing an ``inject_at_commit`` (one
    run-window) never split across chunks.

    A raw :func:`chunk_bounds` cut through the middle of a window would
    restore it twice (two workers replay the same golden window), so
    every producer of window chunks runs its bounds through this. Each
    interior cut is snapped *down* to the start of the window it lands
    in; cuts that collapse onto each other drop the resulting empty
    chunk. Bounds may cover several non-contiguous runs (the
    supervisor's gap list) — cuts only move within their own run, so
    covered/quarantined windows between runs are never re-entered. Plans with all-distinct injection points
    (every evenly spaced campaign) pass through unchanged, keeping chunk
    identities — cache keys, journal chunk keys — stable.
    """
    bounds = list(bounds)
    if not bounds:
        return []
    runs: List[List[Tuple[int, int]]] = [[bounds[0]]]
    for bound in bounds[1:]:
        if bound[0] == runs[-1][-1][1]:
            runs[-1].append(bound)
        else:
            runs.append([bound])
    aligned: List[Tuple[int, int]] = []
    for run in runs:
        floor, ceil = run[0][0], run[-1][1]
        edges = [floor]
        for lo, _hi in run[1:]:
            cut = lo
            while cut > floor and (records[cut].inject_at_commit
                                   == records[cut - 1].inject_at_commit):
                cut -= 1
            # a cut snapped at or below the previous edge leaves an
            # empty chunk: drop it (the previous chunk absorbs it)
            if cut > edges[-1]:
                edges.append(cut)
        edges.append(ceil)
        aligned.extend((a, b) for a, b in zip(edges, edges[1:]) if b > a)
    return aligned


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:      # platforms without fork
        return multiprocessing.get_context("spawn")


class ParallelExecutor:
    """A thin, deterministic fan-out wrapper over a process pool.

    ``map`` preserves task order, so merged results are positionally
    identical to the serial loop. With ``jobs == 1`` (or one task, or a
    pool that fails to start) it degrades to in-process execution.
    """

    def __init__(self, jobs: int | None = None, events=None, metrics=None):
        self.jobs = max(1, jobs if jobs is not None else default_jobs())
        self.events = events if events is not None else NULL_LOG
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._pool_broken = False

    def map(self, fn: Callable[[Any], Any],
            tasks: Sequence[Any]) -> List[Any]:
        tasks = list(tasks)
        self.metrics.counter("dispatcher_tasks_total").inc(len(tasks))
        # Hand the tasks their event spool through the environment (fork
        # inherits it); absorb the per-worker files once the fan-out
        # completes so the main log stays the single source of truth.
        # A task run in this process (one task, jobs=1, a broken pool)
        # spools its worker registry the same way, so no path loses it.
        spool = self.events.worker_spool() if self.events.enabled else None
        if spool is not None:
            os.environ[WORKER_DIR_ENV] = spool
        try:
            if self.jobs > 1 and len(tasks) > 1 and not self._pool_broken:
                results = self._map_pool(fn, tasks)
                if results is not None:
                    return results
            return [fn(task) for task in tasks]
        finally:
            if spool is not None:
                os.environ.pop(WORKER_DIR_ENV, None)
                self.events.absorb_worker_files()

    def _map_pool(self, fn: Callable[[Any], Any],
                  tasks: List[Any]) -> Optional[List[Any]]:
        """The pool's results in task order; None when no pool can be
        created (the caller then runs the tasks in this process)."""
        self.metrics.counter("dispatcher_fanouts_total").inc()
        self.metrics.gauge("dispatcher_jobs").set(self.jobs)
        workers = min(self.jobs, len(tasks))
        try:
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=_mp_context()) as pool:
                return list(pool.map(fn, tasks, chunksize=1))
        except (OSError, PermissionError) as exc:
            # Restricted environment (no fork/semaphores): fall back to
            # the serial path, once, loudly — on stderr for humans and
            # as a degradation event for the machine-read log.
            print(f"repro: process pool unavailable ({exc}); "
                  f"running serially", file=sys.stderr)
            self.events.emit("degradation", reason="pool_unavailable",
                             jobs_from=workers, jobs_to=1,
                             detail=f"{type(exc).__name__}: {exc}")
            self._pool_broken = True
            return None


# ----------------------------------------------------------------------
# worker-side context (one per process, memoised per configuration)
# ----------------------------------------------------------------------
_WORKER_CONTEXTS: Dict[Tuple[Any, HardwareConfig], Any] = {}


def _worker_context(cfg, hw: HardwareConfig):
    """A serial, cache-less ExperimentContext private to this worker.

    Its registry is :func:`~repro.obs.metrics.worker_metrics`, which the
    enclosing :func:`~repro.obs.events.worker_task_span` drains into the
    worker's event spool. Memoised per (config, hardware) so consecutive
    tasks for the same campaign share generated programs — rebuilt when
    that registry changed (a context memoised in the parent, where
    worker metrics are off, is inherited by forked workers); bounded so
    a long-lived pool cannot accumulate contexts.
    """
    from .experiment import ExperimentContext    # local: avoid cycle
    key = (cfg, hw)
    metrics = worker_metrics()
    ctx = _WORKER_CONTEXTS.get(key)
    if ctx is None or ctx.metrics_registry is not metrics:
        if len(_WORKER_CONTEXTS) >= 4:
            _WORKER_CONTEXTS.clear()
        ctx = ExperimentContext(cfg, hw, jobs=1, cache=None,
                                metrics=metrics)
        ctx.prefetch_worker = True
        _WORKER_CONTEXTS[key] = ctx
    return ctx


# ----------------------------------------------------------------------
# artefact-level tasks (whole runs / campaigns per worker)
# ----------------------------------------------------------------------
def fault_free_task(args) -> Tuple[Any, Optional[CampaignResult]]:
    """A fault-free run and, given the benchmark's characterisation, the
    scheme's coverage phase classified on the way (``ExperimentContext.
    run_fault_free``): ``(run, coverage or None)``."""
    cfg, hw, benchmark, scheme, characterization = args
    with worker_task_span("worker:fault_free", benchmark=benchmark,
                          scheme=scheme,
                          coverage=characterization is not None):
        return _worker_context(cfg, hw).run_fault_free(
            benchmark, scheme, characterization)


def srt_task(args) -> Any:
    cfg, hw, benchmark, coverage = args
    with worker_task_span("worker:srt", benchmark=benchmark,
                          coverage=coverage):
        return _worker_context(cfg, hw).srt_run(benchmark, coverage)


def characterize_task(args) -> CampaignResult:
    cfg, hw, benchmark = args
    with worker_task_span("worker:characterize", benchmark=benchmark):
        _, characterization = _worker_context(cfg, hw).campaign(benchmark)
        return characterization


def coverage_task(args) -> CampaignResult:
    cfg, hw, benchmark, scheme, characterization = args
    with worker_task_span("worker:coverage", benchmark=benchmark,
                          scheme=scheme):
        ctx = _worker_context(cfg, hw)
        return ctx.run_phase(ctx.build_campaign(benchmark), scheme,
                             characterization)


# ----------------------------------------------------------------------
# window-level tasks (one phase classified chunk by chunk)
# ----------------------------------------------------------------------
def chunk_checkpoints(cfg, hw, benchmark: str, scheme,
                      records: Sequence[FaultRecord],
                      bounds: Sequence[Tuple[int, int]],
                      ctx=None) -> List[CoreCheckpoint]:
    """Every chunk boundary's :class:`CoreCheckpoint`, in *bounds* order,
    from one golden pass: a live golden core advances from each boundary
    to the next, so the pass steps every window before the last boundary
    once. With :func:`window_chunk_task` it classifies a phase chunk by
    chunk from shipped checkpoints, the way perfbench's in-process
    reference times it; the supervisor threads a live core instead.
    """
    if ctx is None:
        ctx = _worker_context(cfg, hw)
    campaign = ctx.build_campaign(benchmark)
    if scheme is None:
        factory = campaign.baseline_factory
    else:
        factory = lambda: ctx.make_core(benchmark, scheme)
    classifier = campaign.classifier(factory)
    records = list(records)
    golden = factory() if bounds else None
    golden_at = 0
    checkpoints = []
    for lo, _hi in bounds:
        classifier.advance_golden(golden, records[golden_at:lo])
        golden_at = lo
        # chunk boundaries are the natural sanitizer sites: a
        # structurally broken golden core must never be shipped to a
        # chunk task (no-op when not armed)
        golden.check_invariants()
        resume = records[lo - 1].inject_at_commit if lo else 0
        checkpoints.append(CoreCheckpoint.capture(
            golden, window_index=lo, resume_at_commit=resume))
    return checkpoints


def window_chunk_task(args) -> List[WindowResult]:
    """Classify ``records[lo:hi]`` in a chunk worker.

    ``args`` is ``(cfg, hw, benchmark, scheme, records, lo, hi,
    checkpoint)``; scheme None = baseline characterisation. The worker
    restores the :class:`CoreCheckpoint`, which sits at or before *lo*:
    a bisected chunk's upper half keeps its parent's boundary, so its
    golden core first steps through the windows between the two.
    """
    cfg, hw, benchmark, scheme, records, lo, hi, checkpoint = args
    with worker_task_span("worker:window_chunk", benchmark=benchmark,
                          scheme=scheme or "baseline", lo=lo, hi=hi):
        ctx = _worker_context(cfg, hw)
        campaign = ctx.build_campaign(benchmark)
        if scheme is None:
            factory = campaign.baseline_factory
        else:
            factory = lambda: ctx.make_core(benchmark, scheme)
        classifier = campaign.classifier(factory)
        with worker_task_span("checkpoint:restore",
                              window=checkpoint.window_index,
                              bytes=checkpoint.nbytes):
            golden = checkpoint.restore()
        resume = checkpoint.resume_at_commit
        if checkpoint.window_index < lo:
            classifier.advance_golden(
                golden, records[checkpoint.window_index:lo])
            resume = records[lo - 1].inject_at_commit
        return classifier.run(records[lo:hi], golden=golden,
                              resume_at_commit=resume)


__all__ = [
    "ParallelExecutor",
    "align_chunk_bounds",
    "chunk_bounds",
    "chunk_checkpoints",
    "default_jobs",
    "fault_free_task",
    "srt_task",
    "characterize_task",
    "coverage_task",
    "window_chunk_task",
]
