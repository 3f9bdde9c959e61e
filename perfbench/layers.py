"""Per-layer metrics of the traced run, named after the ``src/repro``
packages they measure.

:func:`install` puts timing wrappers on a fixed list of public functions
of each layer (undone by ``Tracer.restore``); :class:`TracedContext`
profiles the cores the benchmark builds itself; :func:`collect` turns the
spans and those cores, and :func:`combine` the untraced units' facts, into
the metrics declared in :data:`PER_LAYER`.
"""

from __future__ import annotations

import os
from statistics import mean
from typing import Any, Dict, List, Tuple

from repro.core import FaultHoundUnit, NullScreeningUnit, PBFSUnit
from repro.core.actions import CheckAction
from repro.energy import EnergyModel
from repro.faults import Campaign
from repro.faults.classifier import TandemClassifier
from repro.harness import ArtifactCache, ExperimentContext, figures
from repro.harness.experiment import scheme_unit
from repro.pipeline import PipelineCore
from repro.pipeline.checkpoint import CoreCheckpoint
from repro.redundancy import dynamic_length

import suite

STAGES = ("commit", "complete", "issue", "dispatch", "fetch", "idle_skip")
COVERED_SCHEMES = ("pbfs", "pbfs-biased", "fh-backend", "faulthound")


def _declare() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    m = [("workloads.build_s", "s", "lower"),
         ("workloads.dyn_insts", "count", "lower"),
         ("pipeline.run_s", "s", "lower")]
    m += [(f"pipeline.stage.{s}_s", "s", "lower") for s in STAGES]
    m += [("pipeline.sim_cycles", "count", "lower"),
          ("pipeline.committed", "count", "higher"),
          ("pipeline.cycles_elided", "count", "higher"),
          ("pipeline.host_us_per_cycle", "us", "lower")]
    for scheme in suite.FAULT_FREE_SCHEMES:
        m += [(f"core.{scheme}.checks", "count", "lower"),
              (f"core.{scheme}.check_s", "s", "lower"),
              (f"core.{scheme}.triggers", "count", "lower"),
              (f"core.{scheme}.recoveries", "count", "lower"),
              (f"core.{scheme}.fp_rate", "ratio", "lower")]
    m += [("memory.l1d_miss_rate", "ratio", "lower"),
          ("memory.l2_miss_rate", "ratio", "lower"),
          ("energy.compute_s", "s", "lower"),
          ("redundancy.srt_s", "s", "lower"),
          ("redundancy.srt_cycles", "count", "lower"),
          ("faults.plan_s", "s", "lower"),
          ("faults.windows", "count", "higher"),
          ("faults.applied", "count", "higher"),
          ("faults.masked", "count", "higher"),
          ("faults.noisy", "count", "lower"),
          ("faults.sdc", "count", "lower")]
    m += [(f"faults.covered.{s}", "count", "higher") for s in COVERED_SCHEMES]
    m += [("faults.classify_s", "s", "lower"),
          ("faults.window_ms", "ms", "lower"),
          ("faults.forks", "count", "lower"),
          ("faults.fork_s", "s", "lower"),
          ("checkpoint.captured", "count", "lower"),
          ("checkpoint.capture_s", "s", "lower"),
          ("checkpoint.restore_s", "s", "lower"),
          ("checkpoint.bytes", "bytes", "lower"),
          ("harness.golden_pass_s", "s", "lower"),
          ("harness.chunks", "count", "lower"),
          ("harness.retries", "count", "lower"),
          ("harness.timeouts", "count", "lower"),
          ("harness.pool_rebuilds", "count", "lower"),
          ("harness.quarantined", "count", "lower"),
          ("harness.task_bytes", "bytes", "lower"),
          ("harness.result_bytes", "bytes", "lower"),
          ("harness.pickle_s", "s", "lower"),
          ("harness.journal_records", "count", "lower"),
          ("harness.journal_bytes", "bytes", "lower"),
          ("harness.parallel_eff", "ratio", "higher")]
    m += [("cache.puts", "count", "lower"),
          ("cache.put_s", "s", "lower"),
          ("cache.gets", "count", "lower"),
          ("cache.get_s", "s", "lower"),
          ("cache.bytes", "bytes", "lower"),
          ("cache.warm_regen_s", "s", "lower"),
          ("analysis.render_s", "s", "lower"),
          ("other_s", "s", "lower"),
          ("trace_overhead_s", "s", "lower"),
          ("sim_kips", "kips", "higher"),
          ("windows_per_s", "1/s", "higher"),
          ("failed_frac", "ratio", "lower")]
    return m


PER_LAYER = _declare()


class TracedContext(ExperimentContext):
    """An ExperimentContext whose cores profile their stages and are kept
    for :func:`collect` (timed as ``pipeline.build``)."""

    tracer = None

    def make_core(self, benchmark: str, scheme: str) -> PipelineCore:
        with self.tracer.span("pipeline.build"):
            core = super().make_core(benchmark, scheme)
        core.enable_stage_profiling()
        self.tracer.cores.append((scheme, core))
        return core


def _scheme_keys() -> Dict[Tuple[type, Any], str]:
    keys = {}
    for scheme in suite.FAULT_FREE_SCHEMES:
        unit = scheme_unit(scheme)
        keys[(type(unit), getattr(unit, "config", None))] = scheme
    return keys


def install(tracer) -> None:
    """Wrap the public functions each layer's time is measured at."""
    tracer.cores = []
    TracedContext.tracer = tracer
    keys = _scheme_keys()

    def check_span(args):
        unit = args[0]
        scheme = keys.get((type(unit), getattr(unit, "config", None)),
                          "other")
        return f"core.{scheme}.check"

    def note_trigger(result, args):
        if result.action is not CheckAction.NONE:
            tracer.count(check_span(args)[:-len("check")] + "triggers")

    for unit_class in (NullScreeningUnit, PBFSUnit, FaultHoundUnit):
        for attr in ("check_at_complete", "check_at_commit"):
            tracer.wrap(unit_class, attr, check_span, record=False,
                        after=note_trigger)

    def stepping(args):
        # SRT-iso's stepping is the redundancy layer's own work; nested
        # drivers stay inside the outer span
        current = tracer.current or ""
        if current.startswith(("redundancy.", "pipeline.run")):
            return None
        return "pipeline.run"

    for attr in ("run", "run_to_commit", "run_to_capture"):
        tracer.wrap(PipelineCore, attr, stepping)
    tracer.wrap(PipelineCore, "clone", "faults.fork")
    tracer.wrap(EnergyModel, "compute", "energy.compute")
    tracer.wrap(ExperimentContext, "srt_run", "redundancy.srt")
    tracer.wrap(Campaign, "__init__", "faults.plan")
    tracer.wrap(TandemClassifier, "run", "faults.classify")
    tracer.wrap(CoreCheckpoint, "capture", "checkpoint.capture",
                after=lambda cp, args: tracer.count("checkpoint.bytes",
                                                    cp.nbytes))
    tracer.wrap(CoreCheckpoint, "restore", "checkpoint.restore")
    tracer.wrap(ArtifactCache, "get", "cache.get")
    tracer.wrap(ArtifactCache, "put", "cache.put")
    for name in suite.FIGURES + ("table2",):
        tracer.wrap(figures, name, "analysis.render")


def _dir_bytes(path) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def collect(tracer, state, summary: Dict[str, Any], traced_wall: float,
            unit_self: Dict[str, float], out) -> Dict[str, float]:
    """The :data:`PER_LAYER` metrics one traced unit measures by itself
    (:func:`combine` adds those that need the untraced units).

    *unit_self* is the per-span self time spent inside the traced unit
    (set-up excluded).
    """
    s, calls, counters = tracer.self_s, tracer.calls, tracer.counters
    cores = tracer.cores
    stats = suite.sim_stats(summary)
    v: Dict[str, float] = {}
    v["workloads.build_s"] = s["workloads.build"]
    v["workloads.dyn_insts"] = sum(
        dynamic_length(p) for b in state.cfg.benchmarks
        for p in state.ctx.programs(b))
    v["pipeline.run_s"] = tracer.self_of("pipeline.")
    staged = {stage: sum(c.stage_seconds.get(stage.replace("_", "-"), 0.0)
                         for _, c in cores) for stage in STAGES}
    for stage, seconds in staged.items():
        v[f"pipeline.stage.{stage}_s"] = seconds
    cycles = sum(c.cycle for _, c in cores)
    v["pipeline.sim_cycles"] = cycles
    v["pipeline.committed"] = sum(c.stats.committed for _, c in cores)
    v["pipeline.cycles_elided"] = sum(c.cycles_elided for _, c in cores)
    v["pipeline.host_us_per_cycle"] = (sum(staged.values()) / cycles * 1e6
                                       if cycles else 0.0)
    for scheme in suite.FAULT_FREE_SCHEMES:
        span = f"core.{scheme}.check"
        v[f"core.{scheme}.checks"] = calls[span]
        v[f"core.{scheme}.check_s"] = s[span]
        v[f"core.{scheme}.triggers"] = counters[f"core.{scheme}.triggers"]
        v[f"core.{scheme}.recoveries"] = sum(
            c.stats.replay_events + c.stats.rollback_events
            + c.stats.singleton_reexecs for k, c in cores if k == scheme)
        rates = [r["fp_rate"] for r in summary["runs"]
                 if r["scheme"] == scheme]
        v[f"core.{scheme}.fp_rate"] = mean(rates) if rates else 0.0
    for level, key in (("l1", "memory.l1d_miss_rate"),
                       ("l2", "memory.l2_miss_rate")):
        caches = [getattr(c.hierarchy, level).stats for _, c in cores]
        accesses = sum(x.accesses for x in caches)
        v[key] = sum(x.misses for x in caches) / accesses if accesses else 0.0
    v["energy.compute_s"] = s["energy.compute"]
    v["redundancy.srt_s"] = s["redundancy.srt"]
    v["redundancy.srt_cycles"] = sum(r["cycles"] for r in summary["runs"]
                                     if r["scheme"].startswith("srt-iso"))
    v["faults.plan_s"] = s["faults.plan"]
    for key in ("windows", "applied", "masked", "noisy", "sdc"):
        v[f"faults.{key}"] = stats[f"faults.{key}"]
    for scheme in COVERED_SCHEMES:
        v[f"faults.covered.{scheme}"] = stats.get(f"faults.covered.{scheme}", 0)
    v["faults.classify_s"] = s["faults.classify"]
    windows = stats["faults.windows"]
    v["faults.window_ms"] = (tracer.incl_s["faults.classify"] / windows * 1e3
                             if windows else 0.0)
    v["faults.forks"] = calls["faults.fork"]
    v["faults.fork_s"] = s["faults.fork"]
    v["checkpoint.captured"] = calls["checkpoint.capture"]
    v["checkpoint.capture_s"] = s["checkpoint.capture"]
    v["checkpoint.restore_s"] = s["checkpoint.restore"]
    v["checkpoint.bytes"] = counters["checkpoint.bytes"]
    v["harness.golden_pass_s"] = tracer.incl_s["harness.golden_pass"]
    v["harness.chunks"] = counters["harness.chunks"]
    v["harness.task_bytes"] = counters["harness.task_bytes"]
    v["harness.result_bytes"] = counters["harness.result_bytes"]
    v["harness.pickle_s"] = s["harness.pickle"]
    v["cache.puts"] = calls["cache.put"]
    v["cache.put_s"] = s["cache.put"]
    v["cache.gets"] = calls["cache.get"]
    v["cache.get_s"] = s["cache.get"]
    v["cache.bytes"] = _dir_bytes(state.cache_dir) if state.cache_dir else 0
    v["cache.warm_regen_s"] = out.warm_regen_s
    v["analysis.render_s"] = s["analysis.render"]
    v["other_s"] = traced_wall - sum(unit_self.values())
    return v


def combine(traced: Dict[str, float], traced_wall: float,
            timed: Dict[str, Any], reference: Dict[str, Any],
            attempted: int, failed: int) -> Dict[str, float]:
    """Complete the traced unit's metrics with the untraced units: *timed*
    ran at the workload's own ``jobs``, *reference* in-process at
    ``jobs=1`` like the traced unit."""
    v = dict(traced)
    for key in ("retries", "timeouts", "pool_rebuilds", "quarantined",
                "journal_records", "journal_bytes"):
        v[f"harness.{key}"] = timed["harness"].get(key, 0)
    v["harness.parallel_eff"] = (reference["wall_s"]
                                 / (timed["jobs"] * timed["wall_s"]))
    v["trace_overhead_s"] = traced_wall - reference["wall_s"]
    v["sim_kips"] = timed["committed"] / timed["wall_s"] / 1e3
    v["windows_per_s"] = timed["windows"] / timed["wall_s"]
    v["failed_frac"] = failed / attempted
    return v
