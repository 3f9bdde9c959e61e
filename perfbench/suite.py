"""The benchmark's workloads: set-up, one unit of work, the correctness
gate and the output digest.

Every workload drives the public ``repro`` API. One *unit of work* is a
closed loop with one client: the unit submits one request (a fault-free
run, a campaign phase, a figure) and waits for it before the next. A unit
runs in two ways:

- ``timed``     the workload's own execution path and ``jobs`` value —
                what the end-to-end metrics measure;
- ``inprocess`` ``jobs=1`` in this interpreter, calling the same public
                functions the workers call, so a :class:`~tracer.Tracer`
                sees the work the timed path does inside worker processes.

Both produce the same outputs; :func:`summarize` turns them into plain
data, :func:`check` is the correctness gate over that data and
:func:`digest` hashes it, so the two paths are compared bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.faults import Campaign
from repro.faults.model import FaultClass
from repro.harness import ArtifactCache, ExperimentConfig, ExperimentContext
from repro.harness import figures
from repro.harness import parallel
from repro.harness.supervisor import Supervisor, SupervisorPolicy

WORKLOADS = ("faultfree-serial", "campaign-supervised", "figures-quick")
#: Worker processes of the timed path (2 = the cores of the machine the
#: benchmark was sized on). figures-quick runs serially: at ``jobs=2`` its
#: pool fan-outs kept both shared cores busy for seconds at a time and
#: spread a fifth between runs of the same code.
JOBS = {"faultfree-serial": 1, "campaign-supervised": 2, "figures-quick": 1}
#: ``--seed`` default: ExperimentConfig's own default fault-plan seed.
DEFAULT_SEED = 7

#: The cycle budget ``ExperimentContext`` gives every fault-free and SRT
#: run; a run that used all of it did not halt.
FAULT_FREE_CYCLE_CAP = 8_000_000

FAULT_FREE_SCHEMES = ("baseline", "pbfs", "pbfs-biased", "fh-backend",
                      "faulthound")
FIGURES = ("fig7", "fig8", "fig9", "fig10", "fig11")


def _campaign_config(benchmarks, faults: int, seed: int) -> ExperimentConfig:
    """A ``repro campaign`` plan of *faults* faults a benchmark, in
    100-commit windows after a 200-commit warm-up (the CLI's geometry at
    two thirds of its window, to fit many units in a run)."""
    window = 100
    return ExperimentConfig(benchmarks=tuple(benchmarks),
                            dynamic_target=200 + (faults + 2) * window,
                            num_faults=faults, seed=seed,
                            warmup_commits=200, window_commits=window,
                            max_window_cycles=60_000)


def config(workload: str, seed: int, tiny: bool = False) -> ExperimentConfig:
    """The workload's experiment configuration. *tiny* is the scale the
    benchmark's own tests run at; it keeps every code path."""
    if workload == "faultfree-serial":
        if tiny:
            return ExperimentConfig(benchmarks=("mcf",), dynamic_target=600,
                                    warmup_commits=100, seed=seed)
        # benchmarks/conftest.py ``quick`` scale at a seventh of its
        # program length, so that a run repeats every request many times
        return ExperimentConfig(
            benchmarks=("bzip2", "mcf", "gamess", "leslie3d", "apache"),
            dynamic_target=700, num_faults=24, warmup_commits=200,
            window_commits=100, seed=seed)
    if workload == "campaign-supervised":
        if tiny:
            return _campaign_config(("mcf",), 6, seed)
        return _campaign_config(("mcf", "bzip2", "leslie3d", "apache"),
                                24, seed)
    if workload == "figures-quick":
        if tiny:
            return ExperimentConfig(benchmarks=("mcf",), dynamic_target=1_200,
                                    num_faults=6, warmup_commits=200,
                                    window_commits=100, seed=seed)
        # one of the ``quick`` benchmarks at a quarter of its program
        # length, so that a run repeats every request many times. The
        # fault plan stays at the default seed: how long fig. 8's
        # coverage campaigns run depends on how many SDCs the plan yields
        # (none to three at this size), which moved a unit by a fifth
        # from seed to seed
        return ExperimentConfig(benchmarks=("apache",),
                                dynamic_target=1_200, num_faults=10,
                                warmup_commits=200, window_commits=100,
                                seed=DEFAULT_SEED)
    raise KeyError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def _schemes(workload: str, tiny: bool) -> Tuple[str, ...]:
    if workload == "faultfree-serial" and tiny:
        return ("baseline", "faulthound")
    return FAULT_FREE_SCHEMES


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
@dataclass
class Setup:
    """A ready context plus what the unit needs besides it."""

    workload: str
    cfg: ExperimentConfig
    jobs: int
    ctx: ExperimentContext
    tiny: bool
    scratch: str
    #: fault-plan size per benchmark, from planning the campaigns
    planned: Dict[str, int] = field(default_factory=dict)
    supervisor: Optional[Supervisor] = None
    cache_dir: Optional[str] = None

    def close(self) -> None:
        if self.supervisor is not None:
            self.supervisor.close()
        shutil.rmtree(self.scratch, ignore_errors=True)


def setup(workload: str, seed: int, mode: str, scratch_root: str,
          tiny: bool = False, context_class=ExperimentContext,
          tracer=None) -> Setup:
    """Build the context, generate the programs and plan the campaigns.

    *mode* ``timed`` wires the workload's own ``jobs``, supervisor and
    cache; ``inprocess`` builds a ``jobs=1`` context (same cache policy).
    *scratch_root* holds every file the unit writes.
    """
    cfg = config(workload, seed, tiny)
    jobs = JOBS[workload] if mode == "timed" else 1
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root)
    supervisor = cache = cache_dir = None
    if workload == "campaign-supervised" and mode == "timed":
        supervisor = Supervisor(SupervisorPolicy(),
                                run_dir=f"{scratch}/run")
    if workload == "figures-quick":
        cache_dir = f"{scratch}/cache"
        cache = ArtifactCache(cache_dir)
    ctx = context_class(cfg, jobs=jobs, cache=cache, supervisor=supervisor)
    state = Setup(workload, cfg, jobs, ctx, tiny, scratch,
                  supervisor=supervisor, cache_dir=cache_dir)
    for benchmark in cfg.benchmarks:
        with _span(tracer, "workloads.build"):
            ctx.programs(benchmark)
        if workload != "faultfree-serial":
            state.planned[benchmark] = len(
                ctx.build_campaign(benchmark).records)
    return state


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


# ----------------------------------------------------------------------
# one unit of work
# ----------------------------------------------------------------------
@dataclass
class Outputs:
    """What one unit returned, as the public API returned it."""

    runs: List[Any] = field(default_factory=list)        # FaultFreeRun
    phases: List[Tuple[str, str, Any]] = field(default_factory=list)
    rendered: Dict[str, str] = field(default_factory=dict)
    warm_rendered: Dict[str, str] = field(default_factory=dict)
    warm_regen_s: float = 0.0


def _no_clock(label: str):
    return nullcontext()


def execute(state: Setup, mode: str, tracer=None, clock=_no_clock) -> Outputs:
    """Run one unit of *state*'s workload (see the module docstring).

    *clock* is entered around each request the unit submits, with a
    label naming the request (unique within the unit)."""
    if state.workload == "faultfree-serial":
        return _faultfree(state, clock)
    if state.workload == "campaign-supervised":
        if mode == "timed":
            return _campaign_timed(state, clock)
        return _campaign_inprocess(state, clock, tracer)
    return _figures(state, clock)


def _faultfree(state: Setup, clock) -> Outputs:
    ctx, out = state.ctx, Outputs()
    for benchmark in state.cfg.benchmarks:
        for scheme in _schemes(state.workload, state.tiny):
            with clock(f"fault_free:{benchmark}:{scheme}"):
                out.runs.append(ctx.fault_free(benchmark, scheme))
        with clock(f"srt:{benchmark}"):
            out.runs.append(ctx.srt_run(benchmark))
    return out


def _campaign_timed(state: Setup, clock) -> Outputs:
    ctx, out = state.ctx, Outputs()
    for benchmark in state.cfg.benchmarks:
        with clock(f"characterize:{benchmark}"):
            _, characterization = ctx.campaign(benchmark)
        out.phases.append((benchmark, "characterize", characterization))
    return out


def chunk_plan(records, jobs: int) -> List[Tuple[int, int]]:
    """The supervisor's chunk bounds for one uninterrupted phase: about
    ``chunk_windows`` windows a chunk, at least *jobs* chunks, cuts
    snapped to window starts."""
    count = len(records)
    want = max(math.ceil(count / SupervisorPolicy().chunk_windows),
               min(jobs, count))
    return parallel.align_chunk_bounds(parallel.chunk_bounds(count, want),
                                       records)


def classify_chunked(state: Setup, benchmark: str, scheme, records,
                     tracer=None) -> list:
    """One phase the way the supervised pool runs it, in this process:
    a golden pass capturing chunk-boundary checkpoints, then
    ``window_chunk_task`` per chunk, each task and result crossing a
    pickle boundary exactly as it would to and from a worker."""
    cfg, hw = state.cfg, state.ctx.hw
    records = list(records)
    bounds = chunk_plan(records, JOBS[state.workload])
    if not bounds:
        return []
    with _span(tracer, "harness.golden_pass"):
        checkpoints = parallel.chunk_checkpoints(
            cfg, hw, benchmark, scheme, records, bounds, ctx=state.ctx)
    windows = []
    for (lo, hi), checkpoint in zip(bounds, checkpoints):
        task = (cfg, hw, benchmark, scheme, records, lo, hi, checkpoint)
        with _span(tracer, "harness.pickle"):
            blob = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
            task = pickle.loads(blob)
        if tracer is not None:
            tracer.count("harness.chunks")
            tracer.count("harness.task_bytes", len(blob))
        result = parallel.window_chunk_task(task)
        with _span(tracer, "harness.pickle"):
            blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            result = pickle.loads(blob)
        if tracer is not None:
            tracer.count("harness.result_bytes", len(blob))
        windows.extend(result)
    return windows


def _campaign_inprocess(state: Setup, clock, tracer=None) -> Outputs:
    from repro.faults import CampaignResult
    ctx, out = state.ctx, Outputs()
    for benchmark in state.cfg.benchmarks:
        with clock(f"characterize:{benchmark}"):
            campaign = ctx.build_campaign(benchmark)
            windows = classify_chunked(state, benchmark, None,
                                       campaign.records, tracer)
            characterization = CampaignResult(benchmark, "baseline",
                                              [w.record for w in windows])
            characterization.characterization = windows
        out.phases.append((benchmark, "characterize", characterization))
    return out


def _render_all(ctx: ExperimentContext, clock) -> Dict[str, str]:
    rendered = {}
    for name in FIGURES:
        with clock(name):
            rendered[name] = getattr(figures, name)(ctx)["text"]
    with clock("table2"):
        rendered["table2"] = figures.table2(ctx.hw)["text"]
    return rendered


def _artefacts(ctx: ExperimentContext, clock) -> Outputs:
    """Every artefact figs. 7-11 read, each fetched through the public API
    as a request of its own (computed and written to the cache); the
    figures then render from the context's memo. Short requests are what
    the fastest-repetition timing needs; one figure's pull path runs for
    seconds."""
    out = Outputs()
    benchmarks = ctx.cfg.benchmarks
    for benchmark in benchmarks:
        with clock(f"characterize:{benchmark}"):
            _, characterization = ctx.campaign(benchmark)
        out.phases.append((benchmark, "characterize", characterization))
    for benchmark in benchmarks:
        for scheme in figures.FIG8_SCHEMES:
            with clock(f"fault_free:{benchmark}:{scheme}"):
                out.runs.append(ctx.fault_free(benchmark, scheme))
        for scheme in figures.FIG8_SCHEMES:
            with clock(f"coverage:{benchmark}:{scheme}"):
                out.phases.append((benchmark, scheme,
                                   ctx.coverage(benchmark, scheme)))
    for benchmark in benchmarks:
        with clock(f"fault_free:{benchmark}:baseline"):
            out.runs.append(ctx.fault_free(benchmark, "baseline"))
        with clock(f"srt:{benchmark}"):
            out.runs.append(ctx.srt_run(benchmark))
    return out


def _figures(state: Setup, clock) -> Outputs:
    ctx = state.ctx
    out = _artefacts(ctx, clock)
    out.rendered = _render_all(ctx, clock)
    # a second context re-renders everything from the now-warm cache
    started = time.perf_counter()
    with clock("warm"):
        warm = type(ctx)(state.cfg, jobs=state.jobs,
                         cache=ArtifactCache(state.cache_dir))
        out.warm_rendered = _render_all(warm, _no_clock)
    out.warm_regen_s = time.perf_counter() - started
    return out


# ----------------------------------------------------------------------
# summary, gate, digest
# ----------------------------------------------------------------------
def _window(window) -> Dict[str, Any]:
    row = asdict(window)
    record = row.pop("record")
    row["fault"] = [record["index"], window.record.site.value, record["bit"],
                    record["inject_at_commit"]]
    row["fault_class"] = (window.fault_class.value
                          if window.fault_class is not None else None)
    return row


def summarize(state: Setup, out: Outputs) -> Dict[str, Any]:
    """Plain, deterministic data for everything the unit produced — the
    input of the gate and of the digest (no host times in it)."""
    runs = [{"benchmark": r.benchmark, "scheme": r.scheme,
             "cycles": r.cycles, "committed": r.committed,
             "fp_rate": r.fp_rate, "ipc": r.ipc,
             "energy": r.energy.as_dict(),
             "events": [r.replay_events, r.rollback_events,
                        r.singleton_reexecs, r.branch_mispredicts]}
            for r in out.runs]
    phases = []
    for benchmark, scheme, result in out.phases:
        characterize = scheme == "characterize"
        windows = (result.characterization if characterize
                   else result.coverage_results)
        if characterize:
            planned = state.planned[benchmark]
        else:
            characterization = next(
                r for b, s, r in out.phases
                if b == benchmark and s == "characterize")
            planned = len(Campaign.sdc_records(characterization))
        row = {"benchmark": benchmark, "scheme": scheme,
               "planned": planned, "windows": [_window(w) for w in windows],
               "quarantined": len(result.quarantined)}
        if characterize:
            row["fractions"] = {c.value: result.class_fraction(c)
                                for c in FaultClass}
            row["applied"] = result.applied_count()
        else:
            row["coverage"] = result.coverage
            row["covered"] = result.covered_count
            row["breakdown"] = result.breakdown()
        phases.append(row)
    return {"workload": state.workload, "seed": state.cfg.seed,
            "runs": runs, "phases": phases,
            "rendered": out.rendered, "warm_rendered": out.warm_rendered}


def check(summary: Dict[str, Any]) -> Tuple[int, List[str]]:
    """The correctness gate: ``(operations attempted, failures)``.

    An operation is one fault-free or SRT run, one planned window, or one
    rendered figure. A run fails if it used its whole cycle budget; a
    window fails if it was quarantined or never classified; a phase fails
    if its class fractions do not sum to 1 or a coverage value leaves
    [0, 1]; a figure fails if the warm re-render differs from the cold.
    """
    attempted, failures = 0, []
    for run in summary["runs"]:
        attempted += 1
        if not 0 < run["cycles"] < FAULT_FREE_CYCLE_CAP or run["committed"] <= 0:
            failures.append(f"{run['benchmark']}/{run['scheme']}: run did "
                            f"not halt ({run['cycles']} cycles)")
    for phase in summary["phases"]:
        where = f"{phase['benchmark']}/{phase['scheme']}"
        attempted += phase["planned"]
        missing = phase["planned"] - len(phase["windows"])
        if missing or phase["quarantined"]:
            failures.append(f"{where}: {missing} of {phase['planned']} "
                            f"windows unclassified, {phase['quarantined']} "
                            f"quarantined")
        if "fractions" in phase and phase["applied"]:
            total = sum(phase["fractions"].values())
            if abs(total - 1.0) > 1e-9:
                failures.append(f"{where}: class fractions sum to {total}")
        values = ([phase["coverage"]] + list(phase["breakdown"].values())
                  if "coverage" in phase else [])
        if any(not 0.0 <= v <= 1.0 for v in values):
            failures.append(f"{where}: coverage outside [0, 1]: {values}")
    for name, text in summary["rendered"].items():
        attempted += 1
        if summary["warm_rendered"].get(name) != text:
            failures.append(f"{name}: warm re-render differs from cold")
    return attempted, failures


def digest(summary: Dict[str, Any]) -> str:
    blob = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def sim_stats(summary: Dict[str, Any]) -> Dict[str, int]:
    """Deterministic simulated counts, from the returned results: a
    change that only speeds the simulator up leaves every one equal."""
    stats = {"sim.cycles": sum(r["cycles"] for r in summary["runs"]),
             "sim.committed": sum(r["committed"] for r in summary["runs"]),
             "faults.windows": 0, "faults.applied": 0}
    stats.update({f"faults.{c.value}": 0 for c in FaultClass})
    for phase in summary["phases"]:
        stats["faults.windows"] += len(phase["windows"])
        if phase["scheme"] == "characterize":
            stats["faults.applied"] += phase["applied"]
            for window in phase["windows"]:
                if window["applied"] and window["fault_class"]:
                    stats[f"faults.{window['fault_class']}"] += 1
        else:
            key = f"faults.covered.{phase['scheme']}"
            stats[key] = stats.get(key, 0) + phase["covered"]
    return stats
