"""Command-line interface: ``repro <subcommand>``.

Subcommands
-----------
``repro list``
    Show the available benchmarks, schemes and figures.
``repro run PROGRAM.asm [--scheme S] [--max-cycles N]``
    Assemble and execute a program on the out-of-order core.
``repro bench NAME [--scheme S] [--instructions N]``
    Run one synthetic benchmark fault-free; print timing and energy.
``repro campaign NAME [--faults N] [--scheme S]``
    Fault-injection campaign: characterisation plus scheme coverage.
    Runs under the resilient supervisor (retries, watchdog timeouts,
    poison-window quarantine — see docs/robustness.md); with
    ``--run-dir D`` progress is journaled crash-safely into ``D``.
``repro resume RUN_DIR``
    Finish an interrupted ``repro campaign --run-dir RUN_DIR``: only
    the chunks missing from the journal are re-run, and the final
    aggregates are bit-for-bit those of an uninterrupted run.
``repro cache {verify,stats,clear}``
    Artifact-cache maintenance; ``verify`` sweeps every entry and
    quarantines unreadable pickles.
``repro figure {table1,table2,fig6..fig12} [--scale SCALE]``
    Regenerate one paper table/figure.
``repro verify [--cases N] [--base-seed S] [--scheme S]``
    ISA-differential fuzz: seeded random programs through the OoO core
    and the architectural interpreter in lockstep, with the pipeline
    invariant sanitizer armed (see docs/validation.md).
``repro status RUN_DIR``
    Progress of a ``--run-dir`` campaign (running, killed or done) as
    JSON: per-phase windows and chunks done, quarantined windows and
    the overall state, folded from the run directory's journal.
``repro metrics export SOURCE``
    Prometheus text exposition of the metrics snapshots recorded in a
    run's event log.
``repro compile SPEC.src.json [-o OUT.run.json]``
    Compile a declarative campaign spec (sweep axes over defaults)
    into its explicit, content-addressed ``.run.json`` task list
    (see docs/specs.md).

Observability: ``--emit-events PATH`` streams a structured JSONL event
log (spans, cache traffic, fault audit trail) from any campaign/figure
command; a campaign with ``--run-dir D`` defaults the log to
``D/events.jsonl``, its audit trail; ``--profile`` wraps the command
in cProfile; ``repro report --events PATH`` validates and summarises a
recorded log.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

from .analysis.metrics import fp_rate
from .config import HardwareConfig
from .energy import EnergyModel
from .errors import ReproError
from .faults import FaultClass
from .harness import (SCALES, SCHEMES, ArtifactCache, ExperimentConfig,
                      ExperimentContext, figures)
from .harness.experiment import scheme_unit
from .isa import assemble
from .obs import (EventLog, NULL_LOG,
                  aggregates_from_events, build_manifest,
                  format_stage_seconds, load_manifest, manifest_path_for,
                  profiled, read_events, snapshot_from_events,
                  summarize_events, to_prometheus, validate_events,
                  verify_manifest, write_manifest)
from .pipeline import PipelineCore
from .workloads import PROFILES, build_smt_programs

_FIGURES = {
    "table1": lambda ctx: figures.table1(),
    "table2": lambda ctx: figures.table2(),
    "fig6": figures.fig6,
    "fig7": figures.fig7,
    "fig8": figures.fig8,
    "fig9": figures.fig9,
    "fig10": figures.fig10,
    "fig11": figures.fig11,
    "fig12": figures.fig12,
}


def _bounded(text: str, convert, kind: str, ok, bound: str):
    """Parse *text* with *convert*; a value outside the bound is a
    parser error, never a silent clamp."""
    try:
        value = convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not {kind}")
    if not ok(value):
        raise argparse.ArgumentTypeError(f"must be {bound} (got {value})")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1."""
    return _bounded(text, int, "an integer", lambda v: v >= 1, ">= 1")


def _non_negative_int(text: str) -> int:
    """argparse type for counts that may be zero."""
    return _bounded(text, int, "an integer", lambda v: v >= 0, ">= 0")


def _positive_float(text: str) -> float:
    """argparse type for durations that must be > 0."""
    return _bounded(text, float, "a number", lambda v: v > 0, "> 0")


def _add_exec_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--jobs", type=_positive_int, default=None,
                     help="worker processes for campaign/figure fan-out "
                          "(default: all CPUs; 1 = serial)")
    sub.add_argument("--no-cache", action="store_true",
                     help="recompute everything instead of using the "
                          "persistent artifact cache")
    sub.add_argument("--emit-events", metavar="PATH", default=None,
                     help="write a structured JSONL event log (spans, "
                          "cache traffic, fault audit trail) to PATH")
    sub.add_argument("--profile", action="store_true",
                     help="cProfile the command and print the hottest "
                          "entries to stderr")


def _add_supervisor_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--run-dir", metavar="DIR", default=None,
                     help="journal campaign progress crash-safely into "
                          "DIR (enables `repro resume DIR`)")
    sub.add_argument("--max-retries", type=_non_negative_int, default=3,
                     help="extra attempts per window chunk before "
                          "bisecting toward quarantine (default 3)")
    sub.add_argument("--chunk-timeout", type=_positive_float, default=None,
                     metavar="SECONDS",
                     help="hard watchdog deadline per chunk attempt "
                          "(default: soft deadline only, derived from "
                          "golden-pass throughput)")
    sub.add_argument("--chunk-windows", type=_positive_int, default=8,
                     help="target windows per supervised chunk — the "
                          "journal/retry granularity (default 8)")


def _make_context(cfg: ExperimentConfig, args, events=None,
                  supervisor=None) -> ExperimentContext:
    cache = None if args.no_cache else ArtifactCache.default()
    return ExperimentContext(cfg, jobs=args.jobs, cache=cache,
                             events=events, supervisor=supervisor)


@contextmanager
def _session(cfg: ExperimentConfig, args,
             supervisor=None) -> Iterator[ExperimentContext]:
    """An ExperimentContext wired to the requested observability: event
    log opened/closed around the command, optional cProfile, and a
    run-level manifest written next to the event log on exit. The
    context's registry's final snapshot is emitted as the log's closing
    ``metrics`` event."""
    events = (EventLog(args.emit_events)
              if getattr(args, "emit_events", None) else NULL_LOG)
    ctx = _make_context(cfg, args, events=events, supervisor=supervisor)
    try:
        with profiled(getattr(args, "profile", False)):
            yield ctx
    finally:
        if events.enabled:
            ctx.metrics_registry.emit(events)
            events.close()
            summary = ctx.metrics
            manifest = build_manifest(
                "run", ctx.cfg, ctx.hw, jobs=ctx.jobs,
                phase_seconds=summary.phase_seconds,
                metrics={"cache_hits": summary.cache_hits,
                         "cache_misses": summary.cache_misses,
                         "windows": summary.windows,
                         "events": str(events.path)})
            write_manifest(manifest_path_for(events.path), manifest)
            print(f"events: {events.path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FaultHound (ISCA 2015) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks, schemes and figures")

    run = sub.add_parser("run", help="assemble and run a program")
    run.add_argument("program", help="assembly source file")
    run.add_argument("--scheme", default="faulthound", choices=sorted(SCHEMES))
    run.add_argument("--max-cycles", type=int, default=1_000_000)

    bench = sub.add_parser("bench", help="run one benchmark fault-free")
    bench.add_argument("name", choices=sorted(PROFILES))
    bench.add_argument("--scheme", default="faulthound",
                       choices=sorted(SCHEMES))
    bench.add_argument("--instructions", type=int, default=8_000,
                       help="dynamic target per SMT thread")
    bench.add_argument("--profile", action="store_true",
                       help="cProfile the run and report per-pipeline-"
                            "stage wall-clock (from an unprofiled rerun)")

    campaign = sub.add_parser("campaign", help="fault-injection campaign")
    campaign.add_argument("name", choices=sorted(PROFILES))
    campaign.add_argument("--scheme", default="faulthound",
                          choices=sorted(SCHEMES))
    campaign.add_argument("--faults", type=_positive_int, default=60)
    campaign.add_argument("--seed", type=int, default=3)
    _add_exec_flags(campaign)
    _add_supervisor_flags(campaign)

    resume = sub.add_parser(
        "resume", help="finish an interrupted campaign from its run "
                       "directory's crash-safe journal")
    resume.add_argument("run_dir", help="the --run-dir of the "
                                        "interrupted campaign")
    resume.add_argument("--jobs", type=_positive_int, default=None,
                        help="override the original worker count")
    resume.add_argument("--emit-events", metavar="PATH", default=None,
                        help="write this resume's event log to PATH")

    cache_cmd = sub.add_parser("cache", help="artifact cache maintenance")
    cache_sub = cache_cmd.add_subparsers(dest="cache_command",
                                         required=True)
    cache_verify = cache_sub.add_parser(
        "verify", help="integrity sweep: unpickle every entry, "
                       "quarantine unreadable ones")
    cache_verify.add_argument("--no-quarantine", action="store_true",
                              help="delete corrupt entries instead of "
                                   "moving them to <root>/quarantine/")
    cache_verify.add_argument("--strict", action="store_true",
                              help="exit nonzero when any entry is "
                                   "corrupt")
    cache_stats = cache_sub.add_parser("stats",
                                       help="entry count and location")
    cache_clear = cache_sub.add_parser("clear",
                                       help="delete every cache entry")
    for sub_cmd in (cache_verify, cache_stats, cache_clear):
        sub_cmd.add_argument("--cache-dir", default=None,
                             help="cache root (default: REPRO_CACHE_DIR "
                                  "or benchmarks/.cache)")

    figure = sub.add_parser("figure", help="regenerate a paper table/figure")
    figure.add_argument("which", choices=sorted(_FIGURES))
    figure.add_argument("--scale", default="quick", choices=sorted(SCALES))
    _add_exec_flags(figure)

    report = sub.add_parser(
        "report", help="rebuild EXPERIMENTS.md from benchmarks/results/, "
                       "or validate a recorded event log")
    report.add_argument("--results", default="benchmarks/results")
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.add_argument("--events", metavar="PATH", default=None,
                        help="validate and summarise a JSONL event log "
                             "instead of rebuilding EXPERIMENTS.md")
    report.add_argument("--manifest", metavar="PATH", default=None,
                        help="with --events: the run manifest to verify "
                             "(default: PATH's conventional sibling)")

    status = sub.add_parser(
        "status", help="progress of a --run-dir campaign, folded from "
                       "its journal (works while it is still running)")
    status.add_argument("run_dir", help="the campaign's --run-dir")

    metrics_cmd = sub.add_parser(
        "metrics", help="metrics-registry tooling")
    metrics_sub = metrics_cmd.add_subparsers(dest="metrics_command",
                                             required=True)
    metrics_export = metrics_sub.add_parser(
        "export", help="Prometheus text exposition of the metrics "
                       "snapshots in a recorded event log")
    metrics_export.add_argument(
        "source", help="run directory or events.jsonl path")
    metrics_export.add_argument(
        "--namespace", default="repro",
        help="metric-name prefix (default: repro)")

    compile_cmd = sub.add_parser(
        "compile", help="compile a campaign .src.json spec into its "
                        "explicit .run.json task list")
    compile_cmd.add_argument("spec", help="path to the .src.json spec")
    compile_cmd.add_argument("--output", "-o", default=None,
                             metavar="PATH",
                             help="where to write the run spec "
                                  "(default: sibling .run.json)")

    validate = sub.add_parser(
        "validate", help="measure a workload profile's achieved character")
    validate.add_argument("name", choices=sorted(PROFILES))
    validate.add_argument("--instructions", type=int, default=5_000)

    verify = sub.add_parser(
        "verify", help="ISA-differential fuzz of the pipeline against "
                       "the architectural interpreter (sanitizer armed)")
    verify.add_argument("--cases", type=int, default=200,
                        help="number of consecutive corpus seeds to run")
    verify.add_argument("--base-seed", type=int, default=0,
                        help="first corpus seed")
    verify.add_argument("--scheme", default=None, choices=sorted(SCHEMES),
                        help="force one screening scheme instead of the "
                             "corpus's baseline/faulthound rotation")
    verify.add_argument("--no-sanitizer", action="store_true",
                        help="architectural diff only, skip the per-cycle "
                             "invariant checks")
    verify.add_argument("--sanitize-every", type=int, default=1,
                        help="check invariants every Nth cycle (default 1)")
    verify.add_argument("--max-failures", type=int, default=5,
                        help="print at most this many failing cases")
    verify.add_argument("--emit-events", metavar="PATH", default=None,
                        help="write invariant violations to a JSONL "
                             "event log at PATH")

    return parser


# ----------------------------------------------------------------------
def _cmd_list(_args) -> int:
    print("benchmarks:")
    for name, profile in sorted(PROFILES.items()):
        print(f"  {name:16s} ({profile.suite}, {profile.value_model} values)")
    print("\nschemes:")
    for name in sorted(SCHEMES):
        print(f"  {name}")
    print("\nfigures:")
    print("  " + "  ".join(sorted(_FIGURES)))
    return 0


def _cmd_run(args) -> int:
    with open(args.program) as handle:
        source = handle.read()
    program = assemble(source, name=args.program)
    core = PipelineCore([program], screening=scheme_unit(args.scheme))
    core.run(max_cycles=args.max_cycles)
    if not core.all_halted:
        print(f"warning: hit --max-cycles before HALT", file=sys.stderr)
    for key, value in core.stats.summary().items():
        print(f"{key:24s} {value}")
    thread = core.threads[0]
    regs = [thread.arch_reg_value(r, core.prf) for r in range(8)]
    print("r0-r7:", " ".join(f"{v:#x}" for v in regs))
    return 0


def _cmd_bench(args) -> int:
    hw = HardwareConfig()
    programs = build_smt_programs(PROFILES[args.name], args.instructions)
    with profiled(args.profile):
        baseline = PipelineCore(programs, hw=hw)
        baseline.run(max_cycles=20_000_000)
        core = PipelineCore(programs, hw=hw,
                            screening=scheme_unit(args.scheme))
        core.run(max_cycles=20_000_000)
    if args.profile:
        # the stage split comes from a run of its own with cProfile off:
        # its per-call overhead inflates the call-heavy stages
        timed = PipelineCore(programs, hw=hw,
                             screening=scheme_unit(args.scheme))
        timed.enable_stage_profiling()
        timed.run(max_cycles=20_000_000)
    model = EnergyModel()
    base_energy = model.compute(baseline)
    energy = model.compute(core)
    print(f"benchmark            {args.name} ({PROFILES[args.name].suite})")
    print(f"scheme               {args.scheme}")
    print(f"cycles               {core.stats.cycles} "
          f"(baseline {baseline.stats.cycles})")
    print(f"perf degradation     "
          f"{100 * (core.stats.cycles / baseline.stats.cycles - 1):.1f}%")
    print(f"IPC                  {core.stats.ipc:.3f}")
    print(f"false-positive rate  "
          f"{100 * fp_rate(core.screening, core.stats.committed):.2f}%")
    print(f"energy overhead      "
          f"{100 * energy.overhead_vs(base_energy):.1f}%")
    print(f"replays/rollbacks    {core.stats.replay_events}/"
          f"{core.stats.rollback_events}")
    if args.profile:
        print(f"stage wall-clock     "
              f"{format_stage_seconds(timed.stage_seconds)}")
    return 0


def _campaign_config(args) -> ExperimentConfig:
    window = 150
    return ExperimentConfig(
        benchmarks=(args.name,),
        dynamic_target=400 + (args.faults + 2) * window,
        num_faults=args.faults, seed=args.seed,
        warmup_commits=400, window_commits=window,
        max_window_cycles=60_000)


def _save_campaign_args(args) -> None:
    """Persist the identity-bearing CLI arguments into the run dir so
    ``repro resume`` can rebuild the exact same campaign."""
    run_dir = pathlib.Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = run_dir / "campaign.json"
    if manifest.exists():        # resuming: the original args win
        return
    document = {"command": "campaign", "name": args.name,
                "scheme": args.scheme, "faults": args.faults,
                "seed": args.seed, "jobs": args.jobs,
                "no_cache": bool(args.no_cache),
                "max_retries": args.max_retries,
                "chunk_timeout": args.chunk_timeout,
                "chunk_windows": args.chunk_windows}
    # atomic write: a SIGKILL mid-write must never leave a truncated
    # manifest that would block `repro resume`
    tmp = manifest.with_suffix(".json.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(document, indent=2, sort_keys=True))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, manifest)


def _cmd_campaign(args) -> int:
    from .harness.supervisor import (CampaignAborted, EXIT_ABORTED,
                                     Supervisor, SupervisorPolicy)
    cfg = _campaign_config(args)
    if args.run_dir and not getattr(args, "emit_events", None):
        # a journaled campaign defaults its event log into the run dir
        # as its audit trail (`repro report --events`, `repro metrics
        # export`); stderr only — stdout stays byte-identical for the
        # equivalence checks
        args.emit_events = str(pathlib.Path(args.run_dir) / "events.jsonl")
        print(f"events: {args.emit_events}", file=sys.stderr)
    policy = SupervisorPolicy(max_retries=args.max_retries,
                              chunk_timeout=args.chunk_timeout,
                              chunk_windows=args.chunk_windows)
    if args.run_dir:       # before the journal exists: a run dir with a
        _save_campaign_args(args)       # journal is always resumable
    supervisor = Supervisor(policy, run_dir=args.run_dir)
    try:
        supervisor.journal_campaign([("characterize", args.name, "baseline"),
                                     ("coverage", args.name, args.scheme)])
        with _session(cfg, args, supervisor=supervisor) as ctx:
            with supervisor.graceful():
                _print_campaign(ctx, args)
            _print_quarantine(supervisor)
            return supervisor.exit_code
    except CampaignAborted as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    finally:
        supervisor.close()


def _print_campaign(ctx: ExperimentContext, args) -> None:
    _, characterization = ctx.campaign(args.name)
    print(f"{characterization.applied_count()} faults applied:")
    for fault_class in FaultClass:
        print(f"  {fault_class.value:8s} "
              f"{100 * characterization.class_fraction(fault_class):5.1f}%")
    coverage = ctx.coverage(args.name, args.scheme)
    print(f"\n{args.scheme} vs {coverage.sdc_count} SDC faults: "
          f"coverage {100 * coverage.coverage:.1f}%")
    for bin_name, fraction in coverage.breakdown().items():
        print(f"  {bin_name:24s} {100 * fraction:5.1f}%")
    print(ctx.metrics.summary(), file=sys.stderr)


def _print_quarantine(supervisor) -> None:
    quarantined = supervisor.quarantined
    if not quarantined:
        return
    print(f"\nwarning: {len(quarantined)} poison window(s) quarantined:",
          file=sys.stderr)
    for q in quarantined:
        print(f"  {q.phase}/{q.scheme} window {q.index} "
              f"(site {q.site}, bit {q.bit}): {q.reason} "
              f"after {q.attempts} attempt(s)", file=sys.stderr)
    if supervisor.run_dir is not None:
        print(f"  details: repro status {supervisor.run_dir}",
              file=sys.stderr)


#: campaign.json fields ``repro resume`` re-validates before running
_RESUME_CHECKED = ("faults", "seed", "jobs", "max_retries",
                   "chunk_timeout", "chunk_windows")


def _cmd_resume(args) -> int:
    run_dir = pathlib.Path(args.run_dir)
    manifest = run_dir / "campaign.json"
    if not manifest.exists():
        print(f"error: {manifest} not found — was the campaign started "
              f"with --run-dir?", file=sys.stderr)
        return 1
    try:
        saved = json.loads(manifest.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: unreadable {manifest}: {exc}", file=sys.stderr)
        return 1
    # the saved arguments obey the bounds the parser and the spec
    # compiler enforce: a bad value is an error, never a clamp
    from .harness.spec import validate_task
    task = {field: saved[field] for field in _RESUME_CHECKED
            if field in saved}
    task.update(benchmark=saved.get("name"), scheme=saved.get("scheme"))
    errors = validate_task(task, where=str(manifest))
    if errors:
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        return 1
    namespace = argparse.Namespace(
        command="campaign", name=saved["name"], scheme=saved["scheme"],
        faults=saved["faults"], seed=saved["seed"],
        jobs=args.jobs if args.jobs is not None else saved.get("jobs"),
        no_cache=bool(saved.get("no_cache", False)),
        emit_events=args.emit_events, profile=False,
        run_dir=str(run_dir),
        max_retries=int(saved.get("max_retries", 3)),
        chunk_timeout=saved.get("chunk_timeout"),
        chunk_windows=int(saved.get("chunk_windows", 8)))
    return _cmd_campaign(namespace)


def _cmd_cache(args) -> int:
    cache = (ArtifactCache(args.cache_dir) if args.cache_dir
             else ArtifactCache.default())
    if args.cache_command == "stats":
        print(f"root     {cache.root}")
        print(f"entries  {cache.entry_count()}")
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.root}")
        return 0
    report = cache.verify(quarantine=not args.no_quarantine)
    print(json.dumps({key: value for key, value in report.items()
                      if key != "entries"}, indent=2))
    for entry in report["entries"]:
        print(f"corrupt: {entry['kind']}/{entry['key']} "
              f"({entry['error']}) -> {entry['action']}", file=sys.stderr)
    return 1 if (report["corrupt"] and args.strict) else 0


def _cmd_figure(args) -> int:
    with _session(SCALES[args.scale], args) as ctx:
        result = _FIGURES[args.which](ctx)
        print(result["text"])
        print(ctx.metrics.summary(), file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    if args.events:
        return _report_events(args)
    from .analysis.report import build_experiments_md
    text = build_experiments_md(args.results)
    with open(args.output, "w") as handle:
        handle.write(text)
    print(f"wrote {args.output} from {args.results}/")
    return 0


def _report_events(args) -> int:
    """Validate an event log (and its run manifest); nonzero on any
    schema or provenance error — the CI smoke job's check."""
    try:
        events = read_events(args.events)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    errors = validate_events(events)
    manifest_path = args.manifest or manifest_path_for(args.events)
    if args.manifest or pathlib.Path(manifest_path).exists():
        try:
            manifest = load_manifest(manifest_path)
        except (OSError, ValueError, TypeError) as exc:
            errors.append(f"manifest {manifest_path}: unreadable ({exc})")
        else:
            errors.extend(f"manifest {manifest_path}: {e}"
                          for e in verify_manifest(manifest))
    summary = summarize_events(events)
    summary["schema_errors"] = len(errors)
    summary["aggregates"] = aggregates_from_events(events)
    print(json.dumps(summary, indent=2))
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_verify(args) -> int:
    """Differential fuzz + invariant sanitizer sweep; nonzero when any
    case diverges from the interpreter or breaks a pipeline invariant."""
    from .harness.diff import run_corpus
    events = EventLog(args.emit_events) if args.emit_events else None
    try:
        report = run_corpus(count=args.cases, base_seed=args.base_seed,
                            scheme=args.scheme,
                            sanitize=not args.no_sanitizer,
                            sanitize_every=args.sanitize_every,
                            events=events)
    finally:
        if events is not None:
            events.close()
            print(f"events: {events.path}", file=sys.stderr)
    summary = report.summary()
    sanitizer = ("off" if args.no_sanitizer
                 else f"every {args.sanitize_every} cycle(s)")
    print(f"cases                {summary['cases']} "
          f"(base seed {args.base_seed})")
    print(f"sanitizer            {sanitizer}")
    print(f"corpus mix           " + "  ".join(
        f"{key}:{count}" for key, count in summary["by_profile"].items()))
    print(f"cycles simulated     {summary['cycles']}")
    print(f"instructions         {summary['commits']}")
    print(f"forwarded loads      {summary['forwarded_loads']}")
    print(f"order violations     {summary['mem_order_violations']}")
    print(f"failures             {summary['failures']}")
    for outcome in report.failures[:args.max_failures]:
        print(f"\nFAIL {outcome.case.label}", file=sys.stderr)
        if outcome.divergence is not None:
            print(f"  divergence: {outcome.divergence}", file=sys.stderr)
        if outcome.invariant_violations:
            print(f"  {outcome.invariant_violations} invariant "
                  f"violation(s), first: {outcome.first_violation}",
                  file=sys.stderr)
    hidden = len(report.failures) - args.max_failures
    if hidden > 0:
        print(f"\n(+{hidden} more failing cases)", file=sys.stderr)
    return 0 if report.ok else 1


def _events_path(target: str) -> pathlib.Path:
    """Accept either a run directory or an events.jsonl path."""
    path = pathlib.Path(target)
    return path / "events.jsonl" if path.is_dir() else path


def _cmd_status(args) -> int:
    """Print the journal fold of a campaign run directory as JSON."""
    from .harness.supervisor import summarize_run_dir
    run_dir = pathlib.Path(args.run_dir)
    if not run_dir.is_dir():
        print(f"error: {run_dir} is not a run directory", file=sys.stderr)
        return 1
    if not (run_dir / "journal.jsonl").exists():
        print(f"error: no journal.jsonl under {run_dir}", file=sys.stderr)
        return 1
    try:
        summary = summarize_run_dir(run_dir)
    except ValueError as exc:       # corruption before the journal's tail
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_metrics(args) -> int:
    """Prometheus text exposition of a recorded log's metrics events."""
    path = _events_path(args.source)
    try:
        events = read_events(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = to_prometheus(snapshot_from_events(events),
                         namespace=args.namespace)
    if text:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        print("# no metrics events recorded", file=sys.stderr)
    return 0


def _cmd_compile(args) -> int:
    """Pure spec compilation: .src.json -> .run.json (docs/specs.md)."""
    from .harness.spec import compile_file
    out = compile_file(args.spec, args.output)
    run = json.loads(out.read_text(encoding="utf-8"))
    deduped = run.get("deduped", 0)
    extra = f", {deduped} duplicate(s) deduped" if deduped else ""
    print(f"compiled {args.spec} -> {out} "
          f"({len(run['tasks'])} task(s){extra})")
    return 0


def _cmd_validate(args) -> int:
    from .workloads.validation import validate_profile
    report = validate_profile(PROFILES[args.name], args.instructions)
    print(f"profile: {args.name}")
    for key, value in report.as_dict().items():
        print(f"  {key:32s} {value}")
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "bench": _cmd_bench,
    "cache": _cmd_cache,
    "campaign": _cmd_campaign,
    "compile": _cmd_compile,
    "figure": _cmd_figure,
    "metrics": _cmd_metrics,
    "report": _cmd_report,
    "resume": _cmd_resume,
    "status": _cmd_status,
    "validate": _cmd_validate,
    "verify": _cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
