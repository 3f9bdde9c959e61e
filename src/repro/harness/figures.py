"""One entry point per paper table/figure (DESIGN.md §3).

Each function returns a dict with the figure's data plus a ``text`` key
holding a rendered paper-style table; the benchmark suite prints these and
EXPERIMENTS.md records the paper-vs-measured comparison.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Sequence

from ..analysis.charts import bar_chart, log_sparkline
from ..analysis.locality import (bit_change_fractions, collect_mem_streams,
                                 mean_bits_changed)
from ..analysis.metrics import arithmetic_mean, perf_overhead
from ..analysis.tables import format_table
from ..config import FaultHoundConfig, HardwareConfig, table2_rows
from ..faults import FaultClass
from ..workloads import PROFILES, SUITES
from .experiment import ExperimentContext

#: Presentation order: the paper's benchmark ordering with suite means.
def _ordered(benchmarks: Sequence[str]) -> List[str]:
    ordered = [n for suite in SUITES.values() for n in suite
               if n in benchmarks]
    return ordered or list(benchmarks)


def _coverage_or_none(result):
    """A coverage phase's coverage, or None (rendered ``-``) when its
    benchmark had no SDC fault: coverage of nothing is undefined."""
    return result.coverage if result.sdc_count else None


def _defined_mean(values):
    """Arithmetic mean of the defined values; None when there are none."""
    defined = [v for v in values if v is not None]
    return arithmetic_mean(defined) if defined else None


def _figure_span(fn):
    """Wrap a figure step in a ``figure:<name>`` event-log span, so one
    figure's phases nest under one parent in the observability trail."""
    @functools.wraps(fn)
    def wrapper(ctx: ExperimentContext, *args, **kwargs):
        with ctx.events.span(f"figure:{fn.__name__}"):
            return fn(ctx, *args, **kwargs)
    return wrapper


# ----------------------------------------------------------------------
# Tables 1 and 2
# ----------------------------------------------------------------------
def table1() -> Dict:
    """Table 1: the benchmark roster and its locality profiles."""
    rows = {}
    for name in _ordered(PROFILES):
        p = PROFILES[name]
        rows[name] = {
            "suite": p.suite,
            "ws_words": str(p.working_set_words),
            "ptr_chase": f"{p.pointer_chase:.2f}",
            "value_model": p.value_model,
            "branchiness": f"{p.branchiness:.2f}",
        }
    return {"rows": rows,
            "text": format_table("Table 1: benchmarks", rows)}


def table2(hw: HardwareConfig | None = None) -> Dict:
    """Table 2: hardware parameters."""
    rows = {k: {"value": v} for k, v in
            table2_rows(hw or HardwareConfig(), FaultHoundConfig()).items()}
    return {"rows": rows,
            "text": format_table("Table 2: hardware parameters", rows)}


# ----------------------------------------------------------------------
# Figure 6: percent change in bit positions
# ----------------------------------------------------------------------
@_figure_span
def fig6(ctx: ExperimentContext, max_instructions: int = 30_000) -> Dict:
    """Per-bit-position change fractions for the three checked streams,
    aggregated over every benchmark (log-Y in the paper)."""
    programs = []
    for name in _ordered(ctx.cfg.benchmarks):
        programs.extend(ctx.programs(name))
    streams = collect_mem_streams(programs, max_instructions)
    fractions = {kind: bit_change_fractions(values)
                 for kind, values in streams.items()}
    summary_rows = {}
    for kind, frac in fractions.items():
        below_1pct = sum(1 for f in frac if f < 0.01)
        summary_rows[kind] = {
            "bits<1%": float(below_1pct),
            "max_bit_frac": max(frac),
            "mean_bits_changed": mean_bits_changed(streams[kind]),
        }
    profile_lines = [
        f"  {kind:12s} bit63..bit0 (log scale): "
        f"{log_sparkline(list(reversed(frac)))}"
        for kind, frac in fractions.items()]
    return {
        "fractions": fractions,
        "rows": summary_rows,
        "text": (format_table(
            "Figure 6: bit-position change characterisation", summary_rows)
            + "\n" + "\n".join(profile_lines)),
    }


# ----------------------------------------------------------------------
# Figure 7: fault characterisation
# ----------------------------------------------------------------------
@_figure_span
def fig7(ctx: ExperimentContext) -> Dict:
    """Masked / noisy / SDC fractions per benchmark (plus overall mean)."""
    ctx.prefetch(campaigns=True)
    rows = {}
    for name in _ordered(ctx.cfg.benchmarks):
        _, characterization = ctx.campaign(name)
        rows[name] = {
            "masked": characterization.class_fraction(FaultClass.MASKED),
            "noisy": characterization.class_fraction(FaultClass.NOISY),
            "sdc": characterization.class_fraction(FaultClass.SDC),
        }
    rows["MEAN"] = {
        key: arithmetic_mean(r[key] for n, r in rows.items() if n != "MEAN")
        for key in ("masked", "noisy", "sdc")}
    return {"rows": rows,
            "text": format_table("Figure 7: fault characterisation",
                                 rows, percent=True)}


# ----------------------------------------------------------------------
# Figure 8: coverage and false-positive rates
# ----------------------------------------------------------------------
FIG8_SCHEMES = ("pbfs", "pbfs-biased", "fh-backend", "faulthound")


@_figure_span
def fig8(ctx: ExperimentContext,
         schemes: Sequence[str] = FIG8_SCHEMES) -> Dict:
    """(a) SDC coverage and (b) false-positive rate per scheme."""
    ctx.prefetch(fault_free=schemes, coverage=schemes)
    coverage_rows: Dict[str, Dict[str, float]] = {}
    fp_rows: Dict[str, Dict[str, float]] = {}
    for name in _ordered(ctx.cfg.benchmarks):
        coverage_rows[name] = {
            s: _coverage_or_none(ctx.coverage(name, s)) for s in schemes}
        fp_rows[name] = {
            s: ctx.fault_free(name, s).fp_rate for s in schemes}
    for rows in (coverage_rows, fp_rows):
        rows["MEAN"] = {
            s: _defined_mean(r[s] for n, r in rows.items() if n != "MEAN")
            for s in schemes}
    # pooled Wilson intervals per scheme (small per-benchmark SDC samples)
    interval_rows: Dict[str, Dict[str, str]] = {}
    for s in schemes:
        covered = sum(ctx.coverage(n, s).covered_count
                      for n in _ordered(ctx.cfg.benchmarks))
        total = sum(ctx.coverage(n, s).sdc_count
                    for n in _ordered(ctx.cfg.benchmarks))
        from ..analysis.stats import proportion
        interval_rows[s] = {"pooled coverage": str(proportion(covered,
                                                              total))}
    return {
        "coverage": coverage_rows,
        "fp_rate": fp_rows,
        "intervals": interval_rows,
        "text": (format_table("Figure 8a: SDC coverage", coverage_rows,
                              percent=True)
                 + "\n\n"
                 + format_table("Figure 8a (pooled, Wilson 95%)",
                                interval_rows)
                 + "\n\n"
                 + format_table("Figure 8b: false-positive rate", fp_rows,
                                percent=True, decimals=4)),
    }


# ----------------------------------------------------------------------
# Figure 9: performance degradation
# ----------------------------------------------------------------------
FIG9_SCHEMES = ("pbfs", "pbfs-biased", "fh-backend", "faulthound")


@_figure_span
def fig9(ctx: ExperimentContext,
         schemes: Sequence[str] = FIG9_SCHEMES,
         include_srt: bool = True) -> Dict:
    """Performance degradation over the no-fault-tolerance baseline
    (log-Y in the paper); SRT-iso is thinned to FaultHound's coverage."""
    ctx.prefetch(fault_free=("baseline",) + tuple(schemes), srt=include_srt)
    rows: Dict[str, Dict[str, float]] = {}
    for name in _ordered(ctx.cfg.benchmarks):
        base = ctx.fault_free(name, "baseline")
        row = {s: perf_overhead(ctx.fault_free(name, s).cycles, base.cycles)
               for s in schemes}
        if include_srt:
            row["srt-iso"] = perf_overhead(
                ctx.srt_run(name).cycles, base.cycles)
        rows[name] = row
    columns = list(next(iter(rows.values())).keys())
    rows["MEAN"] = {
        c: arithmetic_mean(r[c] for n, r in rows.items() if n != "MEAN")
        for c in columns}
    chart = bar_chart("mean degradation (log scale, as in the paper):",
                      rows["MEAN"], log_scale=True, log_floor=1e-3)
    return {"rows": rows,
            "text": format_table("Figure 9: performance degradation",
                                 rows, percent=True) + "\n" + chart}


# ----------------------------------------------------------------------
# Figure 10: energy overhead
# ----------------------------------------------------------------------
FIG10_SCHEMES = ("fh-backend", "faulthound")


@_figure_span
def fig10(ctx: ExperimentContext,
          schemes: Sequence[str] = FIG10_SCHEMES,
          include_srt: bool = True) -> Dict:
    """Energy overhead over the no-fault-tolerance baseline."""
    ctx.prefetch(fault_free=("baseline",) + tuple(schemes), srt=include_srt)
    rows: Dict[str, Dict[str, float]] = {}
    for name in _ordered(ctx.cfg.benchmarks):
        base = ctx.fault_free(name, "baseline").energy
        row = {s: ctx.fault_free(name, s).energy.overhead_vs(base)
               for s in schemes}
        if include_srt:
            row["srt-iso"] = ctx.srt_run(name).energy.overhead_vs(base)
        rows[name] = row
    columns = list(next(iter(rows.values())).keys())
    rows["MEAN"] = {
        c: arithmetic_mean(r[c] for n, r in rows.items() if n != "MEAN")
        for c in columns}
    chart = bar_chart("mean energy overhead:", rows["MEAN"])
    return {"rows": rows,
            "text": format_table("Figure 10: energy overhead", rows,
                                 percent=True) + "\n" + chart}


# ----------------------------------------------------------------------
# Figure 11: SDC fault breakdown
# ----------------------------------------------------------------------
@_figure_span
def fig11(ctx: ExperimentContext, scheme: str = "faulthound") -> Dict:
    """Where FaultHound's SDC coverage goes (six outcome bins)."""
    ctx.prefetch(coverage=(scheme,))
    rows = {}
    for name in _ordered(ctx.cfg.benchmarks):
        coverage = ctx.coverage(name, scheme)
        breakdown = coverage.breakdown()
        # a benchmark without SDC faults has no breakdown: a row of '-'
        rows[name] = (breakdown if coverage.sdc_count
                      else dict.fromkeys(breakdown))
    keys = list(next(iter(rows.values())).keys())
    rows["MEAN"] = {
        k: _defined_mean(r[k] for n, r in rows.items() if n != "MEAN")
        for k in keys}
    return {"rows": rows,
            "text": format_table("Figure 11: SDC fault breakdown", rows,
                                 percent=True)}


# ----------------------------------------------------------------------
# Figure 12: mechanism isolation (overall means only, like the paper)
# ----------------------------------------------------------------------
@_figure_span
def fig12(ctx: ExperimentContext) -> Dict:
    """Three ablations: clustering/second-level on FP rate, replay vs full
    rollback on performance, LSQ check on coverage."""
    ctx.prefetch(
        fault_free=("baseline", "fh-backend", "fh-be-no2level",
                    "fh-be-nocluster-no2level", "fh-be-full-rollback"),
        coverage=("fh-be-nolsq", "fh-backend"))
    benchmarks = _ordered(ctx.cfg.benchmarks)

    def mean_fp(scheme):
        return arithmetic_mean(
            ctx.fault_free(n, scheme).fp_rate for n in benchmarks)

    def mean_perf(scheme):
        return arithmetic_mean(
            perf_overhead(ctx.fault_free(n, scheme).cycles,
                          ctx.fault_free(n, "baseline").cycles)
            for n in benchmarks)

    def mean_cov(scheme):
        return _defined_mean(
            _coverage_or_none(ctx.coverage(n, scheme)) for n in benchmarks)

    left = {
        "FH-BE-nocluster-no2level": {"fp_rate": mean_fp("fh-be-nocluster-no2level")},
        "FH-BE-no2level": {"fp_rate": mean_fp("fh-be-no2level")},
        "FH-BE": {"fp_rate": mean_fp("fh-backend")},
    }
    middle = {
        "FH-BE-full-rollback": {"perf_overhead": mean_perf("fh-be-full-rollback")},
        "FH-BE": {"perf_overhead": mean_perf("fh-backend")},
    }
    right = {
        "FH-BE-noLSQ": {"coverage": mean_cov("fh-be-nolsq")},
        "FH-BE": {"coverage": mean_cov("fh-backend")},
    }
    text = "\n\n".join([
        format_table("Figure 12 (left): clustering + second-level vs FP rate",
                     left, percent=True, decimals=4),
        format_table("Figure 12 (middle): replay vs full rollback",
                     middle, percent=True),
        format_table("Figure 12 (right): LSQ coverage", right, percent=True),
    ])
    return {"left": left, "middle": middle, "right": right, "text": text}


__all__ = ["table1", "table2", "fig6", "fig7", "fig8", "fig9", "fig10",
           "fig11", "fig12", "FIG8_SCHEMES", "FIG9_SCHEMES", "FIG10_SCHEMES"]
