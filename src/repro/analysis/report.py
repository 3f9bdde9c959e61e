"""EXPERIMENTS.md builder: paper-vs-measured, generated from stored results.

``build_experiments_md`` reads the JSON payloads the benchmark suite
persists under ``benchmarks/results/`` and composes the full
paper-vs-measured report: for every table/figure it embeds the measured
series, states the paper's headline numbers, and machine-checks the shape
claims (orderings and rough factors) that the reproduction is supposed to
preserve. Regenerate with::

    python -m repro.cli report            # or: repro report
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..harness.store import ResultStore


@dataclass(frozen=True)
class ShapeClaim:
    """One checkable claim about a figure's shape."""

    description: str
    check: Callable[[dict], bool]

    def verdict(self, payload: dict) -> str:
        try:
            ok = self.check(payload)
        except (KeyError, TypeError, ZeroDivisionError):
            return f"- ? {self.description} (data missing)"
        return f"- {'PASS' if ok else 'MISS'}: {self.description}"


def _mean(payload: dict, table: str = "rows") -> dict:
    return payload[table]["MEAN"]


#: The paper's headline numbers, quoted from the abstract and Section 5.
PAPER_HEADLINES: Dict[str, str] = {
    "fig6": ("Most bit positions change in <1% of values; the changing "
             "positions concentrate at the low-order end; ~3 bits change "
             "per 64-bit write on average."),
    "fig7": "~85% of injected faults masked, ~5% noisy, ~10% SDC.",
    "fig8": ("PBFS: ~30% coverage at near-zero FP. PBFS-biased: coverage "
             "comparable to FaultHound but ~8% FP. FaultHound: ~75% "
             "coverage at ~3% FP."),
    "fig9": ("PBFS ~1%, PBFS-biased ~97%, FaultHound ~10% performance "
             "degradation; SRT-iso slightly above FaultHound; commercial "
             "workloads hide recovery under cache misses."),
    "fig10": ("FaultHound-backend ~10%, FaultHound ~25%, SRT-iso ~56% "
              "energy overhead — redundancy's energy cannot hide."),
    "fig11": ("Covered faults dominate; second-level masking costs "
              "little; completed/committed-register faults are a modest "
              "slice; uncovered rename and ~10% non-triggering faults "
              "make up the rest."),
    "fig12": ("Clustering and the second-level filter each cut the FP "
              "rate; replay dramatically beats full rollback; the LSQ "
              "check buys significant coverage."),
}

#: Machine-checkable shape claims per figure.
SHAPE_CLAIMS: Dict[str, List[ShapeClaim]] = {
    "fig7": [
        ShapeClaim("a large majority of faults are masked (>70%)",
                   lambda p: _mean(p)["masked"] > 0.70),
        ShapeClaim("SDC is a small minority (<25%)",
                   lambda p: _mean(p)["sdc"] < 0.25),
    ],
    "fig8": [
        ShapeClaim("sticky PBFS is near-zero FP (<1%)",
                   lambda p: p["fp_rate"]["MEAN"]["pbfs"] < 0.01),
        ShapeClaim("FaultHound cuts PBFS-biased's FP rate substantially",
                   lambda p: p["fp_rate"]["MEAN"]["pbfs-biased"]
                   > 1.5 * p["fp_rate"]["MEAN"]["faulthound"]),
        ShapeClaim("FaultHound out-covers sticky PBFS",
                   lambda p: p["coverage"]["MEAN"]["faulthound"]
                   > p["coverage"]["MEAN"]["pbfs"]),
        ShapeClaim("PBFS-biased's coverage is FaultHound-class",
                   lambda p: abs(p["coverage"]["MEAN"]["pbfs-biased"]
                                 - p["coverage"]["MEAN"]["faulthound"])
                   < 0.20),
    ],
    "fig9": [
        ShapeClaim("sticky PBFS costs almost nothing (<10%)",
                   lambda p: _mean(p)["pbfs"] < 0.10),
        ShapeClaim("PBFS-biased costs a multiple of FaultHound",
                   lambda p: _mean(p)["pbfs-biased"]
                   > 2 * _mean(p)["faulthound"]),
        ShapeClaim("FaultHound stays moderate (<30%)",
                   lambda p: _mean(p)["faulthound"] < 0.30),
        ShapeClaim("SRT-iso pays real resource pressure (>0)",
                   lambda p: _mean(p)["srt-iso"] > 0.0),
    ],
    "fig10": [
        ShapeClaim("backend-only < full FaultHound < SRT-iso",
                   lambda p: _mean(p)["fh-backend"]
                   < _mean(p)["faulthound"] < _mean(p)["srt-iso"]),
    ],
    "fig11": [
        ShapeClaim("the covered slice dominates",
                   lambda p: _mean(p)["covered"]
                   == max(_mean(p).values())),
        ShapeClaim("second-level masking costs little (<25%)",
                   lambda p: _mean(p)["second_level_masked"] < 0.25),
    ],
    "fig12": [
        ShapeClaim("clustering + second-level reduce the FP rate",
                   lambda p: p["left"]["FH-BE-nocluster-no2level"]["fp_rate"]
                   > p["left"]["FH-BE"]["fp_rate"]),
        ShapeClaim("replay beats full rollback on performance",
                   lambda p: p["middle"]["FH-BE-full-rollback"]
                   ["perf_overhead"] > p["middle"]["FH-BE"]
                   ["perf_overhead"]),
        ShapeClaim("the LSQ check does not lose coverage",
                   lambda p: p["right"]["FH-BE"]["coverage"]
                   >= p["right"]["FH-BE-noLSQ"]["coverage"]),
    ],
}

#: Shipped paper-vs-measured commentary, one note per figure. Kept in code
#: so `repro report` regenerates EXPERIMENTS.md reproducibly.
DEFAULT_COMMENTARY: Dict[str, str] = {
    "table1": (
        "**Substitution.** The real suites (SPEC2006 binaries, Apache/"
        "SPECjbb/OLTP setups, SPLASH-2 inputs) need a SPARC/Solaris stack "
        "we do not have; each benchmark is a synthetic generator whose "
        "value-locality statistics (address patterns, store-value "
        "bit-change profile, branchiness, cache footprint) match the "
        "paper's description of that workload class. DESIGN.md §1 "
        "documents the substitution; Figure 6 below shows the resulting "
        "streams have the paper's locality structure."),
    "table2": (
        "Configuration matches the paper's Table 2, with two documented "
        "deviations: one core is modelled instead of eight (fault "
        "injection and all mechanisms are per-core), and the unified "
        "physical register file gets the paper's INT+FP total (160+64)."),
    "fig6": (
        "Measured: the vast majority of bit positions change in <1% of "
        "consecutive values for all three checked streams, the busy "
        "positions sit at the low-order end (see the log sparklines), and "
        "store values average a few changed bits per 64-bit write — the "
        "paper's ~3-bit figure falls inside our per-benchmark range."),
    "fig7": (
        "Paper: ~85/5/10 masked/noisy/SDC. Measured means land within a "
        "few points of each band. Masking comes from the same physics — "
        "most values die young (bypass-consumed temporaries), persistent "
        "state self-masks through wrap masks — and noisy faults are "
        "address-forming corruptions that trip the memory-fault check."),
    "fig8": (
        "Paper: PBFS 30% coverage at ~0 FP; PBFS-biased ~75-80% coverage "
        "at 8% FP; FaultHound ~75% at 3%. Measured reproduces the FP "
        "ordering and magnitudes almost exactly (PBFS near zero, "
        "PBFS-biased ~7-8%, FaultHound ~3%) and the coverage ordering "
        "(FaultHound ≥ PBFS-biased > PBFS). The main quantitative gap is "
        "PBFS's coverage: our sticky counters retain more arming than the "
        "paper's because even outlier-laden synthetic streams are cleaner "
        "than real traces, so PBFS lands nearer 55-65% than 30%. The "
        "mechanism behind the gap is reproduced (one-off value changes "
        "kill sticky counters until the flash clear while biased machines "
        "re-arm in two quiet observations) — see the PBFS clear-interval "
        "ablation."),
    "fig9": (
        "Paper (log scale): PBFS ~1%, PBFS-biased ~97%, FaultHound ~10%, "
        "SRT-iso slightly above FaultHound, with commercial workloads "
        "hiding recovery under cache misses. Measured preserves every "
        "ordering and the crossover (commercial PBFS-biased degradation "
        "below compute-bound suites'). PBFS-biased lands at tens of "
        "percent rather than ~97% — our rollback penalty (~60-120 "
        "squashed ops, 12-cycle redirect) is milder than the authors' "
        "100-200-instruction figure, and our suppress-after-rollback "
        "window (their \"re-computed values are deemed final\" rule) "
        "caps back-to-back rollbacks. One inversion: SRT-iso lands "
        "slightly *below* FaultHound here (the paper has it slightly "
        "above) because our SMT baseline leaves enough issue slack for "
        "ideal trailing threads to hide in, while FaultHound's rename-"
        "squash rollbacks cost more on our shorter pipeline."),
    "fig10": (
        "Paper: FH-backend ~10%, FaultHound ~25%, SRT-iso ~56%. Measured "
        "keeps the ordering with FH-backend cheaper than the paper's "
        "(replay re-executions largely fill idle issue slots) and "
        "SRT-iso's redundancy unable to hide its energy even where its "
        "latency hides (compare its Figure 9 row)."),
    "fig11": (
        "Measured means: covered dominates (~3/4 of SDC faults), the "
        "second-level filter costs almost nothing, completed/committed-"
        "register faults are a small slice (bypass-style consumption "
        "masks the register file), and uncovered rename plus "
        "non-triggering faults (~10% each) make up the remainder — the "
        "paper's Figure 11 structure, including its ~10% non-triggering "
        "figure."),
    "fig12": (
        "The isolations reproduce with one caveat. Left: the combined "
        "mechanisms cut the FP rate ~3x, but in our synthetic streams the "
        "second-level filter does almost all of that work — clustering's "
        "isolated FP benefit (clear in the paper) barely registers, "
        "because each generated loop has few static load/store sites, so "
        "the PC-indexed ablation suffers little of the real-code "
        "spreading the paper describes. Middle: predecessor replay is "
        "dramatically cheaper than rolling back on every trigger (the "
        "paper's ~10x gap). Right: the commit-time LSQ check contributes "
        "a double-digit coverage slice."),
}

_ORDER = ["table1", "table2", "fig6", "fig7", "fig8", "fig9", "fig10",
          "fig11", "fig12"]

_TITLES = {
    "table1": "Table 1 — benchmarks",
    "table2": "Table 2 — hardware parameters",
    "fig6": "Figure 6 — percent change in bit positions",
    "fig7": "Figure 7 — fault characterisation",
    "fig8": "Figure 8 — SDC coverage and false-positive rates",
    "fig9": "Figure 9 — performance degradation",
    "fig10": "Figure 10 — energy overhead",
    "fig11": "Figure 11 — SDC fault breakdown",
    "fig12": "Figure 12 — isolating the back-end mechanisms",
}

_PREAMBLE = """# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation, regenerated by
`pytest benchmarks/ --benchmark-only` and compared against the paper's
reported numbers. Measured series live in `benchmarks/results/`; this
document is rebuilt from them by `repro report`.

**Scale.** The paper simulates 50M-instruction SimPoints on GEMS/Opal and
injects 15,000 faults per run. The shipped results use the laptop-scale
default (tens of thousands of instructions per benchmark, ~120 faults per
campaign), so per-benchmark coverage figures carry small-sample noise —
pooled Wilson 95% intervals are reported for the coverage headline.
Absolute magnitudes are not expected to transfer from the authors'
testbed; the *shapes* — who wins, by roughly what factor, where the
crossovers fall — are the reproduction target, and each figure below ends
with its machine-checked shape claims.

**Scaling & parallel execution.** `REPRO_SCALE` picks the scale
(`quick`/`default`/`full`); `REPRO_JOBS` (or `repro figure --jobs N`)
fans independent runs, campaigns and fault windows across a process
pool, bit-for-bit identical to serial because every worker re-derives
its state from the explicit seeds. Finished artefacts persist in
`benchmarks/.cache/<kind>/<digest>.pkl`, keyed by the configs plus a
code-version salt over the package source, so reruns are incremental and
any simulator change invalidates the cache automatically (`REPRO_NO_CACHE=1`
or `--no-cache` forces recomputation). Parallel window workers start from
serialized golden-core checkpoints that one golden pass per phase
captures in memory at chunk boundaries, so no worker steps the golden
prefix; and every run driver elides provably idle cycles (event-skip
fast-forward — 3.4× cycles/sec on the cache-miss-heavy profile,
`benchmarks/results/bench_fastforward.json`). See
`docs/performance.md` for both mechanisms and their bit-for-bit
equivalence guarantees; `make bench-summary` collates every recorded
benchmark into the speedup-trajectory table there.

**Observability.** Any campaign/figure command accepts `--emit-events
PATH` (`REPRO_EVENTS=PATH` for the benchmark suite) to stream a typed
JSONL event log — nested spans around every phase and figure step, cache
hits/misses, worker lifecycle, and one `fault_audit` record per injected
fault (site, filter trigger, recovery action, detection latency,
outcome). `repro report --events PATH` validates the log against the
schema, verifies the run manifest's config digest, and prints a summary;
`--profile` adds a cProfile dump. Provenance manifests
(`*.manifest.json`) sit next to every cached artefact and recorded
figure. A typed metrics registry rides the event log too (zero-cost
when off, bit-for-bit identical results when on —
`benchmarks/results/bench_metrics_overhead.json`; `repro metrics
export` prints it as Prometheus text). The progress of a campaign run
with `--run-dir` has one record, its crash-safe journal, which
`repro status` folds into per-phase windows done and quarantined. See
`docs/observability.md`.

**Campaign sweeps.** Multi-benchmark/multi-scheme sweeps are declared
as `.src.json` specs, compiled (`repro compile`) into explicit,
content-addressed `.run.json` task lists, and run as a loop of
one-shot `repro campaign` commands — each task's argv is spelled out
by `spec.task_argv`, so its stdout (the numbers below) is bit-for-bit
the hand-typed command's, and `repro resume` finishes a task
interrupted mid-run. See `docs/specs.md`.

**Simulator validation.** Every number below rests on the simulator
being faithful, so the methodology includes self-checks: an invariant
sanitizer armed on the golden core of every campaign (one structural
check per run-window capture point) and an ISA-differential fuzz corpus
(`repro verify`, 200 fixed seeds in `tests/test_differential.py`)
diffing the out-of-order core against the golden interpreter at every
commit. See `docs/validation.md`.
"""


def render_text_for(store: ResultStore, name: str,
                    results_dir) -> Optional[str]:
    """Prefer the rendered .txt the benches wrote (it includes charts)."""
    import pathlib
    path = pathlib.Path(results_dir) / f"{name}.txt"
    if path.exists():
        return path.read_text().rstrip()
    if store.exists(name):
        payload = store.load(name)["payload"]
        return payload.get("text", "")
    return None


#: The abstract's headline numbers per scheme (coverage, FP, perf, energy).
PAPER_ABSTRACT = {
    "pbfs": {"coverage": 0.30, "fp_rate": 0.0, "perf": 0.01,
             "energy": None},
    "pbfs-biased": {"coverage": 0.75, "fp_rate": 0.08, "perf": 0.97,
                    "energy": None},
    "faulthound": {"coverage": 0.75, "fp_rate": 0.03, "perf": 0.10,
                   "energy": 0.25},
    "srt-iso": {"coverage": None, "fp_rate": None, "perf": 0.12,
                "energy": 0.56},
}


def headline_table(store: ResultStore) -> Optional[str]:
    """Synthesize the abstract's scheme comparison from the stored
    fig8/fig9/fig10 payloads (paper value in parentheses)."""
    if not (store.exists("fig8") and store.exists("fig9")
            and store.exists("fig10")):
        return None
    fig8 = store.load("fig8")["payload"]
    fig9 = store.load("fig9")["payload"]
    fig10 = store.load("fig10")["payload"]

    def cell(value, paper):
        if value is None:
            return "-"
        text = f"{100 * value:.1f}%"
        if paper is not None:
            text += f" ({100 * paper:.0f}%)"
        return text

    lines = ["| scheme | coverage | FP rate | perf overhead | "
             "energy overhead |",
             "|---|---|---|---|---|"]
    for scheme, paper in PAPER_ABSTRACT.items():
        coverage = fig8["coverage"]["MEAN"].get(scheme)
        fp = fig8["fp_rate"]["MEAN"].get(scheme)
        perf = fig9["rows"]["MEAN"].get(scheme)
        energy = fig10["rows"]["MEAN"].get(scheme)
        lines.append(
            f"| {scheme} | {cell(coverage, paper['coverage'])} "
            f"| {cell(fp, paper['fp_rate'])} "
            f"| {cell(perf, paper['perf'])} "
            f"| {cell(energy, paper['energy'])} |")
    lines.append("\nMeasured means with the paper's headline value in "
                 "parentheses; '-' where a figure does not report that "
                 "scheme.")
    return "\n".join(lines)


def build_experiments_md(results_dir,
                         commentary: Optional[Dict[str, str]] = None) -> str:
    """Compose the full EXPERIMENTS.md from a results directory."""
    store = ResultStore(results_dir)
    commentary = DEFAULT_COMMENTARY if commentary is None else commentary
    sections = [_PREAMBLE]
    headline = headline_table(store)
    if headline:
        sections.append("\n## Headline: the abstract's comparison\n")
        sections.append(headline + "\n")
    for name in _ORDER:
        text = render_text_for(store, name, results_dir)
        if text is None:
            continue
        sections.append(f"\n## {_TITLES.get(name, name)}\n")
        headline = PAPER_HEADLINES.get(name)
        if headline:
            sections.append(f"**Paper:** {headline}\n")
        sections.append("```\n" + text + "\n```\n")
        if name in SHAPE_CLAIMS and store.exists(name):
            payload = store.load(name)["payload"]
            sections.append("Shape claims:\n")
            for claim in SHAPE_CLAIMS[name]:
                sections.append(claim.verdict(payload))
            sections.append("")
        note = commentary.get(name)
        if note:
            sections.append(note + "\n")
    import pathlib
    known = set(store.names())
    known.update(p.stem for p in pathlib.Path(results_dir).glob("*.txt"))
    extra = sorted(n for n in known if n not in _ORDER)
    if extra:
        sections.append("\n## Additional ablations (paper prose claims)\n")
        sections.append(
            "Regenerated from the paper's in-text claims rather than its "
            "figures (see DESIGN.md §3 for the claim-to-bench map).\n")
        for name in extra:
            text = render_text_for(store, name, results_dir)
            if text:
                sections.append("```\n" + text + "\n```\n")
    return "\n".join(sections)


__all__ = ["ShapeClaim", "PAPER_HEADLINES", "SHAPE_CLAIMS",
           "build_experiments_md"]
