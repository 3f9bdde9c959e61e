"""Collate recorded benchmark results into the performance doc.

Every perf-bearing PR records its before/after numbers as a
``benchmarks/results/bench_*.json`` payload (via
:class:`repro.harness.store.ResultStore`). This script collates them
into one chronological speedup-trajectory table — the repo's running
answer to "what did each optimisation actually buy?" — and embeds it
between the ``bench-summary`` markers in ``docs/performance.md``.

Usage::

    python benchmarks/summarize.py           # rewrite the doc section
    python benchmarks/summarize.py --check   # exit 1 if doc is stale
    make bench-summary

Payloads are heterogeneous by design (each bench records what its
optimisation is about), so per-bench extractors below map known
payloads to table rows; unknown ``bench_*`` files fall back to their
top-level ``speedup`` key when present, and are listed as unsummarised
otherwise — new benches should add an extractor.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Callable, Dict, List, Optional

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
DOC_PATH = pathlib.Path(__file__).parent.parent / "docs" / "performance.md"
BEGIN = "<!-- bench-summary:begin -->"
END = "<!-- bench-summary:end -->"

COLUMNS = ("Benchmark", "Measures", "Baseline", "Optimised", "Speedup",
           "Recorded")


def _row(name: str, measures: str, baseline: str, optimised: str,
         speedup, saved_at: str) -> Dict[str, str]:
    if isinstance(speedup, (int, float)):
        speedup = f"{speedup:.2f}x"
    return {"Benchmark": f"`{name}`", "Measures": measures,
            "Baseline": baseline, "Optimised": optimised,
            "Speedup": speedup, "Recorded": (saved_at or "")[:10]}


# ----------------------------------------------------------------------
# per-bench extractors: payload -> rows
# ----------------------------------------------------------------------
def _clone_vs_deepcopy(name, payload, saved_at):
    return [_row(name, "core fork for one tandem window",
                 f"{payload['deepcopy_ms']} ms (`copy.deepcopy`)",
                 f"{payload['clone_ms']} ms (`clone()`)",
                 payload["speedup"], saved_at)]


def _fastforward(name, payload, saved_at):
    rows = []
    campaign = payload.get("campaign")
    if campaign:
        rows.append(_row(
            name, f"{campaign['benchmark']} campaign, event-skip on/off",
            f"{campaign['gated_reference_seconds']} s",
            f"{campaign['fast_seconds']} s", campaign["speedup"], saved_at))
    mcf = payload.get("profiles", {}).get("mcf")
    if mcf:
        rows.append(_row(
            name, "mcf fault-free stepping (cycles/s), "
                  f"{mcf['elided_fraction']:.0%} of cycles elided",
            f"{mcf['gated_reference_cycles_per_sec']:,}",
            f"{mcf['fast_cycles_per_sec']:,}",
            mcf["speedup_vs_gated_reference"], saved_at))
    return rows


def _metrics_overhead(name, payload, saved_at):
    off, on = payload["metrics_off_s"], payload["metrics_on_s"]
    return [_row(name, "campaign with live telemetry on vs off",
                 f"{off} s (metrics off)", f"{on} s (metrics on)",
                 f"{payload['overhead_pct']:+.1f}% overhead", saved_at)]


def _null_metrics_call(name, payload, saved_at):
    return [_row(name, "disabled-registry counter call",
                 "—", f"{payload['per_call_ns']} ns/call", "—", saved_at)]


def _supervisor_overhead(name, payload, saved_at):
    plain, sup = payload["plain_serial_s"], payload["supervised_serial_s"]
    return [_row(name, "serial campaign under the supervisor",
                 f"{plain} s (plain)", f"{sup} s (supervised)",
                 f"{payload['serial_overhead_pct']:+.1f}% overhead",
                 saved_at)]


EXTRACTORS: Dict[str, Callable] = {
    "bench_clone_vs_deepcopy": _clone_vs_deepcopy,
    "bench_fastforward": _fastforward,
    "bench_metrics_overhead": _metrics_overhead,
    "bench_null_metrics_call": _null_metrics_call,
    "bench_supervisor_overhead": _supervisor_overhead,
}


def _generic(name, payload, saved_at):
    speedup = payload.get("speedup")
    if speedup is None:
        return []
    return [_row(name, "(no extractor — top-level speedup)", "—", "—",
                 speedup, saved_at)]


# ----------------------------------------------------------------------
# collation
# ----------------------------------------------------------------------
def collect_rows(results_dir: pathlib.Path = RESULTS_DIR
                 ) -> List[Dict[str, str]]:
    entries = []
    for path in sorted(results_dir.glob("bench_*.json")):
        data = json.loads(path.read_text())
        name = data.get("name", path.stem)
        saved_at = data.get("saved_at", "")
        payload = data.get("payload", {})
        extractor = EXTRACTORS.get(name, _generic)
        for row in extractor(name, payload, saved_at):
            entries.append((saved_at, name, row))
    # chronological: the table reads as the optimisation trajectory
    entries.sort(key=lambda e: (e[0], e[1]))
    return [row for _, _, row in entries]


def build_table(rows: List[Dict[str, str]]) -> str:
    if not rows:
        return ("_No recorded benchmark results — run `make bench` to "
                "populate `benchmarks/results/`._")
    lines = ["| " + " | ".join(COLUMNS) + " |",
             "|" + "|".join("---" for _ in COLUMNS) + "|"]
    lines += ["| " + " | ".join(str(row[c]) for c in COLUMNS) + " |"
              for row in rows]
    return "\n".join(lines)


def render_section(results_dir: pathlib.Path = RESULTS_DIR) -> str:
    table = build_table(collect_rows(results_dir))
    return (f"{BEGIN}\n"
            "_Generated by `make bench-summary` from "
            "`benchmarks/results/bench_*.json` — do not edit by hand._\n\n"
            f"{table}\n"
            f"{END}")


def embed(doc_path: pathlib.Path = DOC_PATH,
          results_dir: pathlib.Path = RESULTS_DIR,
          check: bool = False) -> bool:
    """Splice the generated section into *doc_path* between the markers.

    Returns True when the doc already matched (or was updated); with
    *check* the doc is left untouched and a stale doc returns False.
    """
    text = doc_path.read_text()
    begin, end = text.find(BEGIN), text.find(END)
    if begin < 0 or end < 0 or end < begin:
        raise SystemExit(f"{doc_path}: bench-summary markers missing "
                         f"({BEGIN!r} ... {END!r})")
    section = render_section(results_dir)
    updated = text[:begin] + section + text[end + len(END):]
    if updated == text:
        return True
    if check:
        return False
    doc_path.write_text(updated)
    return True


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=pathlib.Path,
                        default=RESULTS_DIR,
                        help="results directory (default: %(default)s)")
    parser.add_argument("--doc", type=pathlib.Path, default=DOC_PATH,
                        help="target document (default: %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="verify the doc is current; exit 1 if stale")
    args = parser.parse_args(argv)
    rows = collect_rows(args.results)
    print(build_table(rows))
    if embed(args.doc, args.results, check=args.check):
        print(f"\n{args.doc}: up to date" if args.check
              else f"\n{args.doc}: updated ({len(rows)} rows)")
        return 0
    print(f"\n{args.doc}: STALE — run `make bench-summary`",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
