"""Simulated timing pinned against a fixed reference.

The differential and fast-forward suites compare architectural state, or
two paths through the same code; neither would notice a change to the
core that shifts *when* things happen while every path still agrees.
This suite pins the cycle-level outcome of small fault-free runs — the
same kind of run behind Figs 9-10 and SRT-iso — for every headline
scheme on two benchmarks, so any host-side rewrite of the pipeline must
reproduce them exactly.

``tests/data/timing_pin.json`` holds the reference. Regenerate it (only
for an intended change to simulated timing, recorded in CHANGES.md)
with::

    PYTHONPATH=src python tests/test_timing_pin.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.harness.experiment import scheme_unit
from repro.pipeline import PipelineCore
from repro.redundancy import dynamic_length, srt_iso_core
from repro.workloads import PROFILES, build_smt_programs

DATA = pathlib.Path(__file__).parent / "data" / "timing_pin.json"

BENCHMARKS = ("mcf", "apache")
SCHEMES = ("baseline", "pbfs", "pbfs-biased", "fh-backend", "faulthound",
           "srt-iso")
DYNAMIC_TARGET = 600
WARMUP_COMMITS = 150
SRT_COVERAGE = 0.75
#: Pipeline event counters outside ``summary()`` that the stages bump.
EVENT_COUNTERS = ("fetched", "dispatched", "issued", "completed",
                  "squashed", "committed_loads", "committed_stores",
                  "forwarded_loads", "branch_squashed_ops")


def _run(benchmark: str, scheme: str) -> PipelineCore:
    programs = build_smt_programs(PROFILES[benchmark], DYNAMIC_TARGET)
    if scheme == "srt-iso":
        core = srt_iso_core(programs, coverage=SRT_COVERAGE,
                            lengths=[dynamic_length(p) for p in programs])
    else:
        core = PipelineCore(programs, screening=scheme_unit(scheme))
        # the fault-free driver's shape: a warm-up, then run to the end
        core.run_until_commits(WARMUP_COMMITS * len(core.threads))
    core.run(max_cycles=2_000_000)
    return core


def measure(benchmark: str, scheme: str) -> dict:
    core = _run(benchmark, scheme)
    stats = core.stats
    triggers = ",".join(map(str, core.screen_trigger_cycles))
    return {
        "cycle": core.cycle,
        "cycles_elided": core.cycles_elided,
        "summary": stats.summary(),
        "events": {name: getattr(stats, name) for name in EVENT_COUNTERS},
        "triggers": len(core.screen_trigger_cycles),
        "trigger_sha256": hashlib.sha256(triggers.encode()).hexdigest(),
    }


def _key(benchmark: str, scheme: str) -> str:
    return f"{benchmark}/{scheme}"


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("profile", BENCHMARKS)
def test_timing_matches_reference(reference, profile, scheme):
    assert measure(profile, scheme) == reference[_key(profile, scheme)]


def test_reference_covers_every_run(reference):
    assert sorted(reference) == sorted(
        _key(b, s) for b in BENCHMARKS for s in SCHEMES)


if __name__ == "__main__":
    DATA.write_text(json.dumps(
        {_key(b, s): measure(b, s) for b in BENCHMARKS for s in SCHEMES},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
