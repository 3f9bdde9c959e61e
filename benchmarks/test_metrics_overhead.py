"""Metrics-registry overhead benches.

The telemetry leg's contract is that instrumentation is pure
observation: with metrics *off* every instrumented call site costs one
attribute access on the NULL registry, and with metrics *on* the
fold-per-window bookkeeping stays within 1% of the campaign path's wall
clock. Both sides run identical simulation work, so the delta is
exactly the registry's cost. Each round pairs one run of each side back
to back and the bound applies to the median of the per-round ratios, so
a slow spell of a shared host cancels within its pair.
A micro-bench records the per-call cost of the NULL instruments — the
price every call site pays when nobody is watching.
"""

import pathlib
import time
from statistics import median

from repro.harness import ExperimentConfig, ExperimentContext
from repro.harness.store import ResultStore
from repro.obs import MetricsRegistry, NULL_METRICS

#: Same scale as the supervisor-overhead guard: small enough to run in
#: CI, big enough that per-window bookkeeping would show.
_CFG = ExperimentConfig(benchmarks=("mcf",), dynamic_target=4_000,
                        num_faults=16, warmup_commits=250,
                        window_commits=110)

_RESULTS = ResultStore(pathlib.Path(__file__).parent / "results")


def _campaign_seconds(metrics):
    ctx = ExperimentContext(_CFG, jobs=1, metrics=metrics)
    started = time.perf_counter()
    ctx.campaign("mcf")
    ctx.coverage("mcf", "faulthound")
    return time.perf_counter() - started


def _campaign_outcomes(metrics):
    ctx = ExperimentContext(_CFG, jobs=1, metrics=metrics)
    _, characterization = ctx.campaign("mcf")
    coverage = ctx.coverage("mcf", "faulthound")
    return characterization.characterization, coverage.outcomes


def test_metrics_overhead_is_negligible():
    """Campaign wall-clock with a live registry vs the NULL registry:
    the live side must stay within 1%, and the results bit-for-bit
    identical — observation, never perturbation."""
    rounds = 9
    off_times, on_times, ratios = [], [], []
    for i in range(rounds):
        # the side that runs first alternates from round to round
        if i % 2:
            on = _campaign_seconds(MetricsRegistry())
            off = _campaign_seconds(NULL_METRICS)
        else:
            off = _campaign_seconds(NULL_METRICS)
            on = _campaign_seconds(MetricsRegistry())
        off_times.append(off)
        on_times.append(on)
        ratios.append(on / off)
    overhead = median(ratios) - 1.0

    off_char, off_cov = _campaign_outcomes(NULL_METRICS)
    on_char, on_cov = _campaign_outcomes(MetricsRegistry())
    assert on_char == off_char
    assert on_cov == off_cov

    registry = MetricsRegistry()
    _campaign_seconds(registry)
    _RESULTS.save("bench_metrics_overhead", {
        "metrics_off_s": round(median(off_times), 3),
        "metrics_on_s": round(median(on_times), 3),
        "overhead_pct": round(100 * overhead, 2),
        "rounds": rounds,
        "method": "median of per-round on/off ratios",
        "instruments_populated": len(registry),
        "bit_for_bit": True,
    }, config=_CFG)
    assert overhead <= 0.01, f"metrics overhead {overhead:.1%} > 1%"


def test_null_registry_call_cost_is_nanoseconds():
    """The metrics-off fast path: one NULL counter inc per call site.
    Recorded so a regression (e.g. someone adding allocation to the
    NULL path) shows up as a number, not a hunch."""
    counter = NULL_METRICS.counter("anything")
    loops = 200_000
    started = time.perf_counter()
    for _ in range(loops):
        counter.inc()
    per_call_ns = (time.perf_counter() - started) / loops * 1e9
    _RESULTS.save("bench_null_metrics_call", {
        "per_call_ns": round(per_call_ns, 1),
        "loops": loops,
    }, config=_CFG)
    # generous ceiling: even a slow interpreter stays well under 5 us
    assert per_call_ns < 5_000
