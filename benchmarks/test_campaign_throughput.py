"""Campaign-throughput benches.

These time a small characterisation + coverage campaign cold and from a
warm artifact cache (which should be near-instant regardless of scale),
and the resilient supervisor's bookkeeping against the unchunked
``Campaign`` reference.

``test_clone_vs_deepcopy`` times the purpose-built ``clone()`` against
``copy.deepcopy`` on a warm core and records both into
``benchmarks/results``.
"""

import copy
import os
import pathlib
import tempfile
import time

from repro.harness import ArtifactCache, ExperimentConfig, ExperimentContext
from repro.harness.store import ResultStore

#: One small benchmark keeps this a guard, not a soak test.
_CFG = ExperimentConfig(benchmarks=("mcf",), dynamic_target=4_000,
                        num_faults=16, warmup_commits=250,
                        window_commits=110)

_RESULTS = ResultStore(pathlib.Path(__file__).parent / "results")


def _campaign_results(jobs, cache=None):
    ctx = ExperimentContext(_CFG, jobs=jobs, cache=cache)
    _, characterization = ctx.campaign("mcf")
    coverage = ctx.coverage("mcf", "faulthound")
    return ctx, characterization, coverage


def test_campaign_serial_throughput(benchmark):
    ctx, characterization, _ = benchmark.pedantic(
        lambda: _campaign_results(jobs=1), rounds=1, iterations=1)
    summary = ctx.metrics
    assert summary.windows >= len(characterization.characterization) > 0
    assert summary.phase_seconds["characterize"] > 0


def test_campaign_warm_cache_throughput(benchmark):
    with tempfile.TemporaryDirectory() as tmp:
        cache = ArtifactCache(pathlib.Path(tmp))
        _, cold_char, cold_cov = _campaign_results(jobs=1, cache=cache)

        ctx, warm_char, warm_cov = benchmark.pedantic(
            lambda: _campaign_results(jobs=1, cache=cache),
            rounds=1, iterations=1)
        assert ctx.metrics.cache_hits > 0
        assert ctx.metrics.cache_misses == 0
        assert ctx.metrics.windows == 0     # every phase from the cache
        assert warm_char.characterization == cold_char.characterization
        assert warm_cov.outcomes == cold_cov.outcomes


# ----------------------------------------------------------------------
# checkpoint/restore benches
# ----------------------------------------------------------------------
def test_clone_vs_deepcopy():
    """The purpose-built clone() against generic deepcopy on a warm,
    mid-flight FaultHound core — the per-window fork the tandem
    classifier pays for every fault."""
    ctx = ExperimentContext(_CFG, jobs=1)
    core = ctx.make_core("mcf", "faulthound")
    core.run_until_commits(400)

    loops = 20
    started = time.perf_counter()
    for _ in range(loops):
        copy.deepcopy(core)
    deepcopy_seconds = (time.perf_counter() - started) / loops

    started = time.perf_counter()
    for _ in range(loops):
        core.clone()
    clone_seconds = (time.perf_counter() - started) / loops

    speedup = deepcopy_seconds / clone_seconds
    _RESULTS.save("bench_clone_vs_deepcopy", {
        "deepcopy_ms": round(deepcopy_seconds * 1e3, 3),
        "clone_ms": round(clone_seconds * 1e3, 3),
        "speedup": round(speedup, 2),
    }, config=_CFG)
    # the fork must be both equivalent and no slower than deepcopy
    assert core.clone().arch_snapshot() == copy.deepcopy(core).arch_snapshot()
    assert speedup > 1.0


# ----------------------------------------------------------------------
# supervisor overhead
# ----------------------------------------------------------------------
def test_supervisor_overhead_is_negligible():
    """The resilient supervisor (retry/quarantine bookkeeping, fsync'd
    journal) must cost <= 3% on a fault-free campaign.

    Measured against the unchunked ``Campaign.characterize`` /
    ``run_coverage`` reference — identical simulation work on both
    sides, so the delta is exactly the supervisor's bookkeeping. The
    two sides alternate, round by round, so a slow spell of a shared
    host lands on both, and each keeps its best of ten wall times to
    shed scheduler noise.
    """
    from repro.harness import Supervisor, SupervisorPolicy

    def plain_serial():
        ctx = ExperimentContext(_CFG, jobs=1)
        started = time.perf_counter()
        campaign = ctx.build_campaign("mcf")
        characterization = campaign.characterize()
        campaign.run_coverage("faulthound",
                              lambda: ctx.make_core("mcf", "faulthound"),
                              characterization)
        return time.perf_counter() - started

    def supervised_serial(run_root):
        sup = Supervisor(SupervisorPolicy(),
                         run_dir=pathlib.Path(run_root) / "run")
        ctx = ExperimentContext(_CFG, jobs=1, supervisor=sup)
        started = time.perf_counter()
        ctx.campaign("mcf")
        ctx.coverage("mcf", "faulthound")
        elapsed = time.perf_counter() - started
        sup.close()
        assert sup.status == "complete"
        return elapsed

    rounds = 10
    plain_times, supervised_times = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(rounds):
            plain_times.append(plain_serial())
            supervised_times.append(
                supervised_serial(os.path.join(tmp, f"s{i}")))
    plain, supervised = min(plain_times), min(supervised_times)

    overhead = supervised / plain - 1.0
    _RESULTS.save("bench_supervisor_overhead", {
        "plain_serial_s": round(plain, 3),
        "supervised_serial_s": round(supervised, 3),
        "serial_overhead_pct": round(100 * overhead, 2),
        "rounds": rounds,
    }, config=_CFG)
    assert overhead <= 0.03, f"supervisor overhead {overhead:.1%} > 3%"
