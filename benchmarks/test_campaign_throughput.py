"""Campaign-throughput benches: the parallel execution layer must be
faster than serial where cores allow, and *identical* always.

These time a small characterisation + coverage campaign serially and
with a 2-worker pool, and assert the two produce bit-for-bit equal
results (the tentpole contract: workers re-derive state from explicit
seeds, so fan-out is pure mechanism, never policy). A separate bench
times the warm-cache path, which should be near-instant regardless of
scale.

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


def test_campaign_parallel_matches_serial(benchmark):
    _, serial_char, serial_cov = _campaign_results(jobs=1)
    _, par_char, par_cov = benchmark.pedantic(
        lambda: _campaign_results(jobs=2), rounds=1, iterations=1)
    # bit-for-bit: same windows, same outcomes, same coverage number
    assert par_char.characterization == serial_char.characterization
    assert par_cov.coverage_results == serial_cov.coverage_results
    assert par_cov.outcomes == serial_cov.outcomes
    assert par_cov.coverage == serial_cov.coverage


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
    """The resilient supervisor (retry/watchdog/quarantine bookkeeping,
    fsync'd journal) must cost <= 3% on a fault-free campaign.

    Measured against the unchunked ``Campaign.characterize`` /
    ``run_coverage`` reference on the serial dispatch path — identical
    simulation work on both sides, so the delta is exactly the
    supervisor's bookkeeping — with best-of-3 wall times to shed
    scheduler noise. The supervised
    pool path is timed too and recorded for reference (it additionally
    pays per-phase pool construction, which amortises with campaign
    size and is not supervisor bookkeeping).
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

    def supervised_pool(run_root):
        sup = Supervisor(SupervisorPolicy(),
                         run_dir=pathlib.Path(run_root) / "run")
        ctx = ExperimentContext(_CFG, jobs=2, supervisor=sup)
        started = time.perf_counter()
        ctx.campaign("mcf")
        ctx.coverage("mcf", "faulthound")
        elapsed = time.perf_counter() - started
        sup.close()
        return elapsed

    rounds = 3
    plain = min(plain_serial() for _ in range(rounds))
    with tempfile.TemporaryDirectory() as tmp:
        supervised = min(
            supervised_serial(os.path.join(tmp, f"s{i}"))
            for i in range(rounds))
        pool = min(supervised_pool(os.path.join(tmp, f"p{i}"))
                   for i in range(rounds))

    overhead = supervised / plain - 1.0
    _RESULTS.save("bench_supervisor_overhead", {
        "plain_serial_s": round(plain, 3),
        "supervised_serial_s": round(supervised, 3),
        "supervised_pool_s": round(pool, 3),
        "serial_overhead_pct": round(100 * overhead, 2),
        "rounds": rounds,
    }, config=_CFG)
    assert overhead <= 0.03, f"supervisor overhead {overhead:.1%} > 3%"
