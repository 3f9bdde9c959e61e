"""Tests for the parallel execution layer and the artifact cache.

The contract under test is the tentpole one: parallel fan-out and the
persistent cache are pure accelerators — every path (serial, jobs>1,
cache hit) yields bit-for-bit identical campaign results.
"""

import pathlib
import re

import pytest

from repro.harness import cache as cache_module
from repro.harness.cache import ArtifactCache, code_version_salt
from repro.harness.experiment import ExperimentConfig, ExperimentContext
from repro.faults.model import FaultRecord, FaultSite
from repro.harness.parallel import align_chunk_bounds, chunk_bounds
from repro.obs import MetricsRegistry

_TINY = ExperimentConfig(benchmarks=("mcf",), dynamic_target=3_000,
                         num_faults=10, warmup_commits=200,
                         window_commits=100)


# ----------------------------------------------------------------------
# artifact cache
# ----------------------------------------------------------------------
class TestArtifactCache:
    def test_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key("fault_free", benchmark="mcf", scheme="faulthound")
        assert cache.get("fault_free", key) is None
        assert cache.put("fault_free", key, {"cycles": 123})
        assert cache.get("fault_free", key) == {"cycles": 123}
        assert cache.entry_count() == 1

    def test_keys_are_stable_and_distinct(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cfg = ExperimentConfig()
        a = cache.key("coverage", cfg=cfg, benchmark="mcf", scheme="pbfs")
        b = cache.key("coverage", cfg=cfg, benchmark="mcf", scheme="pbfs")
        assert a == b
        assert a != cache.key("coverage", cfg=cfg, benchmark="bzip2",
                              scheme="pbfs")
        assert a != cache.key("characterize", cfg=cfg, benchmark="mcf",
                              scheme="pbfs")
        assert a != cache.key("coverage", cfg=cfg.quick(), benchmark="mcf",
                              scheme="pbfs")

    def test_float_parts_keep_full_precision(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        a = cache.key("srt", benchmark="mcf", coverage=0.7501)
        b = cache.key("srt", benchmark="mcf", coverage=0.7504)
        assert a != b

    def test_salt_override_changes_keys(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)
        baseline = code_version_salt()
        monkeypatch.setenv("REPRO_CACHE_SALT", "deadbeef")
        monkeypatch.setattr(cache_module, "_SALT", None)
        assert code_version_salt() == "deadbeef"
        key_a = cache.key("fault_free", benchmark="mcf")
        monkeypatch.setattr(cache_module, "_SALT", baseline)
        key_b = cache.key("fault_free", benchmark="mcf")
        assert key_a != key_b

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        registry = MetricsRegistry()
        key = cache.key("srt", benchmark="mcf")
        cache.put("srt", key, [1, 2, 3])
        path = tmp_path / "srt" / f"{key}.pkl"
        path.write_bytes(b"not a pickle")
        assert cache.get("srt", key, registry) is None
        assert not path.exists()       # dropped so the rewrite starts clean
        counters = registry.snapshot()["counters"]
        assert counters["cache_corrupt_total"] == 1

    def test_verify_quarantines_corrupt_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        good_key = cache.key("srt", benchmark="mcf")
        cache.put("srt", good_key, [1, 2, 3])
        bad_key = cache.key("coverage", benchmark="mcf")
        cache.put("coverage", bad_key, {"x": 1})
        (tmp_path / "coverage" / f"{bad_key}.pkl").write_bytes(b"garbage")
        report = cache.verify()
        assert report["checked"] == 2
        assert report["ok"] == 1
        assert report["corrupt"] == 1
        assert report["quarantined"] == 1
        assert report["entries"][0]["key"] == bad_key
        assert report["entries"][0]["action"] == "quarantined"
        # the corrupt entry moved aside: lookups miss, good entry intact
        assert cache.get("coverage", bad_key) is None
        assert cache.get("srt", good_key) == [1, 2, 3]
        assert (tmp_path / "quarantine" / "coverage"
                / f"{bad_key}.pkl.corrupt").exists()
        # quarantined files no longer count as entries, re-verify is clean
        assert cache.entry_count() == 1
        assert cache.verify()["corrupt"] == 0

    def test_verify_can_drop_instead_of_quarantine(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key("srt", benchmark="mcf")
        cache.put("srt", key, [1])
        path = tmp_path / "srt" / f"{key}.pkl"
        path.write_bytes(b"garbage")
        report = cache.verify(quarantine=False)
        assert report["corrupt"] == 1 and report["quarantined"] == 0
        assert report["entries"][0]["action"] == "dropped"
        assert not path.exists()

    def test_clear_removes_everything(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for kind in ("fault_free", "coverage"):
            cache.put(kind, cache.key(kind, benchmark="mcf"), kind)
        assert cache.entry_count() == 2
        assert cache.clear() == 2
        assert cache.entry_count() == 0


# ----------------------------------------------------------------------
# fan-out plumbing
# ----------------------------------------------------------------------
class TestChunkBounds:
    @pytest.mark.parametrize("count,chunks", [
        (0, 4), (1, 4), (7, 3), (12, 4), (5, 5), (5, 9), (100, 7)])
    def test_partition_covers_range_exactly(self, count, chunks):
        bounds = chunk_bounds(count, chunks)
        covered = [i for lo, hi in bounds for i in range(lo, hi)]
        assert covered == list(range(count))
        assert len(bounds) <= max(1, chunks)

    def test_chunks_are_balanced(self):
        sizes = [hi - lo for lo, hi in chunk_bounds(10, 4)]
        assert max(sizes) - min(sizes) <= 1


class TestClassifierContract:
    def test_unsorted_records_are_rejected(self):
        ctx = ExperimentContext(_TINY, jobs=1)
        campaign = ctx.build_campaign("mcf")
        classifier = campaign.classifier(campaign.baseline_factory)
        backwards = list(reversed(campaign.records))
        with pytest.raises(ValueError, match="never rewinds"):
            classifier.run(backwards)


# ----------------------------------------------------------------------
# chunk alignment: windows never split
# ----------------------------------------------------------------------
def _plan(commits):
    return [FaultRecord(index=i, site=FaultSite.REGFILE,
                        inject_at_commit=commit, bit=0, reg=1)
            for i, commit in enumerate(commits)]


class TestAlignChunkBounds:
    def test_empty_bounds(self):
        assert align_chunk_bounds([], []) == []

    def test_distinct_plans_pass_through_unchanged(self):
        records = _plan([10, 20, 30, 40, 50, 60, 70])
        bounds = chunk_bounds(len(records), 3)
        assert align_chunk_bounds(bounds, records) == bounds

    def test_cut_inside_window_snaps_down(self):
        records = _plan([10, 20, 20, 30])
        assert align_chunk_bounds([(0, 2), (2, 4)], records) \
            == [(0, 1), (1, 4)]

    def test_cut_on_window_start_stays_put(self):
        records = _plan([10, 10, 20, 20, 30])
        bounds = [(0, 2), (2, 4), (4, 5)]
        assert align_chunk_bounds(bounds, records) == bounds

    def test_collapsed_cut_drops_empty_chunk(self):
        records = _plan([10, 10, 10, 20])
        assert align_chunk_bounds([(0, 2), (2, 4)], records) == [(0, 4)]

    def test_cuts_only_move_within_their_run(self):
        # Non-contiguous runs (the supervisor's gap list): the cut at 7
        # snaps inside its own run; the gap [3, 5) is never re-entered.
        records = _plan([10, 20, 30, 40, 50, 60, 70, 70, 80])
        got = align_chunk_bounds([(0, 1), (1, 3), (5, 7), (7, 9)],
                                 records)
        assert got == [(0, 1), (1, 3), (5, 6), (6, 9)]

    def test_coverage_is_preserved(self):
        records = _plan([10, 10, 20, 20, 20, 30, 40, 40])
        bounds = chunk_bounds(len(records), 4)
        aligned = align_chunk_bounds(bounds, records)
        indices = [i for lo, hi in aligned for i in range(lo, hi)]
        assert indices == list(range(len(records)))
        for lo, hi in aligned:
            assert lo < hi
            if lo > 0:      # no window straddles a chunk edge
                assert (records[lo].inject_at_commit
                        != records[lo - 1].inject_at_commit)


# ----------------------------------------------------------------------
# srt cache-key regression (distinct coverages must not alias)
# ----------------------------------------------------------------------
class TestSrtKey:
    def test_key_derivation_includes_benchmark_and_precision(self):
        key = ExperimentContext._srt_key
        assert key("mcf", 0.75) != key("bzip2", 0.75)
        assert key("mcf", 0.7501) != key("mcf", 0.7504)

    def test_close_coverages_get_independent_runs(self):
        ctx = ExperimentContext(_TINY, jobs=1)
        run_a = ctx.srt_run("mcf", 0.7501)
        run_b = ctx.srt_run("mcf", 0.7504)
        assert len(ctx._srt) == 2      # the old round(3) key aliased these
        assert run_a is ctx.srt_run("mcf", 0.7501)
        assert run_b is ctx.srt_run("mcf", 0.7504)


# ----------------------------------------------------------------------
# end-to-end equivalence: serial == parallel == cache hit
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serial_results():
    # the unchunked Campaign reference, outside the supervisor
    ctx = ExperimentContext(_TINY, jobs=1)
    campaign = ctx.build_campaign("mcf")
    characterization = campaign.characterize()
    coverage = campaign.run_coverage(
        "faulthound", lambda: ctx.make_core("mcf", "faulthound"),
        characterization)
    return characterization, coverage


class TestParallelEquivalence:
    def test_parallel_campaign_is_bitwise_identical(self, serial_results):
        serial_char, serial_cov = serial_results
        ctx = ExperimentContext(_TINY, jobs=2)
        _, par_char = ctx.campaign("mcf")
        par_cov = ctx.coverage("mcf", "faulthound")
        assert par_char.characterization == serial_char.characterization
        assert par_char.records == serial_char.records
        assert par_cov.coverage_results == serial_cov.coverage_results
        assert par_cov.outcomes == serial_cov.outcomes
        assert par_cov.coverage == serial_cov.coverage

    def test_warm_cache_is_bitwise_identical(self, serial_results, tmp_path):
        serial_char, serial_cov = serial_results
        cache = ArtifactCache(tmp_path)
        cold = ExperimentContext(_TINY, jobs=1, cache=cache)
        cold.campaign("mcf")
        cold.coverage("mcf", "faulthound")
        assert cold.metrics.cache_misses > 0

        warm = ExperimentContext(_TINY, jobs=1, cache=cache)
        _, warm_char = warm.campaign("mcf")
        warm_cov = warm.coverage("mcf", "faulthound")
        assert warm.metrics.cache_hits > 0
        assert warm.metrics.cache_misses == 0
        # both phases came from the cache: the context classified none
        assert warm.metrics.windows == 0
        assert warm.metrics_registry.snapshot()["counters"].get(
            "classifier_windows_total", 0) == 0
        assert warm_char.characterization == serial_char.characterization
        assert warm_cov.coverage_results == serial_cov.coverage_results
        assert warm_cov.outcomes == serial_cov.outcomes

    def test_fault_free_round_trips_through_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cold = ExperimentContext(_TINY, jobs=1, cache=cache)
        run_cold = cold.fault_free("mcf", "baseline")
        warm = ExperimentContext(_TINY, jobs=1, cache=cache)
        run_warm = warm.fault_free("mcf", "baseline")
        assert run_warm == run_cold
        assert warm.metrics.cache_hits == 1


class TestRunSummary:
    def test_prefetch_counts_every_classified_window(self):
        """Phases adopted from prefetch workers count their windows once,
        exactly like phases classified in the parent."""
        # a geometry whose plan yields SDCs, so coverage classifies too
        cfg = ExperimentConfig(benchmarks=("mcf",), dynamic_target=2_200,
                               num_faults=10, warmup_commits=400,
                               window_commits=150)
        ctx = ExperimentContext(cfg, jobs=2)
        ctx.prefetch(campaigns=True, coverage=("faulthound",))
        _, characterization = ctx.campaign("mcf")
        coverage = ctx.coverage("mcf", "faulthound")
        assert len(coverage.coverage_results) > 0
        assert ctx.metrics.windows == (len(characterization.characterization)
                                       + len(coverage.coverage_results))

    @pytest.mark.parametrize("jobs, cold, warm", [
        (1, "cache 0 hits / 4 misses | 24 windows (T/s)"
            " | characterize=Ts coverage=Ts",
         "cache 4 hits / 0 misses | 0 windows (T/s)"
         " | characterize=Ts coverage=Ts"),
        (2, "cache 0 hits / 4 misses | 24 windows (T/s)"
            " | prefetch:characterize=Ts prefetch:coverage=Ts",
         "cache 4 hits / 0 misses | 0 windows (T/s) | no phases timed"),
    ])
    def test_summary_line(self, jobs, cold, warm, tmp_path):
        """The stderr summary line's counts, seconds masked: artefact
        cache gets only (each phase's checkpoint traffic excluded), and
        windows materialised here, not loaded from the cache."""
        cfg = ExperimentConfig(benchmarks=("mcf", "bzip2"),
                               dynamic_target=2_200, num_faults=10,
                               warmup_commits=400, window_commits=150)
        cache = ArtifactCache(tmp_path)

        def summary():
            ctx = ExperimentContext(cfg, jobs=jobs, cache=cache)
            ctx.prefetch(campaigns=True, coverage=("faulthound",))
            for benchmark in cfg.benchmarks:
                ctx.coverage(benchmark, "faulthound")
            return re.sub(r"\d+\.\d+", "T", ctx.metrics.summary())

        assert summary() == cold
        assert summary() == warm
