"""Metrics-registry tests: instrument semantics, snapshot/merge,
worker-side accumulation, Prometheus export, and the bit-for-bit
guarantee that instrumentation never perturbs campaign results."""

import json

import pytest

from repro.harness.experiment import ExperimentConfig, ExperimentContext
from repro.obs import (EventLog, MetricsRegistry, NULL_METRICS,
                       WORKER_DIR_ENV, drain_worker_metrics, read_events,
                       snapshot_from_events, to_prometheus, validate_events,
                       worker_metrics)
from repro.obs.metrics import (BYTES_BUCKETS, Histogram,
                               LATENCY_CYCLE_BUCKETS, SECONDS_BUCKETS,
                               _NULL_INSTRUMENT)

_TINY = ExperimentConfig(benchmarks=("mcf",), dynamic_target=3_000,
                         num_faults=8, warmup_commits=200,
                         window_commits=100)


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("windows_total")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5
        assert registry.counter("windows_total") is counter  # memoised

    def test_gauge_overwrites_and_incs(self):
        gauge = MetricsRegistry().gauge("workers")
        gauge.set(3)
        gauge.inc(-1)
        assert gauge.value() == 2

    def test_histogram_buckets_are_inclusive_upper_bounds(self):
        histogram = Histogram("latency", (16.0, 32.0, 64.0))
        for value in (0, 16, 17, 32, 100):
            histogram.observe(value)
        # counts are per-bucket: [<=16, <=32, <=64, overflow]
        assert histogram.counts == [2, 2, 0, 1]
        assert histogram.count == 5
        assert histogram.sum == 165

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("bad", (32.0, 16.0))
        with pytest.raises(ValueError, match="ascending"):
            Histogram("bad", ())

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("n")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("n")

    def test_histogram_bucket_schema_clash_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", SECONDS_BUCKETS)
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("h", BYTES_BUCKETS)

    def test_paper_latency_buckets_match_audit_geometry(self):
        # 8 buckets of 16 cycles, same shape as the audit histogram
        assert LATENCY_CYCLE_BUCKETS == tuple(
            16.0 * (i + 1) for i in range(8))


# ----------------------------------------------------------------------
# the NULL registry: metrics-off must cost one attribute access
# ----------------------------------------------------------------------
class TestNullRegistry:
    def test_null_registry_is_inert(self):
        assert NULL_METRICS.enabled is False
        assert len(NULL_METRICS) == 0
        counter = NULL_METRICS.counter("anything")
        counter.inc(99)
        assert counter.value() == 0.0
        NULL_METRICS.histogram("h", (1.0,)).observe(5)
        NULL_METRICS.gauge("g").set(7)
        assert NULL_METRICS.snapshot() == {"counters": {}, "gauges": {},
                                           "histograms": {}}

    def test_null_instruments_are_one_shared_singleton(self):
        assert NULL_METRICS.counter("a") is _NULL_INSTRUMENT
        assert NULL_METRICS.gauge("b") is _NULL_INSTRUMENT
        assert NULL_METRICS.histogram("c") is _NULL_INSTRUMENT

    def test_null_emit_writes_nothing(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        NULL_METRICS.emit(log)
        log.close()
        assert not any(e["type"] == "metrics"
                       for e in read_events(log.path))


# ----------------------------------------------------------------------
# snapshot / merge / emit
# ----------------------------------------------------------------------
class TestSnapshotMerge:
    def test_snapshot_shape_and_order(self):
        registry = MetricsRegistry()
        registry.counter("b_total").inc(2)
        registry.counter("a_total").inc(1)
        registry.gauge("depth").set(4)
        registry.histogram("lat", (16.0, 32.0)).observe(20)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["counters", "gauges", "histograms"]
        assert list(snapshot["counters"]) == ["a_total", "b_total"]
        assert snapshot["gauges"] == {"depth": 4}
        assert snapshot["histograms"]["lat"] == {
            "buckets": [16.0, 32.0], "counts": [0, 1, 0],
            "sum": 20, "count": 1}
        json.dumps(snapshot)    # must be JSON-safe

    def test_merge_adds_counters_and_histogram_cells(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry, amount in ((a, 2), (b, 3)):
            registry.counter("n_total").inc(amount)
            registry.gauge("depth").set(amount)
            registry.histogram("lat", (16.0,)).observe(amount)
        a.merge(b.snapshot())
        merged = a.snapshot()
        assert merged["counters"]["n_total"] == 5
        assert merged["gauges"]["depth"] == 3          # last writer wins
        assert merged["histograms"]["lat"]["counts"] == [2, 0]
        assert merged["histograms"]["lat"]["count"] == 2

    def test_merge_rejects_mismatched_histogram_schema(self):
        a = MetricsRegistry()
        a.histogram("lat", (16.0, 32.0))
        with pytest.raises(ValueError, match="mismatched"):
            a.merge({"histograms": {"lat": {"buckets": [16.0, 32.0],
                                            "counts": [1, 1],
                                            "sum": 1, "count": 2}}})

    def test_emit_writes_one_schema_valid_event(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        registry = MetricsRegistry()
        registry.counter("n_total").inc()
        registry.emit(log)
        log.close()
        events = read_events(log.path)
        assert validate_events(events) == []
        metrics_events = [e for e in events if e["type"] == "metrics"]
        assert len(metrics_events) == 1
        assert metrics_events[0]["scope"] == "session"
        assert metrics_events[0]["snapshot"]["counters"]["n_total"] == 1

    def test_empty_registry_emits_nothing(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        MetricsRegistry().emit(log)
        log.close()
        assert not any(e["type"] == "metrics"
                       for e in read_events(log.path))

    def test_snapshot_from_events_merges_all_metrics_events(self):
        events = [
            {"type": "metrics",
             "snapshot": {"counters": {"n_total": 2}}},
            {"type": "other"},
            {"type": "metrics",
             "snapshot": {"counters": {"n_total": 3},
                          "gauges": {"depth": 1}}},
        ]
        merged = snapshot_from_events(events)
        assert merged["counters"]["n_total"] == 5
        assert merged["gauges"]["depth"] == 1


# ----------------------------------------------------------------------
# worker-side accumulation
# ----------------------------------------------------------------------
class TestWorkerMetrics:
    def test_worker_registry_dead_without_spool_env(self, monkeypatch):
        monkeypatch.delenv(WORKER_DIR_ENV, raising=False)
        assert worker_metrics() is NULL_METRICS
        assert drain_worker_metrics() is None

    def test_worker_registry_live_with_spool_env(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv(WORKER_DIR_ENV, str(tmp_path))
        registry = worker_metrics()
        assert registry.enabled
        registry.counter("windows_total").inc(3)
        snapshot = drain_worker_metrics()
        assert snapshot["counters"]["windows_total"] == 3
        assert drain_worker_metrics() is None   # drained clean

    def test_parallel_campaign_drains_worker_snapshots(self, tmp_path):
        """Pool workers spool their registries through worker_task_span;
        the parent log ends up carrying mergeable worker snapshots."""
        log = EventLog(tmp_path / "events.jsonl")
        registry = MetricsRegistry()
        ctx = ExperimentContext(_TINY, jobs=2, events=log,
                                metrics=registry)
        ctx.campaign("mcf")
        registry.emit(log)
        log.close()
        events = read_events(log.path)
        assert validate_events(events) == []
        merged = snapshot_from_events(events)
        assert (merged["counters"]["classifier_windows_total"]
                == _TINY.num_faults)

    def test_prefetch_workers_count_like_the_serial_run(self, tmp_path):
        """Campaigns that prefetch workers classify in their private
        contexts reach the event log's merged snapshot with the same
        classifier and supervisor window counts as a serial run — also
        when a fan-out has one task, which runs in the parent."""
        def merged(cfg, jobs):
            log = EventLog(tmp_path / f"events-{len(cfg.benchmarks)}-"
                                      f"{jobs}.jsonl")
            ctx = ExperimentContext(cfg, jobs=jobs, events=log,
                                    metrics=MetricsRegistry())
            ctx.prefetch(campaigns=True, coverage=("faulthound",))
            for benchmark in cfg.benchmarks:
                ctx.coverage(benchmark, "faulthound")
            ctx.metrics_registry.emit(log)
            log.close()
            return snapshot_from_events(read_events(log.path))["counters"]

        for benchmarks in (("mcf", "bzip2"), ("mcf",)):
            cfg = ExperimentConfig(benchmarks=benchmarks,
                                   dynamic_target=2_200, num_faults=10,
                                   warmup_commits=400, window_commits=150)
            serial, parallel = merged(cfg, 1), merged(cfg, 2)
            for name in ("classifier_windows_total",
                         "supervisor_windows_done_total"):
                assert parallel.get(name) == serial[name] > 0, (
                    benchmarks, name)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_counter_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("n_total").inc(2)
        registry.gauge("depth").set(1.5)
        text = to_prometheus(registry.snapshot())
        assert "# TYPE repro_n_total counter\nrepro_n_total 2\n" in text
        assert "# TYPE repro_depth gauge\nrepro_depth 1.5\n" in text

    def test_histogram_becomes_cumulative_le_form(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", (16.0, 32.0))
        for value in (10, 20, 100):
            histogram.observe(value)
        lines = to_prometheus(registry.snapshot()).splitlines()
        assert 'repro_lat_bucket{le="16"} 1' in lines
        assert 'repro_lat_bucket{le="32"} 2' in lines
        assert 'repro_lat_bucket{le="+Inf"} 3' in lines
        assert "repro_lat_sum 130" in lines
        assert "repro_lat_count 3" in lines

    def test_names_are_sanitized(self):
        text = to_prometheus({"counters": {"stage mem-ops": 1}},
                             namespace="x")
        assert "x_stage_mem_ops 1" in text

    def test_empty_snapshot_is_empty_string(self):
        assert to_prometheus({"counters": {}, "gauges": {},
                              "histograms": {}}) == ""


# ----------------------------------------------------------------------
# the contract the whole leg hangs on: metrics never change results
# ----------------------------------------------------------------------
class TestBitForBit:
    def test_campaign_identical_with_metrics_on_and_off(self):
        def outcomes(metrics):
            ctx = ExperimentContext(_TINY, jobs=1, metrics=metrics)
            _, characterization = ctx.campaign("mcf")
            coverage = ctx.coverage("mcf", "faulthound")
            return ([(r.record.index, r.fault_class, r.detection_latency)
                     for r in characterization.characterization],
                    sorted((i, o.value)
                           for i, o in coverage.outcomes.items()))

        plain = outcomes(NULL_METRICS)         # metrics off
        instrumented = outcomes(MetricsRegistry())
        assert plain == instrumented
