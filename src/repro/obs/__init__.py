"""Structured observability: tracing, metrics, manifests, audit.

The subsystem has four legs (see docs/observability.md):

- :mod:`repro.obs.events` + :mod:`repro.obs.metrics` — typed JSONL
  event log with nested spans, safe to feed from process-pool workers,
  and the typed metrics registry threaded through the harness, whose
  snapshots ride that log as ``metrics`` events;
- :mod:`repro.obs.manifest` — provenance manifests written next to
  every cached artefact and figure;
- :mod:`repro.obs.audit` — one record per injected fault plus the
  recovery-mix and detection-latency aggregates;
- :mod:`repro.obs.profile` — opt-in cProfile and per-stage accounting.

Campaign progress is not an obs leg: the supervisor's journal is its
one record, folded by ``repro status``
(:func:`repro.harness.supervisor.summarize_run_dir`).
"""

from .audit import (FaultAuditRecord, aggregates_from_events,
                    audit_aggregates, audit_records,
                    detection_latency_histogram, recovery_mix)
from .events import (EventLog, NULL_LOG, NullEventLog, WORKER_DIR_ENV,
                     read_events, worker_task_span)
from .manifest import (RunManifest, build_manifest, config_digest,
                       load_manifest, manifest_path_for, verify_manifest,
                       write_manifest)
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      NULL_METRICS, NullMetricsRegistry,
                      drain_worker_metrics, snapshot_from_events,
                      to_prometheus, worker_metrics)
from .profile import format_stage_seconds, profiled
from .schema import check_spans, summarize_events, validate_event, \
    validate_events

__all__ = [
    "Counter",
    "EventLog",
    "FaultAuditRecord",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_LOG",
    "NULL_METRICS",
    "NullEventLog",
    "NullMetricsRegistry",
    "RunManifest",
    "WORKER_DIR_ENV",
    "aggregates_from_events",
    "audit_aggregates",
    "audit_records",
    "build_manifest",
    "check_spans",
    "config_digest",
    "detection_latency_histogram",
    "drain_worker_metrics",
    "format_stage_seconds",
    "load_manifest",
    "manifest_path_for",
    "profiled",
    "read_events",
    "recovery_mix",
    "snapshot_from_events",
    "summarize_events",
    "to_prometheus",
    "validate_event",
    "validate_events",
    "verify_manifest",
    "worker_metrics",
    "worker_task_span",
    "write_manifest",
]
