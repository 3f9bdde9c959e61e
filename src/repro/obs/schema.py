"""The event-log field contract and its validator.

The schema is deliberately plain data — a dict of required/optional
field types per event type — validated with stock Python so the CI
smoke job needs no external JSON-schema dependency. Two layers:

- **field validation** (:func:`validate_event`): every event carries the
  common envelope (``ts``/``type``/``pid``) plus its type's required
  fields with the right primitive types;
- **structural validation** (:func:`check_spans`): ``span_start`` /
  ``span_end`` pair up per span id, and within one process they close
  in LIFO order (proper nesting), even after worker spools have been
  merged into the main log.

:func:`validate_events` runs both over a parsed log and returns a flat
list of human-readable errors (empty means schema-valid).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

_NUMBER = (int, float)

#: Required fields (name → allowed types) per event type, beyond the
#: common ``ts``/``type``/``pid`` envelope.
REQUIRED_FIELDS: Dict[str, Dict[str, tuple]] = {
    "run_start": {"run": (str,), "schema": (int,)},
    "run_end": {"run": (str,)},
    "span_start": {"span": (str,), "name": (str,), "attrs": (dict,)},
    "span_end": {"span": (str,), "name": (str,), "seconds": _NUMBER},
    # no longer written; kept so logs from before their removal validate
    "counter": {"name": (str,), "value": _NUMBER},
    "cache": {"kind": (str,), "key": (str,), "hit": (bool,)},
    "checkpoint": {"action": (str,), "window": (int,)},
    "worker_start": {},
    "worker_merge": {"worker_pid": (int,), "events": (int,)},
    "invariant": {"invariant": (str,), "cycle": (int,), "detail": (str,)},
    "fault_audit": {
        "benchmark": (str,), "scheme": (str,), "phase": (str,),
        "index": (int,), "site": (str,), "bit": (int,),
        "inject_at_commit": (int,), "applied": (bool,),
        "triggers": (int,), "replays": (int,), "rollbacks": (int,),
        "singletons": (int,), "suppressions": (int,), "declared": (int,),
        "recovery": (str,),
    },
    # the resilient campaign supervisor's lifecycle trail
    "supervisor": {"action": (str,)},
    # the harness deliberately reduced capability instead of aborting
    "degradation": {"reason": (str,)},
    # the artifact cache hit (and dropped or quarantined) an unreadable entry
    "cache_corrupt": {"kind": (str,)},
    # worker event spools left behind by dead workers, swept by the parent
    "orphan_spool": {"files": (int,)},
    # one folded metrics-registry snapshot (session close / worker drain)
    "metrics": {"snapshot": (dict,)},
    # no longer written; kept so logs from before their removal validate
    "heartbeat": {"phase": (str,), "running": (int,), "pending": (int,)},
    # synthesized by read_events for a torn final JSONL line
    "truncated_tail": {"line": (int,), "bytes": (int,)},
}

#: Optional fields that, when present, must have these types
#: (``None`` is always allowed for optional fields).
OPTIONAL_FIELDS: Dict[str, Dict[str, tuple]] = {
    "span_start": {"parent": (str,)},
    "counter": {"attrs": (dict,)},
    "checkpoint": {"benchmark": (str,), "scheme": (str,),
                   "bytes": (int,), "committed": (int,), "cycle": (int,)},
    "fault_audit": {"fault_class": (str,), "outcome": (str,),
                    "detection_latency": (int,),
                    "first_trigger_cycle": (int,),
                    "inject_cycle": (int,)},
    # emitted by the pipeline invariant sanitizer; seed/case identify the
    # fuzz program when `repro verify` is the driver
    "invariant": {"seed": (int,), "case": (str,)},
    "supervisor": {"phase": (str,), "benchmark": (str,), "scheme": (str,),
                   "lo": (int,), "hi": (int,), "attempt": (int,),
                   "reason": (str,), "error": (str,), "key": (str,),
                   "status": (str,), "chunks": (int,), "windows": (int,),
                   "resumed": (int,), "quarantined": (int,),
                   "pending": (int,), "running": (int,),
                   "executor": (str,)},
    "degradation": {"detail": (str,), "jobs_from": (int,),
                    "jobs_to": (int,), "phase": (str,)},
    "cache_corrupt": {"key": (str,), "path": (str,), "error": (str,),
                      "action": (str,)},
    "orphan_spool": {"action": (str,), "events": (int,)},
    "metrics": {"scope": (str,)},
    "heartbeat": {"benchmark": (str,), "scheme": (str,),
                  "workers": (list,), "windows_done": (int,),
                  "windows_total": (int,)},
}

#: The recovery labels a ``fault_audit`` event may carry.
RECOVERY_LABELS = ("rollback", "replay", "singleton", "suppress", "none")

#: The actions a ``checkpoint`` event may carry: the golden pass
#: captured a chunk-boundary checkpoint.
CHECKPOINT_ACTIONS = ("capture",
                      "hit")    # no longer written; kept for older logs

#: The lifecycle actions a ``supervisor`` event may carry.
SUPERVISOR_ACTIONS = ("plan", "chunk_done", "retry", "timeout",
                      "pool_rebuild", "bisect", "quarantine", "drain",
                      "phase_done")

#: What the cache did about a corrupt entry.
CACHE_CORRUPT_ACTIONS = ("dropped", "quarantined")

#: What the parent did about an orphaned worker spool file:
#: swept a stale one on open, deleted a leftover on close, or kept one
#: whose owning pid is still alive (a concurrent run's active worker).
ORPHAN_SPOOL_ACTIONS = ("swept_stale", "deleted", "kept_live")


def validate_event(event: Any, where: str = "event") -> List[str]:
    """Field-level errors for one parsed event (empty list = valid)."""
    if not isinstance(event, dict):
        return [f"{where}: not an object"]
    errors = []
    for field, types in (("ts", _NUMBER), ("type", (str,)), ("pid", (int,))):
        if field not in event:
            errors.append(f"{where}: missing common field {field!r}")
        elif not isinstance(event[field], types):
            errors.append(f"{where}: field {field!r} has type "
                          f"{type(event[field]).__name__}")
    event_type = event.get("type")
    if not isinstance(event_type, str):
        return errors
    if event_type not in REQUIRED_FIELDS:
        errors.append(f"{where}: unknown event type {event_type!r}")
        return errors
    for field, types in REQUIRED_FIELDS[event_type].items():
        if field not in event:
            errors.append(f"{where}: {event_type} missing field {field!r}")
        elif not isinstance(event[field], types):
            errors.append(f"{where}: {event_type}.{field} has type "
                          f"{type(event[field]).__name__}")
    for field, types in OPTIONAL_FIELDS.get(event_type, {}).items():
        value = event.get(field)
        if value is not None and field in event \
                and not isinstance(value, types):
            errors.append(f"{where}: {event_type}.{field} has type "
                          f"{type(value).__name__}")
    if (event_type == "fault_audit"
            and event.get("recovery") not in RECOVERY_LABELS):
        errors.append(f"{where}: fault_audit.recovery "
                      f"{event.get('recovery')!r} not in {RECOVERY_LABELS}")
    if (event_type == "checkpoint"
            and event.get("action") not in CHECKPOINT_ACTIONS):
        errors.append(f"{where}: checkpoint.action "
                      f"{event.get('action')!r} not in {CHECKPOINT_ACTIONS}")
    if (event_type == "supervisor"
            and event.get("action") not in SUPERVISOR_ACTIONS):
        errors.append(f"{where}: supervisor.action "
                      f"{event.get('action')!r} not in {SUPERVISOR_ACTIONS}")
    if (event_type == "cache_corrupt" and "action" in event
            and event.get("action") not in CACHE_CORRUPT_ACTIONS):
        errors.append(f"{where}: cache_corrupt.action "
                      f"{event.get('action')!r} not in "
                      f"{CACHE_CORRUPT_ACTIONS}")
    if (event_type == "orphan_spool" and "action" in event
            and event.get("action") not in ORPHAN_SPOOL_ACTIONS):
        errors.append(f"{where}: orphan_spool.action "
                      f"{event.get('action')!r} not in "
                      f"{ORPHAN_SPOOL_ACTIONS}")
    return errors


def check_spans(events: Iterable[dict]) -> List[str]:
    """Structural errors: unmatched or improperly nested spans.

    Nesting is checked per process id — after worker spools merge into
    the main log, each pid's spans must still close LIFO.
    """
    errors = []
    stacks: Dict[int, List[Tuple[str, str]]] = {}
    for event in events:
        event_type = event.get("type")
        pid = event.get("pid", -1)
        if event_type == "span_start":
            stacks.setdefault(pid, []).append(
                (event.get("span", "?"), event.get("name", "?")))
        elif event_type == "span_end":
            stack = stacks.setdefault(pid, [])
            span = event.get("span", "?")
            if not stack:
                errors.append(f"span_end {span} without open span "
                              f"(pid {pid})")
            elif stack[-1][0] != span:
                errors.append(f"span_end {span} closes out of order: "
                              f"top of pid-{pid} stack is {stack[-1][0]}")
                stack.pop()
            else:
                stack.pop()
    for pid, stack in stacks.items():
        for span, name in stack:
            errors.append(f"span {span} ({name!r}) never ended (pid {pid})")
    return errors


def validate_events(events: Iterable[dict]) -> List[str]:
    """Every field-level and structural error in a parsed event log."""
    events = list(events)
    errors = []
    for index, event in enumerate(events):
        errors.extend(validate_event(event, where=f"line {index + 1}"))
    errors.extend(check_spans(events))
    return errors


def summarize_events(events: Iterable[dict]) -> Dict[str, Any]:
    """A compact roll-up used by ``repro report --events``."""
    events = list(events)
    by_type: Dict[str, int] = {}
    span_seconds: Dict[str, float] = {}
    cache_hits = cache_misses = 0
    workers = set()
    for event in events:
        event_type = event.get("type", "?")
        by_type[event_type] = by_type.get(event_type, 0) + 1
        if event_type == "span_end":
            name = event.get("name", "?")
            span_seconds[name] = (span_seconds.get(name, 0.0)
                                  + float(event.get("seconds", 0.0)))
        elif event_type == "cache":
            if event.get("hit"):
                cache_hits += 1
            else:
                cache_misses += 1
        elif event_type == "worker_start":
            workers.add(event.get("pid"))
    return {
        "events": len(events),
        "by_type": dict(sorted(by_type.items())),
        "span_seconds": dict(sorted(span_seconds.items(),
                                    key=lambda kv: -kv[1])),
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "workers": len(workers),
    }


__all__ = ["REQUIRED_FIELDS", "OPTIONAL_FIELDS", "RECOVERY_LABELS",
           "CHECKPOINT_ACTIONS", "SUPERVISOR_ACTIONS",
           "CACHE_CORRUPT_ACTIONS", "ORPHAN_SPOOL_ACTIONS",
           "validate_event", "validate_events",
           "check_spans", "summarize_events"]
