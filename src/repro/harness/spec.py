"""Declarative campaign specs: ``.src.json`` compiled to ``.run.json``.

A campaign *source spec* is the human-authored side of the two-layer
pattern (cf. the ``.src.json`` / ``.run.json`` split in
``aws-crt-s3-benchmarks``): a small JSON document naming sweep axes
(benchmarks x schemes x fault counts x ...) plus per-task defaults.
:func:`compile_spec` is a **pure function** that expands the sweep into
an explicit, trivially-parseable *run spec* — a flat task list where
every task carries every knob, plus a content-addressed ``key`` that
identifies the computation exactly (two tasks with the same key are the
same campaign, so duplicates produced by overlapping axes are deduped
at compile time).

Source spec fields (all optional unless noted)::

    {
      "kind": "repro.campaign.src",       // required
      "version": 1,                       // required
      "name": "nightly",                  // defaults to the file stem
      "comment": "...",                   // free-form, carried through
      "defaults": {"faults": 24, ...},    // per-task knob overrides
      "sweep": {                          // axes: field -> value list
        "benchmark": ["mcf", "bzip2"],
        "scheme": ["faulthound", "pbfs"]
      },
      "tasks": [{"benchmark": "mcf", ...}] // explicit extra tasks
    }

The task list of the compiled run spec is the cross-product of the
sweep axes (each combination merged over ``defaults``) followed by the
explicit ``tasks`` (each merged over ``defaults``), deduplicated by
key. A spec with neither ``sweep`` nor ``tasks`` compiles to the single
task described by ``defaults``.

Every task knob maps 1:1 onto a ``repro campaign`` CLI flag
(:func:`task_argv`), so running a sweep is a plain loop over the run
spec: each task's argv goes to ``repro campaign`` — *the same
invocation* an operator would have typed, with the same exit code,
journal and stdout (docs/specs.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Any, Dict, Iterable, List, Optional

from ..errors import ReproError

SRC_KIND = "repro.campaign.src"
RUN_KIND = "repro.campaign.run"
SPEC_VERSION = 1

#: Per-task knobs, their defaults, and the ``repro campaign`` flags they
#: compile to. ``benchmark`` has no default: it must come from an axis,
#: the defaults block, or an explicit task.
TASK_DEFAULTS: Dict[str, Any] = {
    "benchmark": None,
    "scheme": "faulthound",
    "faults": 60,
    "seed": 3,
    "no_cache": False,
    "max_retries": 3,
    "chunk_windows": 8,
}

_TOP_LEVEL_FIELDS = ("kind", "version", "name", "comment", "defaults",
                     "sweep", "tasks")


class SpecError(ReproError):
    """A campaign spec failed to parse, validate or compile."""


def _canonical(document: Any) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def spec_digest(document: Any) -> str:
    """Stable content digest of a (JSON-safe) spec document."""
    return hashlib.sha256(_canonical(document).encode()).hexdigest()


def task_key(task: Dict[str, Any]) -> str:
    """Content-addressed identity of one compiled task.

    Only the knobs that reach the simulation (:data:`TASK_DEFAULTS`)
    participate, so two axis combinations that collapse onto the same
    invocation share a key and dedup at compile time.
    """
    payload = {name: task.get(name, default)
               for name, default in TASK_DEFAULTS.items()}
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _registries():
    # imported lazily: keeps `import repro.harness.spec` cheap and free
    # of the workload/scheme module graph until a spec is compiled
    from ..workloads import PROFILES
    from .experiment import SCHEMES
    return PROFILES, SCHEMES


def validate_task(task: Dict[str, Any], where: str = "task") -> List[str]:
    """Human-readable errors for one fully-merged task (empty = valid)."""
    profiles, schemes = _registries()
    errors: List[str] = []
    for field in task:
        if field not in TASK_DEFAULTS:
            errors.append(f"{where}: unknown task field {field!r}")
    benchmark = task.get("benchmark")
    if not isinstance(benchmark, str) or benchmark not in profiles:
        errors.append(f"{where}: benchmark {benchmark!r} not in "
                      f"{sorted(profiles)}")
    scheme = task.get("scheme")
    if not isinstance(scheme, str) or scheme not in schemes:
        errors.append(f"{where}: scheme {scheme!r} not in "
                      f"{sorted(schemes)}")
    for field, minimum in (("faults", 1), ("chunk_windows", 1),
                           ("max_retries", 0)):
        value = task.get(field, TASK_DEFAULTS[field])
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < minimum:
            errors.append(f"{where}: {field} must be an integer "
                          f">= {minimum} (got {value!r})")
    seed = task.get("seed", TASK_DEFAULTS["seed"])
    if not isinstance(seed, int) or isinstance(seed, bool):
        errors.append(f"{where}: seed must be an integer (got {seed!r})")
    if not isinstance(task.get("no_cache", False), bool):
        errors.append(f"{where}: no_cache must be a boolean")
    return errors


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def _expand_sweep(sweep: Dict[str, List[Any]],
                  defaults: Dict[str, Any]) -> Iterable[Dict[str, Any]]:
    """Cross-product of the sweep axes over the defaults, in the axis
    order of the source document (stable: JSON objects keep file
    order)."""
    axes = list(sweep.items())
    for field, values in axes:
        if field not in TASK_DEFAULTS:
            raise SpecError(f"sweep: unknown task field {field!r}")
        if not isinstance(values, list):
            raise SpecError(f"sweep axis {field!r} must be a list")
        if not values:
            raise SpecError(f"sweep axis {field!r} is empty — an empty "
                            f"axis would silently compile zero tasks")
    combos: List[Dict[str, Any]] = [dict(defaults)]
    for field, values in axes:
        combos = [dict(combo, **{field: value})
                  for combo in combos for value in values]
    return combos


def compile_spec(src: Dict[str, Any],
                 name: Optional[str] = None) -> Dict[str, Any]:
    """Compile a source spec document into its explicit run document.

    Pure: the output depends only on the input document (and the
    benchmark/scheme registries it is validated against), so compiling
    the same spec twice — or on another machine — yields byte-identical
    JSON under ``sort_keys``.
    """
    if not isinstance(src, dict):
        raise SpecError("spec must be a JSON object")
    if src.get("kind") != SRC_KIND:
        raise SpecError(f"spec kind must be {SRC_KIND!r} "
                        f"(got {src.get('kind')!r})")
    if src.get("version") != SPEC_VERSION:
        raise SpecError(f"unsupported spec version {src.get('version')!r} "
                        f"(this toolkit compiles version {SPEC_VERSION})")
    for field in src:
        if field not in _TOP_LEVEL_FIELDS:
            raise SpecError(f"unknown top-level field {field!r}")

    defaults = dict(TASK_DEFAULTS)
    overrides = src.get("defaults", {})
    if not isinstance(overrides, dict):
        raise SpecError("defaults must be an object")
    for field in overrides:
        if field not in TASK_DEFAULTS:
            raise SpecError(f"defaults: unknown task field {field!r}")
    defaults.update(overrides)

    merged: List[Dict[str, Any]] = []
    if "sweep" in src:
        sweep = src["sweep"]
        if not isinstance(sweep, dict):
            raise SpecError("sweep must be an object of axis lists")
        merged.extend(_expand_sweep(sweep, defaults))
    for index, task in enumerate(src.get("tasks", [])):
        if not isinstance(task, dict):
            raise SpecError(f"tasks[{index}] must be an object")
        merged.append(dict(defaults, **task))
    if not merged:
        merged.append(dict(defaults))

    errors: List[str] = []
    for index, task in enumerate(merged):
        errors.extend(validate_task(task, where=f"tasks[{index}]"))
    if errors:
        raise SpecError("invalid spec:\n  " + "\n  ".join(errors))

    tasks: List[Dict[str, Any]] = []
    seen: Dict[str, int] = {}
    for task in merged:
        key = task_key(task)
        if key in seen:
            continue
        seen[key] = len(tasks)
        compiled = {name_: task.get(name_, default)
                    for name_, default in TASK_DEFAULTS.items()}
        compiled["key"] = key
        tasks.append(compiled)

    run = {
        "kind": RUN_KIND,
        "version": SPEC_VERSION,
        "name": src.get("name") or name or "campaign",
        "comment": src.get("comment", ""),
        "source_digest": spec_digest(src),
        "deduped": len(merged) - len(tasks),
        "tasks": tasks,
    }
    return run


def validate_run(run: Dict[str, Any]) -> List[str]:
    """Errors for a run document (hand-authored or compiled)."""
    if not isinstance(run, dict):
        return ["run spec must be a JSON object"]
    errors: List[str] = []
    if run.get("kind") != RUN_KIND:
        errors.append(f"run kind must be {RUN_KIND!r} "
                      f"(got {run.get('kind')!r})")
    if run.get("version") != SPEC_VERSION:
        errors.append(f"unsupported run version {run.get('version')!r}")
    tasks = run.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        errors.append("run spec has no tasks")
        return errors
    for index, task in enumerate(tasks):
        if not isinstance(task, dict):
            errors.append(f"tasks[{index}] must be an object")
            continue
        errors.extend(validate_task(
            {k: v for k, v in task.items() if k != "key"},
            where=f"tasks[{index}]"))
        if task.get("key") != task_key(task):
            errors.append(f"tasks[{index}]: key {task.get('key')!r} does "
                          f"not match its content (expected "
                          f"{task_key(task)!r})")
    return errors


# ----------------------------------------------------------------------
# file plumbing
# ----------------------------------------------------------------------
def load_spec(path: str | os.PathLike) -> Dict[str, Any]:
    """Parse a ``.src.json`` or ``.run.json`` document from disk."""
    path = pathlib.Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SpecError(f"unreadable spec {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise SpecError(f"{path}: spec must be a JSON object")
    return document


def load_run(path: str | os.PathLike) -> Dict[str, Any]:
    """Load a run document, compiling a source spec on the fly.

    Accepts either layer: a ``.run.json`` is validated as-is, a
    ``.src.json`` is compiled first — so a sweep loop takes both.
    """
    path = pathlib.Path(path)
    document = load_spec(path)
    if document.get("kind") == SRC_KIND:
        return compile_spec(document, name=default_name(path))
    errors = validate_run(document)
    if errors:
        raise SpecError(f"invalid run spec {path}:\n  "
                        + "\n  ".join(errors))
    return document


def default_name(path: str | os.PathLike) -> str:
    """`nightly.src.json` -> `nightly` (strips either spec suffix)."""
    name = pathlib.Path(path).name
    for suffix in (".src.json", ".run.json", ".json"):
        if name.endswith(suffix):
            return name[:-len(suffix)] or "campaign"
    return name


def run_path_for(src_path: str | os.PathLike) -> pathlib.Path:
    """Conventional sibling output path: ``x.src.json`` -> ``x.run.json``."""
    src_path = pathlib.Path(src_path)
    name = src_path.name
    if name.endswith(".src.json"):
        return src_path.with_name(name[:-len(".src.json")] + ".run.json")
    return src_path.with_name(src_path.stem + ".run.json")


def compile_file(src_path: str | os.PathLike,
                 out_path: Optional[str | os.PathLike] = None
                 ) -> pathlib.Path:
    """Compile ``src_path`` and write the run document next to it."""
    src_path = pathlib.Path(src_path)
    run = compile_spec(load_spec(src_path), name=default_name(src_path))
    out = pathlib.Path(out_path) if out_path else run_path_for(src_path)
    out.write_text(json.dumps(run, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    return out


# ----------------------------------------------------------------------
# CLI parity
# ----------------------------------------------------------------------
def task_argv(task: Dict[str, Any],
              run_dir: Optional[str | os.PathLike] = None) -> List[str]:
    """The exact ``repro`` argv a compiled task stands for.

    Every knob is spelled out explicitly (the run layer never relies on
    CLI defaults), so a sweep loop's subprocess and a hand-typed
    one-shot ``repro campaign`` are the same invocation — same stdout,
    same journal, same exit code. *run_dir* adds the crash-safe
    journal (``repro resume`` finishes a task killed mid-run).
    """
    argv = ["campaign", str(task["benchmark"]),
            "--scheme", str(task["scheme"]),
            "--faults", str(task["faults"]),
            "--seed", str(task["seed"]),
            "--max-retries", str(task.get("max_retries", 3)),
            "--chunk-windows", str(task.get("chunk_windows", 8))]
    if task.get("no_cache"):
        argv.append("--no-cache")
    if run_dir is not None:
        argv += ["--run-dir", str(run_dir)]
    return argv


__all__ = [
    "RUN_KIND",
    "SPEC_VERSION",
    "SRC_KIND",
    "SpecError",
    "TASK_DEFAULTS",
    "compile_file",
    "compile_spec",
    "default_name",
    "load_run",
    "load_spec",
    "run_path_for",
    "spec_digest",
    "task_argv",
    "task_key",
    "validate_run",
    "validate_task",
]
