"""Persistent, content-addressed artifact cache for experiment results.

Campaigns and fault-free timing runs dominate figure-regeneration
wall-clock, yet they are pure functions of the experiment configuration
(design decision #10: every stochastic choice flows from an explicit
seed). The cache therefore keys each artefact by a SHA-256 digest of

- the artefact kind (``fault_free`` / ``characterize`` / ``coverage`` /
  ``srt``),
- every semantic coordinate (benchmark, scheme, coverage, ...),
- the full :class:`~repro.harness.experiment.ExperimentConfig` and
  :class:`~repro.config.HardwareConfig`, and
- a *code-version salt* derived from the source bytes of the ``repro``
  package, so any simulator change invalidates the whole cache
  automatically (no stale-results footgun).

Artefacts are pickled dataclasses stored under
``benchmarks/.cache/<kind>/<digest>.pkl`` (override the root with
``REPRO_CACHE_DIR``). Writes are atomic *and durable*: the tmp file is
fsync'd before ``os.replace``, and the parent directory is fsync'd when
the entry is first created, so a machine crash right after ``put``
returns can never leave a zero-length or half-written entry behind.
Concurrent workers racing on the same key are safe; unreadable or
corrupt entries degrade to misses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import pickle
import tempfile
from typing import Any, Dict, Optional

from ..obs.events import NULL_LOG
from ..obs.metrics import BYTES_BUCKETS, NULL_METRICS

_SALT: Optional[str] = None


def code_version_salt() -> str:
    """Digest of the ``repro`` package's source bytes (cached per process).

    ``REPRO_CACHE_SALT`` overrides the computed value — useful in tests
    and for forcing a cold cache without deleting anything.
    """
    global _SALT
    if _SALT is None:
        override = os.environ.get("REPRO_CACHE_SALT")
        if override:
            _SALT = override
        else:
            package_root = pathlib.Path(__file__).resolve().parents[1]
            digest = hashlib.sha256()
            for path in sorted(package_root.rglob("*.py")):
                digest.update(str(path.relative_to(package_root)).encode())
                digest.update(path.read_bytes())
            _SALT = digest.hexdigest()[:16]
    return _SALT


def _canonical(value: Any) -> Any:
    """Reduce *value* to JSON-stable primitives for key derivation."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        return repr(value)          # full precision, no str() truncation
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    if hasattr(value, "value"):     # enums
        return value.value
    return repr(value)


def default_cache_root() -> pathlib.Path:
    """``REPRO_CACHE_DIR``, else ``<repo>/benchmarks/.cache`` when the
    repository layout is recognisable, else ``./benchmarks/.cache``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override)
    repo = pathlib.Path(__file__).resolve().parents[3]
    if (repo / "benchmarks").is_dir():
        return repo / "benchmarks" / ".cache"
    return pathlib.Path("benchmarks") / ".cache"


class ArtifactCache:
    """A directory of pickled experiment artefacts, addressed by content key.

    The cache never raises out of ``get``/``put``: any filesystem or
    deserialisation problem silently degrades to a miss (the artefact is
    recomputed), keeping the cache a pure accelerator.
    """

    def __init__(self, root: str | os.PathLike | None = None, events=None):
        self.root = pathlib.Path(root) if root else default_cache_root()
        self.events = events if events is not None else NULL_LOG

    @classmethod
    def default(cls, events=None) -> "ArtifactCache":
        return cls(default_cache_root(), events=events)

    # -- keys ----------------------------------------------------------
    @staticmethod
    def key(kind: str, **parts: Any) -> str:
        """Content key for one artefact: kind + coordinates + code salt."""
        document = {
            "kind": kind,
            "salt": code_version_salt(),
            "parts": _canonical(parts),
        }
        blob = json.dumps(document, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:32]

    def _path(self, kind: str, key: str) -> pathlib.Path:
        return self.root / kind / f"{key}.pkl"

    def artifact_path(self, kind: str, key: str) -> pathlib.Path:
        """Where the artefact for (kind, key) lives (or would live) —
        the anchor next to which run manifests are written."""
        return self._path(kind, key)

    def contains(self, kind: str, key: str) -> bool:
        """Whether an entry exists for (kind, key) — no hit/miss counts."""
        return self._path(kind, key).exists()

    # -- access --------------------------------------------------------
    def get(self, kind: str, key: str,
            metrics=NULL_METRICS) -> Optional[Any]:
        """The cached artefact, or ``None`` on a miss. Hits and misses
        are counted by the caller; corrupt entries and loaded bytes
        count into the caller's *metrics* — a cache shared by several
        contexts has no registry of its own."""
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                artefact = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, ValueError) as exc:
            if path.exists():
                # corrupt entry: drop it so the rewrite starts clean
                metrics.counter("cache_corrupt_total").inc()
                self.events.emit("cache_corrupt", kind=kind, key=key,
                                 path=str(path), action="dropped",
                                 error=f"{type(exc).__name__}: {exc}")
                try:
                    path.unlink()
                except OSError:
                    pass
            return None
        if metrics.enabled:
            try:
                metrics.histogram(
                    "cache_artifact_bytes",
                    BYTES_BUCKETS).observe(path.stat().st_size)
            except OSError:
                pass
        return artefact

    def put(self, kind: str, key: str, artefact: Any,
            metrics=NULL_METRICS) -> bool:
        """Persist *artefact* atomically and durably; False on failure.
        A put and its bytes count into the caller's *metrics*.

        The tmp file is flushed and fsync'd before ``os.replace`` so
        the rename never publishes an entry whose bytes are still in
        the page cache; on first create the parent directory is fsync'd
        too so the *name* survives a crash (the supervisor journals a
        chunk as done only after its result entry is put here).
        """
        path = self._path(kind, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key}.", suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(artefact, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                    handle.flush()
                    os.fsync(handle.fileno())
                existed = path.exists()
                os.replace(tmp_name, path)
                if not existed:
                    # directory fsync durably records the new name; not
                    # every filesystem supports opening a directory, so
                    # degrade silently (the data fsync above still held)
                    try:
                        dir_fd = os.open(path.parent, os.O_RDONLY)
                    except OSError:
                        pass
                    else:
                        try:
                            os.fsync(dir_fd)
                        except OSError:
                            pass
                        finally:
                            os.close(dir_fd)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError, TypeError):
            return False
        if metrics.enabled:
            metrics.counter("cache_puts_total").inc()
            try:
                metrics.histogram(
                    "cache_artifact_bytes",
                    BYTES_BUCKETS).observe(path.stat().st_size)
            except OSError:
                pass
        return True

    # -- maintenance ---------------------------------------------------
    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.rglob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def entry_count(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob("*.pkl"))

    def verify(self, quarantine: bool = True) -> Dict[str, Any]:
        """Integrity sweep: unpickle every entry, report the casualties.

        Unreadable entries are moved into ``<root>/quarantine/`` (with
        their manifests, renamed ``*.pkl.corrupt`` so they never count
        as cache entries again) for post-mortem inspection, or deleted
        outright with ``quarantine=False``. Each one also raises a
        ``cache_corrupt`` event. Returns ``{"checked", "ok", "corrupt",
        "quarantined", "entries": [...]}`` — ``entries`` lists the
        corrupt ones.
        """
        report: Dict[str, Any] = {"checked": 0, "ok": 0, "corrupt": 0,
                                  "quarantined": 0, "entries": []}
        if not self.root.exists():
            return report
        quarantine_root = self.root / "quarantine"
        for path in sorted(self.root.rglob("*.pkl")):
            if quarantine_root in path.parents:
                continue
            report["checked"] += 1
            try:
                with open(path, "rb") as handle:
                    pickle.load(handle)
                report["ok"] += 1
                continue
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            report["corrupt"] += 1
            kind = path.parent.name
            action = "dropped"
            manifest = path.with_name(
                path.name.replace(".pkl", ".manifest.json"))
            if quarantine:
                try:
                    target_dir = quarantine_root / kind
                    target_dir.mkdir(parents=True, exist_ok=True)
                    os.replace(path, target_dir / (path.name + ".corrupt"))
                    if manifest.exists():
                        os.replace(manifest, target_dir / manifest.name)
                    action = "quarantined"
                    report["quarantined"] += 1
                except OSError:
                    pass
            else:
                for stale in (path, manifest):
                    try:
                        stale.unlink()
                    except OSError:
                        pass
            self.events.emit("cache_corrupt", kind=kind, key=path.stem,
                             path=str(path), action=action, error=error)
            report["entries"].append({"kind": kind, "key": path.stem,
                                      "path": str(path), "error": error,
                                      "action": action})
        return report


__all__ = ["ArtifactCache", "code_version_salt", "default_cache_root"]
