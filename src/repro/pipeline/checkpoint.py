"""Checkpoint/restore of mid-flight :class:`PipelineCore` state.

The tandem classifier and the parallel campaign dispatcher need the same
primitive: the exact state of a golden core at a window boundary,
reproducible later in another object (faulty fork) or another process
(chunk worker). Two layers provide it:

- :meth:`PipelineCore.clone` — an in-process fork built from the
  purpose-built ``clone()`` protocol every core structure implements
  (the deepcopy replacement for the per-window faulty fork);
- :class:`CoreCheckpoint` — a pickled core plus the window coordinates
  it was captured at, cheap to ship across processes.

A restored checkpoint and the serial golden core are bit-for-bit
indistinguishable: golden-side stepping is deterministic and resumable
(snapshot targets only choose loop stopping points, they never alter the
core's evolution), so the classifier's never-rewind contract carries
over — the checkpoint records the commit coordinate it has already
reached (``resume_at_commit``) and the classifier asserts subsequent
records never rewind past it.
"""

from __future__ import annotations

import pickle
from typing import Optional

from .core import PipelineCore


class CoreCheckpoint:
    """A serialized, restorable snapshot of a golden core.

    ``blob`` is a pickle of the whole core (programs included, so a
    worker process needs nothing but the checkpoint to resume).
    ``window_index`` is the index of the first record the restored core
    should classify; ``resume_at_commit`` is the highest
    ``inject_at_commit`` the core has already been advanced through
    (0 when the checkpoint is the fresh factory core), which feeds the
    classifier's never-rewind contract check.
    """

    __slots__ = ("blob", "window_index", "resume_at_commit",
                 "cycle", "committed")

    def __init__(self, blob: bytes, window_index: int,
                 resume_at_commit: int, cycle: int, committed: int):
        self.blob = blob
        self.window_index = window_index
        self.resume_at_commit = resume_at_commit
        self.cycle = cycle
        self.committed = committed

    @classmethod
    def capture(cls, core: PipelineCore, window_index: int = 0,
                resume_at_commit: int = 0) -> "CoreCheckpoint":
        """Serialize *core* as of now. The core is not disturbed —
        pickling reads but never mutates it, so the dispatcher keeps
        advancing the same golden core after each capture.
        """
        blob = pickle.dumps(core, protocol=pickle.HIGHEST_PROTOCOL)
        return cls(blob, window_index, resume_at_commit,
                   core.cycle, core.stats.committed)

    def restore(self) -> PipelineCore:
        """A fresh, fully independent core in the captured state. Each
        call deserializes anew, so one checkpoint can seed any number of
        workers (or repeated runs) without aliasing."""
        return pickle.loads(self.blob)

    @property
    def nbytes(self) -> int:
        return len(self.blob)

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CoreCheckpoint window={self.window_index} "
                f"commit={self.resume_at_commit} cycle={self.cycle} "
                f"{self.nbytes}B>")


def capture_checkpoint(core: PipelineCore, window_index: int = 0,
                       resume_at_commit: int = 0) -> CoreCheckpoint:
    """Module-level convenience mirror of :meth:`CoreCheckpoint.capture`."""
    return CoreCheckpoint.capture(core, window_index, resume_at_commit)


def restore_checkpoint(checkpoint: CoreCheckpoint) -> PipelineCore:
    """Module-level convenience mirror of :meth:`CoreCheckpoint.restore`."""
    return checkpoint.restore()


__all__ = ["CoreCheckpoint", "capture_checkpoint", "restore_checkpoint"]
