"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files: around the calls it
makes into each layer, and by timing wrappers it installs on a fixed list
of public functions of the layers for the length of one traced unit
(:func:`layers.install`). Nothing under ``src/`` is edited.

A span's *self time* is its duration minus the time of the spans nested
in it, so the self times of all layers plus the unattributed rest add up
to the traced wall time. Spans are kept in memory and written out once,
when the traced run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Nested spans with per-name self/inclusive totals and counters."""

    def __init__(self):
        #: finished spans: (name, start, end, parent span id or -1)
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        # open frames: [name, start, child seconds, span id or -1]
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []

    # -- spans ----------------------------------------------------------
    def enter(self, name: str, record: bool = True) -> None:
        span_id = -1
        if record:
            span_id = len(self.spans)
            self.spans.append(None)
        self._stack.append([name, perf_counter(), 0.0, span_id])

    def exit(self) -> None:
        name, start, child, span_id = self._stack.pop()
        end = perf_counter()
        duration = end - start
        self.incl_s[name] += duration
        self.self_s[name] += duration - child
        self.calls[name] += 1
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        if span_id >= 0:
            self.spans[span_id] = (name, start, end, parent)

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    @property
    def current(self) -> Optional[str]:
        return self._stack[-1][0] if self._stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def self_of(self, prefix: str) -> float:
        return sum(s for n, s in self.self_s.items() if n.startswith(prefix))

    # -- wrappers ---------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name, record: bool = True,
             after: Optional[Callable[[Any, tuple], None]] = None) -> None:
        """Time every call of ``owner.attr`` as a span.

        *name* is a span name, or a callable of the call's arguments
        returning one (None: run the call untimed). *after* sees each
        call's result and arguments (for counters). Undone by
        :meth:`restore`.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        def timed(*args, **kwargs):
            span = name(args) if callable(name) else name
            if span is None:
                return func(*args, **kwargs)
            tracer.enter(span, record)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(result, args)
            return result

        timed.__wrapped__ = func
        setattr(owner, attr, classmethod(timed) if is_classmethod else timed)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output -----------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every recorded span as one JSON document."""
        origin = min((s[1] for s in self.spans if s), default=0.0)
        spans = [{"id": i, "name": s[0], "start_s": s[1] - origin,
                  "end_s": s[2] - origin, "parent": s[3]}
                 for i, s in enumerate(self.spans) if s is not None]
        document = {"spans": spans,
                    "self_s": dict(self.self_s),
                    "incl_s": dict(self.incl_s),
                    "calls": dict(self.calls),
                    "counters": dict(self.counters)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
