"""In-memory span recorder that wraps public calls from the outside.

The benchmark never edits the program to trace it: :meth:`Tracer.wrap`
swaps a class or module attribute for a timing wrapper and
:meth:`Tracer.restore` puts the original back.  Spans stay in memory
while the workload runs and are written once, at the end, as Chrome
trace-event JSON (open it in ``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class Span:
    """One timed interval; ``parent`` is the enclosing span's id."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    tid: int
    args: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, *,
               parent: Optional[int] = None, args: Optional[dict] = None,
               ) -> int:
        """Add a finished span; ``list.append`` is atomic under the GIL."""
        span_id = next(self._ids)
        self.spans.append(Span(span_id, name, start, end, parent,
                               threading.get_ident(), args or {}))
        return span_id

    def call(self, name: str, fn: Callable, *a,
             annotate: Optional[Callable[..., dict]] = None, **kw):
        """Run ``fn`` inside a span named ``name``.

        The finished span is also kept as this thread's last span of
        that name (see :meth:`last`).
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*a, **kw)
        finally:
            end = time.perf_counter()
            stack.pop()
        args = annotate(a, result) if annotate is not None else {}
        span = Span(span_id, name, start, end, parent,
                    threading.get_ident(), args)
        self.spans.append(span)
        last = getattr(self._local, "last", None)
        if last is None:
            last = self._local.last = {}
        last[name] = span
        return result

    def last(self, name: str) -> Optional[Span]:
        """The calling thread's most recent finished span ``name``."""
        return getattr(self._local, "last", {}).get(name)

    # -- patching -------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, *,
             annotate: Optional[Callable[..., dict]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)

        def traced(*a, **kw):
            return self.call(name, original, *a, annotate=annotate, **kw)

        traced.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries --------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        own = {s.id: s.dur for s in self.spans}
        for s in self.spans:
            if s.parent in own:
                own[s.parent] -= s.dur
        return own

    def ancestor(self, span: Span, name: str,
                 by_id: dict[int, Span]) -> Optional[Span]:
        """Closest enclosing span called ``name`` (``by_id`` maps every
        span id to its span)."""
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return parent
            parent = by_id.get(parent.parent)
        return None

    # -- export ---------------------------------------------------------------

    def write_chrome(self, path: str, metadata: dict) -> None:
        """Write every span as a Chrome trace-event ``X`` event."""
        origin = min((s.start for s in self.spans), default=0.0)
        pid = os.getpid()
        events = [{
            "name": s.name, "ph": "X", "pid": pid, "tid": s.tid,
            "ts": (s.start - origin) * 1e6, "dur": s.dur * 1e6,
            "args": dict(s.args, id=s.id, parent=s.parent),
        } for s in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{pid}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "otherData": metadata}, fh)
        os.replace(tmp, path)
