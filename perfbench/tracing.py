"""In-memory spans recorded around calls into the engine's layers.

Spans are opened by the benchmark's own code, never inside the engine.  Each
span has a name, start, end and parent; all spans of one pass share a trace
id.  Nothing is written until the benchmark ends.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    trace_id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when enabled; otherwise every call is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        trace_id = parent.trace_id if parent else next(self._trace_ids)
        s = Span(next(self._ids), trace_id, name, parent and parent.span_id, time.perf_counter(), attrs=attrs)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(s)

    def add_child(self, name: str, seconds: float, **attrs) -> None:
        """A child of the open span known only by its duration (e.g. a
        per-phase total the engine returns in its stats)."""
        if not self.enabled or not self._stack:
            return
        parent = self._stack[-1]
        now = time.perf_counter()
        self.spans.append(
            Span(next(self._ids), parent.trace_id, name, parent.span_id, now - seconds, now, attrs)
        )

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its children cover."""
        child_s: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] = child_s.get(s.parent, 0.0) + s.seconds
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.seconds - child_s.get(s.span_id, 0.0)
        return out

    def export(self) -> list[dict]:
        return [
            {"id": s.span_id, "trace": s.trace_id, "name": s.name, "parent": s.parent,
             "start": s.start, "end": s.end, **({"attrs": s.attrs} if s.attrs else {})}
            for s in sorted(self.spans, key=lambda s: s.start)
        ]


@contextlib.contextmanager
def count_executions():
    """Counts Ray Data streaming executions started inside the block."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    counter = {"n": 0}
    original = StreamingExecutor.execute

    def execute(self, *args, **kwargs):
        counter["n"] += 1
        return original(self, *args, **kwargs)

    StreamingExecutor.execute = execute
    try:
        yield counter
    finally:
        StreamingExecutor.execute = original
